"""Differentiable ordinal-regression depth estimation at desk scale.

Depth is discretized into geometric bins, predicted by a bank of paired
binary classifiers, decoded differentiably via the expected label, scored
with a per-pixel confidence, and refined by a residual stage — trained end
to end on a built-in float64 reverse-mode autodiff core.
"""
