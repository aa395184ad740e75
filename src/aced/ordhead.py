"""Ordinal classification head: paired-channel classifiers, the ordinal
loss, the differentiable expected-label decode, and the per-pixel
confidence score. All operations register backward rules on the tape, so
the decoded depth and the confidence participate in end-to-end training.
"""

from __future__ import annotations

import numpy as np

from .gradcore import DomainError, ShapeMismatchError, Tape, Tensor, _accum

__all__ = [
    "PROB_CLAMP_EPS",
    "pair_softmax",
    "ordinal_loss",
    "expected_label",
    "confidence",
]

# Probabilities are clamped into [eps, 1-eps] before logarithms; the clamp
# gradient is identity strictly inside the interval and zero outside.
PROB_CLAMP_EPS = 1e-7


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def pair_softmax(tape: Tape | None, logits: Tensor) -> Tensor:
    """Per-classifier 2-way softmax over channel pairs (2k, 2k+1).

    Channel 2k+1 is the "depth exceeds threshold k" class, so the output
    channel k is P^k = exp(z_{2k+1}) / (exp(z_{2k}) + exp(z_{2k+1})),
    evaluated as sigmoid(z_{2k+1} - z_{2k}) which is the same quantity in
    max-subtracted (stable) form.
    """
    b, c, h, w = logits.shape
    if c % 2 != 0:
        raise ShapeMismatchError(f"pair_softmax: channel count {c} is odd")
    d = logits.data[:, 1::2] - logits.data[:, 0::2]
    probs = _stable_sigmoid(d)
    out = Tensor(probs)
    if tape is not None and logits.needs_grad:
        def bwd(g):
            t = g * probs * (1.0 - probs)
            dz = np.empty_like(logits.data)
            dz[:, 1::2] = t
            dz[:, 0::2] = -t
            _accum(logits, dz)
        tape.record("pair_softmax", (logits,), out, bwd)
    return out


def ordinal_loss(tape: Tape | None, probs: Tensor, target: np.ndarray) -> Tensor:
    """Mean over pixels of the per-pixel ordinal classification loss
    -sum_{k<l} log P^k - sum_{k>=l} log(1 - P^k), with l the count of 1-bits
    in the target rank vector.
    """
    if target.shape != probs.shape:
        raise ShapeMismatchError(
            f"ordinal_loss: target shape {target.shape} != probs shape {probs.shape}"
        )
    if np.any(np.diff(target, axis=1) > 0):
        raise DomainError("ordinal_loss: target rank vectors must be non-increasing")
    eps = PROB_CLAMP_EPS
    pc = np.clip(probs.data, eps, 1.0 - eps)
    per_pixel = -(target * np.log(pc) + (1.0 - target) * np.log1p(-pc)).sum(
        axis=1, keepdims=True
    )
    count = float(per_pixel.size)
    out = Tensor(np.full((1, 1, 1, 1), per_pixel.sum() / count))
    if tape is not None and probs.needs_grad:
        unclamped = (probs.data > eps) & (probs.data < 1.0 - eps)
        def bwd(g):
            gs = float(g.reshape(())) / count
            dp = (-target / pc + (1.0 - target) / (1.0 - pc)) * unclamped
            _accum(probs, gs * dp)
        tape.record("ordinal_loss", (probs,), out, bwd)
    return out


def expected_label(tape: Tape | None, probs: Tensor) -> Tensor:
    """Differentiable decode p = sum_k P^k, the area under the rank curve."""
    out = Tensor(probs.data.sum(axis=1, keepdims=True))
    if tape is not None and probs.needs_grad:
        def bwd(g):
            _accum(probs, np.broadcast_to(g, probs.shape))
        tape.record("expected_label", (probs,), out, bwd)
    return out


def confidence(tape: Tape | None, probs: Tensor, p: Tensor) -> Tensor:
    """How close the rank curve is to an ideal step at the expected label p.

    With f the piecewise-constant curve f(x) = P^floor(x) on [0, K-1):

        C = ( integral_0^p f  +  integral_p^{K-1} (1 - f) ) / (K - 1)

    Both integrals are evaluated exactly on the unit bins with a fractional
    split at p, so C is 1 exactly on binary step vectors and differentiable
    through the curve and through p.
    """
    b, c, h, w = probs.shape
    if p.shape != (b, 1, h, w):
        raise ShapeMismatchError(f"confidence: p shape {p.shape} != ({b},1,{h},{w})")
    km1 = float(c)
    m = np.clip(np.floor(p.data), 0, c - 1).astype(np.int64)  # bin holding p
    r = p.data - m
    pm = np.take_along_axis(probs.data, m, axis=1)
    prefix = np.cumsum(probs.data, axis=1)
    total = prefix[:, -1:, :, :]
    below = np.take_along_axis(np.concatenate(
        [np.zeros((b, 1, h, w)), prefix], axis=1), m, axis=1)  # sum_{k<m} P^k
    # integral_0^p f = below + r*pm ; integral_p^{K-1} (1-f) expands to
    # (K-1-m) - (total-below) - r + r*pm.
    c_data = (2.0 * below + 2.0 * r * pm + (km1 - m) - total - r) / km1
    out = Tensor(c_data)
    if tape is not None and (probs.needs_grad or p.needs_grad):
        ks = np.arange(c).reshape(1, c, 1, 1)
        def bwd(g):
            gn = g / km1
            if probs.needs_grad:
                coef = np.where(ks < m, 1.0, np.where(ks == m, 2.0 * r - 1.0, -1.0))
                _accum(probs, gn * coef)
            if p.needs_grad:
                _accum(p, gn * (2.0 * pm - 1.0))
        tape.record("confidence", (probs, p), out, bwd)
    return out
