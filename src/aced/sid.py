"""Spacing-increasing discretization of a metric depth range.

The range [alpha, beta] is split into K bins uniform in log space, so far
bins are wider than near ones. Depths map to integer labels, labels map
back to depths (continuously, so the mapping can sit on the tape), and
labels expand to cumulative binary rank vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gradcore import DomainError, Tape, Tensor, _accum

__all__ = [
    "DepthRange",
    "SidThresholds",
    "make_thresholds",
    "depth_to_label",
    "label_to_depth",
    "label_to_depth_op",
    "encode_rank",
    "hard_decode",
]


@dataclass(frozen=True)
class DepthRange:
    """Valid metric depth interval [alpha, beta] in meters."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < self.beta):
            raise ValueError(f"need 0 < alpha < beta, got [{self.alpha}, {self.beta}]")


@dataclass(frozen=True)
class SidThresholds:
    """K+1 geometric thresholds t_0..t_K with t_0=alpha and t_K=beta."""

    range: DepthRange
    k_levels: int
    thresholds: np.ndarray = field(repr=False)

    @property
    def log_ratio(self) -> float:
        """log(beta/alpha) / K, the constant log-spacing between thresholds."""
        return math.log(self.range.beta / self.range.alpha) / self.k_levels


def make_thresholds(range_: DepthRange, k_levels: int) -> SidThresholds:
    """Thresholds t_i = exp(log(alpha) + i*log(beta/alpha)/K), i in [0, K].

    Evaluated as alpha * exp(i * spacing) -- the exact expression
    label_to_depth uses -- so decoding an integer label reproduces the
    matching threshold bit for bit.
    """
    if k_levels < 2:
        raise ValueError(f"need at least 2 levels, got {k_levels}")
    i = np.arange(k_levels + 1, dtype=np.float64)
    t = range_.alpha * np.exp(i * (math.log(range_.beta / range_.alpha) / k_levels))
    return SidThresholds(range=range_, k_levels=k_levels, thresholds=t)


def depth_to_label(depth, th: SidThresholds):
    """Smallest l with depth <= t_{l+1}; clamps below alpha to 0, above beta to K-1."""
    arr = np.asarray(depth, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise DomainError("depth_to_label: depths must be positive")
    idx = np.searchsorted(th.thresholds, arr, side="left") - 1
    labels = np.clip(idx, 0, th.k_levels - 1).astype(np.int64)
    return labels if arr.ndim else int(labels)


def label_to_depth(p, th: SidThresholds):
    """Continuous inverse of the discretization: alpha * exp(p * log(beta/alpha)/K).

    p is clamped into [0, K]; p=0 gives alpha and p=K gives beta.
    """
    pc = np.clip(np.asarray(p, dtype=np.float64), 0.0, float(th.k_levels))
    out = th.range.alpha * np.exp(pc * th.log_ratio)
    return out if out.ndim else float(out)


def label_to_depth_op(tape: Tape | None, p: Tensor, th: SidThresholds) -> Tensor:
    """Tape version of label_to_depth; d(depth)/dp = depth * log(beta/alpha)/K."""
    k = float(th.k_levels)
    lam = th.log_ratio
    pc = np.clip(p.data, 0.0, k)
    out_data = th.range.alpha * np.exp(pc * lam)
    out = Tensor(out_data)
    if tape is not None and p.needs_grad:
        inside = (p.data >= 0.0) & (p.data <= k)  # clamp kills gradient outside
        def bwd(g):
            _accum(p, g * out_data * lam * inside)
        tape.record("label_to_depth", (p,), out, bwd)
    return out


def encode_rank(labels, k_levels: int) -> np.ndarray:
    """Per-pixel cumulative rank bits: bit k is 1 iff label > k (length K-1)."""
    lab = np.asarray(labels)
    if lab.ndim != 4 or lab.shape[1] != 1:
        raise ValueError(f"labels must be (B,1,H,W), got {lab.shape}")
    if lab.min() < 0 or lab.max() > k_levels - 1:
        raise ValueError(
            f"label out of range [0, {k_levels - 1}]: min={lab.min()}, max={lab.max()}"
        )
    ks = np.arange(k_levels - 1).reshape(1, k_levels - 1, 1, 1)
    return (ks < lab).astype(np.float64)


def hard_decode(probs, th: SidThresholds) -> np.ndarray:
    """Threshold-and-count decode: binarize at 0.5, count the 1s, output the
    bin midpoint (t_c + t_{c+1})/2. Not differentiable; baseline/oracle only.
    """
    arr = probs.data if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise DomainError("hard_decode: probabilities must lie in [0, 1]")
    c = (arr > 0.5).sum(axis=1, keepdims=True)
    t = th.thresholds
    return (t[c] + t[c + 1]) / 2.0
