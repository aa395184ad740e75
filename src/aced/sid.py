"""Spacing-increasing discretization of the metric depth range.

The range [alpha, beta] = DEPTH_RANGE is split into K bins uniform in log
space, so far bins are wider than near ones; K is the only free parameter,
and a model's head fixes it (2(K-1) logit channels). Depths map to integer
labels, labels map back to depths (continuously, so the mapping can sit on
the tape), and labels expand to cumulative binary rank vectors.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .gradcore import DomainError, Tape, Tensor, _accum

__all__ = [
    "DepthRange",
    "DEPTH_RANGE",
    "log_ratio",
    "make_thresholds",
    "depth_to_label",
    "label_to_depth",
    "label_to_depth_op",
    "encode_rank",
    "hard_decode",
]


class DepthRange(NamedTuple):
    """Metric depth interval [alpha, beta] in meters."""

    alpha: float
    beta: float


# The range the bins span and the scenes are drawn from; a checkpoint means it.
DEPTH_RANGE = DepthRange(0.5, 8.0)


def log_ratio(k: int) -> float:
    """log(beta/alpha) / K, the constant log-spacing between thresholds."""
    return math.log(DEPTH_RANGE.beta / DEPTH_RANGE.alpha) / k


def make_thresholds(k: int) -> np.ndarray:
    """The K+1 thresholds t_i = alpha * exp(i * log(beta/alpha)/K), i in [0, K],
    so t_0 = alpha and t_K = beta. They are the decode of the integer labels,
    so label_to_depth(i, K) is t_i bit for bit."""
    if k < 2:
        raise ValueError(f"need at least 2 levels, got {k}")
    return label_to_depth(np.arange(k + 1), k)


def depth_to_label(depth, k: int):
    """Smallest l with depth <= t_{l+1}; clamps below alpha to 0, above beta to K-1."""
    arr = np.asarray(depth, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise DomainError("depth_to_label: depths must be positive")
    idx = np.searchsorted(make_thresholds(k), arr, side="left") - 1
    labels = np.clip(idx, 0, k - 1).astype(np.int64)
    return labels if arr.ndim else int(labels)


def label_to_depth(p, k: int):
    """Continuous inverse of the discretization: alpha * exp(p * log(beta/alpha)/K).

    p=0 gives alpha and p=K gives beta; p outside [0, K] extrapolates along
    the same exponential, so the depth stays positive and the gradient
    nonzero. The expected label of the ordinal head lies in [0, K-1].
    """
    out = DEPTH_RANGE.alpha * np.exp(np.asarray(p, dtype=np.float64) * log_ratio(k))
    return out if out.ndim else float(out)


def label_to_depth_op(tape: Tape | None, p: Tensor, k: int) -> Tensor:
    """Tape version of label_to_depth; d(depth)/dp = depth * log(beta/alpha)/K."""
    out_data = label_to_depth(p.data, k)
    out = Tensor(out_data)
    if tape is not None and p.needs_grad:
        def bwd(g):
            _accum(p, g * out_data * log_ratio(k))
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


def hard_decode(probs) -> np.ndarray:
    """Threshold-and-count decode of (B, K-1, H, W) probabilities: binarize
    at 0.5, count the 1s, output the bin midpoint (t_c + t_{c+1})/2. Not
    differentiable; baseline/oracle only.
    """
    arr = probs.data if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise DomainError("hard_decode: probabilities must lie in [0, 1]")
    c = (arr > 0.5).sum(axis=1, keepdims=True)
    t = make_thresholds(arr.shape[1] + 1)
    return (t[c] + t[c + 1]) / 2.0
