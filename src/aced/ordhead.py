"""Ordinal classification head: paired-channel classifiers, the ordinal
loss, the differentiable expected-label decode, and the per-pixel
confidence score. All operations register backward rules on the tape, so
the decoded depth and the confidence participate in end-to-end training.
Classifier k owns logits (2k, 2k+1), 2k+1 being "depth exceeds threshold k",
and is seen only through its margin d_k = z_{2k+1} - z_{2k}.
"""

from __future__ import annotations

import numpy as np

from .gradcore import DomainError, ShapeMismatchError, Tape, Tensor, _accum, _block_sum

__all__ = [
    "pair_softmax",
    "ordinal_loss",
    "expected_label",
    "confidence",
]


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _pair_margins(op: str, logits: Tensor) -> np.ndarray:
    """d_k = z_{2k+1} - z_{2k}, one channel per classifier."""
    c = logits.shape[1]
    if c % 2 != 0:
        raise ShapeMismatchError(f"{op}: channel count {c} is odd")
    return logits.data[:, 1::2] - logits.data[:, 0::2]


def _accum_pair_margins(logits: Tensor, g: np.ndarray) -> None:
    """Back through the margins: dL/dd_k to channel 2k+1, its negative to 2k."""
    dz = np.empty_like(logits.data)
    dz[:, 1::2] = g
    dz[:, 0::2] = -g
    _accum(logits, dz)


def pair_softmax(tape: Tape | None, logits: Tensor) -> Tensor:
    """Per-classifier 2-way softmax over channel pairs (2k, 2k+1):
    P^k = exp(z_{2k+1}) / (exp(z_{2k}) + exp(z_{2k+1})), evaluated in the
    stable form sigmoid(d_k)."""
    probs = _stable_sigmoid(_pair_margins("pair_softmax", logits))
    out = Tensor(probs)
    if tape is not None and logits.needs_grad:
        def bwd(g):
            _accum_pair_margins(logits, g * probs * (1.0 - probs))
        tape.record("pair_softmax", (logits,), out, bwd)
    return out


def ordinal_loss(tape: Tape | None, logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over pixels of -sum_{k<l} log P^k - sum_{k>=l} log(1 - P^k), with
    l the count of 1-bits in the target rank vector t. On the margins, as in
    DORN (Fu et al., CVPR 2018), the term of classifier k is
    softplus(d_k) - t_k*d_k: exact for every finite logit, with a gradient
    sigmoid(d_k) - t_k that a saturated, wrong classifier does not lose.

    The target may be at an integer multiple f of the logits' resolution:
    each logit pixel then stands for the f x f target pixels that nearest
    upsampling would copy it to. With T_k the count of 1-bits of those
    children, their summed term is f^2*softplus(d_k) - T_k*d_k, with gradient
    f^2*sigmoid(d_k) - T_k, and the mean runs over the target's pixels. This
    is the loss of the upsampled logits at 1/f^2 of the work; at f = 1 it is
    the same arithmetic.
    """
    d = _pair_margins("ordinal_loss", logits)
    b, c, h, w = d.shape
    f = target.shape[-1] // w if target.ndim == 4 else 0
    if f < 1 or target.shape != (b, c, f * h, f * w):
        raise ShapeMismatchError(f"ordinal_loss: target shape {target.shape} does "
                                 f"not pair with logits shape {logits.shape}")
    if np.any(target[:, 1:] > target[:, :-1]):
        raise DomainError("ordinal_loss: target rank vectors must be non-increasing")
    counts = _block_sum(target, f)
    f2 = float(f * f)
    # softplus(d) = max(d, 0) + log1p(exp(-|d|)); f2*max(d, 0) - T*d cancels
    # exactly when all children agree with the sign of d (T = f2 for d > 0,
    # T = 0 for d < 0), so a correct, saturated classifier costs ~exp(-|d|).
    per_entry = f2 * np.maximum(d, 0.0) - counts * d + f2 * np.log1p(np.exp(-np.abs(d)))
    count = float(b * f * h * f * w)  # target pixels
    out = Tensor(np.full((1, 1, 1, 1), per_entry.sum() / count))
    if tape is not None and logits.needs_grad:
        def bwd(g):
            gs = float(g.reshape(())) / count
            _accum_pair_margins(logits, gs * (f2 * _stable_sigmoid(d) - counts))
        tape.record("ordinal_loss", (logits,), out, bwd)
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
    # bin holding p; fmax/fmin put a NaN p in bin 0, so C comes out NaN
    m = np.fmin(np.fmax(np.floor(p.data), 0), c - 1).astype(np.int64)
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
