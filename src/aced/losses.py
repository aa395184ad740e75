"""Pixel-wise regression losses for the refinement stage and total-loss
assembly. Both regression terms are log-of-absolute-difference with a +0.5
offset, so they are bounded below by ln(0.5) and defined at zero error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradcore import (
    DomainError,
    ShapeMismatchError,
    Tape,
    Tensor,
    _accum,
    add,
    scale,
)
from .ordhead import ordinal_loss

__all__ = ["LossWeights", "loss_log", "loss_grad", "total_loss"]


@dataclass(frozen=True)
class LossWeights:
    w_ord: float = 1.0
    w_log: float = 1.0
    w_grad: float = 1.0

    def __post_init__(self):
        if self.w_ord < 0 or self.w_log < 0 or self.w_grad < 0:
            raise ValueError("loss weights must be non-negative")
        if self.w_ord == self.w_log == self.w_grad == 0:
            raise ValueError("at least one loss weight must be positive")


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _check_mask(d: Tensor, mask) -> np.ndarray:
    b, _, h, w = d.shape
    m = np.asarray(mask, dtype=np.float64) if mask is not None else np.ones((b, 1, h, w))
    if m.shape != (b, 1, h, w):
        raise ShapeMismatchError(f"mask shape {m.shape} != ({b},1,{h},{w})")
    if m.sum() == 0:
        raise DomainError("all pixels masked out")
    return m


def loss_log(tape: Tape | None, d: Tensor, d_gt, mask=None) -> Tensor:
    """Masked mean of ln(|D - Dgt| + 0.5); |.| uses subgradient 0 at 0."""
    gt = _as_array(d_gt)
    if gt.shape != d.shape:
        raise ShapeMismatchError(f"loss_log: shapes {d.shape} and {gt.shape} differ")
    m = _check_mask(d, mask)
    count = m.sum()
    err = d.data - gt
    abs_off = np.abs(err) + 0.5
    out = Tensor(np.full((1, 1, 1, 1), (np.log(abs_off) * m).sum() / count))
    if tape is not None and d.needs_grad:
        def bwd(g):
            gs = float(g.reshape(())) / count
            _accum(d, gs * m * np.sign(err) / abs_off)
        tape.record("loss_log", (d,), out, bwd)
    return out


def _forward_diff(a: np.ndarray, axis: int) -> np.ndarray:
    """Forward difference with replicate edge, so the last slice is 0."""
    out = np.zeros_like(a)
    if axis == 3:
        out[:, :, :, :-1] = a[:, :, :, 1:] - a[:, :, :, :-1]
    else:
        out[:, :, :-1, :] = a[:, :, 1:, :] - a[:, :, :-1, :]
    return out


def _diff_mask(m: np.ndarray, axis: int) -> np.ndarray:
    """A difference is valid only if both stencil pixels are; at the edge the
    stencil degenerates to the pixel itself."""
    shifted = m.copy()
    if axis == 3:
        shifted[:, :, :, :-1] = m[:, :, :, 1:]
    else:
        shifted[:, :, :-1, :] = m[:, :, 1:, :]
    return m * shifted


def loss_grad(tape: Tape | None, d: Tensor, d_gt, mask=None) -> Tensor:
    """Log-absolute loss on forward-difference gradients along x and y.

    Each direction is a masked mean over the pixels whose difference stencil
    is fully valid; a direction with no valid stencils contributes 0.
    """
    gt = _as_array(d_gt)
    if gt.shape != d.shape:
        raise ShapeMismatchError(f"loss_grad: shapes {d.shape} and {gt.shape} differ")
    m = _check_mask(d, mask)

    total = 0.0
    terms = []  # (axis, mask, count, err, abs_off)
    for axis in (3, 2):  # x then y
        dm = _diff_mask(m, axis)
        count = dm.sum()
        if count == 0:
            continue
        err = _forward_diff(d.data, axis) - _forward_diff(gt, axis)
        abs_off = np.abs(err) + 0.5
        total += (np.log(abs_off) * dm).sum() / count
        terms.append((axis, dm, count, err, abs_off))
    out = Tensor(np.full((1, 1, 1, 1), total))
    if tape is not None and d.needs_grad:
        def bwd(g):
            gs = float(g.reshape(()))
            acc = np.zeros_like(d.data)
            for axis, dm, count, err, abs_off in terms:
                u = (gs / count) * dm * np.sign(err) / abs_off
                if axis == 3:
                    acc[:, :, :, 1:] += u[:, :, :, :-1]
                    acc[:, :, :, :-1] -= u[:, :, :, :-1]
                else:
                    acc[:, :, 1:, :] += u[:, :, :-1, :]
                    acc[:, :, :-1, :] -= u[:, :, :-1, :]
            _accum(d, acc)
        tape.record("loss_grad", (d,), out, bwd)
    return out


def total_loss(
    tape: Tape | None,
    probs: Tensor,
    target: np.ndarray,
    refined: Tensor,
    depth_gt,
    mask,
    weights: LossWeights,
) -> tuple[Tensor, dict[str, float]]:
    """w_ord * ordinal + w_log * log-loss(refined) + w_grad * grad-loss(refined),
    summed in that order, and the unweighted terms keyed loss_ord, loss_log
    and loss_grad.

    The coarse depth is trained by the ordinal term alone. A term whose
    weight is 0 is evaluated off the tape: it is reported but adds nothing
    to the loss and records no node.
    """
    out = None
    parts = {}
    for key, w, term_fn, pred, gt in (
        ("loss_ord", weights.w_ord, ordinal_loss, probs, target),
        ("loss_log", weights.w_log, loss_log, refined, depth_gt),
        ("loss_grad", weights.w_grad, loss_grad, refined, depth_gt),
    ):
        term = term_fn(tape if w != 0.0 else None, pred, gt, mask)
        parts[key] = term.item()
        if w != 0.0:
            weighted = scale(tape, term, w)
            out = weighted if out is None else add(tape, out, weighted)
    return out, parts
