"""Pixel-wise regression losses for the refinement stage and total-loss
assembly. Both regression terms are log-of-absolute-difference with a +0.5
offset, so they are bounded below by ln(0.5) and defined at zero error.
"""

from __future__ import annotations

import numpy as np

from .gradcore import ShapeMismatchError, Tape, Tensor, _accum, add, scale
from .ordhead import ordinal_loss

__all__ = ["loss_log", "loss_grad", "total_loss"]


def loss_log(tape: Tape | None, d: Tensor, d_gt: np.ndarray) -> Tensor:
    """Mean over pixels of ln(|D - Dgt| + 0.5); |.| uses subgradient 0 at 0."""
    if d_gt.shape != d.shape:
        raise ShapeMismatchError(f"loss_log: shapes {d.shape} and {d_gt.shape} differ")
    count = float(d.data.size)
    err = d.data - d_gt
    abs_off = np.abs(err) + 0.5
    out = Tensor(np.full((1, 1, 1, 1), np.log(abs_off).sum() / count))
    if tape is not None and d.needs_grad:
        def bwd(g):
            gs = float(g.reshape(())) / count
            _accum(d, gs * np.sign(err) / abs_off)
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


def loss_grad(tape: Tape | None, d: Tensor, d_gt: np.ndarray) -> Tensor:
    """Log-absolute loss on forward-difference gradients along x and y.

    Each direction is a mean over all pixels. The last column (x) or row (y)
    has a zero difference in both maps, so it contributes ln(0.5) and
    counts in the mean.
    """
    if d_gt.shape != d.shape:
        raise ShapeMismatchError(f"loss_grad: shapes {d.shape} and {d_gt.shape} differ")
    count = float(d.data.size)
    total = 0.0
    terms = []  # (axis, err, abs_off)
    for axis in (3, 2):  # x then y
        err = _forward_diff(d.data, axis) - _forward_diff(d_gt, axis)
        abs_off = np.abs(err) + 0.5
        total += np.log(abs_off).sum() / count
        terms.append((axis, err, abs_off))
    out = Tensor(np.full((1, 1, 1, 1), total))
    if tape is not None and d.needs_grad:
        def bwd(g):
            gs = float(g.reshape(()))
            acc = np.zeros_like(d.data)
            for axis, err, abs_off in terms:
                u = (gs / count) * np.sign(err) / abs_off
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
    logits: Tensor,
    target: np.ndarray,
    refined: Tensor,
    depth_gt: np.ndarray,
    w_log: float = 1.0,
    w_grad: float = 1.0,
) -> tuple[Tensor, dict[str, float]]:
    """ordinal(logits) + w_log * log-loss(refined) + w_grad *
    grad-loss(refined), summed in that order, and the unweighted terms keyed
    loss_ord, loss_log and loss_grad.

    The coarse depth is trained by the ordinal term alone, which needs no
    weight: Adam's step does not change when the whole loss is scaled (up to
    its epsilon). A regression term whose weight is 0 is evaluated off the
    tape: it is reported but adds nothing to the loss and records no node.
    """
    out = ordinal_loss(tape, logits, target)
    parts = {"loss_ord": out.item()}
    for key, w, term_fn in (("loss_log", w_log, loss_log), ("loss_grad", w_grad, loss_grad)):
        term = term_fn(tape if w != 0.0 else None, refined, depth_gt)
        parts[key] = term.item()
        if w != 0.0:
            out = add(tape, out, scale(tape, term, w))
    return out, parts
