"""Finite-difference verification of every backward rule.

Each check builds a scalar loss around one operation (or the whole model),
reads analytic gradients from one backward pass, and compares them against
central finite differences with step 1e-5 in float64. Relative error uses a
small floor so entries whose analytic and numeric gradients are both
essentially zero do not blow up the ratio. Entries whose stencil straddles
a kink are replaced by other entries of the same tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import gradcore as gc
from . import losses, network, ordhead, sid

__all__ = [
    "CheckResult",
    "relative_error",
    "check_gradients",
    "project",
    "run_full_suite",
    "PRIMITIVE_TOL",
    "COMPOSED_TOL",
    "FD_STEP",
]

FD_STEP = 1e-5
PRIMITIVE_TOL = 1e-4
COMPOSED_TOL = 1e-3
_ERR_FLOOR = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def relative_error(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric))
    if denom < _ERR_FLOOR:
        return 0.0
    return abs(analytic - numeric) / denom


def check_gradients(
    build: Callable[[gc.Tape | None], gc.Tensor],
    wrt: Sequence[gc.Tensor],
    rng: gc.Rng,
    max_entries: int = 16,
    fault_op: str | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    `build` must construct the loss afresh from the current contents of the
    `wrt` tensors (which are perturbed in place for the numeric side). Large
    tensors are subsampled: up to `max_entries` random entries plus the entry
    with the largest analytic gradient.

    An entry whose +-FD_STEP stencil straddles a kink (relu, a clamp, |.|)
    has no central-difference reference: its forward and backward one-sided
    differences disagree by PRIMITIVE_TOL or more. Such an entry is not
    compared; another entry of the same tensor is drawn in its place.
    """
    tape = gc.Tape(fault_op=fault_op)
    loss = build(tape)
    gc.backward(loss)
    f0 = loss.item()
    grads = []
    for t in wrt:
        if t.grad is None:
            raise gc.MissingGradientError("a checked tensor received no gradient")
        grads.append(t.grad.copy())

    worst = 0.0
    for t, grad in zip(wrt, grads):
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        n = flat.size
        if n <= max_entries:
            queue = list(range(n))
        else:
            picks = {int(rng.next_float() * n) for _ in range(max_entries)}
            picks.add(int(np.argmax(np.abs(gflat))))
            queue = sorted(picks)
        tried = set(queue)
        while queue:
            i = queue.pop(0)
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = build(None).item()
            flat[i] = orig - FD_STEP
            f_minus = build(None).item()
            flat[i] = orig
            one_sided = ((f_plus - f0) / FD_STEP, (f0 - f_minus) / FD_STEP)
            if relative_error(*one_sided) >= PRIMITIVE_TOL:  # a kink
                if len(tried) < n:  # draw an untried entry in its place
                    j = i
                    while j in tried:
                        j = int(rng.next_float() * n)
                    tried.add(j)
                    queue.append(j)
                continue
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            worst = max(worst, relative_error(gflat[i], numeric))
    return worst


def project(tape: gc.Tape | None, out: gc.Tensor, weights: np.ndarray) -> gc.Tensor:
    """Scalar probe sum(out * weights) / N over the N entries of `out`, with
    constant weights; distinct random weights make the probe sensitive to
    permutation mistakes in the forward or backward of the op under test."""
    if weights.shape != out.shape:
        raise gc.ShapeMismatchError(
            f"project: weights {weights.shape} and output {out.shape} differ")
    count = float(out.data.size)
    loss = gc.Tensor(np.full((1, 1, 1, 1), (out.data * weights).sum() / count))
    if tape is not None and out.needs_grad:
        def bwd(g):
            gc._accum(out, (float(g.reshape(())) / count) * weights)
        tape.record("project", (out,), loss, bwd)
    return loss


def _rt(rng: gc.Rng, shape, lo=-1.0, hi=1.0) -> gc.Tensor:
    return gc.Tensor(rng.fill_uniform(shape, lo, hi), requires_grad=True)


def _probed(op, shapes, lo=-1.0, hi=1.0):
    """Check of `op(tape, *inputs)` on inputs drawn uniform in [lo, hi) with
    the given shapes, scored by `project` against a probe shaped like the
    op's output."""
    def factory(rng):
        inputs = [_rt(rng, shape, lo, hi) for shape in shapes]
        probe = rng.fill_uniform(op(None, *inputs).shape)
        return lambda tape: project(tape, op(tape, *inputs), probe), inputs
    return factory


def _conv(stride, padding, kernel, upsample=1):
    """Conv check on an 8x8 input, or a 4x4 one that upsample=2 brings to 8x8."""
    hw = 8 // upsample
    return _probed(lambda tape, x, w, b: gc.conv2d(tape, x, w, b, stride, padding, upsample),
                   [(2, 3, hw, hw), (4, 3, kernel, kernel), (1, 4, 1, 1)])


def _confidence_of_logits(tape, z):
    probs = ordhead.pair_softmax(tape, z)
    return ordhead.confidence(tape, probs, ordhead.expected_label(tape, probs))


def _rank_target(rng, k, shape):
    b, _, h, w = shape
    labels = np.array(
        [rng.randint(0, k - 1) for _ in range(b * h * w)], dtype=np.int64
    ).reshape(b, 1, h, w)
    return sid.encode_rank(labels, k)


def _check_ordinal_loss(rng, k=5):
    """Logits at half the target's resolution, as the model's head emits them."""
    z = _rt(rng, (2, 2 * (k - 1), 4, 4), -12.0, 12.0)  # some |d| > 16: saturated
    target = _rank_target(rng, k, (2, 1, 8, 8))
    def build(tape):
        return ordhead.ordinal_loss(tape, z, target)
    return build, [z]


def _depth_loss(loss_fn):
    """Check of a depth loss on a 5x5 map against a fixed ground truth."""
    def factory(rng):
        d = _rt(rng, (1, 1, 5, 5), 0.6, 7.0)
        gt = rng.fill_uniform((1, 1, 5, 5), 0.6, 7.0)
        return lambda tape: loss_fn(tape, d, gt), [d]
    return factory


def _check_composed_network(rng, k=4):
    """The production forward pass plus total loss at the smallest legal
    input size (spatial dims must be multiples of 16)."""
    config = network.NetworkConfig(k_levels=k, height=16, width=16,
                                   base_width=2, fusion_width=4)
    params = network.init_params(config, rng.spawn("init"))
    image = gc.Tensor(rng.fill_uniform((1, 3, 16, 16), 0.0, 1.0))
    gt = rng.fill_uniform((1, 1, 16, 16), 0.6, 7.5)
    target = _rank_target(rng, k, (1, 1, 16, 16))

    def build(tape):
        out = network.forward(tape, image, params)
        return losses.total_loss(tape, out.logits, target, out.refined, gt)[0]

    return build, [t for _, t in params.items()]


_COMPONENTS = [
    ("conv2d_stride1", _conv(1, 1, 3), PRIMITIVE_TOL),
    ("conv2d_stride2", _conv(2, 1, 3), PRIMITIVE_TOL),
    ("conv2d_1x1", _conv(1, 0, 1), PRIMITIVE_TOL),
    ("conv2d_upsample2", _conv(1, 1, 3, upsample=2), PRIMITIVE_TOL),
    ("upsample_nearest",
     _probed(lambda tape, x: gc.upsample_nearest(tape, x, 2), [(1, 2, 3, 3)]), PRIMITIVE_TOL),
    ("add", _probed(gc.add, [(2, 2, 4, 4)] * 2), PRIMITIVE_TOL),
    ("relu", _probed(gc.relu, [(2, 2, 4, 4)]), PRIMITIVE_TOL),
    ("scale", _probed(lambda tape, x: gc.scale(tape, x, -2.5), [(1, 3, 4, 4)]), PRIMITIVE_TOL),
    ("concat_channels",
     _probed(lambda tape, *parts: gc.concat_channels(tape, parts),
             [(1, c, 4, 4) for c in (1, 2, 3)]), PRIMITIVE_TOL),
    ("slice_channels",
     _probed(lambda tape, x: gc.slice_channels(tape, x, 1, 3), [(2, 4, 3, 3)]), PRIMITIVE_TOL),
    ("pair_softmax", _probed(ordhead.pair_softmax, [(1, 6, 4, 4)], -2.0, 2.0), PRIMITIVE_TOL),
    ("expected_label", _probed(ordhead.expected_label, [(1, 4, 4, 4)], 0.0, 1.0),
     PRIMITIVE_TOL),
    ("ordinal_loss", _check_ordinal_loss, PRIMITIVE_TOL),
    ("confidence", _probed(_confidence_of_logits, [(1, 8, 4, 4)], -2.0, 2.0), PRIMITIVE_TOL),
    ("label_to_depth",
     _probed(lambda tape, p: sid.label_to_depth_op(tape, p, 5), [(1, 1, 4, 4)], 0.0, 5.0),
     PRIMITIVE_TOL),
    ("loss_log", _depth_loss(losses.loss_log), PRIMITIVE_TOL),
    ("loss_grad", _depth_loss(losses.loss_grad), PRIMITIVE_TOL),
    ("composed_network_16x16", _check_composed_network, COMPOSED_TOL),
]


def run_full_suite(seed: int = 0, corrupt_op: str | None = None) -> list[CheckResult]:
    """Run every check; corrupt_op is the fault-injection hook that breaks
    the named operation's backward rule so the suite must fail."""
    results = []
    for name, factory, tol in _COMPONENTS:
        rng = gc.Rng(gc.derive_seed(seed, "gradcheck", name))
        build, wrt = factory(rng)
        err = check_gradients(build, wrt, rng.spawn("sample"),
                              max_entries=8 if tol == COMPOSED_TOL else 16,
                              fault_op=corrupt_op)
        results.append(CheckResult(name=name, max_rel_err=err, tolerance=tol))
    return results
