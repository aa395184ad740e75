"""Finite-difference verification of every backward rule.

Each check builds a scalar loss around one operation (or a composed graph),
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


def _rt(rng: gc.Rng, shape, lo=-1.0, hi=1.0, requires_grad=True) -> gc.Tensor:
    return gc.Tensor(rng.fill_uniform(shape, lo, hi), requires_grad=requires_grad)


def _away_from_zero(arr: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    sign = np.where(arr >= 0, 1.0, -1.0)
    return sign * np.maximum(np.abs(arr), margin)


# ---------------------------------------------------------------------------
# Per-primitive checks
# ---------------------------------------------------------------------------


def _check_conv(rng, stride, padding, kernel):
    x = _rt(rng, (2, 3, 8, 8))
    w = _rt(rng, (4, 3, kernel, kernel))
    b = _rt(rng, (1, 4, 1, 1))
    h = (8 + 2 * padding - kernel) // stride + 1
    probe = rng.fill_uniform((2, 4, h, h))
    return lambda tape: project(tape, gc.conv2d(tape, x, w, b, stride, padding), probe), [x, w, b]


def _check_upsample(rng):
    x = _rt(rng, (1, 2, 3, 3))
    probe = rng.fill_uniform((1, 2, 6, 6))
    return lambda tape: project(tape, gc.upsample_nearest(tape, x, 2), probe), [x]


def _check_add(rng):
    a = _rt(rng, (2, 2, 4, 4))
    b = _rt(rng, (2, 2, 4, 4))
    probe = rng.fill_uniform((2, 2, 4, 4))
    return lambda tape: project(tape, gc.add(tape, a, b), probe), [a, b]


def _check_relu(rng):
    x = _rt(rng, (2, 2, 4, 4))
    x.data[...] = _away_from_zero(x.data)  # keep clear of the kink
    probe = rng.fill_uniform((2, 2, 4, 4))
    return lambda tape: project(tape, gc.relu(tape, x), probe), [x]


def _check_scale(rng):
    x = _rt(rng, (1, 3, 4, 4))
    probe = rng.fill_uniform((1, 3, 4, 4))
    return lambda tape: project(tape, gc.scale(tape, x, -2.5), probe), [x]


def _check_concat(rng):
    parts = [_rt(rng, (1, c, 4, 4)) for c in (1, 2, 3)]
    probe = rng.fill_uniform((1, 6, 4, 4))
    return lambda tape: project(tape, gc.concat_channels(tape, parts), probe), parts


def _check_pair_softmax(rng, k=4):
    z = _rt(rng, (1, 2 * (k - 1), 4, 4), -2.0, 2.0)
    probe = rng.fill_uniform((1, k - 1, 4, 4))
    return lambda tape: project(tape, ordhead.pair_softmax(tape, z), probe), [z]


def _check_expected_label(rng, k=5):
    z = _rt(rng, (1, 2 * (k - 1), 4, 4), -2.0, 2.0)
    probe = rng.fill_uniform((1, 1, 4, 4))
    def build(tape):
        p = ordhead.expected_label(tape, ordhead.pair_softmax(tape, z))
        return project(tape, p, probe)
    return build, [z]


def _rank_target(rng, k, shape):
    b, _, h, w = shape
    labels = np.array(
        [rng.randint(0, k - 1) for _ in range(b * h * w)], dtype=np.int64
    ).reshape(b, 1, h, w)
    return sid.encode_rank(labels, k)


def _check_ordinal_loss(rng, k=5):
    z = _rt(rng, (2, 2 * (k - 1), 4, 4), -2.0, 2.0)
    target = _rank_target(rng, k, (2, 1, 4, 4))
    def build(tape):
        return ordhead.ordinal_loss(tape, ordhead.pair_softmax(tape, z), target)
    return build, [z]


def _check_confidence(rng, k=5):
    z = _rt(rng, (1, 2 * (k - 1), 4, 4), -2.0, 2.0)
    probe = rng.fill_uniform((1, 1, 4, 4))
    def build(tape):
        probs = ordhead.pair_softmax(tape, z)
        p = ordhead.expected_label(tape, probs)
        return project(tape, ordhead.confidence(tape, probs, p), probe)
    return build, [z]


def _check_soft_decode(rng, k=5):
    th = sid.make_thresholds(sid.DepthRange(0.5, 8.0), k)
    z = _rt(rng, (1, 2 * (k - 1), 4, 4), -2.0, 2.0)
    probe = rng.fill_uniform((1, 1, 4, 4))
    def build(tape):
        return project(tape, ordhead.soft_decode(tape, ordhead.pair_softmax(tape, z), th), probe)
    return build, [z]


def _check_loss_log(rng):
    d = _rt(rng, (1, 1, 5, 5), 0.6, 7.0)
    gt = rng.fill_uniform((1, 1, 5, 5), 0.6, 7.0)
    return lambda tape: losses.loss_log(tape, d, gt), [d]


def _check_loss_grad(rng):
    d = _rt(rng, (1, 1, 5, 5), 0.6, 7.0)
    gt = rng.fill_uniform((1, 1, 5, 5), 0.6, 7.0)
    return lambda tape: losses.loss_grad(tape, d, gt), [d]


# ---------------------------------------------------------------------------
# Composed graphs
# ---------------------------------------------------------------------------


def _check_composed_8x8(rng, k=4):
    """Every tape operation chained into one 8x8 coarse+refined loss graph."""
    th = sid.make_thresholds(sid.DepthRange(0.5, 8.0), k)
    image = _rt(rng, (1, 3, 8, 8), 0.0, 1.0, requires_grad=False)
    gt = rng.fill_uniform((1, 1, 8, 8), 0.6, 7.5)
    target = _rank_target(rng, k, (1, 1, 8, 8))
    weights = losses.LossWeights(1.0, 1.0, 1.0)

    def conv_pair(name, oc, ic, kk):
        s = np.sqrt(1.0 / (ic * kk * kk))
        w = _rt(rng, (oc, ic, kk, kk), -s, s)
        b = _rt(rng, (1, oc, 1, 1), -0.05, 0.05)
        return w, b

    s1 = conv_pair("s1", 4, 3, 3)
    s2 = conv_pair("s2", 6, 4, 3)
    dec = conv_pair("dec", 4, 10, 3)
    head = conv_pair("head", 2 * (k - 1), 4, 1)
    blk1a = conv_pair("blk1a", 4, 4, 3)
    blk1b = conv_pair("blk1b", 4, 4, 3)
    blk2a = conv_pair("blk2a", 6, 6, 3)
    blk2b = conv_pair("blk2b", 6, 6, 3)
    merge = conv_pair("merge", 3, 10, 1)
    ref1 = conv_pair("ref1", 4, 5, 3)
    ref2 = conv_pair("ref2", 1, 4, 3)
    wrt = [t for pair in (s1, s2, dec, head, blk1a, blk1b, blk2a, blk2b, merge, ref1, ref2)
           for t in pair]

    def build(tape):
        f1 = gc.relu(tape, gc.conv2d(tape, image, *s1, 2, 1))       # (1,4,4,4)
        f2 = gc.relu(tape, gc.conv2d(tape, f1, *s2, 2, 1))          # (1,6,2,2)
        up = gc.upsample_nearest(tape, f2, 2)
        x = gc.concat_channels(tape, [up, f1])
        x = gc.relu(tape, gc.conv2d(tape, x, *dec, 1, 1))
        logits = gc.upsample_nearest(tape, gc.conv2d(tape, x, *head, 1, 0), 2)
        probs = ordhead.pair_softmax(tape, logits)
        p = ordhead.expected_label(tape, probs)
        coarse = sid.label_to_depth_op(tape, p, th)
        conf = ordhead.confidence(tape, probs, p)
        u1 = gc.upsample_nearest(tape, f1, 2)
        b1 = gc.add(tape, u1, gc.conv2d(tape, gc.relu(tape, gc.conv2d(tape, u1, *blk1a, 1, 1)), *blk1b, 1, 1))
        u2 = gc.upsample_nearest(tape, f2, 4)
        b2 = gc.add(tape, u2, gc.conv2d(tape, gc.relu(tape, gc.conv2d(tape, u2, *blk2a, 1, 1)), *blk2b, 1, 1))
        fused = gc.conv2d(tape, gc.concat_channels(tape, [b1, b2]), *merge, 1, 0)
        rin = gc.concat_channels(tape, [coarse, conf, fused])
        residual = gc.conv2d(tape, gc.relu(tape, gc.conv2d(tape, rin, *ref1, 1, 1)), *ref2, 1, 1)
        refined = gc.add(tape, coarse, residual)
        return losses.total_loss(tape, probs, target, refined, gt, weights)[0]

    return build, wrt


def _check_composed_network(rng, k=4):
    """The production forward pass plus total loss at the smallest legal
    input size (spatial dims must be multiples of 16)."""
    config = network.NetworkConfig(k_levels=k, height=16, width=16,
                                   base_width=2, fusion_width=4)
    th = sid.make_thresholds(sid.DepthRange(0.5, 8.0), k)
    params = network.init_params(config, rng.spawn("init"))
    image = gc.Tensor(rng.fill_uniform((1, 3, 16, 16), 0.0, 1.0))
    gt = rng.fill_uniform((1, 1, 16, 16), 0.6, 7.5)
    target = _rank_target(rng, k, (1, 1, 16, 16))
    weights = losses.LossWeights(1.0, 1.0, 1.0)

    def build(tape):
        out = network.forward(tape, image, params, config, th)
        return losses.total_loss(tape, out.probs, target, out.refined, gt, weights)[0]

    return build, [t for _, t in params.items()]


_COMPONENTS = [
    ("conv2d_stride1", lambda rng: _check_conv(rng, 1, 1, 3), PRIMITIVE_TOL),
    ("conv2d_stride2", lambda rng: _check_conv(rng, 2, 1, 3), PRIMITIVE_TOL),
    ("conv2d_1x1", lambda rng: _check_conv(rng, 1, 0, 1), PRIMITIVE_TOL),
    ("upsample_nearest", _check_upsample, PRIMITIVE_TOL),
    ("add", _check_add, PRIMITIVE_TOL),
    ("relu", _check_relu, PRIMITIVE_TOL),
    ("scale", _check_scale, PRIMITIVE_TOL),
    ("concat_channels", _check_concat, PRIMITIVE_TOL),
    ("pair_softmax", _check_pair_softmax, PRIMITIVE_TOL),
    ("expected_label", _check_expected_label, PRIMITIVE_TOL),
    ("ordinal_loss", _check_ordinal_loss, PRIMITIVE_TOL),
    ("confidence", _check_confidence, PRIMITIVE_TOL),
    ("soft_decode", _check_soft_decode, PRIMITIVE_TOL),
    ("loss_log", _check_loss_log, PRIMITIVE_TOL),
    ("loss_grad", _check_loss_grad, PRIMITIVE_TOL),
    ("composed_8x8", _check_composed_8x8, COMPOSED_TOL),
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
