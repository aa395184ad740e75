"""Reverse-mode automatic differentiation over dense rank-4 float64 arrays.

A Tensor is a (batch, channel, height, width) array with an optional
gradient buffer. Operations append nodes to an explicit Tape; backward()
pops the recorded nodes in reverse, accumulates gradients into every tensor
that needs them, and drops each node once its rule has run. Each output
points to its tape, so dropping the nodes breaks the output -> tape -> node
-> output cycle: a step's graph is freed by reference counting, not by the
cycle collector. The operation set is exactly what a small convolutional
ordinal-regression network needs, all in float64 so analytic gradients can
be checked against central finite differences. conv2d makes one GEMM-level
call per pass: a batched matmul over a strided view of every kernel tap of a
flat input grid, whose rows and images share one zero gap, for the forward
and dW, and one GEMM on the output gradient shifted once per tap for dx,
with no column matrix. Its grid width is rounded up to a multiple of 16 so
results do not depend on BLAS threads; a 3x3 conv of a x2 nearest upsample
runs as four 2x2 phase convs of the input.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GradcoreError",
    "ShapeMismatchError",
    "DomainError",
    "TapeError",
    "MissingGradientError",
    "CheckpointError",
    "Tensor",
    "Tape",
    "ParamStore",
    "Rng",
    "derive_seed",
    "add",
    "scale",
    "relu",
    "concat_channels",
    "slice_channels",
    "upsample_nearest",
    "conv2d",
    "backward",
    "adam_step",
    "poly_lr",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]


class GradcoreError(Exception):
    """Base class for autodiff failures."""


class ShapeMismatchError(GradcoreError):
    pass


class DomainError(GradcoreError):
    pass


class TapeError(GradcoreError):
    pass


class MissingGradientError(GradcoreError):
    pass


class CheckpointError(GradcoreError):
    pass


# ---------------------------------------------------------------------------
# Deterministic RNG (splitmix64). Identical seed gives an identical sequence
# on every platform; no global state.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    """splitmix64's finalizer of an int, or of a uint64 array elementwise."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def derive_seed(seed: int, *keys: int | str) -> int:
    """Derive a sub-stream seed from a base seed and a key path.

    Strings are folded byte by byte so distinct names give unrelated streams.
    """
    s = _mix64(seed & _MASK64)
    for key in keys:
        if isinstance(key, str):
            for b in key.encode():
                s = _mix64(s ^ b)
        else:
            s = _mix64(s ^ (key & _MASK64))
    return s


class Rng:
    """splitmix64 stream: counter state advanced by a fixed odd gamma."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive (scaled draw, bias < 2^-53)."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + min(int(self.next_float() * span), span - 1)

    def fill_uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Vectorized draw consuming exactly prod(shape) stream positions.

        Bit-identical to calling uniform() that many times.
        """
        n = int(np.prod(shape))
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = _mix64(np.uint64(self._state) + idx * np.uint64(_GAMMA))
        self._state = (self._state + n * _GAMMA) & _MASK64
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (lo + (hi - lo) * u).reshape(shape)

    def spawn(self, *keys: int | str) -> "Rng":
        """Independent child stream; does not advance this stream."""
        return Rng(derive_seed(self._state, *keys))


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """Dense (batch, channel, height, width) float64 array on a tape."""

    __slots__ = ("data", "needs_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeMismatchError(f"tensor must be rank 4, got shape {arr.shape}")
        self.data = arr
        # True when gradients must flow through this tensor (leaf parameters
        # and anything computed from one).
        self.needs_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, needs_grad={self.needs_grad})"


class Tape:
    """Ordered record of operations; inputs of a node always precede it.

    Single-threaded: one tape must not be shared between threads.
    """

    def __init__(self):
        self._nodes: list[tuple[str, Tensor, Callable[[np.ndarray], None]]] = []  # (name, output, rule)
        self._done = False

    def record(
        self,
        name: str,
        inputs: Sequence[Tensor],
        output: Tensor,
        backward_fn: Callable[[np.ndarray], None],
    ) -> None:
        """Register a node. Callers invoke this only when some input needs_grad."""
        for t in inputs:
            if t.needs_grad and t.tape is not None and t.tape is not self:
                raise TapeError("operation mixes tensors from different tapes")
        output.needs_grad = True
        output.tape = self
        self._nodes.append((name, output, backward_fn))

    def first_non_finite(self) -> str | None:
        """'<op>, tape node i of n' for the first node, in record order, whose
        output holds a NaN or an infinity (i counts from 0, the first node
        recorded); None if there is none."""
        for i, (name, output, _) in enumerate(self._nodes):
            if not np.isfinite(output.data).all():
                return f"{name}, tape node {i} of {len(self._nodes)}"


def _accum(t: Tensor, g) -> None:
    if not t.needs_grad:
        return
    if t.grad is None:
        # Copy, never keep g: it may be a broadcast, a slice or another tensor's array.
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate grad for every needs_grad tensor the loss depends on.

    The loss must be a scalar produced on a live tape. Each node is popped
    before its rule runs, so what only it held (closure, saved arrays, its
    output's gradient) is freed while earlier nodes run. A second backward
    on the emptied tape is rejected: record the next graph on a new Tape.
    """
    if loss.shape != (1, 1, 1, 1):
        raise TapeError(f"loss must be scalar (1,1,1,1), got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise TapeError("loss is detached from any tape")
    if tape._done:
        raise TapeError("backward already ran on this tape; record on a new Tape")
    loss.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    while nodes:
        _, output, rule = nodes.pop()
        g = output.grad
        if g is not None:
            rule(g)
    tape._done = True


def _want(tape: Tape | None, *tensors: Tensor) -> bool:
    return tape is not None and any(t.needs_grad for t in tensors)


# ---------------------------------------------------------------------------
# Elementwise operations
# ---------------------------------------------------------------------------


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    out = Tensor(a.data + b.data)
    if _want(tape, a, b):
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
        tape.record("add", (a, b), out, bwd)
    return out


def scale(tape: Tape | None, x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)
    if _want(tape, x):
        def bwd(g):
            _accum(x, g * c)
        tape.record("scale", (x,), out, bwd)
    return out


def relu(tape: Tape | None, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    if _want(tape, x):
        pos = x.data > 0  # subgradient 0 at exactly 0
        def bwd(g):
            _accum(x, g * pos)
        tape.record("relu", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def concat_channels(tape: Tape | None, inputs: Sequence[Tensor]) -> Tensor:
    if not inputs:
        raise ShapeMismatchError("concat_channels: empty input list")
    b, _, h, w = inputs[0].shape
    for i, t in enumerate(inputs[1:], start=1):
        tb, _, th, tw = t.shape
        if (tb, th, tw) != (b, h, w):
            raise ShapeMismatchError(
                f"concat_channels: input 0 is (batch={b}, h={h}, w={w}) but "
                f"input {i} is (batch={tb}, h={th}, w={tw})"
            )
    out = Tensor(np.concatenate([t.data for t in inputs], axis=1))
    if _want(tape, *inputs):
        sizes = [t.shape[1] for t in inputs]
        offsets = np.cumsum([0] + sizes)
        def bwd(g):
            for t, lo, hi in zip(inputs, offsets[:-1], offsets[1:]):
                _accum(t, g[:, lo:hi])
        tape.record("concat_channels", tuple(inputs), out, bwd)
    return out


def slice_channels(tape: Tape | None, x: Tensor, lo: int, hi: int) -> Tensor:
    """Channels lo:hi of x, the inverse of concat_channels."""
    if not 0 <= lo < hi <= x.shape[1]:
        raise ShapeMismatchError(
            f"slice_channels: [{lo}:{hi}] is not a channel range of shape {x.shape}")
    out = Tensor(x.data[:, lo:hi].copy())
    if _want(tape, x):
        def bwd(g):
            dx = np.zeros_like(x.data)
            dx[:, lo:hi] = g
            _accum(x, dx)
        tape.record("slice_channels", (x,), out, bwd)
    return out


def _block_sum(a: np.ndarray, f: int) -> np.ndarray:
    """Sum of each f x f block of a (b, c, h*f, w*f) array, shape (b, c, h, w).

    Adds the f row slices of a (b, c, h, f, w*f) view, then the f column taps
    of the result: one strided axis at a time, faster than one two-axis sum.
    """
    b, c, hf, wf = a.shape
    h, w = hf // f, wf // f
    rows = a.reshape(b, c, h, f, wf)
    acc = rows[:, :, :, 0].copy()
    for k in range(1, f):
        acc += rows[:, :, :, k]
    taps = acc.reshape(b, c, h, w, f)
    out = taps[..., 0].copy()
    for k in range(1, f):
        out += taps[..., k]
    return out


def upsample_nearest(tape: Tape | None, x: Tensor, factor: int) -> Tensor:
    if factor < 1:
        raise ShapeMismatchError(f"upsample_nearest: factor must be >= 1, got {factor}")
    f = int(factor)
    out = Tensor(x.data.repeat(f, axis=2).repeat(f, axis=3))
    if _want(tape, x):
        def bwd(g):
            _accum(x, _block_sum(g, f))
        tape.record("upsample_nearest", (x,), out, bwd)
    return out


# A 3-tap kernel on a x2 nearest upsample, per output phase a (row or column
# parity): _UP2_FOLD[a, d, i] = 1 when tap i reads the same source pixel as
# tap d of the phase's 2-tap kernel. _UP2_TAPS is the 2-D fold as a (16, 9)
# matrix, rows (a, e, d, f) and columns (i, j), so the 16 folded taps of a
# 3x3 kernel are one small GEMM.
_UP2_FOLD = np.array([[[1, 0, 0], [0, 1, 1]],
                      [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
_UP2_TAPS = np.einsum("adi,efj->aedfij", _UP2_FOLD, _UP2_FOLD).reshape(16, 9)


def conv2d(
    tape: Tape | None,
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    upsample: int = 1,
) -> Tensor:
    """Cross-correlation with per-output-channel bias, optionally of x's x2
    nearest upsample.

    Output size per axis is (in + 2*padding - k)//stride + 1; rows/columns
    that do not fit a full window are dropped.

    Computed on shifted views of the input with no column matrix (kn2row;
    Vasudevan et al., ASAP 2017). The input is copied once into a zeroed flat
    channel-major buffer xf of shape (c, width), on a grid where neighbours
    share one gap: each image row is followed by max(p, 2p-kw+1) zero
    columns (row pitch Wq) and each image by max(p, 2p-kh+1) zero rows;
    image 0's first pixel sits at lead = p*Wq + p, and width = n + max(span,
    lead), with span = (kh-1)*Wq + kw-1 the last tap's offset. Tap (i, j)
    reads v_ij = xf[:, i*Wq+j:][:, :n]; all taps are one strided (kh, kw, c,
    n) view V of xf, and matmul(W[i, j, oc, c], V) summed over the taps in
    tap order is the stride-1 output at every grid position. Positions whose
    window runs into the next row or image are dropped; stride 2 keeps every
    second row and column. Backward embeds g on the same grid: dW =
    matmul(g, V.T), and dx is one GEMM, W.T (c x kh*kw*oc) @ G, where row
    block (i, j) of G (kh*kw*oc x width) is g shifted right by i*Wq + j; dx
    starts at column lead. n is the grid size rounded up to a multiple of 16:
    OpenBLAS computes the last (N mod 8) columns of an N-column GEMM
    differently at different thread counts. The forward and dW GEMMs are n
    wide; the dx GEMM's ragged columns lie past n, where dx keeps nothing,
    since the last image's trailing gap is at least lead long.

    upsample=2 (3x3 kernel, padding 1, stride 1 only) gives the (b, oc, 2h, 2w)
    conv2d(upsample_nearest(x, 2), W, b, 1, 1) without forming the upsample,
    at 4/9 of the MACs: output phase (a, e), out[:, :, a::2, e::2], is a 2x2
    convolution of x whose tap (d, f) is W's taps on the same source pixel
    summed, read at view offset (a+d)*Wq + e+f (resize-convolution as
    sub-pixel convolution; Shi et al., CVPR 2016). Each phase is one pass; the
    16 phase-tap dW unfold back onto the 3x3 taps, and the phases' dx sum at
    x's resolution.
    """
    b, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ShapeMismatchError(f"conv2d: input has {c} channels, weight expects {ic}")
    if bias.shape != (1, oc, 1, 1):
        raise ShapeMismatchError(
            f"conv2d: bias shape {bias.shape} != (1, {oc}, 1, 1)"
        )
    if stride not in (1, 2):
        raise ShapeMismatchError(f"conv2d: stride must be 1 or 2, got {stride}")
    if upsample not in (1, 2):
        raise ShapeMismatchError(f"conv2d: upsample must be 1 or 2, got {upsample}")
    if upsample == 2 and (kh, kw, padding, stride) != (3, 3, 1, 1):
        raise ShapeMismatchError(
            f"conv2d: upsample=2 needs a 3x3 kernel, padding 1 and stride 1, got "
            f"{kh}x{kw}, padding {padding}, stride {stride}"
        )
    p, s, u = int(padding), int(stride), int(upsample)
    hp, wp = h + 2 * p, w + 2 * p
    # gh x gw outputs per phase; u x u phases interleave into the output.
    gh = (hp - kh) // s + 1
    gw = (wp - kw) // s + 1
    if gh < 1 or gw < 1:
        raise ShapeMismatchError(
            f"conv2d: kernel ({kh}x{kw}) too large for padded input ({hp}x{wp})"
        )
    hq, wq = h + max(p, 2 * p - kh + 1), w + max(p, 2 * p - kw + 1)
    grid = b * hq * wq
    n = -(-grid // 16) * 16
    lead, span = p * wq + p, (kh - 1) * wq + kw - 1  # image 0's first pixel; the last tap's offset
    width = n + max(span, lead)
    wd = weight.data
    # Each phase is the index of the output pixels it writes, its (ti, tj,
    # oc, c) tap weights and the buffer offset of its tap (0, 0).
    if u == 1:
        phases = [(..., np.ascontiguousarray(wd.transpose(2, 3, 0, 1)), 0)]
    else:
        wt = (_UP2_TAPS @ wd.reshape(oc * c, 9).T).reshape(2, 2, 2, 2, oc, c)
        phases = [(np.s_[:, :, a::2, e::2], wt[a, e], a * wq + e) for a in (0, 1) for e in (0, 1)]

    xf = np.zeros((c, width))
    xf[:, lead:lead + grid].reshape(c, b, hq, wq)[:, :, :h, :w] = x.data.transpose(1, 0, 2, 3)

    def taps(wk, base):  # (ti, tj, c, n) view of xf; tap (i, j) is xf[:, base+i*wq+j:][:, :n]
        return np.ndarray((*wk.shape[:2], c, n), buffer=xf, offset=8 * base,
                          strides=(8 * wq, 8, 8 * width, 8))

    out_data = np.empty((b, oc, u * gh, u * gw))
    for pix, wk, base in phases:
        y = np.matmul(wk, taps(wk, base)).reshape(-1, oc, n).sum(0)
        # Add into the output; a plain `+` would keep y's (oc, b) order.
        kept = y[:, :grid].reshape(oc, b, hq, wq)[:, :, :s * gh:s, :s * gw:s]
        np.add(kept.transpose(1, 0, 2, 3), bias.data, out=out_data[pix])
    out = Tensor(out_data)
    if _want(tape, x, weight, bias):
        def bwd(g):
            if bias.needs_grad:
                _accum(bias, g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1))
            want_w, want_x = weight.needs_grad, x.needs_grad
            gfp = np.zeros((oc, span + width))  # gf with span zeros before it, width - n after
            gf = gfp[:, span:span + n]
            if want_w:
                dwt = np.empty((len(phases), *phases[0][1].shape))
            for k, (pix, wk, base) in enumerate(phases):
                gf[:, :grid].reshape(oc, b, hq, wq)[:, :, :s * gh:s, :s * gw:s] = g[pix].transpose(1, 0, 2, 3)
                if want_w:
                    np.matmul(gf, taps(wk, base).transpose(0, 1, 3, 2), out=dwt[k])
                if want_x:  # the docstring's G: row block (i, j) is gf shifted right by tap (i, j)'s offset
                    gs = np.ndarray((*wk.shape[:2], oc, width), buffer=gfp, offset=8 * (span - base),
                                    strides=(-8 * wq, -8, 8 * (span + width), 8)).reshape(-1, width)
                    dxk = wk.reshape(-1, c).T @ gs
                    dxf = dxk if k == 0 else dxf + dxk
            if want_w:
                if u == 1:
                    _accum(weight, dwt.reshape(kh, kw, oc, c).transpose(2, 3, 0, 1))
                else:
                    _accum(weight, (dwt.reshape(16, oc * c).T @ _UP2_TAPS).reshape(oc, c, 3, 3))
            if want_x:
                dx = dxf[:, lead:lead + grid].reshape(c, b, hq, wq)[:, :, :h, :w]
                _accum(x, dx.transpose(1, 0, 2, 3))
        tape.record("conv2d", (x, weight, bias), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Parameters, optimizer, schedule
# ---------------------------------------------------------------------------


class ParamStore:
    """Named parameters, all requiring grad, in the order of the {name:
    shape} map the store is built from. The store owns two zeroed vectors,
    every value and every gradient in that order; each parameter's .data
    and .grad are views of its slice of them for the store's whole life, so
    backward accumulates into the gradient vector, zero_grads is one fill
    and Adam one vector update. Write into the views, never rebind them."""

    def __init__(self, shapes: dict[str, tuple[int, int, int, int]]):
        sizes = [int(np.prod(shape)) for shape in shapes.values()]
        self._flat, self._grad = np.zeros(sum(sizes)), np.zeros(sum(sizes))
        self._params: dict[str, Tensor] = {}
        lo = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            t = Tensor(self._flat[lo:lo + size].reshape(shape), requires_grad=True)
            t.grad = self._grad[lo:lo + size].reshape(shape)
            self._params[name] = t
            lo += size
        self._adam_m = self._adam_v = None  # flat moments, from the first adam_step
        self._adam_t = 0

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        self._grad.fill(0.0)


ADAM_BETA1 = 0.9  # Adam's moment decay rates and denominator guard (Kingma & Ba)
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
POLY_LR_POWER = 0.9  # power of the polynomial learning-rate decay, as in DORN


def adam_step(params: ParamStore, lr: float) -> None:
    """One Adam update with bias correction, run once over the store's flat
    value, gradient and moment vectors; the moments and the step count
    persist on the store. Raises MissingGradientError, naming the first
    parameter whose .grad is no longer its view of the gradient vector: the
    update reads only that vector, so a replaced array would be ignored."""
    for name, p in params.items():
        if p.grad is None or p.grad.base is not params._grad:
            raise MissingGradientError(
                f"parameter {name!r}: .grad was replaced; write into the store's view instead")
    if params._adam_m is None:
        params._adam_m, params._adam_v = np.zeros_like(params._flat), np.zeros_like(params._flat)
    params._adam_t += 1
    t = params._adam_t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    g, m, v = params._grad, params._adam_m, params._adam_v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    params._flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def poly_lr(base_lr: float, iteration: int, max_iter: int) -> float:
    """Polynomial decay: base_lr * (1 - iteration/max_iter)**POLY_LR_POWER."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    return base_lr * (1.0 - iteration / max_iter) ** POLY_LR_POWER


# ---------------------------------------------------------------------------
# Checkpoint format: CHECKPOINT_MAGIC, then per parameter (in store order) a
# name line, a shape line of 4 decimal counts, and raw little-endian float64.
# The magic's number is the network layout: a change to what the parameters
# mean (ACED1 ran the multiscale residual blocks at full resolution) bumps
# it, and a file of another number is refused rather than loaded.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"ACED2\n"
_ANY_MAGIC = re.compile(rb"ACED\d+\n")


def save_checkpoint(params: ParamStore, path) -> None:
    chunks = [CHECKPOINT_MAGIC]
    for name, t in params.items():
        b, c, h, w = t.shape
        chunks.append(f"{name}\n".encode())
        chunks.append(f"{b} {c} {h} {w}\n".encode())
        chunks.append(t.data.astype("<f8").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


def _read_line(buf: bytes, pos: int, what: str, path) -> tuple[str, int]:
    end = buf.find(b"\n", pos)
    if end < 0:
        raise CheckpointError(f"{path}: unterminated {what} line at byte {pos}")
    try:
        return buf[pos:end].decode(), end + 1
    except UnicodeDecodeError as e:
        at = pos + e.start
        raise CheckpointError(f"{path}: non-UTF-8 byte {buf[at]:#04x} in {what} line "
                              f"at byte {at}") from None


def load_checkpoint(params: ParamStore, path) -> None:
    """Load values into an existing store; names, order and shapes must match
    and every value must be finite."""
    with open(path, "rb") as f:
        buf = f.read()
    if not buf.startswith(CHECKPOINT_MAGIC):
        if m := _ANY_MAGIC.match(buf):
            raise CheckpointError(
                f"{path}: {m[0][:-1].decode()} checkpoint, written for another network "
                f"layout than {CHECKPOINT_MAGIC[:-1].decode()}; retrain the model")
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    pos = len(CHECKPOINT_MAGIC)
    for name, t in params.items():
        got_name, pos = _read_line(buf, pos, "name", path)
        if got_name != name:
            raise CheckpointError(
                f"{path}: parameter order mismatch, expected {name!r} got {got_name!r}"
            )
        shape_line, pos = _read_line(buf, pos, "shape", path)
        try:
            shape = tuple(int(v) for v in shape_line.split())
        except ValueError:
            shape = ()
        if len(shape) != 4:
            raise CheckpointError(f"{path}: malformed shape line for {name!r}")
        if shape != t.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: file {shape}, store {t.shape}"
            )
        nbytes = 8 * int(np.prod(shape))
        if pos + nbytes > len(buf):
            raise CheckpointError(f"{path}: truncated payload for {name!r}")
        values = np.frombuffer(buf[pos:pos + nbytes], dtype="<f8")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: non-finite value in {name!r}")
        t.data[...] = values.reshape(shape)
        pos += nbytes
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} trailing bytes after parameters")
