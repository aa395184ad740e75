"""Reverse-mode automatic differentiation over dense rank-4 float64 arrays.

A Tensor is a (batch, channel, height, width) array with an optional
gradient buffer. Operations append nodes to an explicit Tape; backward()
replays the recorded nodes in reverse and accumulates gradients into every
tensor that needs them, then drops the nodes. Each output points to its
tape, so dropping the nodes breaks the output -> tape -> node -> output
cycle: a step's graph is freed by reference counting as soon as the caller
lets go of it, not whenever the cycle collector next runs. The operation
set is exactly what a small convolutional ordinal-regression network
needs, all in float64 so analytic gradients can be checked against central
finite differences.
"""

from __future__ import annotations

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
    "scalar",
    "add",
    "scale",
    "relu",
    "concat_channels",
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


def _mix64(z: int) -> int:
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
        z = np.uint64(self._state) + idx * np.uint64(_GAMMA)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
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

    def detached(self) -> "Tensor":
        """Copy of the values with no tape history and no gradient flow."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, needs_grad={self.needs_grad})"


def scalar(value: float) -> Tensor:
    """A (1,1,1,1) constant tensor."""
    return Tensor(np.full((1, 1, 1, 1), float(value)))


class _Node:
    __slots__ = ("name", "inputs", "output", "backward")

    def __init__(self, name, inputs, output, backward):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of operations; inputs of a node always precede it.

    Single-threaded: one tape must not be shared between threads. `fault_op`
    is a test hook that corrupts the backward rule of every node recorded
    under that name (used to prove the gradient checker catches bad rules).
    """

    def __init__(self, fault_op: str | None = None):
        self._nodes: list[_Node] = []
        self._done = False
        self._fault_op = fault_op

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
        if self._fault_op is not None and name == self._fault_op:
            inner = backward_fn

            def backward_fn(g, _inner=inner):  # corrupt by scaling upstream grad
                _inner(g * 1.5)

        output.needs_grad = True
        output.tape = self
        self._nodes.append(_Node(name, tuple(inputs), output, backward_fn))

    def reset(self) -> None:
        self._nodes.clear()
        self._done = False

    def __len__(self) -> int:
        return len(self._nodes)


def _accum(t: Tensor, g) -> None:
    if not t.needs_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(loss: Tensor) -> None:
    """Populate grad for every needs_grad tensor the loss depends on.

    The loss must be a scalar produced on a live tape; running a second
    backward on the same tape without reset() is rejected. The replayed
    nodes are released, so the tape is empty afterwards.
    """
    if loss.shape != (1, 1, 1, 1):
        raise TapeError(f"loss must be scalar (1,1,1,1), got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise TapeError("loss is detached from any tape")
    if tape._done:
        raise TapeError("backward already ran on this tape; call reset() first")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape._nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward(g)
    tape._nodes.clear()
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


def upsample_nearest(tape: Tape | None, x: Tensor, factor: int) -> Tensor:
    if factor < 1:
        raise ShapeMismatchError(f"upsample_nearest: factor must be >= 1, got {factor}")
    f = int(factor)
    out = Tensor(x.data.repeat(f, axis=2).repeat(f, axis=3))
    if _want(tape, x):
        b, c, h, w = x.shape
        def bwd(g):
            _accum(x, g.reshape(b, c, h, f, w, f).sum(axis=(3, 5)))
        tape.record("upsample_nearest", (x,), out, bwd)
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, s: int, oh: int, ow: int) -> np.ndarray:
    """Column buffer (c*kh*kw, b*oh*ow) of a channel-major padded input
    (c, b, H, W); rows are ordered (c, i, j), columns (b, oh, ow)."""
    c, b = xp.shape[:2]
    cols = np.empty((c, kh, kw, b, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s]
    return cols.reshape(c * kh * kw, b * oh * ow)


def conv2d(
    tape: Tape | None,
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Cross-correlation with per-output-channel bias.

    Output size per axis is (in + 2*padding - k)//stride + 1; rows/columns
    that do not fit a full window are dropped.

    Computed as GEMMs on a column buffer (Chellapilla et al., 2006). The
    padded input is held channel-major, (c, b, H+2p, W+2p), and the columns
    have shape (c*kh*kw, b*oh*ow) with rows ordered (c, i, j), built by one
    strided copy per kernel tap (i, j). Forward is y = W @ cols with W the
    weight as (oc, c*kh*kw). Backward gives dW = g @ cols.T and
    dcols = W.T @ g, and scatters dcols back with one strided add per tap
    (col2im). Backward rebuilds the columns from the padded input instead
    of keeping them on the tape, so only one conv's columns are alive at a
    time.
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
    p, s = int(padding), int(stride)
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(
            f"conv2d: kernel ({kh}x{kw}) too large for padded input "
            f"({h + 2 * p}x{w + 2 * p})"
        )
    xp = np.zeros((c, b, h + 2 * p, w + 2 * p))
    xp[:, :, p:p + h, p:p + w] = x.data.transpose(1, 0, 2, 3)
    w2 = weight.data.reshape(oc, c * kh * kw)
    y = (w2 @ _im2col(xp, kh, kw, s, oh, ow)).reshape(oc, b, oh, ow)
    # Add into a C-ordered buffer; a plain `+` would keep y's (oc, b) order.
    out_data = np.empty((b, oc, oh, ow))
    np.add(y.transpose(1, 0, 2, 3), bias.data, out=out_data)
    out = Tensor(out_data)
    if _want(tape, x, weight, bias):
        def bwd(g):
            if bias.needs_grad:
                _accum(bias, g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1))
            g2 = g.transpose(1, 0, 2, 3).reshape(oc, b * oh * ow)
            if weight.needs_grad:
                cols = _im2col(xp, kh, kw, s, oh, ow)
                _accum(weight, (g2 @ cols.T).reshape(oc, c, kh, kw))
            if x.needs_grad:
                dcols = (w2.T @ g2).reshape(c, kh, kw, b, oh, ow)
                dxp = np.zeros_like(xp)
                for i in range(kh):
                    hi = i + s * (oh - 1) + 1
                    for j in range(kw):
                        wj = j + s * (ow - 1) + 1
                        dxp[:, :, i:hi:s, j:wj:s] += dcols[:, i, j]
                _accum(x, dxp[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3))
        tape.record("conv2d", (x, weight, bias), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Parameters, optimizer, schedule
# ---------------------------------------------------------------------------


class ParamStore:
    """Named parameters in deterministic insertion order; all require grad."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] | None = None
        self._adam_v: dict[str, np.ndarray] | None = None
        self._adam_t = 0

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = data if isinstance(data, Tensor) else Tensor(data)
        t.needs_grad = True
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = np.zeros_like(t.data)


def adam_step(
    params: ParamStore,
    lr: float = 2e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update with bias correction; state persists on the store."""
    if params._adam_m is None:
        params._adam_m = {n: np.zeros_like(t.data) for n, t in params.items()}
        params._adam_v = {n: np.zeros_like(t.data) for n, t in params.items()}
        params._adam_t = 0
    params._adam_t += 1
    t = params._adam_t
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        if p.grad is None:
            raise MissingGradientError(f"parameter {name!r} has no gradient")
        g = p.grad
        m = params._adam_m[name]
        v = params._adam_v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def poly_lr(base_lr: float, iteration: int, max_iter: int, power: float) -> float:
    """Polynomial decay: base_lr * (1 - iteration/max_iter)**power."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    return base_lr * (1.0 - iteration / max_iter) ** power


# ---------------------------------------------------------------------------
# Checkpoint format: b"ACED1\n", then per parameter (in store order) a name
# line, a shape line of 4 decimal counts, and raw little-endian float64.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"ACED1\n"


def save_checkpoint(params: ParamStore, path) -> None:
    chunks = [CHECKPOINT_MAGIC]
    for name, t in params.items():
        b, c, h, w = t.shape
        chunks.append(f"{name}\n".encode())
        chunks.append(f"{b} {c} {h} {w}\n".encode())
        chunks.append(t.data.astype("<f8").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


def _read_line(buf: bytes, pos: int, what: str) -> tuple[str, int]:
    end = buf.find(b"\n", pos)
    if end < 0:
        raise CheckpointError(f"unterminated {what} line at byte {pos}")
    return buf[pos:end].decode(), end + 1


def load_checkpoint(params: ParamStore, path) -> None:
    """Load values into an existing store; names, order and shapes must match."""
    with open(path, "rb") as f:
        buf = f.read()
    if not buf.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    pos = len(CHECKPOINT_MAGIC)
    for name, t in params.items():
        got_name, pos = _read_line(buf, pos, "name")
        if got_name != name:
            raise CheckpointError(
                f"{path}: parameter order mismatch, expected {name!r} got {got_name!r}"
            )
        shape_line, pos = _read_line(buf, pos, "shape")
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
        t.data[...] = np.frombuffer(buf[pos:pos + nbytes], dtype="<f8").reshape(shape)
        pos += nbytes
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} trailing bytes after parameters")
