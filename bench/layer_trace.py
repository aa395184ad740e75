"""Per-layer tracing of the aced package from outside the program.

A Tracer swaps public functions of the aced modules for timing wrappers
(in every aced namespace that holds a reference to them) and swaps
`gradcore.Tape` for a subclass whose `record` wraps each backward rule with
a timer. Each node is tagged with every traced call in progress when it was
recorded (network stage, ordhead op, gradcore op, conv name), so backward
time is attributed to the same keys as forward time. Nothing in src/ is
edited; leaving the `with` block restores every original.
"""

from __future__ import annotations

import contextlib
import sys
from collections import defaultdict
from time import perf_counter

from aced import gradcore, network

# Functions whose forward (inclusive) and backward time are reported per
# operation as <key>.fwd_ms and <key>.bwd_ms.
STAGES = [
    "network.encode",
    "network.decode_to_logits",
    "network.fuse_multiscale",
    "network.refine",
    "ordhead.pair_softmax",
    "ordhead.ordinal_loss",
    "ordhead.expected_label",
    "ordhead.confidence",
    "sid.label_to_depth_op",
]
# Tape ops reported as gradcore.<op>.{fwd_ms,bwd_ms,calls}.
OPS = ["conv2d", "upsample_nearest", "concat_channels", "relu", "add", "scale"]
# Functions reported as mean milliseconds per call, <key>_ms.
PER_CALL = [
    "gradcore.backward",
    "gradcore.adam_step",
    "gradcore.load_checkpoint",
    "gradcore.save_checkpoint",
    "data.augment",
    "data.read_sample",
    "data.generate_scene",
    "sid.hard_decode",
    "metrics.compute_metrics",
]
# Traced but not reported on their own: they complete the reconciliation
# of a step, and init_params names the convolutions by their weights.
_UNREPORTED = [
    "losses.total_loss",
    "losses.loss_log",
    "losses.loss_grad",
    "sid.depth_to_label",
    "sid.encode_rank",
    "gradcheck.check_gradients",
    "network.init_params",
]


def conv_names() -> list[str]:
    """Names of the network's convolutions, in parameter-store order."""
    cfg = network.NetworkConfig(k_levels=2, height=16, width=16)
    params = network.init_params(cfg, gradcore.Rng(0))
    return [n[:-2] for n in params.names() if n.endswith(".w")]


_UNITS = (("_pct", "%"), ("ms", "ms"), ("macs", "MAC"), ("bytes", "bytes"),
          ("calls", "count"), ("nodes", "count"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    return next(unit for suffix, unit in _UNITS if metric.endswith(suffix))


def patch_everywhere(stack: contextlib.ExitStack, orig, replacement) -> None:
    """Point every aced module attribute that is `orig` at `replacement`
    until `stack` closes."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "aced" and not mod_name.startswith("aced."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                stack.callback(setattr, mod, attr, orig)


class Tracer:
    """Accumulates inclusive forward seconds, backward seconds, call counts
    and conv MACs per key while active."""

    def __init__(self):
        self.fwd = defaultdict(float)
        self.bwd = defaultdict(float)
        self.calls = defaultdict(int)
        self.macs = defaultdict(int)
        self.top = defaultdict(float)  # time in calls made outside any other
        self.tape_nodes = 0
        self.tape_bytes = 0
        self._stack: list[str] = []
        self._conv_by_id: dict[int, tuple] = {}  # id(weight) -> (weight, name)

    @contextlib.contextmanager
    def active(self):
        with contextlib.ExitStack() as stack:
            for key in STAGES + [f"gradcore.{op}" for op in OPS] + PER_CALL + _UNREPORTED:
                mod, func = key.split(".")
                orig = getattr(sys.modules[f"aced.{mod}"], func)
                patch_everywhere(stack, orig, self._wrap(key, orig))
            patch_everywhere(stack, gradcore.Tape, self._tape_class())
            yield self

    def _conv_name(self, weight) -> str | None:
        entry = self._conv_by_id.get(id(weight))
        return entry[1] if entry is not None and entry[0] is weight else None

    def _wrap(self, key, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            keys = [key]
            if key == "gradcore.conv2d":
                name = self._conv_name(args[2] if len(args) > 2 else kwargs["weight"])
                if name is not None:
                    keys.append(f"gradcore.conv2d.{name}")
            top = not stack
            stack.extend(keys)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                del stack[-len(keys):]
                for k in keys:
                    self.fwd[k] += dt
                    self.calls[k] += 1
                if top:
                    self.top[key] += dt
            if key == "gradcore.conv2d":
                weight = args[2] if len(args) > 2 else kwargs["weight"]
                b, _, oh, ow = out.shape
                for k in keys:
                    self.macs[k] += b * oh * ow * weight.data.size
            elif key == "network.init_params":
                for pname, t in out.items():
                    if pname.endswith(".w"):
                        self._conv_by_id[id(t)] = (t, pname[:-2])
            return out

        return traced

    def _tape_class(self):
        tracer = self

        class TimedTape(gradcore.Tape):
            def record(self, name, inputs, output, backward_fn):
                keys = tuple(tracer._stack)
                bwd = tracer.bwd

                def timed(g, _fn=backward_fn):
                    t0 = perf_counter()
                    _fn(g)
                    dt = perf_counter() - t0
                    for k in keys:
                        bwd[k] += dt

                tracer.tape_nodes += 1
                tracer.tape_bytes += output.data.nbytes
                super().record(name, inputs, output, timed)

        return TimedTape

    def per_call_ms(self, key: str) -> float:
        n = self.calls.get(key, 0)
        return 1e3 * self.fwd[key] / n if n else 0.0


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, ops: int, call_s: float,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer values for one traced phase of `ops` operations (steps,
    images or suites) whose command calls took `call_s` seconds in total.

    fwd_ms/bwd_ms/calls/macs/tape counts are per operation; <key>_ms values
    are per call, taken from the set-up when the measured phase never made
    that call (scene generation, the eval checkpoint save).
    """
    def per_op(value):
        return value / ops

    out = {}
    for key in STAGES:
        out[f"{key}.fwd_ms"] = per_op(1e3 * tracer.fwd[key])
        out[f"{key}.bwd_ms"] = per_op(1e3 * tracer.bwd[key])
    out["losses.total_loss.fwd_ms"] = per_op(1e3 * tracer.fwd["losses.total_loss"])
    out["losses.loss_log.bwd_ms"] = per_op(1e3 * tracer.bwd["losses.loss_log"])
    out["losses.loss_grad.bwd_ms"] = per_op(1e3 * tracer.bwd["losses.loss_grad"])
    for op in OPS:
        key = f"gradcore.{op}"
        out[f"{key}.fwd_ms"] = per_op(1e3 * tracer.fwd[key])
        out[f"{key}.bwd_ms"] = per_op(1e3 * tracer.bwd[key])
        out[f"{key}.calls"] = per_op(tracer.calls[key])
    out["gradcore.conv2d.macs"] = per_op(tracer.macs["gradcore.conv2d"])
    for name in conv_names():
        key = f"gradcore.conv2d.{name}"
        out[f"{key}.fwd_ms"] = per_op(1e3 * tracer.fwd[key])
        out[f"{key}.bwd_ms"] = per_op(1e3 * tracer.bwd[key])
        out[f"{key}.macs"] = per_op(tracer.macs[key])
    out["gradcore.tape_nodes"] = per_op(tracer.tape_nodes)
    out["gradcore.tape_bytes"] = per_op(tracer.tape_bytes)
    for key in PER_CALL:
        source = tracer if tracer.calls.get(key) else setup_tracer
        out[f"{key}_ms"] = source.per_call_ms(key)
    out["gradcheck.check_gradients.calls"] = per_op(tracer.calls["gradcheck.check_gradients"])
    out["gradcheck.check_gradients.ms"] = tracer.per_call_ms("gradcheck.check_gradients")

    conv_s = tracer.fwd["gradcore.conv2d"] + tracer.bwd["gradcore.conv2d"]
    fuse_s = sum(tracer.fwd[k] + tracer.bwd[k] for k in list(tracer.fwd)
                 if k.startswith("gradcore.conv2d.fuse"))
    backward_s = tracer.fwd["gradcore.backward"]
    out["trace.overhead_pct"] = overhead_pct
    out["trace.unattributed_pct"] = (
        100.0 * (call_s - sum(tracer.top.values())) / call_s if call_s else 0.0)
    out["trace.conv2d_bwd_share_pct"] = (
        100.0 * tracer.bwd["gradcore.conv2d"] / backward_s if backward_s else 0.0)
    out["trace.fuse_conv_share_pct"] = 100.0 * fuse_s / conv_s if conv_s else 0.0
    return out


# Top-level calls grouped for the reconciliation table.
_GROUPS = {
    "forward stages": [k for k in STAGES if k != "ordhead.ordinal_loss"],
    "loss": ["losses.total_loss", "ordhead.ordinal_loss", "losses.loss_log",
             "losses.loss_grad"],
    "backward": ["gradcore.backward"],
    "adam_step": ["gradcore.adam_step"],
    "data": ["data.augment", "data.read_sample", "data.generate_scene",
             "sid.depth_to_label", "sid.encode_rank"],
    "decode + metrics": ["sid.hard_decode", "metrics.compute_metrics"],
    "check_gradients": ["gradcheck.check_gradients"],
}


def reconcile(tracer: Tracer, ops: int, call_s: float, values: dict) -> list[str]:
    """Time in top-level traced calls, grouped, in ms per operation, against
    the traced command time per operation."""
    lines = ["reconciliation, ms per operation over the traced commands:"]
    grouped = 0.0
    for group, keys in _GROUPS.items():
        ms = 1e3 * sum(tracer.top[k] for k in keys) / ops
        grouped += ms
        if ms:
            lines.append(f"  {group:<18} {ms:10.3f}")
    traced = 1e3 * sum(tracer.top.values()) / ops
    lines.append(f"  {'other traced':<18} {traced - grouped:10.3f}")
    lines.append(f"  {'sum':<18} {traced:10.3f}  of {1e3 * call_s / ops:.3f} command time; "
                 f"{values['trace.unattributed_pct']:.2f}% outside every traced call "
                 f"(tracing overhead {values['trace.overhead_pct']:+.2f}%)")
    for key in STAGES:
        lines.append(f"  {key:<28} fwd {values[key + '.fwd_ms']:10.3f}  "
                     f"bwd {values[key + '.bwd_ms']:10.3f}")
    lines.append(f"  conv2d share of backward {values['trace.conv2d_bwd_share_pct']:.1f}%, "
                 f"fusion share of conv2d time {values['trace.fuse_conv_share_pct']:.1f}%")
    return lines
