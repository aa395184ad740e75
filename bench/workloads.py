"""The three benchmark workloads and the closed-loop measurement around them.

Each workload drives one public aced entry point, one call at a time in
one process (a closed loop with a single client):

- train_aced: `cli.cmd_train` at the default CLI config (aced mode,
  batch 8, 32x32, K=16) with max_iter=10 per call; one operation is one
  training step (forward, backward, Adam).
- eval_holdout: `cli.cmd_eval` over the 32-image holdout split of a
  generated dataset, batch 1, no tape; one operation is one image.
- gradcheck_suite: `gradcheck.run_full_suite`; one operation is one
  suite of 22 component checks. Components range from 0.3 ms to 2.5 s, so
  a percentile over components would jump between components as the
  number of suites in a run changes.

Training-step and image boundaries come from a timestamp taken when the
command calls the public function that starts each operation (`poly_lr`,
`read_sample`); that is the only instrumentation in the untraced run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from aced import cli, gradcheck, gradcore, network

import layer_trace

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
TRAIN_ITERS = 10
LOSS_TAIL_STEPS = 5


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile up to p90 with at least 10 samples
    above it, as (percentile, nearest-rank value, samples above). Falls back
    to the median when there are too few samples. Above p90 the value is
    set by rare host preemptions and spreads 0.2-0.3 from run to run."""
    xs = sorted(values)
    n = len(xs)
    for q in range(90, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, xs[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, xs[rank - 1], n - rank


# ---------------------------------------------------------------------------
# Operation boundaries
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def op_marks(module, start_attr: str | None, end_attr: str | None):
    """Record perf_counter() each time `module.start_attr` is called; the
    optional `end_attr` call closes the last operation."""
    marks: list[float] = []
    end: list[float] = []

    def wrap(fn, out):
        def marked(*args, **kwargs):
            out.append(perf_counter())
            return fn(*args, **kwargs)
        return marked

    with contextlib.ExitStack() as stack:
        for attr, out in ((start_attr, marks), (end_attr, end)):
            if attr is not None:
                orig = getattr(module, attr)
                setattr(module, attr, wrap(orig, out))
                stack.callback(setattr, module, attr, orig)
        yield marks, end


@contextlib.contextmanager
def cpu_rotation():
    """Yield pin(i): pin this process to the i-th allowed CPU (cyclically)
    until the block exits. Each vCPU of a shared VM is slowed by other
    tenants independently, for tens of seconds at a time; pinning the calls
    of a run in turn to every CPU samples them alike instead of whichever
    one the scheduler kept the process on."""
    if not hasattr(os, "sched_setaffinity"):
        yield lambda i: None
        return
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        yield lambda i: os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    finally:
        os.sched_setaffinity(0, allowed)


def op_durations(marks: list[float], end: list[float], call_end: float) -> list[float]:
    bounds = marks + [end[0] if end else call_end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    sets: list[str]  # config overrides on top of the CLI defaults
    setup: Callable  # (cfg, workdir) -> state
    call: Callable  # (cfg, state, workdir, index) -> output
    check: Callable  # (cfg, outputs) -> list of failure messages per output
    items: Callable  # (cfg, output) -> images (or component checks) in one call
    op_label: str  # what one operation is, for the report
    aliases: dict  # report names for op_ms, items_per_s and the call time
    op_module: object = None
    op_start: str | None = None  # None: the whole call is one operation
    op_end: str | None = None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _train_setup(cfg, workdir: Path):
    manifest = cli.cmd_gen_data(cfg, workdir / "data")
    warm = cli.RunConfig(values=tuple((k, 1 if k == "max_iter" else v) for k, v in cfg.values))
    cli.cmd_train(warm, manifest, workdir / "warm.ckpt", workdir / "warm.log")
    return {"manifest": manifest}


def _train_call(cfg, state, workdir: Path, index: int):
    ckpt = workdir / f"train_{index}.ckpt"
    log = workdir / f"train_{index}.log"
    cli.cmd_train(cfg, state["manifest"], ckpt, log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    out = {"sha256": _sha256(ckpt), "records": records}
    ckpt.unlink()
    log.unlink()
    return out


def _train_check(cfg, outputs):
    failures = []
    first = outputs[0]["sha256"] if outputs else None
    for out in outputs:
        problems = []
        if len(out["records"]) != cfg.max_iter:
            problems.append(f"{len(out['records'])} log records for {cfg.max_iter} iterations")
        for rec in out["records"]:
            for key in ("loss", "loss_ord", "loss_log", "loss_grad"):
                if not math.isfinite(rec[key]):
                    problems.append(f"iteration {rec['iter']}: {key}={rec[key]!r}")
        if out["sha256"] != first:
            problems.append(f"checkpoint sha256 {out['sha256'][:12]} != {first[:12]}")
        failures.append(problems)
    return failures


def _eval_setup(cfg, workdir: Path):
    manifest = cli.cmd_gen_data(cfg, workdir / "data")
    params = network.init_params(cfg.network_config(),
                                 gradcore.Rng(gradcore.derive_seed(cfg.seed, "params")))
    ckpt = workdir / "eval.ckpt"
    gradcore.save_checkpoint(params, ckpt)
    cli.cmd_eval(cfg, ckpt, manifest)
    return {"manifest": manifest, "checkpoint": ckpt}


def _eval_call(cfg, state, workdir: Path, index: int):
    return cli.cmd_eval(cfg, state["checkpoint"], state["manifest"])


def _eval_check(cfg, outputs):
    pixels = cfg.holdout * cfg.image_h * cfg.image_w
    failures = []
    for out in outputs:
        problems = []
        for kind, rec in out.items():
            for key, value in rec.items():
                if isinstance(value, float) and not math.isfinite(value):
                    problems.append(f"{kind}.{key}={value!r}")
            if rec["pixel_count"] != pixels:
                problems.append(f"{kind}.pixel_count={rec['pixel_count']} != {pixels}")
        if out != outputs[0]:
            problems.append("aggregates differ from the first call")
        failures.append(problems)
    return failures


def _gradcheck_setup(cfg, workdir: Path):
    return {}


def _gradcheck_call(cfg, state, workdir: Path, index: int):
    return gradcheck.run_full_suite(seed=cfg.seed)


def _gradcheck_check(cfg, outputs):
    failures = []
    for out in outputs:
        problems = [f"{r.name}: max relative error {r.max_rel_err:.3e} >= {r.tolerance:.0e}"
                    for r in out if not r.passed]
        if out != outputs[0]:
            problems.append("results differ from the first suite")
        failures.append(problems)
    return failures


WORKLOADS = {
    "train_aced": Workload(
        name="train_aced", sets=[f"max_iter={TRAIN_ITERS}"],
        setup=_train_setup, call=_train_call, check=_train_check,
        items=lambda cfg, out: cfg.max_iter * cfg.batch_size, op_label="training step",
        op_module=cli, op_start="poly_lr", op_end="save_checkpoint",
        aliases={"op_ms": "step_ms", "items_per_s": "train.img_per_s",
                 "call_s": "train.call_s"},
    ),
    "eval_holdout": Workload(
        name="eval_holdout", sets=[],
        setup=_eval_setup, call=_eval_call, check=_eval_check,
        items=lambda cfg, out: cfg.holdout, op_label="evaluated image",
        op_module=cli, op_start="read_sample",
        aliases={"op_ms": "eval.img_ms", "items_per_s": "eval.img_per_s",
                 "call_s": "eval.call_s"},
    ),
    "gradcheck_suite": Workload(
        name="gradcheck_suite", sets=[],
        setup=_gradcheck_setup, call=_gradcheck_call, check=_gradcheck_check,
        items=lambda cfg, out: len(out), op_label="grad-check suite",
        aliases={"op_ms": "gradcheck.suite_ms", "items_per_s": "gradcheck.checks_per_s",
                 "call_s": "gradcheck_s"},
    ),
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """The calls made in one measured phase."""

    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # (call index, message)
    call_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    ops_per_call: list = field(default_factory=list)
    items: int = 0


def measure(wl: Workload, cfg, state, workdir: Path, seconds: float, min_calls: int,
            pin, phase: Phase | None = None) -> Phase:
    """Call the workload's command back to back, call i pinned by pin(i),
    until `seconds` have passed and at least `min_calls` calls were made.
    Each call starts after a full garbage collection: every step's tape is a
    reference cycle, so otherwise the garbage a call leaves changes when the
    next call pauses to collect and how much memory it holds."""
    phase = phase or Phase()
    start = perf_counter()
    calls = 0
    while calls < min_calls or perf_counter() - start < seconds:
        index = len(phase.call_s) + len(phase.errors)
        pin(index)
        gc.collect()
        with op_marks(wl.op_module, wl.op_start, wl.op_end) as (marks, end):
            t0 = perf_counter()
            try:
                out = wl.call(cfg, state, workdir, index)
            except Exception as e:  # a failed call is counted, not fatal
                phase.errors.append((index, f"{type(e).__name__}: {e}"))
                phase.ops_per_call.append(max(len(marks), 1))
                calls += 1
                continue
            t1 = perf_counter()
        ops = op_durations(marks, end, t1) if wl.op_start else [t1 - t0]
        phase.outputs.append(out)
        phase.call_s.append(t1 - t0)
        phase.op_s.extend(ops)
        phase.ops_per_call.append(len(ops))
        phase.items += wl.items(cfg, out)
        calls += 1
    return phase


def import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter spends importing the aced CLI (numpy
    included), as that interpreter measures it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import aced.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=120,
                          capture_output=True, text=True)
    return float(proc.stdout)


def load_workload_config(wl: Workload, seed: int, extra_sets=()):
    return cli.load_config(sets=wl.sets + list(extra_sets), seed=seed)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    report: list  # human-readable lines


def _check_phase(wl: Workload, cfg, phase: Phase):
    """(failed operations, failure messages) for one phase."""
    problems = wl.check(cfg, phase.outputs)
    ok_calls = [i for i in range(len(phase.ops_per_call))
                if i not in {e[0] for e in phase.errors}]
    failed = sum(phase.ops_per_call[i] for i, _ in phase.errors)
    messages = [f"call {i}: {msg}" for i, msg in phase.errors]
    for i, probs in zip(ok_calls, problems):
        if probs:
            failed += phase.ops_per_call[i]
            messages.extend(f"call {i}: {p}" for p in probs)
    return failed, messages


def run_untraced(wl: Workload, seed: int, seconds: float, workdir: Path, src: Path | None,
                 pin, extra_sets=()) -> Result:
    cfg = load_workload_config(wl, seed, extra_sets)
    imports = [import_seconds(src) for _ in range(IMPORT_REPEATS)] if src else [0.0]
    setups = []
    for i in range(SETUP_REPEATS):
        pin(i)
        t0 = perf_counter()
        state = wl.setup(cfg, workdir / f"setup_{i}")
        setups.append(perf_counter() - t0)
    phase = measure(wl, cfg, state, workdir, seconds, 2, pin)
    failed, messages = _check_phase(wl, cfg, phase)
    attempted = max(sum(phase.ops_per_call), 1)

    setup_s = statistics.median(imports) + statistics.median(setups)
    op_ms = [1e3 * s for s in phase.op_s] or [float("nan")]
    q, tail, beyond = tail_percentile(op_ms)
    items = phase.items
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.tail": (tail, "ms"),
        "items_per_s": (items / sum(phase.call_s) if phase.call_s else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    alias = wl.aliases
    call_s = statistics.median(phase.call_s) if phase.call_s else float("nan")
    n_ops = len(op_ms)
    lines = [
        f"setup_s = {setup_s:.4f} s  (median import {statistics.median(imports):.4f} s "
        f"of {len(imports)} + median set-up {statistics.median(setups):.4f} s of {len(setups)})",
        f"{alias['op_ms']}.p50 = {metrics['op_ms.p50'][0]:.4f} ms  "
        f"(one {wl.op_label}, n={n_ops})  [op_ms.p50]",
        f"{alias['op_ms']}.tail = {tail:.4f} ms  (p{q}, n={n_ops}, {beyond} above)  [op_ms.tail]",
        f"{alias['items_per_s']} = {metrics['items_per_s'][0]:.4f} 1/s  "
        f"({items} over {sum(phase.call_s):.3f} s of command calls)  [items_per_s]",
        f"{alias['call_s']} = {call_s:.4f} s  (median command call, "
        f"n={len(phase.call_s)}; reported, not gated)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    if wl.name == "train_aced" and phase.outputs:
        records = phase.outputs[0]["records"][-LOSS_TAIL_STEPS:]
        loss_last = statistics.fmean(r["loss"] for r in records)
        lines.append(f"train.loss_last = {loss_last:.6f} loss  (mean total loss over the "
                     f"last {len(records)} of {cfg.max_iter} steps; reported, not gated)")
    lines.append(f"error_rate = {failed / attempted:.4f} failed/attempted  "
                 f"({failed}/{attempted})")
    lines.extend(f"FAILED {m}" for m in messages)
    correct = failed == 0 and not messages
    return Result(correct, attempted, failed, metrics, lines)


def run_traced(wl: Workload, seed: int, seconds: float, workdir: Path, pin,
               extra_sets=()) -> Result:
    """Untraced and traced calls alternate, so a drift in machine speed
    reaches both alike; per-layer values come from the traced calls, the
    overhead from comparing the two."""
    cfg = load_workload_config(wl, seed, extra_sets)
    setup_tracer = layer_trace.Tracer()
    with setup_tracer.active():
        state = wl.setup(cfg, workdir / "setup")
    tracer = layer_trace.Tracer()
    plain, traced = Phase(), Phase()
    start = perf_counter()
    while not plain.ops_per_call or perf_counter() - start < seconds:
        measure(wl, cfg, state, workdir, 0, 1, pin, phase=plain)
        with tracer.active():
            measure(wl, cfg, state, workdir, 0, 1, pin, phase=traced)

    both = Phase(outputs=plain.outputs + traced.outputs,
                 errors=plain.errors + [(i + len(plain.ops_per_call), m)
                                        for i, m in traced.errors],
                 ops_per_call=plain.ops_per_call + traced.ops_per_call)
    failed, messages = _check_phase(wl, cfg, both)
    attempted = max(sum(both.ops_per_call), 1)

    n_ops = max(len(traced.op_s), 1)
    plain_p50 = statistics.median(plain.op_s) if plain.op_s else float("nan")
    traced_p50 = statistics.median(traced.op_s) if traced.op_s else float("nan")
    overhead_pct = 100.0 * (traced_p50 / plain_p50 - 1.0)
    values = layer_trace.layer_metrics(tracer, setup_tracer, n_ops, sum(traced.call_s),
                                       overhead_pct)
    metrics = {k: (v, layer_trace.unit_of(k)) for k, v in values.items()}

    lines = [f"per-layer values are per {wl.op_label} over {len(traced.op_s)} traced "
             f"operations; <name>_ms values are per call",
             f"untraced {wl.op_label} p50 {1e3 * plain_p50:.3f} ms (n={len(plain.op_s)}), "
             f"traced p50 {1e3 * traced_p50:.3f} ms (n={len(traced.op_s)}), "
             f"overhead {overhead_pct:+.2f}%"]
    lines.extend(layer_trace.reconcile(tracer, n_ops, sum(traced.call_s), values))
    lines.append(f"error_rate = {failed / attempted:.4f} failed/attempted  "
                 f"({failed}/{attempted})")
    lines.extend(f"FAILED {m}" for m in messages)
    return Result(failed == 0 and not messages, attempted, failed, metrics, lines)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        src: Path | None, extra_sets=()) -> Result:
    wl = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with cpu_rotation() as pin:
            if trace:
                return run_traced(wl, seed, seconds, workdir, pin, extra_sets)
            return run_untraced(wl, seed, seconds, workdir, src, pin, extra_sets)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
