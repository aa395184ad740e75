"""Command-line harness: dataset generation, training, evaluation, single
image inference, gradient checking and depth-map rendering, all driven by a
flat key=value config with deterministic seeded behaviour.

Config precedence is defaults < --set overrides (in order) < an explicit
--seed flag. Exit codes: 0 success, 1 usage error, 2 numerical failure.
The depth range is the constant sid.DEPTH_RANGE, since a checkpoint means it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gradcheck as gradcheck_mod
from .data import (
    NetpbmError,
    SceneSpec,
    augment,
    read_manifest,
    read_ppm,
    read_pgm16,
    read_sample,
    generate_dataset,
    write_pgm16,
    write_ppm,
)
from .gradcore import (
    CheckpointError,
    GradcoreError,
    ParamStore,
    Rng,
    Tape,
    Tensor,
    adam_step,
    backward,
    derive_seed,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
    upsample_nearest,
)
from .losses import total_loss
from .metrics import MetricsError, compute_metrics, depth_fault, pool_metrics
from .network import NetworkConfig, forward, init_params
from .sid import DEPTH_RANGE, depth_to_label, encode_rank, hard_decode

__all__ = [
    "ConfigError",
    "NumericalFailure",
    "RunConfig",
    "load_config",
    "cmd_gen_data",
    "cmd_train",
    "cmd_eval",
    "cmd_infer",
    "cmd_grad_check",
    "cmd_render",
    "main",
]


class ConfigError(Exception):
    pass


class NumericalFailure(Exception):
    pass


# key -> (parser, default). Defaults are desk-scale: small widths and few
# iterations so the whole pipeline runs in minutes on one thread.
_SCHEMA: dict[str, tuple] = {
    "k": (int, 16),
    "image_h": (int, 32),
    "image_w": (int, 32),
    "base_width": (int, 4),
    "fusion_width": (int, 16),
    "lr": (float, 5e-3),
    "max_iter": (int, 500),
    "batch_size": (int, 8),
    "seed": (int, 0),
    "w_log": (float, 1.0),
    "w_grad": (float, 1.0),
    "num_scenes": (int, 256),
    "holdout": (int, 32),
}

LR_POWER = 0.9  # power of the polynomial learning-rate decay, as in DORN


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration; see _SCHEMA for keys and defaults."""

    values: tuple  # (key, value) pairs in schema order

    def __post_init__(self):
        self.__dict__.update(self.values)

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            k_levels=self.k,
            height=self.image_h,
            width=self.image_w,
            base_width=self.base_width,
            fusion_width=self.fusion_width,
        )


def load_config(sets: list[str] | None = None, seed: int | None = None) -> RunConfig:
    merged = {k: default for k, (_, default) in _SCHEMA.items()}
    for i, item in enumerate(sets or []):
        where = f"--set #{i + 1}"
        if "=" not in item:
            raise ConfigError(f"{where}: expected key=value, got {item!r}")
        key, _, raw = (part.strip() for part in item.partition("="))
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            merged[key] = _SCHEMA[key][0](raw)
        except ValueError as e:
            raise ConfigError(f"{where}: bad value for {key!r}: {e}") from None
    if seed is not None:
        merged["seed"] = seed

    cfg = RunConfig(values=tuple((k, merged[k]) for k in _SCHEMA))
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for key, value in cfg.values:
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if cfg.lr <= 0:
        raise ConfigError(f"lr must be > 0, got {cfg.lr!r}")
    try:
        cfg.network_config()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if cfg.w_log < 0 or cfg.w_grad < 0:
        raise ConfigError("loss weights must be non-negative")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if cfg.max_iter < 0:
        raise ConfigError("max_iter must be >= 0")
    if cfg.num_scenes < 0:
        raise ConfigError("num_scenes must be >= 0")
    if not 0 <= cfg.holdout <= cfg.num_scenes:
        raise ConfigError("holdout must lie in [0, num_scenes]")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, out_dir) -> Path:
    spec = SceneSpec(cfg.seed, cfg.image_h, cfg.image_w)
    return generate_dataset(spec, cfg.num_scenes, out_dir)


def _split_pairs(cfg: RunConfig, pairs, split: str):
    """The last `holdout` pairs of the manifest are the holdout split, the
    rest the train split."""
    cut = len(pairs) - cfg.holdout
    if cut < 0:
        raise ConfigError(f"holdout={cfg.holdout} exceeds the {len(pairs)} pairs of the manifest")
    if split == "train":
        return pairs[:cut]
    if split == "holdout":
        return pairs[cut:]
    raise ConfigError(f"unknown split {split!r}")


def _stack_batch(samples):
    image = Tensor(np.stack([s.image for s in samples]))
    depth = np.stack([s.depth for s in samples])
    return image, depth


def _check_train_split(pairs, samples) -> None:
    """Every image (3, H, W) and every depth (1, H, W) at the first image's H
    and W, both multiples of 16, and every stored depth integer above 0, so
    that each depth is positive; read from the file integers, not decoded.
    Raises ConfigError naming the first file that breaks this."""
    h, w = samples[0].rgb.shape[1:]
    if h % 16 or w % 16:
        raise ConfigError(f"{pairs[0][0]}: dimensions ({h}x{w}) must be multiples of 16")
    for (img_path, dep_path), s in zip(pairs, samples):
        for path, got in ((img_path, s.rgb.shape[1:]), (dep_path, s.depth_raw.shape[1:])):
            if got != (h, w):
                raise ConfigError(f"{path}: dimensions ({got[0]}x{got[1]}) differ from "
                                  f"the ({h}x{w}) of {pairs[0][0]}, the split's first image")
        if not s.depth_raw.all():
            raise ConfigError(f"{dep_path}: {np.count_nonzero(s.depth_raw == 0)} depth "
                              f"pixels are 0; every depth must be positive")


def cmd_train(cfg: RunConfig, manifest_path, out_checkpoint, log_path=None) -> Path:
    """Adam with polynomial decay over the train split of the manifest,
    training the whole graph end to end on the weighted loss terms at the
    full image size. Every batch gets photometric jitter (`augment`). The
    split is checked once, before the log is opened (`_check_train_split`).

    `--set w_log=0 --set w_grad=0` gives ordinal-only (DORN-style)
    training: the fusion and refinement parameters then get zero gradients
    and stay at their initial values. Emits one JSON line per iteration
    and writes a checkpoint; aborts with a diagnostic on non-finite loss.
    """
    pairs = _split_pairs(cfg, read_manifest(manifest_path), "train")
    if not pairs:
        raise ConfigError("training split is empty")
    samples = [read_sample(img, dep) for img, dep in pairs]
    _check_train_split(pairs, samples)
    params = init_params(cfg.network_config(), Rng(derive_seed(cfg.seed, "params")))
    rng_aug = Rng(derive_seed(cfg.seed, "augment"))
    n = len(samples)

    log_path = Path(log_path) if log_path else Path(str(out_checkpoint) + ".log.jsonl")
    with open(log_path, "w", newline="\n") as log:
        for it in range(cfg.max_iter):
            lr_it = poly_lr(cfg.lr, it, cfg.max_iter, LR_POWER)
            batch = [augment(samples[(it * cfg.batch_size + j) % n], rng_aug)
                     for j in range(cfg.batch_size)]
            image, depth_gt = _stack_batch(batch)
            target = encode_rank(depth_to_label(depth_gt, cfg.k), cfg.k)

            tape = Tape()
            out = forward(tape, image, params)
            loss, parts = total_loss(tape, out.logits, target, out.refined, depth_gt,
                                     cfg.w_log, cfg.w_grad)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericalFailure(
                    f"training diverged: loss {loss_val!r} at iteration {it} "
                    f"(lr={lr_it}); first non-finite output: {tape.first_non_finite()}; "
                    f"the log up to it is in {log_path}"
                )
            params.zero_grads()
            backward(loss)
            adam_step(params, lr_it)
            record = {"iter": it, "lr": lr_it, "loss": loss_val, **parts}
            log.write(json.dumps(record) + "\n")
    save_checkpoint(params, out_checkpoint)
    return log_path


def _load_model(cfg: RunConfig, checkpoint) -> ParamStore:
    params = init_params(cfg.network_config(), Rng(0))
    load_checkpoint(params, checkpoint)
    return params


def cmd_eval(cfg: RunConfig, checkpoint, manifest_path, split: str = "holdout",
             out_path=None) -> dict:
    """Metrics for coarse, refined and hard-decode outputs on a manifest
    split; one JSON line per (image, output) plus pixel-weighted aggregates.
    Returns {output_kind: aggregate dict}.

    A pair that cannot be scored (a non-positive depth) is skipped, and so
    is the aggregate of its output kind, as is an aggregate whose pooled sums
    overflow; the rest is still written, then a MetricsError names the first
    failure and counts the failed pairs."""
    pairs = _split_pairs(cfg, read_manifest(manifest_path), split)
    if not pairs:
        raise ConfigError(f"split {split!r} of {manifest_path} is empty")
    params = _load_model(cfg, checkpoint)

    lines, failures = [], []
    reports: dict[str, list] = {}  # kind -> the MetricReport of each scored image
    for img_path, dep_path in pairs:
        name = Path(img_path).name
        sample = read_sample(img_path, dep_path)
        image, depth_gt = _stack_batch([sample])
        out = forward(None, image, params)
        hard = Tensor(hard_decode(out.probs))  # at the head's resolution
        decoded = {
            "coarse": out.coarse.data,
            "refined": out.refined.data,
            "hard": upsample_nearest(None, hard, image.shape[2] // hard.shape[2]).data,
        }
        del out  # its logits and probabilities would stay alive through the next forward
        for kind, d in decoded.items():
            try:
                rep = compute_metrics(d, depth_gt)
            except MetricsError as e:
                failures.append((kind, f"{name}, {kind} output: {e}"))
                continue
            lines.append({"image": name, "output": kind, **rep.to_dict()})
            reports.setdefault(kind, []).append(rep)

    aggregates, failed_pairs = {}, len(failures)
    for kind, reps in reports.items():
        if any(kind == failed for failed, _ in failures):
            continue
        try:  # every image scored, but a pooled sum may not fit a float
            aggregates[kind] = {"output": kind, "aggregate": True, **pool_metrics(reps).to_dict()}
        except MetricsError as e:
            failures.append((kind, f"{kind} aggregate: {e}"))
    lines.extend(aggregates.values())

    if out_path is not None:
        with open(out_path, "w", newline="\n") as f:
            for line in lines:
                f.write(json.dumps(line) + "\n")
    if failures:
        raise MetricsError(f"{failures[0][1]} ({failed_pairs} of "
                           f"{len(pairs) * len(decoded)} (image, output) pairs failed)")
    return aggregates


def cmd_infer(cfg: RunConfig, checkpoint, image_path, out_prefix) -> dict[str, Path]:
    """One forward pass on a PPM image; writes refined depth (PGM, scale
    beta/65535, so depths above beta are clipped to beta), confidence (PGM,
    scale 1/65535) and the render of that depth PGM. A non-finite or
    non-positive refined depth raises MetricsError before any file is written."""
    image_arr = read_ppm(image_path)
    _, h, w = image_arr.shape
    if h % 16 or w % 16:
        raise ConfigError(f"{image_path}: dimensions ({h}x{w}) must be multiples of 16")
    params = _load_model(cfg, checkpoint)
    out = forward(None, Tensor(image_arr[None]), params)
    depth = out.refined.data[0]
    if fault := depth_fault(depth):
        raise MetricsError(f"{image_path}: {fault[0]} refined depth: "
                           f"{fault[1]} of {depth.size} pixels")
    conf = out.confidence.data[0]
    paths = {
        "depth": Path(f"{out_prefix}.depth.pgm"),
        "confidence": Path(f"{out_prefix}.conf.pgm"),
        "visualization": Path(f"{out_prefix}.vis.ppm"),
    }
    write_pgm16(paths["depth"], depth, DEPTH_RANGE.beta / 65535.0)
    write_pgm16(paths["confidence"], conf, 1.0 / 65535.0)
    cmd_render(paths["depth"], paths["visualization"])
    return paths


def cmd_render(depth_path, out_path) -> Path:
    """Grayscale visualization of a depth PGM (PPM, linear [alpha, beta] ->
    [0, 255]); infer writes its visualization this way."""
    depth, _ = read_pgm16(depth_path)
    gray = np.clip((depth - DEPTH_RANGE.alpha) / (DEPTH_RANGE.beta - DEPTH_RANGE.alpha), 0.0, 1.0)
    write_ppm(out_path, np.broadcast_to(gray, (3,) + depth.shape[1:]).copy())
    return Path(out_path)


def cmd_grad_check(cfg: RunConfig, corrupt_op: str | None = None) -> bool:
    """Run the finite-difference suite; prints one line per component and
    returns True only if every component passed."""
    results = gradcheck_mod.run_full_suite(seed=cfg.seed, corrupt_op=corrupt_op)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max relative error {r.max_rel_err:.3e} "
              f"(tolerance {r.tolerance:.0e})")
    ok = all(r.passed for r in results)
    print(f"grad-check: {'all checks passed' if ok else 'FAILURES detected'}")
    return ok


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="aced", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key (repeatable)")

    p = sub.add_parser("gen-data", help="write synthetic scenes plus a manifest")
    common(p)
    p.add_argument("out_dir", type=Path)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    common(p)
    p.add_argument("manifest", type=Path)
    p.add_argument("out_checkpoint", type=Path)
    p.add_argument("--log", type=Path, default=None, help="training log path")

    p = sub.add_parser("eval", help="evaluate coarse/refined/hard outputs")
    common(p)
    p.add_argument("checkpoint", type=Path)
    p.add_argument("manifest", type=Path)
    p.add_argument("--split", choices=("train", "holdout"), default="holdout")
    p.add_argument("--out", type=Path, default=None, help="metrics JSONL path")

    p = sub.add_parser("infer", help="depth + confidence for one PPM image")
    common(p)
    p.add_argument("checkpoint", type=Path)
    p.add_argument("image", type=Path)
    p.add_argument("out_prefix")

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    common(p)
    p.add_argument("--corrupt", default=None, metavar="OP",
                   help="fault-injection hook: break OP's backward rule")

    p = sub.add_parser("render", help="grayscale visualization of a depth PGM")
    common(p)
    p.add_argument("depth", type=Path)
    p.add_argument("out_ppm", type=Path)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.sets, args.seed)
        if args.command == "gen-data":
            manifest = cmd_gen_data(cfg, args.out_dir)
            print(manifest)
        elif args.command == "train":
            log_path = cmd_train(cfg, args.manifest, args.out_checkpoint, args.log)
            print(f"checkpoint: {args.out_checkpoint}")
            print(f"log: {log_path}")
        elif args.command == "eval":
            aggregates = cmd_eval(cfg, args.checkpoint, args.manifest,
                                  args.split, args.out)
            for kind, rec in aggregates.items():
                print(json.dumps(rec))
        elif args.command == "infer":
            for kind, path in cmd_infer(cfg, args.checkpoint, args.image,
                                        args.out_prefix).items():
                print(f"{kind}: {path}")
        elif args.command == "grad-check":
            if not cmd_grad_check(cfg, args.corrupt):
                return 2
        elif args.command == "render":
            print(cmd_render(args.depth, args.out_ppm))
        return 0
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (ConfigError, NetpbmError, CheckpointError, MetricsError, GradcoreError,
            OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
