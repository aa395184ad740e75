"""Command-line harness: dataset generation, training, evaluation, single
image inference, gradient checking and depth-map rendering, all driven by a
flat key=value config with deterministic seeded behaviour.

Config precedence is defaults < config file < --set overrides (in order)
< explicit --seed/--mode flags. Exit codes: 0 success, 1 usage error,
2 numerical failure.
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
    scale,
)
from .losses import LossWeights, total_loss
from .metrics import MetricsError, compute_metrics
from .network import NetworkConfig, decode_to_logits, encode, forward, init_params
from .ordhead import ordinal_loss, pair_softmax
from .sid import DepthRange, depth_to_label, encode_rank, hard_decode, make_thresholds

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


def _parse_bool(v: str) -> bool:
    if v == "true":
        return True
    if v == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {v!r}")


# key -> (parser, default). Defaults are desk-scale: small widths and few
# iterations so the whole pipeline runs in minutes on one thread.
_SCHEMA: dict[str, tuple] = {
    "k": (int, 16),
    "alpha": (float, 0.5),
    "beta": (float, 8.0),
    "image_h": (int, 32),
    "image_w": (int, 32),
    "input_channels": (int, 3),
    "base_width": (int, 4),
    "fusion_width": (int, 16),
    "lr": (float, 5e-3),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "eps": (float, 1e-8),
    "max_iter": (int, 200),
    "lr_power": (float, 0.9),
    "batch_size": (int, 8),
    "seed": (int, 0),
    "mode": (str, "aced"),
    "detach_confidence": (_parse_bool, False),
    "w_ord": (float, 1.0),
    "w_log": (float, 1.0),
    "w_grad": (float, 1.0),
    "num_scenes": (int, 256),
    "holdout": (int, 32),
    "min_objects": (int, 2),
    "max_objects": (int, 5),
    "noise": (float, 0.02),
    "crop_h": (int, 0),  # 0 means the full image height
    "crop_w": (int, 0),
    "augment": (_parse_bool, True),
    "plane_depth": (float, 3.0),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration; see _SCHEMA for keys and defaults."""

    values: tuple  # (key, value) pairs in schema order

    def __getattr__(self, name):
        for k, v in object.__getattribute__(self, "values"):
            if k == name:
                return v
        raise AttributeError(name)

    def resolved_crop(self) -> tuple[int, int]:
        ch = self.crop_h or self.image_h
        cw = self.crop_w or self.image_w
        return ch, cw

    def depth_range(self) -> DepthRange:
        return DepthRange(self.alpha, self.beta)

    def thresholds(self):
        return make_thresholds(self.depth_range(), self.k)

    def network_config(self) -> NetworkConfig:
        ch, cw = self.resolved_crop()
        return NetworkConfig(
            k_levels=self.k,
            height=ch,
            width=cw,
            input_channels=self.input_channels,
            base_width=self.base_width,
            fusion_width=self.fusion_width,
        )

    def scene_spec(self) -> SceneSpec:
        return SceneSpec(
            seed=self.seed,
            height=self.image_h,
            width=self.image_w,
            depth_range=self.depth_range(),
            min_objects=self.min_objects,
            max_objects=self.max_objects,
            noise=self.noise,
        )

    def loss_weights(self) -> LossWeights:
        return LossWeights(self.w_ord, self.w_log, self.w_grad)


def _parse_pairs(text: str, source: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        yield key.strip(), value.strip(), f"{source}:{lineno}"


def load_config(
    config_path=None,
    sets: list[str] | None = None,
    seed: int | None = None,
    mode: str | None = None,
) -> RunConfig:
    merged = {k: default for k, (_, default) in _SCHEMA.items()}

    def apply(key, raw, where):
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            merged[key] = parser(raw)
        except ValueError as e:
            raise ConfigError(f"{where}: bad value for {key!r}: {e}") from None

    if config_path is not None:
        text = Path(config_path).read_text()
        for key, raw, where in _parse_pairs(text, str(config_path)):
            apply(key, raw, where)
    for i, item in enumerate(sets or []):
        if "=" not in item:
            raise ConfigError(f"--set #{i + 1}: expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        apply(key.strip(), raw.strip(), f"--set #{i + 1}")
    if seed is not None:
        merged["seed"] = seed
    if mode is not None:
        merged["mode"] = mode

    cfg = RunConfig(values=tuple((k, merged[k]) for k in _SCHEMA))
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    try:
        cfg.depth_range()
        cfg.network_config()
        cfg.scene_spec()
        cfg.loss_weights()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    ch, cw = cfg.resolved_crop()
    if ch > cfg.image_h or cw > cfg.image_w:
        raise ConfigError(f"crop ({ch}x{cw}) exceeds image ({cfg.image_h}x{cfg.image_w})")
    if cfg.mode not in ("baseline", "aced"):
        raise ConfigError(f"mode must be 'baseline' or 'aced', got {cfg.mode!r}")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if cfg.max_iter < 0:
        raise ConfigError("max_iter must be >= 0")
    if cfg.num_scenes < 0:
        raise ConfigError("num_scenes must be >= 0")
    if not 0 <= cfg.holdout <= cfg.num_scenes:
        raise ConfigError("holdout must lie in [0, num_scenes]")
    if not cfg.alpha < cfg.plane_depth < cfg.beta:
        raise ConfigError("plane_depth must lie strictly inside (alpha, beta)")
    if not 0 <= cfg.beta1 < 1 or not 0 <= cfg.beta2 < 1:
        raise ConfigError("adam betas must lie in [0, 1)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, out_dir) -> Path:
    return generate_dataset(cfg.scene_spec(), cfg.num_scenes, out_dir)


def _split_pairs(cfg: RunConfig, pairs, split: str):
    holdout = cfg.holdout
    if split == "train":
        return pairs[: len(pairs) - holdout] if holdout else pairs
    if split == "holdout":
        return pairs[len(pairs) - holdout:] if holdout else []
    if split == "all":
        return pairs
    raise ConfigError(f"unknown split {split!r}")


def _stack_batch(samples):
    image = Tensor(np.stack([s.image for s in samples]))
    depth = np.stack([s.depth for s in samples])
    mask = np.stack([s.mask for s in samples])
    return image, depth, mask


def cmd_train(cfg: RunConfig, manifest_path, out_checkpoint, log_path=None) -> Path:
    """Adam with polynomial decay over the train split of the manifest.

    Mode 'baseline' trains the ordinal classifier alone; 'aced' trains the
    whole graph end to end. Emits one JSON line per iteration and writes a
    checkpoint; aborts with a diagnostic on non-finite loss.
    """
    pairs = _split_pairs(cfg, read_manifest(manifest_path), "train")
    if not pairs:
        raise ConfigError("training split is empty")
    samples = [read_sample(img, dep) for img, dep in pairs]
    th = cfg.thresholds()
    net_cfg = cfg.network_config()
    params = init_params(net_cfg, Rng(derive_seed(cfg.seed, "params")))
    rng_aug = Rng(derive_seed(cfg.seed, "augment"))
    weights = cfg.loss_weights()
    crop_h, crop_w = cfg.resolved_crop()
    n = len(samples)

    log_path = Path(log_path) if log_path else Path(str(out_checkpoint) + ".log.jsonl")
    with open(log_path, "w", newline="\n") as log:
        for it in range(cfg.max_iter):
            lr_it = poly_lr(cfg.lr, it, cfg.max_iter, cfg.lr_power)
            batch = [samples[(it * cfg.batch_size + j) % n] for j in range(cfg.batch_size)]
            if cfg.augment:
                batch = [augment(s, rng_aug, crop_h, crop_w) for s in batch]
            image, depth_gt, mask = _stack_batch(batch)
            target = encode_rank(depth_to_label(depth_gt, th), cfg.k)

            tape = Tape()
            if cfg.mode == "baseline":
                feats = encode(tape, image, params, net_cfg)
                probs = pair_softmax(tape, decode_to_logits(tape, feats, params, net_cfg))
                term = ordinal_loss(tape, probs, target, mask)
                loss = scale(tape, term, cfg.w_ord)
                parts = {"loss_ord": term.item(), "loss_log": 0.0, "loss_grad": 0.0}
            else:
                out = forward(tape, image, params, net_cfg, th,
                              detach_confidence=cfg.detach_confidence)
                loss, parts = total_loss(tape, out.probs, target, out.refined,
                                         depth_gt, mask, weights)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericalFailure(
                    f"training diverged: loss {loss_val!r} at iteration {it} "
                    f"(lr={lr_it}, mode={cfg.mode})"
                )
            params.zero_grads()
            backward(loss)
            adam_step(params, lr_it, cfg.beta1, cfg.beta2, cfg.eps)
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
    Returns {output_kind: aggregate dict}."""
    pairs = _split_pairs(cfg, read_manifest(manifest_path), split)
    if not pairs:
        raise ConfigError(f"split {split!r} of {manifest_path} is empty")
    th = cfg.thresholds()
    net_cfg = cfg.network_config()
    params = _load_model(cfg, checkpoint)

    lines = []
    sums: dict[str, dict] = {}
    for img_path, dep_path in pairs:
        sample = read_sample(img_path, dep_path)
        image, depth_gt, mask = _stack_batch([sample])
        out = forward(None, image, params, net_cfg, th)
        decoded = {
            "coarse": out.coarse.data,
            "refined": out.refined.data,
            "hard": hard_decode(out.probs, th),
        }
        for kind, d in decoded.items():
            rep = compute_metrics(d, depth_gt, mask, cfg.plane_depth).to_dict()
            lines.append({"image": Path(img_path).name, "output": kind, **rep})
            agg = sums.setdefault(kind, {"n": 0, "rel": 0.0, "log10": 0.0, "mse": 0.0,
                                         "delta1": 0.0, "delta2": 0.0, "delta3": 0.0,
                                         "dde": 0.0})
            n = rep["pixel_count"]
            agg["n"] += n
            agg["mse"] += rep["rms"] ** 2 * n
            for key in ("rel", "log10", "delta1", "delta2", "delta3", "dde"):
                agg[key] += rep[key] * n

    aggregates = {}
    for kind in ("coarse", "refined", "hard"):
        agg = sums[kind]
        n = agg["n"]
        rec = {"output": kind, "aggregate": True,
               "rel": agg["rel"] / n, "log10": agg["log10"] / n,
               "rms": float(np.sqrt(agg["mse"] / n)),
               "delta1": agg["delta1"] / n, "delta2": agg["delta2"] / n,
               "delta3": agg["delta3"] / n, "dde": agg["dde"] / n,
               "pixel_count": n}
        lines.append(rec)
        aggregates[kind] = rec

    if out_path is not None:
        with open(out_path, "w", newline="\n") as f:
            for line in lines:
                f.write(json.dumps(line) + "\n")
    return aggregates


def _depth_to_gray(depth: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    gray = np.clip((depth - alpha) / (beta - alpha), 0.0, 1.0)
    return np.broadcast_to(gray, (3,) + depth.shape[1:]).copy()


def cmd_infer(cfg: RunConfig, checkpoint, image_path, out_prefix) -> dict[str, Path]:
    """One forward pass on a PPM image; writes refined depth (PGM, scale
    beta/65535), confidence (PGM, scale 1/65535) and a grayscale depth
    visualization (PPM, linear [alpha, beta] -> [0, 255])."""
    image_arr = read_ppm(image_path)
    _, h, w = image_arr.shape
    if h % 16 or w % 16:
        raise ConfigError(f"{image_path}: dimensions ({h}x{w}) must be multiples of 16")
    th = cfg.thresholds()
    params = _load_model(cfg, checkpoint)
    out = forward(None, Tensor(image_arr[None]), params, cfg.network_config(), th)
    depth = out.refined.data[0]
    conf = out.confidence.data[0]
    paths = {
        "depth": Path(f"{out_prefix}.depth.pgm"),
        "confidence": Path(f"{out_prefix}.conf.pgm"),
        "visualization": Path(f"{out_prefix}.vis.ppm"),
    }
    write_pgm16(paths["depth"], depth, cfg.beta / 65535.0)
    write_pgm16(paths["confidence"], conf, 1.0 / 65535.0)
    write_ppm(paths["visualization"], _depth_to_gray(depth, cfg.alpha, cfg.beta))
    return paths


def cmd_render(cfg: RunConfig, depth_path, out_path) -> Path:
    """Render a depth PGM as the same grayscale visualization infer writes."""
    depth, _ = read_pgm16(depth_path)
    write_ppm(out_path, _depth_to_gray(depth, cfg.alpha, cfg.beta))
    return Path(out_path)


def cmd_grad_check(cfg: RunConfig, corrupt_op: str | None = None, stream=None) -> bool:
    """Run the finite-difference suite; prints one line per component and
    returns True only if every component passed."""
    stream = stream or sys.stdout
    results = gradcheck_mod.run_full_suite(seed=cfg.seed, corrupt_op=corrupt_op)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        stream.write(f"{status} {r.name}: max relative error {r.max_rel_err:.3e} "
                     f"(tolerance {r.tolerance:.0e})\n")
    ok = all(r.passed for r in results)
    stream.write(f"grad-check: {'all checks passed' if ok else 'FAILURES detected'}\n")
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
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key (repeatable)")
        p.add_argument("--mode", choices=("baseline", "aced"), default=None)

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
    p.add_argument("--split", choices=("train", "holdout", "all"), default="holdout")
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
        cfg = load_config(args.config, args.sets, args.seed, args.mode)
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
            print(cmd_render(cfg, args.depth, args.out_ppm))
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
