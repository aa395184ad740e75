"""The command line end to end at the small test config: the gen-data, train,
eval, infer and render chain, whose outputs are pinned by sha256; train
logs the terms its loss summed; ordinal-only training leaves the fusion and
refinement untouched; eval prints one aggregate per output, pooled from its
per-image lines; exit code 1 for a usage error (a flag the command does
not read among them), a bad config value, a removed config key, a
grad-check --corrupt op that no check records, a depth map whose scale is
not finite and positive, an eval output with non-positive depth or
non-finite metrics (naming the image and the output, after writing every
pair that scored) or an aggregate that overflows, an infer output with
non-positive or non-finite depth (writing no file), a checkpoint with a
non-finite value, a non-UTF-8 byte (named by path and offset) or one
trained at another k or width, and 2 for a failed gradient check or
diverged training (naming the first non-finite tape node and the partial
log); eval's hard decode is that of the upsampled head."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aced import cli, network
from aced.data import read_manifest, read_pgm16, read_ppm, write_pgm16, write_ppm
from aced.gradcore import Rng, Tensor, derive_seed, load_checkpoint, save_checkpoint, upsample_nearest
from aced.metrics import MetricsError
from aced.ordhead import pair_softmax
from aced.sid import DEPTH_RANGE, hard_decode
from conftest import TINY_SETS, tiny_config


def _sets(extra=()):
    args = []
    for item in TINY_SETS + list(extra):
        args += ["--set", item]
    return args


def _train(cfg, manifest, tmp_path, extra=()):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "model.log.jsonl"
    code = cli.main(["train", "--seed", str(cfg.seed), *_sets(extra),
                     str(manifest), str(ckpt), "--log", str(log)])
    assert code == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["iter"] for r in records] == list(range(cfg.max_iter))
    return ckpt, records


def test_train_aced_logs_the_summed_terms(tiny_dataset, tmp_path):
    cfg, manifest = tiny_dataset
    _, records = _train(cfg, manifest, tmp_path)
    for r in records:
        assert r["loss"] == (r["loss_ord"] + r["loss_log"]) + r["loss_grad"]


def test_ordinal_only_training_moves_only_the_encoder_and_decoder(tiny_dataset, tmp_path):
    # w_log=0 w_grad=0 is the DORN-style baseline: the ordinal loss alone.
    # The fusion and refinement stages feed only the zero-weighted terms, so
    # their gradients are exactly 0 and Adam leaves them bit-identical. At
    # base_width 2 the two dec1 channels are dead at init for some seeds (3
    # among them) and then nothing below the head moves; seed 1 is live.
    _, manifest = tiny_dataset
    cfg = tiny_config(seed=1)
    ckpt, records = _train(cfg, manifest, tmp_path, ["w_log=0", "w_grad=0"])
    for r in records:
        assert r["loss"] == r["loss_ord"]
    init = network.init_params(cfg.network_config(), Rng(derive_seed(cfg.seed, "params")))
    trained = network.init_params(cfg.network_config(), Rng(0))
    load_checkpoint(trained, ckpt)
    for name, t in init.items():
        if name.startswith(("fuse", "refine")):
            np.testing.assert_array_equal(trained[name].data, t.data, err_msg=name)
        else:
            assert not np.array_equal(trained[name].data, t.data), name


def test_train_moves_every_parameter(tiny_dataset, tmp_path):
    # Seed 1: both dec1 channels are live at init. At the fixture's seed 3
    # they are dead, and the decoder and head.w keep their initial values.
    _, manifest = tiny_dataset
    cfg = tiny_config(seed=1)
    ckpt, _ = _train(cfg, manifest, tmp_path)
    init = network.init_params(cfg.network_config(), Rng(derive_seed(cfg.seed, "params")))
    trained = network.init_params(cfg.network_config(), Rng(0))
    load_checkpoint(trained, ckpt)
    for name, t in init.items():
        assert not np.array_equal(trained[name].data, t.data), name


def test_eval_prints_three_aggregates(tiny_dataset, tmp_path, capsys):
    cfg, manifest = tiny_dataset
    ckpt, _ = _train(cfg, manifest, tmp_path)
    capsys.readouterr()
    code = cli.main(["eval", *_sets(), str(ckpt), str(manifest)])
    assert code == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rec["output"] for rec in lines] == ["coarse", "refined", "hard"]
    assert all(rec["aggregate"] for rec in lines)


def test_eval_aggregates_pool_the_per_image_lines(tiny_dataset, tmp_path):
    cfg, manifest = tiny_dataset
    ckpt, _ = _train(cfg, manifest, tmp_path)
    out = tmp_path / "metrics.jsonl"
    cli.cmd_eval(cfg, ckpt, manifest, out_path=out)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    per_image, aggregates = lines[:-3], lines[-3:]
    fields = ["rel", "log10", "rms", "delta1", "delta2", "delta3", "dde", "pixel_count"]
    for agg in aggregates:
        assert list(agg) == ["output", "aggregate", *fields]
        mine = [rec for rec in per_image if rec["output"] == agg["output"]]
        assert len(mine) == cfg.holdout
        n = np.array([rec["pixel_count"] for rec in mine])
        assert agg["pixel_count"] == n.sum() and isinstance(agg["pixel_count"], int)
        for key in ("rel", "log10", "delta1", "delta2", "delta3", "dde"):
            want = np.dot([rec[key] for rec in mine], n) / n.sum()
            assert agg[key] == pytest.approx(want, rel=1e-12, abs=1e-12), key
        pooled = np.sqrt(np.dot([rec["rms"] ** 2 for rec in mine], n) / n.sum())
        assert agg["rms"] == pytest.approx(pooled, rel=1e-12)


def test_eval_hard_decode_is_the_hard_decode_of_the_upsampled_head(tiny_dataset, tmp_path,
                                                                    monkeypatch):
    cfg, manifest = tiny_dataset
    params = network.init_params(cfg.network_config(), Rng(derive_seed(cfg.seed, "params")))
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(params, ckpt)
    calls = []
    real = cli.compute_metrics

    def spy(depth, *args):
        calls.append(depth)
        return real(depth, *args)

    monkeypatch.setattr(cli, "compute_metrics", spy)
    cli.cmd_eval(cfg, ckpt, manifest)
    pairs = cli._split_pairs(cfg, read_manifest(manifest), "holdout")
    assert len(calls) == 3 * len(pairs)  # coarse, refined, hard per image
    for (img_path, _), got in zip(pairs, calls[2::3]):
        out = network.forward(None, Tensor(read_ppm(img_path)[None]), params)
        probs = pair_softmax(None, upsample_nearest(None, out.logits, 2))
        np.testing.assert_array_equal(got, hard_decode(probs.data))


def test_eval_names_the_image_and_output_with_non_positive_depth(tiny_dataset, tmp_path, capsys):
    # The coarse depth is at most beta = 8, so a residual bias of -100 puts
    # every refined pixel below zero; the coarse output stays positive.
    cfg, manifest = tiny_dataset
    params = network.init_params(cfg.network_config(), Rng(derive_seed(cfg.seed, "params")))
    params["refine.conv2.b"].data[...] = -100.0
    ckpt = tmp_path / "negative.ckpt"
    save_checkpoint(params, ckpt)
    assert cli.main(["eval", *_sets(), str(ckpt), str(manifest)]) == 1
    first = cli._split_pairs(cfg, read_manifest(manifest), "holdout")[0][0].name
    assert first == "scene_00012.ppm"
    assert (f"{first}, refined output: non-positive depth: 256 of 256 predicted pixels"
            in capsys.readouterr().err)


def _checkpoint_with_refine_bias(cfg, path, bias):
    params = network.init_params(cfg.network_config(), Rng(derive_seed(cfg.seed, "params")))
    params["refine.conv2.b"].data[...] = bias
    save_checkpoint(params, path)
    return path


def test_eval_scores_every_other_pair_when_one_output_fails(tiny_dataset, tmp_path, capsys):
    # Every refined pixel is negative; the coarse and hard outputs still score.
    cfg, manifest = tiny_dataset
    ckpt = _checkpoint_with_refine_bias(cfg, tmp_path / "negative.ckpt", -100.0)
    out = tmp_path / "metrics.jsonl"
    assert cli.main(["eval", *_sets(), str(ckpt), str(manifest), "--out", str(out)]) == 1
    assert "(4 of 12 (image, output) pairs failed)" in capsys.readouterr().err
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    holdout = [img.name for img, _ in cli._split_pairs(cfg, read_manifest(manifest), "holdout")]
    per_image = [(rec["image"], rec["output"]) for rec in lines if "image" in rec]
    assert sorted(per_image) == sorted((n, k) for n in holdout for k in ("coarse", "hard"))
    assert [rec["output"] for rec in lines if rec.get("aggregate")] == ["coarse", "hard"]
    assert len(lines) == 2 * cfg.holdout + 2


def test_eval_writes_no_aggregate_for_an_output_that_failed_on_one_image(tiny_dataset, tmp_path,
                                                                          monkeypatch):
    cfg, manifest = tiny_dataset
    params = network.init_params(cfg.network_config(), Rng(derive_seed(cfg.seed, "params")))
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(params, ckpt)
    calls = []
    real = cli.compute_metrics

    def fail_the_first_call(depth, *args):  # the first image's coarse output
        calls.append(depth)
        if len(calls) == 1:
            raise MetricsError("injected")
        return real(depth, *args)

    monkeypatch.setattr(cli, "compute_metrics", fail_the_first_call)
    out = tmp_path / "metrics.jsonl"
    with pytest.raises(MetricsError, match=r"^scene_00012.ppm, coarse output: injected \(1 of 12 "):
        cli.cmd_eval(cfg, ckpt, manifest, out_path=out)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(rec["output"] == "coarse" for rec in lines) == cfg.holdout - 1
    assert [rec["output"] for rec in lines if rec.get("aggregate")] == ["refined", "hard"]


def test_infer_refuses_a_non_positive_refined_depth(tiny_dataset, tmp_path, capsys):
    cfg, manifest = tiny_dataset
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    ckpt = _checkpoint_with_refine_bias(cfg, tmp_path / "negative.ckpt", -100.0)
    image = manifest.parent / "scene_00000.ppm"
    assert cli.main(["infer", *_sets(), str(ckpt), str(image), str(out_dir / "x")]) == 1
    assert (f"{image}: non-positive refined depth: 256 of 256 pixels"
            in capsys.readouterr().err)
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_infer_refuses_a_non_finite_refined_depth(tiny_dataset, tmp_path, capsys, monkeypatch,
                                                  bad):
    cfg, manifest = tiny_dataset
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(network.init_params(cfg.network_config(), Rng(0)), ckpt)
    real = cli.forward

    def bad_refined(*args):
        out = real(*args)
        out.refined.data[0, 0, 0, :3] = bad
        return out

    monkeypatch.setattr(cli, "forward", bad_refined)
    image = manifest.parent / "scene_00000.ppm"
    assert cli.main(["infer", *_sets(), str(ckpt), str(image), str(out_dir / "x")]) == 1
    assert f"{image}: non-finite refined depth: 3 of 256 pixels" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_eval_writes_no_infinity_for_an_overflowing_metric(tiny_dataset, tmp_path, capsys):
    # A refine weight of 1e300 gives finite refined depths of about 3e300 m,
    # whose squared error overflows; the rms would be written as Infinity.
    # A refine bias of 5e152 gives an rms of about 5e152 per image, which
    # fits, but the pooled sum of rms**2 over the split does not.
    cfg, manifest = tiny_dataset

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    cases = [("refine.conv2.w", 1e300, 0, "scene_00012.ppm, refined output: non-finite metric: "
                                          "rms (4 of 12 (image, output) pairs failed)"),
             ("refine.conv2.b", 5e152, 4, "refined aggregate: non-finite metric: rms "
                                          "(0 of 12 (image, output) pairs failed)")]
    for name, value, refined_lines, message in cases:
        params = network.init_params(cfg.network_config(), Rng(derive_seed(cfg.seed, "params")))
        params[name].data[...] = value
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(params, ckpt)
        out = tmp_path / "metrics.jsonl"
        capsys.readouterr()
        assert cli.main(["eval", *_sets(), str(ckpt), str(manifest), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        lines = [json.loads(line, parse_constant=no_constant)
                 for line in out.read_text().splitlines()]
        assert [rec["output"] for rec in lines if rec.get("aggregate")] == ["coarse", "hard"]
        assert sum(rec["output"] == "refined" for rec in lines) == refined_lines


def _copy_dataset(manifest, dest):
    dest.mkdir()
    for path in manifest.parent.iterdir():
        (dest / path.name).write_bytes(path.read_bytes())
    return dest / "manifest.txt"


def test_train_on_a_depth_map_with_a_bad_scale_is_a_usage_error(tiny_dataset, tmp_path, capsys):
    cfg, manifest = tiny_dataset
    copy = _copy_dataset(manifest, tmp_path / "data")
    bad = copy.parent / "scene_00000.pgm"
    head, _, rest = bad.read_bytes().partition(b"\n# scale ")
    bad.write_bytes(head + b"\n# scale nan" + rest[rest.index(b"\n"):])
    ckpt = tmp_path / "never.ckpt"
    assert cli.main(["train", *_sets(), str(copy), str(ckpt)]) == 1
    assert f"error: {bad}: bad scale 'nan'" in capsys.readouterr().err
    assert not ckpt.exists()


def test_a_non_ascii_manifest_byte_is_named_by_path_and_line(tiny_dataset, tmp_path, capsys):
    _, manifest = tiny_dataset
    copy = _copy_dataset(manifest, tmp_path / "data")
    lines = copy.read_bytes().split(b"\n")
    lines[2] = b"scene\xf9" + lines[2]
    copy.write_bytes(b"\n".join(lines))
    ckpt = tmp_path / "never.ckpt"
    for args in (["train", *_sets(), str(copy), str(ckpt)],
                 ["eval", *_sets(), str(ckpt), str(copy)]):
        assert cli.main(args) == 1
        assert f"error: {copy}:3: non-ASCII byte 0xf9" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [copy.parent]


def _resize_pair(data, index, image=True, depth=True):
    """Scene `index` rewritten at 32x32, its image, its depth or both."""
    if image:
        write_ppm(data / f"scene_{index:05d}.ppm", np.full((3, 32, 32), 0.5))
    if depth:
        write_pgm16(data / f"scene_{index:05d}.pgm", np.full((1, 32, 32), 2.0), 1e-3)
    return data / f"scene_{index:05d}.{'ppm' if image else 'pgm'}", "(32x32) differ from the (16x16)"


def _zero_depth_pixel(data, index):
    path = data / f"scene_{index:05d}.pgm"
    depth, scale = read_pgm16(path)
    depth[0, 3, 5] = 0.0
    write_pgm16(path, depth, scale)
    return path, "1 depth pixels are 0"


@pytest.mark.parametrize("spoil", [
    lambda data: _resize_pair(data, 5),
    lambda data: _resize_pair(data, 7, image=False),
    lambda data: _zero_depth_pixel(data, 11),
], ids=["pair_of_another_size", "depth_of_another_size", "zero_depth_pixel"])
def test_train_refuses_a_split_that_does_not_fit_before_its_first_step(tiny_dataset, tmp_path,
                                                                     capsys, spoil):
    # Scenes 5, 7 and 11 lie in the train split; at batch 4 the first is
    # read at iteration 1 and the last at iteration 2, after the log opened.
    _, manifest = tiny_dataset
    copy = _copy_dataset(manifest, tmp_path / "data")
    path, problem = spoil(copy.parent)
    ckpt = tmp_path / "never.ckpt"
    assert cli.main(["train", *_sets(), str(copy), str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and problem in err
    assert sorted(tmp_path.iterdir()) == [copy.parent]


def test_a_checkpoint_trained_at_another_width_is_rejected(tiny_dataset, tmp_path, capsys):
    # k, base_width and fusion_width are the keys that shape a trained model;
    # each is pinned by a parameter shape when the checkpoint loads.
    cfg, manifest = tiny_dataset
    ckpt, _ = _train(cfg, manifest, tmp_path)
    image = manifest.parent / "scene_00000.ppm"
    for key, param in (("k=5", "head.w"), ("base_width=3", "enc1.conv1.w"),
                       ("fusion_width=5", "fuse_merge.w")):
        for args in (["eval", *_sets([key]), str(ckpt), str(manifest)],
                     ["infer", *_sets([key]), str(ckpt), str(image), str(tmp_path / "x")]):
            assert cli.main(args) == 1
            assert f"{ckpt}: shape mismatch for {param!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_non_finite_checkpoint_is_rejected_by_eval_and_infer(tiny_dataset, tmp_path, capsys):
    cfg, manifest = tiny_dataset
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    ckpt = _checkpoint_with_refine_bias(cfg, tmp_path / "nan.ckpt", np.nan)
    image = manifest.parent / "scene_00000.ppm"
    for args in (["eval", *_sets(), str(ckpt), str(manifest), "--out", str(out_dir / "m.jsonl")],
                 ["infer", *_sets(), str(ckpt), str(image), str(out_dir / "x")]):
        assert cli.main(args) == 1
        assert f"{ckpt}: non-finite value in 'refine.conv2.b'" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("line", ["name", "shape"])
def test_a_non_utf8_checkpoint_byte_is_named_by_path_and_offset(tiny_dataset, tmp_path, capsys,
                                                                line):
    cfg, manifest = tiny_dataset
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    ckpt = _checkpoint_with_refine_bias(cfg, tmp_path / "bad.ckpt", 0.0)
    raw = bytearray(ckpt.read_bytes())
    at = raw.index(b"\n") + 1  # the first name line
    if line == "shape":
        at = raw.index(b"\n", at) + 1
    raw[at] = 0xFF
    ckpt.write_bytes(raw)
    image = manifest.parent / "scene_00000.ppm"
    for args in (["eval", *_sets(), str(ckpt), str(manifest), "--out", str(out_dir / "m.jsonl")],
                 ["infer", *_sets(), str(ckpt), str(image), str(out_dir / "x")]):
        assert cli.main(args) == 1
        assert f"error: {ckpt}: non-UTF-8 byte 0xff in {line} line at byte {at}" in \
            capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_unknown_config_key_is_a_usage_error(tiny_dataset, tmp_path, capsys):
    _, manifest = tiny_dataset
    ckpt = tmp_path / "never.ckpt"
    for key in ("no_such_key", "detach_confidence", "input_channels", "mode", "beta1", "beta2",
                "eps", "lr_power", "augment", "min_objects", "max_objects", "noise", "crop_h",
                "crop_w", "alpha", "beta", "plane_depth", "w_ord"):
        code = cli.main(["train", *_sets([f"{key}=true"]), str(manifest), str(ckpt)])
        assert code == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not ckpt.exists()
    # A depth range that differed from the one the model was trained at
    # would shift every decoded depth without an error.
    assert cli.main(["eval", *_sets(["beta=10"]), str(ckpt), str(manifest)]) == 1
    assert "unknown config key 'beta'" in capsys.readouterr().err
    config_file = tmp_path / "run.cfg"
    config_file.write_text("k=4\n")
    train = [*_sets(), str(manifest), str(ckpt)]
    for args, flag in ((["train", "--mode", "baseline", *train], "--mode"),
                       (["train", "--config", str(config_file), *train], "--config"),
                       (["eval", "--split", "all", *_sets(), str(ckpt), str(manifest)],
                        "argument --split: invalid choice: 'all'")):
        code = cli.main(args)
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not ckpt.exists()


_BAD_CONFIGS = [
    (["image_h=24"], "height must be a positive multiple of 16, got 24"),
    (["batch_size=0"], "batch_size must be >= 1"),
    (["max_iter=-1"], "max_iter must be >= 0"),
    (["num_scenes=-1"], "num_scenes must be >= 0"),
    (["k=1"], "k_levels must be >= 2"),
    (["lr=0"], "lr must be > 0"),
    (["lr=-0.01"], "lr must be > 0"),
    (["lr=nan"], "lr must be finite"),
    (["lr=inf"], "lr must be finite"),
    (["w_log=nan"], "w_log must be finite"),
    (["w_grad=inf"], "w_grad must be finite"),
    (["w_log=-1"], "loss weights must be non-negative"),
    (["w_grad=-0.5"], "loss weights must be non-negative"),
]


@pytest.mark.parametrize("extra, problem", _BAD_CONFIGS,
                         ids=[",".join(extra) for extra, _ in _BAD_CONFIGS])
def test_invalid_config_is_a_usage_error(tiny_dataset, tmp_path, capsys, extra, problem):
    _, manifest = tiny_dataset
    ckpt = tmp_path / "never.ckpt"
    assert cli.main(["train", *_sets(extra), str(manifest), str(ckpt)]) == 1
    assert problem in capsys.readouterr().err
    assert not ckpt.exists()


def test_diverged_training_exits_2(tiny_dataset, tmp_path):
    # A child process: the divergence's overflow warnings would be errors
    # under this suite's warning filter.
    cfg, manifest = tiny_dataset
    ckpt = tmp_path / "never.ckpt"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "aced.cli", "train", "--seed", str(cfg.seed),
                           *_sets(["lr=1e200"]), str(manifest), str(ckpt)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "training diverged: loss nan at iteration 1" in done.stderr
    # The loss is checked before backward, so every node is still on the tape.
    assert "first non-finite output: conv2d, tape node 4 of 77" in done.stderr
    assert "Traceback" not in done.stderr
    assert not ckpt.exists()
    log = Path(f"{ckpt}.log.jsonl")
    assert str(log) in done.stderr
    assert [json.loads(line)["iter"] for line in log.read_text().splitlines()] == [0]


def test_the_config_keys_are_these():
    # Each key doubles what the tests must cover, and a key that changes
    # what a trained model means must be checked when a checkpoint loads.
    assert tuple(cli._SCHEMA) == ("k", "image_h", "image_w", "base_width", "fusion_width", "lr",
                                  "max_iter", "batch_size", "seed", "w_log", "w_grad",
                                  "num_scenes", "holdout")


def test_run_config_built_from_values_reads_every_key():
    # The benchmark builds its warm-up config this way, with max_iter=1.
    cfg = cli.load_config(seed=7)
    warm = cli.RunConfig(values=tuple((k, 1 if k == "max_iter" else v) for k, v in cfg.values))
    assert warm.max_iter == 1 and cfg.max_iter != 1
    for key, value in cfg.values:
        if key != "max_iter":
            assert getattr(warm, key) == value, key
    with pytest.raises(AttributeError):
        warm.no_such_key


def test_holdout_larger_than_the_manifest_is_a_usage_error(tiny_dataset, tmp_path, capsys):
    # The tiny manifest has 16 pairs. A holdout of 20 or 32 would otherwise
    # slice from the end and hand back training images as the holdout.
    cfg, manifest = tiny_dataset
    ckpt, _ = _train(cfg, manifest, tmp_path)
    for holdout in (20, 32):
        sets = _sets(["num_scenes=256", f"holdout={holdout}"])
        for args in (["eval", *sets, str(ckpt), str(manifest)],
                     ["train", *sets, str(manifest), str(tmp_path / "never.ckpt")]):
            capsys.readouterr()
            assert cli.main(args) == 1
            assert f"holdout={holdout} exceeds the 16 pairs" in capsys.readouterr().err
    assert not (tmp_path / "never.ckpt").exists()


def test_grad_check_with_a_corrupted_op_exits_2(capsys):
    assert cli.main(["grad-check", "--corrupt", "conv2d"]) == 2
    out = capsys.readouterr().out
    assert "FAIL conv2d_stride1" in out and "FAILURES detected" in out


def test_grad_check_corrupting_an_op_no_check_records_exits_1(capsys):
    # A misspelt op would otherwise pass every check and look like proof
    # that the checker misses a broken rule.
    assert cli.main(["grad-check", "--corrupt", "conv2dd"]) == 1
    captured = capsys.readouterr()
    assert "no check records an op named 'conv2dd'" in captured.err
    assert captured.out == ""


def test_grad_check_takes_a_seed(capsys):
    assert cli.main(["grad-check", "--seed", "7"]) == 0
    assert "grad-check: all checks passed" in capsys.readouterr().out


# Each command takes only the flags it reads: --seed on gen-data, train and
# grad-check, --set on every command but render and grad-check.
_UNREAD_FLAGS = [
    ("grad-check", ["--set", "k=9", "--set", "base_width=7"]),
    ("render", ["--set", "lr=1e-3"]),
    ("render", ["--seed", "1"]),
    ("eval", ["--seed", "1"]),
    ("infer", ["--seed", "1"]),
]


@pytest.mark.parametrize("command, flags", _UNREAD_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in _UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tiny_dataset, tmp_path, capsys,
                                                           command, flags):
    # Every input exists, so without the flag each command would succeed.
    cfg, manifest = tiny_dataset
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(network.init_params(cfg.network_config(), Rng(0)), ckpt)
    depth = tmp_path / "depth.pgm"
    write_pgm16(depth, np.full((1, 16, 16), 2.0), DEPTH_RANGE.beta / 65535.0)
    image = manifest.parent / "scene_00000.ppm"
    args = {
        "grad-check": [],
        "render": [str(depth), str(tmp_path / "out.ppm")],
        "eval": [*_sets(), str(ckpt), str(manifest), "--out", str(tmp_path / "m.jsonl")],
        "infer": [*_sets(), str(ckpt), str(image), str(tmp_path / "out")],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert cli.main([command, *flags, *args]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and flags[0] in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


def _printed_paths(out: str) -> list[Path]:
    """The paths a command printed, one per line, without a 'kind: ' prefix."""
    return [Path(line.split(": ", 1)[-1]) for line in out.splitlines()]


# The bytes the chain writes at the test config (seed 3), the same at 1 and 2
# BLAS threads.
CHAIN_SHA256 = {
    "model.ckpt": "91c79849ade8c689c24e7416baf3a5ff44338cb32d9a2821a11f4389dbdd29c8",
    "model.ckpt.log.jsonl": "295624973d65f82b6dc5c280590f914f1fe0d91706eed9c9b5b56620be6458f5",
    "metrics.jsonl": "63912535a23d87a024642b8a90eaef69730fdedd64e6de090455a95e8c31abef",
    "out.depth.pgm": "ed9a24bd8636a6c26fdce372589f97ebd9b0766c63536ef45d981b9e748d76fc",
    "out.conf.pgm": "7d0b3500971941d125b3960b603765f1d973bff6f5ad0eb0b39e0a28069ea97b",
    "out.vis.ppm": "37068f2958a81483a4a846f5f31460ec9cee5e49ff7b4cadf4770d252848d873",
}


def test_gen_data_train_eval_infer_render_chain(tiny_dataset, tmp_path, capsys):
    cfg, fixture_manifest = tiny_dataset

    def run(command, *args):
        capsys.readouterr()
        seed = ["--seed", str(cfg.seed)] if command in ("gen-data", "train") else []
        sets = _sets() if command != "render" else []
        assert cli.main([command, *seed, *sets, *args]) == 0
        return capsys.readouterr().out

    data = tmp_path / "data"
    (manifest,) = _printed_paths(run("gen-data", str(data)))
    assert manifest == data / "manifest.txt"
    fixture_files = sorted(fixture_manifest.parent.iterdir())
    assert [p.name for p in fixture_files] == sorted(p.name for p in data.iterdir())
    for path in fixture_files:
        assert (data / path.name).read_bytes() == path.read_bytes()

    ckpt = tmp_path / "model.ckpt"
    log = Path(f"{ckpt}.log.jsonl")
    assert _printed_paths(run("train", str(manifest), str(ckpt))) == [ckpt, log]
    assert ckpt.stat().st_size > 0
    assert len(log.read_text().splitlines()) == cfg.max_iter

    metrics = tmp_path / "metrics.jsonl"
    printed = [json.loads(line) for line in
               run("eval", str(ckpt), str(manifest), "--out", str(metrics)).splitlines()]
    written = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert len(written) == 3 * cfg.holdout + 3
    assert written[-3:] == printed

    image = data / "scene_00000.ppm"
    paths = _printed_paths(run("infer", str(ckpt), str(image), str(tmp_path / "out")))
    depth_path, conf_path, vis_path = paths
    assert paths == [tmp_path / f"out.{ext}" for ext in ("depth.pgm", "conf.pgm", "vis.ppm")]
    depth, _ = read_pgm16(depth_path)
    conf, _ = read_pgm16(conf_path)
    vis = read_ppm(vis_path)
    assert depth.shape == conf.shape == (1, 16, 16) and vis.shape == (3, 16, 16)

    rendered = tmp_path / "render.ppm"
    assert _printed_paths(run("render", str(depth_path), str(rendered))) == [rendered]
    assert rendered.read_bytes() == vis_path.read_bytes()

    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (ckpt, log, metrics, depth_path, conf_path, vis_path)}
    assert written == CHAIN_SHA256, (
        "the chain's outputs moved; re-record CHAIN_SHA256 only in a commit that changes "
        "nothing else, so that every other commit is shown to keep them bit-identical")


def test_infer_rejects_a_size_that_is_not_a_multiple_of_16(tiny_dataset, tmp_path, capsys):
    cfg, _ = tiny_dataset
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(network.init_params(cfg.network_config(), Rng(0)), ckpt)
    image = tmp_path / "odd.ppm"
    write_ppm(image, np.full((3, 24, 24), 0.5))
    assert cli.main(["infer", *_sets(), str(ckpt), str(image), str(tmp_path / "out")]) == 1
    assert f"{image}: dimensions (24x24) must be multiples of 16" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [ckpt, image]


def test_infer_names_a_0x0_image(tiny_dataset, tmp_path, capsys):
    cfg, _ = tiny_dataset
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(network.init_params(cfg.network_config(), Rng(0)), ckpt)
    image = tmp_path / "empty.ppm"
    image.write_bytes(b"P6\n0 0\n255\n")
    assert cli.main(["infer", *_sets(), str(ckpt), str(image), str(tmp_path / "out")]) == 1
    assert f"error: {image}: bad width '0'" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [image, ckpt]


def test_infer_visualization_is_the_render_of_its_depth(tiny_dataset, tmp_path):
    cfg, manifest = tiny_dataset
    ckpt, _ = _train(cfg, manifest, tmp_path)
    for index in range(cfg.num_scenes - cfg.holdout, cfg.num_scenes):
        image = manifest.parent / f"scene_{index:05d}.ppm"
        paths = cli.cmd_infer(cfg, ckpt, image, tmp_path / image.stem)
        rendered = cli.cmd_render(paths["depth"], tmp_path / f"{image.stem}.render.ppm")
        assert rendered.read_bytes() == paths["visualization"].read_bytes()
