"""The command line end to end at the small test config: train logs the
terms its loss summed, eval prints one aggregate per output, and a bad
config key is a usage error."""

import json

from aced import cli
from conftest import TINY_SETS


def _sets(extra=()):
    args = []
    for item in TINY_SETS + list(extra):
        args += ["--set", item]
    return args


def _train(cfg, manifest, tmp_path, mode):
    ckpt = tmp_path / f"{mode}.ckpt"
    log = tmp_path / f"{mode}.log.jsonl"
    code = cli.main(["train", "--seed", str(cfg.seed), "--mode", mode, *_sets(),
                     str(manifest), str(ckpt), "--log", str(log)])
    assert code == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["iter"] for r in records] == list(range(cfg.max_iter))
    return ckpt, records


def test_train_aced_logs_the_summed_terms(tiny_dataset, tmp_path):
    cfg, manifest = tiny_dataset
    _, records = _train(cfg, manifest, tmp_path, "aced")
    for r in records:
        assert r["loss"] == (r["loss_ord"] + r["loss_log"]) + r["loss_grad"]


def test_train_baseline_logs_only_the_ordinal_term(tiny_dataset, tmp_path):
    cfg, manifest = tiny_dataset
    _, records = _train(cfg, manifest, tmp_path, "baseline")
    for r in records:
        assert r["loss_log"] == r["loss_grad"] == 0.0
        assert r["loss"] == r["loss_ord"]


def test_eval_prints_three_aggregates(tiny_dataset, tmp_path, capsys):
    cfg, manifest = tiny_dataset
    ckpt, _ = _train(cfg, manifest, tmp_path, "aced")
    capsys.readouterr()
    code = cli.main(["eval", "--seed", str(cfg.seed), *_sets(), str(ckpt), str(manifest)])
    assert code == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rec["output"] for rec in lines] == ["coarse", "refined", "hard"]
    assert all(rec["aggregate"] for rec in lines)


def test_unknown_config_key_is_a_usage_error(tiny_dataset, tmp_path, capsys):
    _, manifest = tiny_dataset
    ckpt = tmp_path / "never.ckpt"
    code = cli.main(["train", *_sets(["no_such_key=1"]), str(manifest), str(ckpt)])
    assert code == 1
    assert "unknown config key 'no_such_key'" in capsys.readouterr().err
    assert not ckpt.exists()
