"""Smoke test of the benchmark harness.

Each workload, untraced and traced, at the small config of
tests/conftest.py must emit exactly the metrics BENCHMARK.json names for
that mode, finite and with the declared unit. Failed output checks must be
counted, and the command must refuse to run where the sources are missing.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from aced import gradcheck

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Mirrors TINY_SETS in tests/conftest.py.
TINY_SETS = [
    "num_scenes=16",
    "holdout=4",
    "image_h=16",
    "image_w=16",
    "k=4",
    "base_width=2",
    "fusion_width=4",
    "max_iter=6",
    "batch_size=4",
]


def _run(name, trace, tmp_path):
    result = workloads.run(name, seed=3, seconds=0, trace=trace, workdir=tmp_path / "work",
                           src=None, extra_sets=TINY_SETS)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: u for k, (_, u) in result.metrics.items()} == declared
    for key, (value, _) in result.metrics.items():
        assert math.isfinite(value), key
    assert result.attempted >= 1
    assert not (tmp_path / "work").exists()
    return result


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(name, trace, tmp_path):
    result = _run(name, trace, tmp_path)
    assert result.correct, result.report
    assert result.failed == 0


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_failed_checks_are_counted(trace, tmp_path, monkeypatch):
    # The suite's own fault-injection hook breaks relu's backward rule.
    monkeypatch.setattr(gradcheck, "run_full_suite",
                        functools.partial(gradcheck.run_full_suite, corrupt_op="relu"))
    result = _run("gradcheck_suite", trace, tmp_path)
    assert not result.correct
    assert result.failed == result.attempted
    assert any(line.startswith("FAILED") and "relu" in line for line in result.report)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_aced", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
