"""Benchmark entry point for the aced package.

    python3 bench/run.py --workload train_aced --seed 1 --seconds 45 --trace 0

Run from the repository root. It imports aced from ./src (and refuses to
run without it), pins the BLAS thread count before numpy loads, prints a
report with the environment and every metric by name and unit, and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exit code 0 when every output check passed, 1 when one failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("train_aced", "eval_holdout", "gradcheck_suite")
# One BLAS thread: the checkpoint after 30 default training iterations
# differs between OPENBLAS_NUM_THREADS=1 and 2, so checkpoints are compared
# only within one setting, and one thread keeps timings steadier on a
# shared 2-core machine.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(Exception):
    pass


def use_checkout_src() -> None:
    """Make `import aced` resolve to ./src/aced of this checkout only."""
    if not (SRC / "aced" / "__init__.py").is_file():
        raise CheckoutError(f"no aced sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import aced

    if Path(aced.__file__).resolve().parent != (SRC / "aced").resolve():
        raise CheckoutError(f"imported aced from {aced.__file__}, not from {SRC}")


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "aced").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in _THREAD_VARS},
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        use_checkout_src()
    except CheckoutError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    import workloads

    print(f"env {json.dumps(environment(args), sort_keys=True)}")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir, SRC)
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run is using it
    for line in result.report:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
