"""Repository benchmark: evaluate / simulate / serve / construct.

Usage (from the repository root)::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh child process (``child.py``) with BLAS/OpenMP
threads capped at the CPU count, ``REPRO_CACHE_DIR`` unset and ``repro``
imported from this checkout's ``src``.  The output is a table of every
figure by name and unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced run
with ``--trace 1``.  The exit code is 0 only when every output check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("evaluate", "simulate", "serve", "construct")
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("REPRO_CACHE_DIR", "REPRO_BENCH_TRAJECTORY", "PYTHONPATH"):
        env.pop(var, None)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(dict.fromkeys(THREAD_VARS, threads))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, args) -> dict | None:
    """Run one workload in a fresh process; its result, or ``None`` if it
    crashed or ran out of time (after echoing what it printed)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload} ({'correct' if result['correct'] else 'FAILED'}: "
          f"{result['failed']} of {result['attempted']} checked outputs wrong)")
    for name, (value, unit) in result["report"].items():
        print(f"  {name:<40} {value:>18.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs, for the benchmark's own tests",
    )
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    t0 = time.perf_counter()
    for name in names:
        result = run_child(name, args)
        if result is None:
            return 2
        print_table(name, result)
        results[name] = result
    print(f"({len(names)} workload(s) in {time.perf_counter() - t0:.1f} s)")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    out = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
