"""Benchmark of derived-heights: one seeded workload per invocation.

    python3 bench/run.py --workload {pairing,spectral,stark_structure} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs in fresh
processes (bench/worker.py) with numpy/BLAS threads pinned to 1, one
process at a time:

  --trace 0  SETUP_PROBES processes that only set up, then one that
             measures; prints the end-to-end metrics of BENCHMARK.json
             (setup_s is the median set-up time of all of them);
  --trace 1  one process that runs pass 0 untraced and traced and
             prints the per-layer metrics of BENCHMARK.json.

Human-readable lines go first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit status 0 means
every output was checked and correct, 1 means a check failed and 2
means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout,
                              text=True, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} ran over {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "derived_heights" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        units = declared_metrics(bool(args.trace))
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args.workload, args.seed, args.seconds, "setup",
                                    deadline - time.monotonic())["setup_s"])
        res = spawn(args.workload, args.seed, args.seconds,
                    "trace" if args.trace else "measure", deadline - time.monotonic())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = dict(res["metrics"])
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and res["pinned"]

    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} trials)")
    print(f"{args.workload} checks = {res['checks']}; info = {json.dumps(res['info'])}")
    if not res["pinned"]:
        print("bench/pins.json is missing, so outputs were not checked", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
