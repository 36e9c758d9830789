"""
The blobcat benchmark.

    python3 perfbench/run.py --workload sb-table --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports blobcat from that checkout's
`src/` and from nowhere else.  Each run measures in fresh single-threaded
worker processes, so every lru_cache starts cold, as it does for a user of
the command line.

--trace 0 prints the end-to-end metrics: throughput and op latency of one
measuring worker, its peak resident memory, and the median set-up time of
SETUP_SAMPLES workers (the measuring one and SETUP_SAMPLES - 1 that stop at
the first op).  Those times are at the nominal machine speed of
calibrate.py, which takes the shared host's drifting speed out of them; the
unscaled ones are printed too.  --trace 1 prints the per-layer metrics of a traced worker,
the scaling view of an untraced worker that replays the same ops, and the
tracing overhead between the two.  Every output is checked against an
independent oracle; a mismatch makes the run exit 1.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("sb-table", "random-words", "index-set", "counts")
SETUP_SAMPLES = 3  # index-set builds its 2,592 query words in each
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its result, with the
    CLOCK_MONOTONIC time it was started at as `t0`."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the run budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    result = json.loads(lines[-1])
    result["t0"] = t0
    return result


def measure(common: list[str], deadline: float) -> tuple[dict, dict]:
    """All times are at the nominal machine speed (see calibrate.py)."""
    runs = [spawn(common + ["--mode", "measure"], deadline)]
    for _ in range(SETUP_SAMPLES - 1):
        runs.append(spawn(common + ["--mode", "setup"], deadline))
    raw_setups = [r["ready"] - r["t0"] - r["setup_paused"] for r in runs]
    setups = [t / r["setup_slowness"] for t, r in zip(raw_setups, runs)]
    run = runs[0]
    ok = run["attempted"] - run["failed"]
    metrics = {
        "ops_per_s": (ok / run["wall_at_nominal"], "1/s"),
        "op_p50_ms": (1e3 * run["p50_at_nominal"], "ms"),
        "op_p95_ms": (1e3 * run["p95_at_nominal"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_ops_frac": (ok / run["attempted"], "fraction"),
    }
    print(f"ops: {run['attempted']} attempted in {run['wall']:.3f} s, {run['failed']} failed "
          f"(failed_ops_frac {run['failed'] / run['attempted']:.6g}); "
          f"op_p95_ms over {run['attempted']} samples, {run['attempted'] // 20} beyond it")
    print(f"machine slowness {run['slowness']:.4f} over {run['chunks']} reference chunks; unscaled: "
          f"ops_per_s {ok / run['wall']:.6g}, op_p50_ms {1e3 * run['p50']:.6g}, op_p95_ms {1e3 * run['p95']:.6g}")
    print("setup_s samples (unscaled / slowness): "
          + ", ".join(f"{t:.4f}/{r['setup_slowness']:.3f}" for t, r in zip(raw_setups, runs)))
    return run, metrics


def trace(common: list[str], deadline: float) -> tuple[dict, dict]:
    run = spawn(common + ["--mode", "trace"], deadline)
    replay = spawn(common + ["--mode", "replay", "--ops", str(run["attempted"])], deadline)
    metrics = {name: tuple(value) for name, value in run["layers"].items()}
    metrics.update({name: (value, "ms") for name, value in replay["scaling"].items()})
    metrics["trace_overhead_frac"] = (run["wall"] / replay["wall"] - 1.0, "fraction")
    print(f"ops: {run['attempted']} attempted traced in {run['wall']:.3f} s, "
          f"replayed untraced in {replay['wall']:.3f} s, {run['failed']} failed")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blobcat benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "blobcat" / "__init__.py").is_file():
        print(f"error: no blobcat source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        run, metrics = (trace if args.trace else measure)(common, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if not run["correct"]:
        print(f"output check: {run['mismatches']} mismatches (see stderr)")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
