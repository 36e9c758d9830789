"""
One benchmark process: import blobcat from the checkout, build one
workload's inputs, run its closed loop and check every output.

    python3 perfbench/worker.py --workload sb-table --seed 1 --seconds 25 --mode measure

Modes: `measure` runs for --seconds (and at least MIN_OPS ops); `setup`
stops at the first op; `trace` is `measure` under the per-layer tracer;
`replay` runs exactly --ops ops untraced, to price the tracing.  The last
stdout line is a JSON object for run.py; `ready` is the CLOCK_MONOTONIC
time of the first op, which run.py turns into set-up time.  `measure` and
`setup` also report their times at the nominal machine speed of
calibrate.py.
"""

from __future__ import annotations

import argparse
from array import array
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate as reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_OPS = 200
SHOW = 20  # failures and mismatches echoed in full


def import_blobcat() -> None:
    """Put the checkout's own source first on the path and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import blobcat

    if Path(blobcat.__file__).resolve().parent != SRC / "blobcat":
        raise ImportError(f"imported blobcat from {blobcat.__file__}, expected {SRC / 'blobcat'}")


def timed_loop(workload, seconds: float, max_ops: int | None, tracer=None, sampler=None) -> dict:
    """Run the workload's ops in a closed loop.  With a running `sampler`,
    each op's latency and `wall` leave out the reference chunks that
    interrupted them, and `spans` says which chunks ran around each op."""
    call = workload.op if tracer is None else (lambda inp: tracer.run_op(workload.op, inp))
    inputs, outputs, latencies, failures = [], [], [], []
    firsts, lasts = array("l"), array("l")  # compact: they would count in peak_rss_mb
    clock = time.perf_counter
    stream = workload.inputs()
    paused_before = sampler.paused if sampler is not None else 0.0
    start = clock()
    deadline = start + seconds
    for inp in stream:
        if max_ops is not None:
            if len(latencies) >= max_ops:
                break
        elif len(latencies) >= MIN_OPS and clock() >= deadline:
            break
        if sampler is not None:
            first, paused = len(sampler.times), sampler.paused
        t0 = clock()
        try:
            out = call(inp)
        except Exception as exc:  # any raise on valid input is a failed op
            out = None
            failures.append(f"{workload.describe(inp)}: {type(exc).__name__}: {exc}")
        lat = clock() - t0
        if sampler is not None:
            lat -= sampler.paused - paused
            firsts.append(first)
            lasts.append(len(sampler.times))
        latencies.append(lat)
        inputs.append(inp)
        outputs.append(out)
    wall = clock() - start
    if sampler is not None:
        wall -= sampler.paused - paused_before
    return {"inputs": inputs, "outputs": outputs, "latencies": latencies, "failures": failures,
            "wall": wall, "spans": zip(firsts, lasts)}


def percentile95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18] if len(values) >= 2 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("measure", "setup", "trace", "replay"), required=True)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)

    # `measure` and `setup` sample the machine's speed from here on, so that
    # set-up and ops are both timed at the nominal speed (see calibrate.py)
    sampler = reference.Sampler().start() if args.mode in ("measure", "setup") else None
    tracer = None
    try:
        import_blobcat()
        import workloads

        if args.mode == "trace":
            from tracer import Tracer

            # installed before set-up, so that set-up work shows in the layers too
            tracer = Tracer().install()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        ready = time.monotonic()
        if sampler is not None:
            setup_chunks, setup_paused = len(sampler.times), sampler.paused
        if args.mode != "setup":
            run = timed_loop(workload, args.seconds, args.ops if args.mode == "replay" else None, tracer, sampler)
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
    result = {"ready": ready}
    if sampler is not None:
        result["setup_paused"] = setup_paused
        result["setup_slowness"] = reference.op_speeds(sampler.times, [(0, setup_chunks)])[0]
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = run["latencies"]
    result.update(
        wall=run["wall"],
        attempted=len(lat),
        failed=len(run["failures"]),
        p50=statistics.median(lat),
        p95=percentile95(lat),
        peak_rss_mb=peak_rss_mb,
    )
    if sampler is not None:
        # the same figures at the nominal machine speed
        speeds = reference.op_speeds(sampler.times, run["spans"])
        at_nominal = [x / s for x, s in zip(lat, speeds)]
        result.update(
            wall_at_nominal=run["wall"] * sum(at_nominal) / sum(lat),
            p50_at_nominal=statistics.median(at_nominal),
            p95_at_nominal=percentile95(at_nominal),
            slowness=sum(lat) / sum(at_nominal),
            chunks=len(sampler.times),
        )
    for line in run["failures"][:SHOW]:
        print(f"failed op: {line}", file=sys.stderr)

    if args.mode == "replay":
        result["scaling"] = dict.fromkeys(workloads.SCALING_NAMES, 0.0)
        if hasattr(workload, "scaling"):
            result["scaling"].update(workload.scaling(run["inputs"], lat))
    else:
        mismatches = workload.check(run["inputs"], run["outputs"])
        result["correct"] = not mismatches
        result["mismatches"] = len(mismatches)
        for line in mismatches[:SHOW]:
            print(f"output check failed: {line}", file=sys.stderr)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        kept = tracer.write_spans(path)
        print(f"spans: {kept} written to {path.relative_to(HERE.parent)}, {tracer.spans_dropped} past the cap", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
