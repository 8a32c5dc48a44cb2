"""One workload in one fresh interpreter: set up, run whole sub-rounds,
check every output, report.  Started by ``run.py``; not meant to be run by
hand.

The closed loop has one client: one op at a time, no threads.  Only the
ops themselves are timed; each sub-round's outputs are checked after the
sub-round, with tracing paused.  The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


def setup(args, work: Path) -> list:
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    return workloads.BUILDERS[args.workload](rng, workloads.Workdir(work))


def run(rounds, seconds: float, tracer: Tracer, whole_cycles: bool) -> dict:
    latencies: list[float] = []
    attempted = failed = 0
    by_kind: Counter = Counter()
    seconds_by_kind: Counter = Counter()
    failed_by_kind: Counter = Counter()
    by_fault: Counter = Counter()
    unexpected: list[str] = []
    timed = cpu = 0.0
    j = 0
    while timed < seconds or attempted < MIN_OPS or (whole_cycles and j % len(rounds)):
        ops = rounds[j % len(rounds)]
        j += 1
        outputs = []
        for op in ops:
            c0 = time.process_time()
            with tracer.op(op.kind):
                t0 = time.perf_counter()
                try:
                    outputs.append((op.run(), None))
                except Exception as exc:  # a raising op is a failed op
                    outputs.append((None, exc))
                latencies.append(time.perf_counter() - t0)
            timed += latencies[-1]
            cpu += time.process_time() - c0
            seconds_by_kind[op.kind] += latencies[-1]
        with tracer.paused():
            for op, (out, exc) in zip(ops, outputs):
                attempted += 1
                by_kind[op.kind] += 1
                if exc is not None:
                    problem = workloads.raised(exc)
                else:
                    try:
                        problem = op.check(out)
                    except Exception as check_exc:  # a malformed output
                        problem = f"output unreadable: {check_exc!r}"
                if problem is None:
                    continue
                failed += 1
                failed_by_kind[op.kind] += 1
                if workloads.is_known_fault(op, problem):
                    by_fault[op.fault] += 1
                elif len(unexpected) < 10:
                    unexpected.append(f"{op.kind}: {problem}")
    return {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "timed": timed,
        "cpu": cpu,
        "sub_rounds": j,
        "ops_by_kind": {
            k: [by_kind[k], failed_by_kind[k], round(seconds_by_kind[k], 3)] for k in sorted(by_kind)
        },
        "failed_by_fault": dict(sorted(by_fault.items())),
        "unexpected": unexpected,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        rounds = setup(args, work)
        setup_s = time.monotonic() - args.spawned_at
        setup_cpu = time.process_time()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_cpu": setup_cpu}))
            return
        tracer = Tracer()
        if args.trace:
            tracer.install()
        result = run(rounds, args.seconds, tracer, whole_cycles=bool(args.trace))
        tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = result.pop("latencies")
    deciles = statistics.quantiles(lat, n=10)
    report = {
        "setup_s": setup_s,
        "setup_cpu": setup_cpu,
        "ops_per_s": result["attempted"] / result["timed"],
        "op_p50_ms": deciles[4] * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": len(lat),
        "ops_per_sub_round": len(rounds[0]),
        **result,
    }
    if args.trace:
        report["layers"] = tracer.metrics(result["attempted"])
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}.json")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
