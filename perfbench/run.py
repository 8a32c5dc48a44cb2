"""graphknot's benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload search [--seed 1] [--seconds 20] [--trace 0]

Run it from anywhere inside a checkout; it builds nothing and imports
``graphknot`` from the checkout's ``src``.  Each run starts the workload in
a fresh interpreter (one client, one op at a time), and before that sets up
the same workload in fresh interpreters ``SETUP_REPEATS - 1`` more times, so
``setup_s`` is a median.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs the same ops with spans around every
layer and reports the per-layer metrics instead.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 means the run finished, whatever it found; anything else means
it could not run.
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

from spans import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "bracket", "certify")
SETUP_REPEATS = 7
TIME_LIMIT_S = 170  # a worker still running then is killed and the run fails
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def spawn(args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description="graphknot benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "graphknot" / "__init__.py").is_file():
        raise SystemExit(f"no graphknot source under {ROOT / 'src'}")

    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [] if args.trace else [
        spawn(args, True, deadline) for _ in range(SETUP_REPEATS - 1)
    ]
    report = spawn(args, False, deadline)
    setups.append(report)
    report["setup_s"] = statistics.median(s["setup_s"] for s in setups)

    if args.trace:
        metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in report["layers"].items()}
    else:
        metrics = {k: {"value": report[k], "unit": u} for k, u in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{args.workload:8} {name:44} {m['value']:14.6g} {m['unit']}")
    wall = ", ".join(f"{s['setup_s']:.3f}" for s in setups)
    cpu = ", ".join(f"{s['setup_cpu']:.3f}" for s in setups)
    print(
        f"{args.workload:8} {report['samples']} op samples in {report['sub_rounds']} sub-rounds"
        f" of {report['ops_per_sub_round']} ops; timed {report['timed']:.2f} s wall,"
        f" {report['cpu']:.2f} s CPU; set-ups {wall} s wall, {cpu} s CPU"
    )
    print(json.dumps({k: report[k] for k in ("ops_by_kind", "failed_by_fault", "unexpected")}))
    expected = sum(report["failed_by_fault"].values())
    print(
        json.dumps(
            {
                "correct": report["failed"] == expected,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
