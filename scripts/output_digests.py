"""One digest per op of a benchmark workload's first cycle.

    python3 scripts/output_digests.py search|bracket|certify [--seed N]

Builds the workload from ``perfbench/workloads.py`` exactly as the
benchmark does for that seed, runs every op of its first cycle once, and
prints one line per op: its position, its kind and a digest of what it
returned, with diagrams written as diagram text, plus any file it wrote.
Two header lines, starting with ``#``, name the workload, the seed and the
Python and networkx versions.  Two checkouts give the same behaviour on
that cycle when their outputs ``diff`` clean.  Ops run under
``PYTHONHASHSEED=0``, as in the benchmark.

The seed-1 outputs are committed as ``tests/digests/<workload>.txt`` and
checked by ``tests/test_digests.py``.  A change that alters output on
purpose regenerates them::

    python3 scripts/output_digests.py bracket > tests/digests/bracket.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import networkx  # noqa: E402
import workloads  # noqa: E402
from graphknot import diagram  # noqa: E402


def plain(x):
    """``x`` as JSON-ready data: diagrams as their text, dataclasses by
    field.  What ``json`` cannot write makes the digest fail, not guess."""
    if isinstance(x, diagram.Diagram):
        return diagram.diagram_to_text(x)
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [plain(y) for y in x]
    return x


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    print(f"# scripts/output_digests.py {args.workload} --seed {args.seed}")
    print(f"# python {platform.python_version()}, networkx {networkx.__version__}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        rng = random.Random(f"{args.workload}:{args.seed}")
        rounds = workloads.BUILDERS[args.workload](rng, workloads.Workdir(work))
        i = 0
        for ops in rounds:
            for op in ops:
                before = set(work.iterdir())
                try:
                    out = {"returned": plain(op.run())}
                except Exception as exc:  # a raising op is part of the behaviour
                    out = {"raised": f"{type(exc).__name__}: {exc}"}
                out["wrote"] = [
                    p.read_text() for p in sorted(set(work.iterdir()) - before)
                ]
                text = json.dumps(out, sort_keys=True).replace(str(work), "<work>")
                print(f"{i:4d} {op.kind:24} {hashlib.sha256(text.encode()).hexdigest()}")
                i += 1


if __name__ == "__main__":
    main()
