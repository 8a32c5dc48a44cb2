"""Regenerate ``search_cases.json``: which descending-diagram pairs the
``search`` workload draws from, grouped into strata of similar cost.

The pairs are the non-trivial cases of the acceptance test
``test_descending_diagrams_coincide_up_to_moves`` (1206 of its 1251 cases),
numbered the same way.  Each is solved once with that test's budget and
timed.  Pairs whose path recovery fails every time are listed under
``failing``, cheapest first; the rest that finish within
``workloads.SEARCH_MAX_SECONDS`` are sorted by time and cut into
``workloads.SEARCH_STRATA`` groups of equal size.  The strata only steer
which inputs a run draws, so that runs with different seeds carry the same
mix of cheap and costly searches; no output check reads this file.

Run from the repository root (takes about five minutes on one CPU):

    python3 perfbench/make_search_cases.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> None:
    rows, failing = [], []
    for case in workloads.descending_cases():
        pair = workloads.descending_pair(case)
        if pair is None:
            continue
        text1, text2, cap = pair
        t0 = time.perf_counter()
        result = workloads.run_descending(text1, text2, cap)
        elapsed = time.perf_counter() - t0
        problem = workloads.check_path(text1, text2, result, shadow=True)
        if problem is not None:
            failing.append((elapsed, case))
        elif elapsed <= workloads.SEARCH_MAX_SECONDS:
            rows.append((elapsed, case))
        print(case, f"{elapsed:.3f}s", problem or "ok", file=sys.stderr)
    rows.sort()
    size, n = len(rows), workloads.SEARCH_STRATA
    strata = [sorted(case for _, case in rows[i * size // n : (i + 1) * size // n]) for i in range(n)]
    (HERE / "search_cases.json").write_text(
        json.dumps({"failing": [case for _, case in sorted(failing)], "strata": strata}, indent=None) + "\n"
    )


if __name__ == "__main__":
    main()
