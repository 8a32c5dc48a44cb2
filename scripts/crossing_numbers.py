"""Crossing numbers of small graphs via one search over shadows.

Prints the computed value per graph beside its published crossing number,
together with the states of the search from its layered drawing, then
checks additivity over disjoint and one-point unions.  The layered
drawings of K3,4, K6 and the one-point union K5.K5 already have as many
crossings as the graph's block bound (``Multigraph.crossing_lower_bound``)
demands, so they close with no search.

    python scripts/crossing_numbers.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from graphknot import (
    additivity_check,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    one_point_union,
    section3_crossing_number,
)
from graphknot.gallery import subdivided_k5, wheel4

# name, graph, published crossing number (for K5.K5, cr(K5) + cr(K5))
GRAPHS = [
    ("C5", cycle_graph(5), 0),
    ("K4", complete_graph(4), 0),
    ("W4", wheel4(), 0),
    ("K2,3", complete_bipartite(2, 3), 0),
    ("K5", complete_graph(5), 1),
    ("K5 subdivided", subdivided_k5(), 1),
    ("K3,4", complete_bipartite(3, 4), 2),
    ("K6", complete_graph(6), 3),
    ("K5.K5", one_point_union(complete_graph(5), 0, complete_graph(5), 0), 2),
]

UNIONS = [
    ("K4", complete_graph(4), "K5", complete_graph(5), "disjoint"),
    ("K5", complete_graph(5), "K5", complete_graph(5), "one-point"),
]


def main():
    print(
        f"{'graph':<14} {'cr':>3} {'published':>10} {'closed':>7} "
        f"{'states':>7} {'time':>8}"
    )
    for name, g, published in GRAPHS:
        t0 = time.monotonic()
        report = section3_crossing_number(g)
        dt = time.monotonic() - t0
        print(
            f"{name:<14} {report.value:>3} {published:>10} {str(report.closed):>7} "
            f"{report.search.states:>7} {dt:>7.2f}s"
        )

    print()
    for ln, lg, rn, rg, kind in UNIONS:
        t0 = time.monotonic()
        rep = additivity_check(lg, rg, kind)
        dt = time.monotonic() - t0
        verdict = "additive" if rep.holds else f"holds={rep.holds}"
        print(
            f"{ln} {kind} {rn}: cr = {rep.left.value} + {rep.right.value} "
            f"= {rep.combined.value} ({verdict}, {dt:.2f}s)"
        )


if __name__ == "__main__":
    main()
