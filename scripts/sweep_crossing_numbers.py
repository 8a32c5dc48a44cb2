"""Crossing-number sweep: the driver's value against the exact one.

Walks every connected simple graph up to a vertex cap (via the networkx
atlas) and runs ``section3_crossing_number`` from its default drawing and
from three drawings by seeded edge orders.  Per graph it prints its atlas
index, vertices and edges, the exact crossing number from the
``small_crossing_number`` oracle of ``tests/oracles.py`` ("-" where that
oracle has none), the minimalizability verdict, and per drawing the value
("-" when withheld), whether it closed, and the search states.  A closed
value below the exact one is unsound, and makes the script exit 1; a value
above it was closed only relative to the crossing cap.

    python scripts/sweep_crossing_numbers.py [--max-vertices 7]
"""

import argparse
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from graphknot import minimalizability, section3_crossing_number
from oracles import atlas_graphs, small_crossing_number

DRAWINGS = 3  # seeded edge orders per graph, besides the default one


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-vertices", type=int, default=6)
    args = ap.parse_args()

    t0 = time.monotonic()
    graphs = drawings = states = unsound = above = unknown = withheld = 0
    for i, g in atlas_graphs(args.max_vertices):
        graphs += 1
        exact = small_crossing_number(g)
        unknown += exact is None
        verdict = minimalizability(g)[0].name.lower()
        m = g.edge_count
        orders = [None] + [random.Random(s).sample(range(m), m) for s in range(DRAWINGS)]
        cells = []
        for order in orders:
            report = section3_crossing_number(g, edge_order=order)
            drawings += 1
            states += report.search.states
            value = "-" if report.value is None else report.value
            closed = "closed" if report.closed else "open"
            cells.append(f"{value}/{closed}/{report.search.states}")
            if report.value is None:
                withheld += 1
            elif exact is not None and report.value < exact:
                unsound += 1
                cells[-1] += " UNSOUND"
            elif exact is not None and report.value > exact:
                above += 1
        shown = "-" if exact is None else exact
        row = f"G{i:<5} {g.vertex_count:>2} {m:>3} {shown:>2} {verdict:<17}"
        print(row, "  ".join(cells))
    dt = time.monotonic() - t0
    print(
        f"{graphs} graphs, {drawings} drawings, {states} states: "
        f"{unsound} values below the exact one, {above} above it, "
        f"{withheld} withheld; {unknown} graphs with no exact value; {dt:.1f}s"
    )
    sys.exit(1 if unsound else 0)


if __name__ == "__main__":
    main()
