"""Soundness sweep: the criterion must stay silent on planar graphs.

Walks every connected planar simple graph up to a vertex cap (via the
networkx atlas), keeps those whose automorphism group passes the
symmetric-product screen, generates small diagrams for each, and runs the
degree-4-vertex criterion at every vertex and orientation.  Any certificate
here would be a bug.
"""

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from graphknot import (
    VertexOrientation,
    apply_move,
    automorphisms,
    check_nonplanar,
    enumerate_moves,
    symmetric_product_orbits,
)
from graphknot.layout import base_diagram
from oracles import atlas_graphs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=6)
    ap.add_argument("--max-crossings", type=int, default=2)
    args = ap.parse_args()

    t0 = time.monotonic()
    graphs = skipped = cases = hits = 0
    for _i, g in atlas_graphs(args.max_vertices):
        if not g.is_planar():
            continue
        if symmetric_product_orbits(automorphisms(g)) is None:
            skipped += 1
            continue
        graphs += 1
        base = base_diagram(g)
        diagrams = [base] if base.crossing_count <= args.max_crossings else []
        if base.crossing_count == 0:
            sites = enumerate_moves(base, ("R2_add",))
            if sites:
                diagrams.append(apply_move(base, sites[0]))
        for d in diagrams:
            for v in d.vertices():
                if d.nodes[v].degree != 4:
                    continue
                for slot in range(4):
                    cases += 1
                    cert = check_nonplanar(d, VertexOrientation(v, slot))
                    if cert is not None:
                        hits += 1
                        print(f"FALSE POSITIVE on {g.edges} vertex {v} slot {slot}")
    dt = time.monotonic() - t0
    print(
        f"{graphs} planar graphs swept ({skipped} screened out), "
        f"{cases} criterion calls, {hits} false positives, {dt:.1f}s"
    )
    sys.exit(1 if hits else 0)


if __name__ == "__main__":
    main()
