"""Named example graphs and diagrams shared by tests, scripts and docs.

Everything here is deterministic: each call rebuilds the same object, so
frozen expectations in the test suite stay meaningful.
"""

from __future__ import annotations

from .diagram import Diagram
from .layout import base_diagram
from .moves import MoveSite, apply_move, enumerate_moves
from .multigraph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    one_point_union,
)
from .tangle import RationalTangle


# -- links ---------------------------------------------------------------------


def unknot() -> Diagram:
    """The crossing-free unknot: one free loop."""
    return Diagram([], [], 1)


def unlink(n: int) -> Diagram:
    """n crossing-free circles."""
    return Diagram([], [], n)


def kinked_unknot(kinks: int = 1) -> Diagram:
    """The unknot with ``kinks`` R1 curls stacked onto it."""
    d = unknot()
    if kinks >= 1:
        d = apply_move(d, MoveSite("R1_add", ("loop", 0)))
    for _ in range(kinks - 1):
        d = apply_move(d, enumerate_moves(d, ("R1_add",))[0])
    return d


def hopf_link() -> Diagram:
    return RationalTangle((2,)).closure_n()


def trefoil() -> Diagram:
    return RationalTangle((3,)).closure_n()


def figure_eight() -> Diagram:
    return RationalTangle((2, 2)).closure_n()


# -- graphs ----------------------------------------------------------------------


def wheel4() -> Multigraph:
    """A 4-cycle plus a hub joined to all of it; the hub has degree 4."""
    rim = [(1, 2), (2, 3), (3, 4), (4, 1)]
    spokes = [(0, i) for i in range(1, 5)]
    return Multigraph(5, tuple(spokes + rim))


def bowtie() -> Multigraph:
    """Two triangles sharing one vertex (a degree-4 cut vertex)."""
    return one_point_union(cycle_graph(3), 0, cycle_graph(3), 0)


def two_squares() -> Multigraph:
    """Two 4-cycles sharing one vertex."""
    return one_point_union(cycle_graph(4), 0, cycle_graph(4), 0)


# -- graph diagrams ---------------------------------------------------------------


def k4_diagram() -> Diagram:
    return base_diagram(complete_graph(4))


def k5_diagram() -> Diagram:
    """The standard one-crossing drawing of K5."""
    return base_diagram(complete_graph(5))


def subdivided_k5() -> Multigraph:
    """K5 with one edge subdivided: still non-planar, and every original
    vertex keeps degree 4, so the criterion applies away from the new
    degree-2 vertex."""
    g = complete_graph(5)
    edges = [e for e in g.edges if e != (0, 1)]
    return Multigraph(6, tuple(edges + [(0, 5), (1, 5)]))


def linked_triangles() -> Diagram:
    """Two disjoint triangles drawn so their cycles form a Hopf link.

    Built from the flat two-triangle drawing by poking one triangle's arc
    across the other (a cross-component R2) and then changing one of the
    two new crossings, which makes the linking number +-1.
    """
    d = base_diagram(disjoint_union(cycle_graph(3), cycle_graph(3)))
    comps = d.components()
    u1 = next(dart for dart in d.darts() if dart[0] in comps[0])
    u2 = next(dart for dart in d.darts() if dart[0] in comps[1])
    poked = apply_move(d, MoveSite("R2_add", (u1, u2, 0)))
    return apply_move(poked, MoveSite("CrossingChange", (poked.crossings()[0],)))
