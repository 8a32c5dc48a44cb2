"""Construct a concrete diagram of any multigraph by greedy edge insertion.

Edges are inserted one at a time into a growing ``Diagram``.  Each new edge
is routed from a corner at one endpoint to a corner at the other by a
breadth-first search through the faces, crossing as few existing arcs as
possible (deterministic tie-breaks).  A crossed arc passes *over* the new
edge, so edges inserted later run underneath everything older.  Endpoints in
different components are joined by a crossing-free arc, which merges their
spheres.
"""

from __future__ import annotations

from collections import deque

from .diagram import Crossing, Dart, Diagram, Vertex
from .errors import FormatError
from .multigraph import Multigraph


def _route(d: Diagram, u: int, v: int) -> tuple[int, list[Dart], int]:
    """Find (gap at u, darts to cross, gap at v) for a new edge u -> v.

    A *gap* g at a node is the corner between slots g-1 and g, which lies in
    the face of dart ``(node, g)``; the new end takes slot g there.  ``u``
    and ``v`` must be distinct nodes of one component.
    """
    faces = d.faces()
    dart_face: dict[Dart, int] = {}
    for fi, face in enumerate(faces):
        for dart in face:
            dart_face[dart] = fi
    # multi-source BFS over faces
    start: dict[int, int] = {}  # face -> smallest gap at u
    for g in range(d.degree_of(u)):
        start.setdefault(dart_face[(u, g)], g)
    target: dict[int, int] = {}
    for g in range(d.degree_of(v)):
        target.setdefault(dart_face[(v, g)], g)
    parent: dict[int, tuple[int, Dart] | None] = {}
    queue = deque()
    for fi in sorted(start):
        parent[fi] = None
        queue.append(fi)
        if fi in target:
            return start[fi], [], target[fi]
    while queue:
        fi = queue.popleft()
        for dart in faces[fi]:
            nxt = dart_face[d.partner(dart)]
            if nxt in parent:
                continue
            parent[nxt] = (fi, dart)
            if nxt in target:
                crossed = []
                cur = nxt
                while parent[cur] is not None:
                    cur, via = parent[cur]
                    crossed.append(via)
                crossed.reverse()
                return start[cur], crossed, target[nxt]
            queue.append(nxt)
    raise FormatError("endpoints lie in different components")


def _insert_edge(d: Diagram, u: int, v: int) -> Diagram:
    """``d`` with one more edge between its vertices ``u`` and ``v``."""
    nodes = list(d.nodes)
    if u == v:
        # a loop nests in the corner before slot 0; never cross anything
        nodes[u] = Vertex(nodes[u].label, nodes[u].degree + 2)
        arcs = [
            tuple((n, s + 2) if n == u else (n, s) for n, s in arc) for arc in d.arcs
        ]
        arcs.append(((u, 0), (u, 1)))
        return Diagram(nodes, arcs, d.free_loops)
    if any(u in comp and v not in comp for comp in d.components()):
        # separate spheres: bring them together through any face
        gap_u, crossed, gap_v = d.degree_of(u), [], d.degree_of(v)
    else:
        gap_u, crossed, gap_v = _route(d, u, v)

    def moved(dart: Dart) -> Dart:
        n, s = dart
        if (n == u and s >= gap_u) or (n == v and s >= gap_v):
            return (n, s + 1)
        return dart

    cut = set(crossed) | {d.partner(a) for a in crossed}
    arcs = [(moved(a), moved(b)) for a, b in d.arcs if a not in cut]
    prev = (u, gap_u)
    for a in crossed:
        # onward 0, left 1, backward 2, right 3: the old arc keeps the
        # upper strand
        x = len(nodes)
        nodes.append(Crossing(1))
        arcs += [(moved(a), (x, 1)), (moved(d.partner(a)), (x, 3)), (prev, (x, 2))]
        prev = (x, 0)
    arcs.append((prev, (v, gap_v)))
    for n in (u, v):
        nodes[n] = Vertex(nodes[n].label, nodes[n].degree + 1)
    return Diagram(nodes, arcs, d.free_loops)


def base_diagram(g: Multigraph, edge_order: list[int] | None = None) -> Diagram:
    """A concrete diagram of ``g``: vertices ``"0".."n-1"`` in graph order,
    crossings after.

    ``edge_order`` controls insertion order (edge indices; default is the
    graph's own edge order).  Later-inserted edges pass under earlier
    material wherever they cross it.
    """
    order = list(range(g.edge_count)) if edge_order is None else list(edge_order)
    if sorted(order) != list(range(g.edge_count)):
        raise FormatError("edge_order must permute the edge indices")
    d = Diagram([Vertex(str(i), 0) for i in range(g.vertex_count)], [])
    for e in order:
        d = _insert_edge(d, *g.endpoints(e))
    return d
