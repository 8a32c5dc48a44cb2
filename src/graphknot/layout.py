"""Construct a concrete diagram of any multigraph by greedy edge insertion.

Edges are inserted one at a time into a growing ``Diagram``, each by a
local edit of its dart arrays taken on trust; the finished drawing is
validated once.  Each new edge
is routed from a corner at one endpoint to a corner at the other by a
breadth-first search through the faces, crossing as few existing arcs as
possible (deterministic tie-breaks).  A crossed arc passes *over* the new
edge, so edges inserted later run underneath everything older.  Endpoints in
different components are joined by a crossing-free arc, which merges their
spheres.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate

from .diagram import Crossing, Dart, Diagram, Vertex, _join
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
    """``d`` with one more edge between its vertices ``u`` and ``v``, on
    trust: a local edit of ``d``'s dart arrays that opens the new slots,
    renumbers the slots after them and the arcs that end there, and joins
    the new edge through one new crossing per arc it crosses."""
    if u == v:
        # a loop nests in the corner before slot 0; never cross anything
        gaps, crossed = {u: (0, 2)}, []
    else:
        if any(u in comp and v not in comp for comp in d.components()):
            # separate spheres: bring them together through any face
            gap_u, crossed, gap_v = d.degree_of(u), [], d.degree_of(v)
        else:
            gap_u, crossed, gap_v = _route(d, u, v)
        gaps = {u: (gap_u, 1), v: (gap_v, 1)}
    deg, first, partner = d._darts

    def moved(dart: Dart) -> Dart:
        n, s = dart
        if n in gaps and s >= gaps[n][0]:
            return (n, s + gaps[n][1])
        return dart

    new_deg = list(deg)
    new_partner = list(partner)
    for n in sorted(gaps, reverse=True):  # the later slots first
        at, k = gaps[n]
        new_partner[first[n] + at:first[n] + at] = [None] * k
        new_deg[n] += k
    new_deg += [4] * len(crossed)
    new_partner += [None] * (4 * len(crossed))
    darts = (new_deg, list(accumulate(new_deg, initial=0)), new_partner)
    for n, (at, _k) in gaps.items():
        for s in range(at, deg[n]):
            _join(darts, moved((n, s)), moved(partner[first[n] + s]))
    nodes = list(d.nodes)
    for n, (_at, k) in gaps.items():
        nodes[n] = Vertex(nodes[n].label, nodes[n].degree + k)
    if u == v:
        _join(darts, (u, 0), (u, 1))
        return Diagram._trusted(tuple(nodes), darts, d.free_loops, d.crossing_count)
    prev = (u, gap_u)
    for a in crossed:
        # onward 0, left 1, backward 2, right 3: the old arc keeps the
        # upper strand
        x = len(nodes)
        nodes.append(Crossing(1))
        _join(darts, moved(a), (x, 1))
        _join(darts, moved(d.partner(a)), (x, 3))
        _join(darts, prev, (x, 2))
        prev = (x, 0)
    _join(darts, prev, (v, gap_v))
    count = d.crossing_count + len(crossed)
    return Diagram._trusted(tuple(nodes), darts, d.free_loops, count)


def base_diagram(g: Multigraph, edge_order: list[int] | None = None) -> Diagram:
    """A concrete diagram of ``g``: vertices ``"0".."n-1"`` in graph order,
    crossings after.

    ``edge_order`` controls insertion order (edge indices; default is the
    graph's own edge order).  Later-inserted edges pass under earlier
    material wherever they cross it.  Each edge is inserted on trust, and
    the finished drawing is validated once.
    """
    order = list(range(g.edge_count)) if edge_order is None else list(edge_order)
    if sorted(order) != list(range(g.edge_count)):
        raise FormatError("edge_order must permute the edge indices")
    d = Diagram([Vertex(str(i), 0) for i in range(g.vertex_count)], [])
    for e in order:
        d = _insert_edge(d, *g.endpoints(e))
    return Diagram(d.nodes, d.arcs, d.free_loops)
