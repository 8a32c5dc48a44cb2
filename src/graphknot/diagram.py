"""Diagrams of knotted graphs as combinatorial maps on spheres.

A diagram is a rotation system: nodes carry numbered attachment *slots*
(counter-clockwise), and *arcs* pair up slots two by two.  Nodes are either
4-valent crossings (slots ``0..3``, with one opposite slot pair passing over)
or graph vertices of arbitrary degree.  Crossing-free circles are tracked by
a plain counter (``free_loops``) since they carry no combinatorial data.

A *dart* is a pair ``(node_index, slot)``.  Faces are the orbits of
``phi(d) = next_slot(partner(d))`` and lie to the right of each dart; every
connected component must satisfy V - E + F = 2, i.e. embed in a sphere.
Distinct components live on separate spheres.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    FormatError,
    InvalidVertexError,
    SizeLimitExceeded,
    TopologyError,
)
from .multigraph import Multigraph, parse_int

Dart = tuple[int, int]
Arc = tuple[Dart, Dart]


@dataclass(frozen=True)
class Crossing:
    """4-valent node; slots whose parity equals ``over`` pass on top."""

    over: int
    degree = 4  # a class attribute, not a field

    def __post_init__(self) -> None:
        # a bool or float would pass ``in (0, 1)``, since it equals its int
        if type(self.over) is not int or self.over not in (0, 1):
            raise FormatError("crossing 'over' parity must be the int 0 or 1")


@dataclass(frozen=True)
class Vertex:
    label: str
    degree: int

    def __post_init__(self) -> None:
        # the text format splits lines at whitespace and cuts comments at "#"
        label = self.label
        if not isinstance(label, str) or not label or any(
            ch.isspace() or ch in ".#" for ch in label
        ):
            raise FormatError(f"bad vertex label {label!r}")
        if type(self.degree) is not int or self.degree < 0:
            raise FormatError("vertex degree must be a non-negative integer")


Node = Crossing | Vertex

# the head fields of a crossing's row in a trace, by its over parity relative
# to the slot the trace enters it at; a shadow trace ignores over/under, so
# every crossing gets the same head
_CROSSING_HEADS = (("x", 0), ("x", 1))
_SHADOW_HEADS = (("x", 0), ("x", 0))


class Diagram:
    """Immutable sphere diagram.

    ``Diagram(nodes, arcs, free_loops)`` is the trust boundary: it validates
    the embedding (``_validate``, the one definition of a valid map) and
    builds the flat dart arrays ``_darts``, the one arc map, which
    ``partner`` reads.  Every other diagram is derived from a validated one
    through the private ``_trusted``, which stores dart arrays as given:
    ``with_parities`` shares its map; ``_grown`` and ``_join`` edit a copy
    of its arrays locally (the growing and sliding moves of ``moves``, and
    the twists of ``tangle``); ``_union`` sets two maps side by side; and
    ``splice``, the one function that deletes nodes and rejoins strands,
    serves the removing moves, tangle closures and substitution.
    ``split_components`` cuts the arrays one component at a time.  ``arcs``
    lists each arc once, at its lesser end, in dart order; a trusted
    diagram derives it from the arrays on first use.  ``canonical_code``
    and ``shadow_code`` hold one flat tuple per component (see
    ``_least_traces``).
    """

    __slots__ = (
        "nodes", "_arcs", "free_loops", "crossing_count", "_darts", "_faces",
        "_components", "_code", "_shadow",
    )

    def __init__(self, nodes, arcs, free_loops: int = 0):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.free_loops = free_loops
        self._faces = None
        self._components = None
        self._code = None
        self._shadow = None
        try:
            self._arcs: tuple[Arc, ...] | None = tuple(
                sorted((a, b) if a <= b else (b, a) for a, b in arcs)
            )
            self._validate()
        except TypeError:
            raise FormatError("arc ends must be pairs of integers") from None

    @classmethod
    def _trusted(
        cls, nodes: tuple[Node, ...], darts, free_loops: int, crossing_count: int
    ) -> "Diagram":
        """A diagram from dart arrays ``(deg, first, partner)`` as
        ``_validate`` builds them, taken on trust: the caller derived them
        from a validated diagram by a rewrite that keeps the sphere
        condition, with every dart a pair of plain ints."""
        out = object.__new__(cls)
        out.nodes, out._arcs, out.free_loops = nodes, None, free_loops
        out.crossing_count, out._darts = crossing_count, darts
        out._faces = out._components = out._code = out._shadow = None
        return out

    # -- construction checks ------------------------------------------------

    def _validate(self) -> None:
        """Check the embedding and build the flat dart arrays ``_darts``:
        each node's degree, the index of each node's slot 0 (dart ``(n, s)``
        has index ``first[n] + s``, and ``first`` ends with the dart count),
        and each dart's partner ``(node, slot)`` by index."""
        # ``int()`` would take a float, a bool or a string of digits
        if type(self.free_loops) is not int or self.free_loops < 0:
            raise FormatError("free loop count must be a non-negative int")
        labels = [n.label for n in self.nodes if isinstance(n, Vertex)]
        if len(labels) != len(set(labels)):
            raise FormatError("vertex labels must be distinct")
        self.crossing_count = len(self.nodes) - len(labels)
        deg = [node.degree for node in self.nodes]
        first = list(accumulate(deg, initial=0))
        # keyed by dart index, so a huge declared degree allocates nothing
        mate: dict[int, Dart] = {}
        for a, b in self.arcs:
            # both ends checked in line: a loop over (a, b) costs more than
            # the checks themselves
            n, s = a
            if not (0 <= n < len(deg)):
                raise InvalidVertexError(f"arc endpoint {a} names no node")
            if type(s) is not int or not (0 <= s < deg[n]):
                raise FormatError(f"slot {s!r} out of range at node {n}")
            i = first[n] + s
            if i in mate:
                raise TopologyError(f"slot {a} used by two arc ends")
            mate[i] = b
            n, s = b
            if not (0 <= n < len(deg)):
                raise InvalidVertexError(f"arc endpoint {b} names no node")
            if type(s) is not int or not (0 <= s < deg[n]):
                raise FormatError(f"slot {s!r} out of range at node {n}")
            i = first[n] + s
            if i in mate:
                raise TopologyError(f"slot {b} used by two arc ends")
            mate[i] = a
        if len(mate) != first[-1]:
            raise TopologyError("every slot must be matched by exactly one arc end")
        partner = [mate[i] for i in range(first[-1])]
        self._darts = (deg, first, partner)
        # sphere check, one component at a time: V - E + F = 2
        comps = self.components()
        comp_of = [0] * len(deg)
        for ci, comp in enumerate(comps):
            for n in comp:
                comp_of[n] = ci
        face_count = [0] * len(comps)
        phi = [first[m] + (t + 1) % deg[m] for m, t in partner]
        seen = bytearray(len(phi))
        for start, (m, _t) in enumerate(partner):
            if not seen[start]:
                # the partner of a face's dart is in the face's component
                face_count[comp_of[m]] += 1
                i = start
                while not seen[i]:
                    seen[i] = 1
                    i = phi[i]
        for ci, comp in enumerate(comps):
            f = face_count[ci] or 1  # isolated degree-0 vertex
            chi = len(comp) - sum(deg[n] for n in comp) // 2 + f
            if chi != 2:
                raise TopologyError(
                    f"component {sorted(comp)} has Euler characteristic {chi}, "
                    "not a sphere diagram"
                )

    # -- basic structure -----------------------------------------------------

    def degree_of(self, n: int) -> int:
        return self.nodes[n].degree

    def is_crossing(self, n: int) -> bool:
        return isinstance(self.nodes[n], Crossing)

    def crossings(self) -> list[int]:
        return [i for i, node in enumerate(self.nodes) if isinstance(node, Crossing)]

    def vertices(self) -> list[int]:
        return [i for i, node in enumerate(self.nodes) if isinstance(node, Vertex)]

    def vertex_index(self, label: str) -> int:
        for i, node in enumerate(self.nodes):
            if isinstance(node, Vertex) and node.label == label:
                return i
        raise InvalidVertexError(f"no vertex labelled {label!r}")

    def darts(self) -> list[Dart]:
        return [(n, s) for n, node in enumerate(self.nodes) for s in range(node.degree)]

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc once, as (lesser end, greater end), in dart order."""
        if self._arcs is None:
            self._arcs = _arcs_of(self._darts)
        return self._arcs

    def partner(self, d: Dart) -> Dart:
        """The other end of the arc at ``d``, read off the flat arrays
        ``_darts``."""
        _deg, first, partner = self._darts
        return partner[first[d[0]] + d[1]]

    def phi(self, d: Dart) -> Dart:
        """Next dart along the face to the right of ``d``, read off the
        flat arrays ``_darts``."""
        deg, first, partner = self._darts
        n, s = partner[first[d[0]] + d[1]]
        return (n, (s + 1) % deg[n])

    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face orbits, each starting at its least dart, in dart order."""
        if self._faces is None:
            deg, first, partner = self._darts
            darts = self.darts()
            seen = bytearray(len(darts))
            out = []
            # scanning darts in order, the first dart met of each orbit is
            # its least one
            for start in range(len(darts)):
                orbit = []
                i = start
                while not seen[i]:
                    seen[i] = 1
                    orbit.append(darts[i])
                    m, t = partner[i]
                    i = first[m] + (t + 1) % deg[m]
                if orbit:
                    out.append(tuple(orbit))
            self._faces = tuple(out)
        return self._faces

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components of the node set under arcs, by least node."""
        if self._components is None:
            _deg, first, partner = self._darts
            placed = [False] * len(self.nodes)
            out = []
            for start in range(len(self.nodes)):
                if placed[start]:
                    continue
                placed[start] = True
                members = [start]
                for n in members:  # grows as the search reaches new nodes
                    for m, _t in partner[first[n]:first[n + 1]]:
                        if not placed[m]:
                            placed[m] = True
                            members.append(m)
                out.append(frozenset(members))
            self._components = tuple(out)
        return self._components

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Diagram)
            and self.nodes == other.nodes
            and self.arcs == other.arcs
            and self.free_loops == other.free_loops
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.arcs, self.free_loops))

    def __repr__(self) -> str:
        n, a = len(self.nodes), len(self.arcs)
        return f"Diagram({n} nodes, {a} arcs, {self.free_loops} free loops)"

    # -- canonical form -------------------------------------------------------

    def _least_traces(self, shadow: bool = False):
        """(code, node order, slot origins) of each component's least trace,
        in component order (by least node); the first root to reach the
        least code wins.

        A trace is the breadth-first code of a component from a root dart.
        Node numbers and slot origins are both traversal-derived, so two
        diagrams get equal codes exactly when they are the same map up to
        renumbering nodes and rotating slot labels.  Each node gives a row:
        its head, then the number ``q`` and relative slot ``r`` of the
        partner of each of its slots from the origin on.  A crossing heads
        ``"x", bit``, its over parity relative to its origin slot, or always
        ``"x", 0`` in a shadow trace; a vertex heads ``"v", label, degree``.
        The code is one flat tuple of the rows' fields, row after row.  It
        sorts as the tuple of rows would: two codes first differ inside a
        head, at fields of one type, or inside cells, since equal heads mean
        rows of equal length.

        Only darts realising the least head can root a least trace.  Vertex
        heads sort before crossing heads and labels are distinct, so a
        component with a vertex is rooted at every slot of its vertex with
        the least label.  The vertices are walked in label order, and one
        not yet placed has the least label of its component: its trace
        finds the component, and the winning trace's node order places it.
        A degree-0 vertex is an ``"isolated"`` piece of its own.  The nodes
        left over form crossing-only components, each found by one walk and
        rooted at the over slots of its crossings (head ``("x", 0)``), or at
        all four slots in a shadow trace, in node order.
        """
        heads = _SHADOW_HEADS if shadow else _CROSSING_HEADS
        nodes = self.nodes
        darts = self._darts
        deg, first, partner = darts
        placed = bytearray(len(nodes))
        pieces = []  # (least node of the component, piece)
        labelled = [(node.label, n) for n, node in enumerate(nodes) if type(node) is Vertex]
        for label, n in sorted(labelled):
            if placed[n]:
                continue
            if not deg[n]:
                placed[n] = 1
                pieces.append((n, (("isolated", label, 0), [n], {n: 0})))
                continue
            piece = _least_trace(nodes, darts, [(n, s) for s in range(deg[n])], heads)
            order = piece[1]
            if len(order) == len(nodes):  # the one component
                return [piece]
            for m in order:
                placed[m] = 1
            pieces.append((min(order), piece))
        n = placed.find(0)
        while n >= 0:
            placed[n] = 1
            comp = [n]
            for m in comp:  # grows as the walk reaches new nodes
                for k, _t in partner[first[m]:first[m + 1]]:
                    if not placed[k]:
                        placed[k] = 1
                        comp.append(k)
            comp.sort()
            if shadow:
                roots = [(m, s) for m in comp for s in range(4)]
            else:
                roots = [(m, s) for m in comp for s in (nodes[m].over, nodes[m].over + 2)]
            pieces.append((n, _least_trace(nodes, darts, roots, heads)))
            n = placed.find(0, n + 1)
        pieces.sort(key=lambda p: p[0])
        return [piece for _least, piece in pieces]

    def canonical_code(self):
        """Hashable key equal for diagrams that are the same abstract map."""
        if self._code is None:
            codes = sorted(code for code, _order, _origin in self._least_traces())
            self._code = (tuple(codes), self.free_loops)
        return self._code

    def shadow_code(self):
        """Hashable key equal for diagrams with the same shadow: the same map
        up to crossing changes.  It is ``canonical_code`` with over/under
        ignored, and ``with_parities`` shares it."""
        if self._shadow is None:
            codes = sorted(code for code, _order, _origin in self._least_traces(True))
            self._shadow = (tuple(codes), self.free_loops)
        return self._shadow

    def shadow_parities(self) -> dict[int, int]:
        """Each crossing over at the parity of the slot by which the least
        shadow trace of its component enters it.  Every head of that trace
        is then ``("x", 0)``, the least head, so with these parities it is
        the least trace too, and ``canonical_code`` equals ``shadow_code``."""
        return {
            n: origin[n] % 2
            for _code, order, origin in self._least_traces(True)
            for n in order
            if isinstance(self.nodes[n], Crossing)
        }

    def canonical_form(self) -> "Diagram":
        """A representative with nodes renumbered into canonical order."""
        pieces = self._least_traces()
        pieces.sort(key=lambda p: p[0])
        new_index: dict[int, int] = {}
        origins: dict[int, int] = {}
        new_nodes: list[Node] = []
        for _code, order, origin in pieces:
            for n in order:
                new_index[n] = len(new_nodes)
                origins[n] = origin[n]
                node = self.nodes[n]
                if isinstance(node, Crossing):
                    node = Crossing((node.over - origin[n]) % 2)
                new_nodes.append(node)

        def remap(d: Dart) -> Dart:
            n, s = d
            return (new_index[n], (s - origins[n]) % self.degree_of(n))

        new_arcs = [(remap(a), remap(b)) for a, b in self.arcs]
        return Diagram(new_nodes, new_arcs, self.free_loops)

    # -- strands ---------------------------------------------------------------

    def strands(self) -> tuple[list["StrandPath"], list[tuple[Dart, ...]]]:
        """All maximal strands: (open vertex-to-vertex paths, closed circles).

        A strand entering a crossing at slot ``s`` leaves it at ``s + 2``.
        Each closed circle is reported as its tuple of crossing entry darts,
        starting from the smallest.
        """
        used: set[Dart] = set()
        partner = self.partner
        open_paths = []
        for n in self.vertices():
            for s in range(self.degree_of(n)):
                start = (n, s)
                if start in used:
                    continue
                passages = []
                used.add(start)
                cur = partner(start)
                while self.is_crossing(cur[0]):
                    used.add(cur)
                    passages.append(cur)
                    out = (cur[0], (cur[1] + 2) % 4)
                    used.add(out)
                    cur = partner(out)
                used.add(cur)
                open_paths.append(StrandPath((start, cur), tuple(passages)))
        circles = []
        for d in self.darts():
            if d in used or not self.is_crossing(d[0]):
                continue
            entries = []
            cur = d
            while cur not in used:
                used.add(cur)
                entries.append(cur)
                out = (cur[0], (cur[1] + 2) % 4)
                used.add(out)
                cur = partner(out)
            start = entries.index(min(entries))
            circles.append(tuple(entries[start:] + entries[:start]))
        open_paths.sort(key=lambda p: p.ends)
        circles.sort()
        return open_paths, circles

    # -- relation to the underlying graph ---------------------------------------

    def underlying_graph(self) -> "GraphProjection":
        verts = self.vertices()
        vertex_of_node = {n: i for i, n in enumerate(verts)}
        open_paths, circles = self.strands()
        records = []
        for path in open_paths:
            (n1, _s1), (n2, _s2) = path.ends
            # a strand starts at its lesser (node, slot) end, and vertices are
            # numbered in node order, so u <= v
            u, v = vertex_of_node[n1], vertex_of_node[n2]
            records.append(((u, v), path))
        records.sort(key=lambda r: (r[0], r[1].ends))
        graph = Multigraph(len(verts), tuple(r[0] for r in records))
        return GraphProjection(
            diagram=self,
            graph=graph,
            node_of_vertex=tuple(verts),
            strands=tuple(r[1] for r in records),
            circles=tuple(circles),
        )

    def split_components(self) -> list["Diagram"]:
        """One diagram per connected component (free loops come last,
        one circle each)."""
        if len(self.components()) == 1 and not self.free_loops:
            return [self]
        out = []
        for comp in self.components():
            order = sorted(comp)
            darts, _passed = _rejoin(self, order, {})
            nodes = tuple(self.nodes[n] for n in order)
            crossings = sum(type(node) is Crossing for node in nodes)
            out.append(Diagram._trusted(nodes, darts, 0, crossings))
        out.extend(Diagram._trusted((), ([], [0], []), 1, 0) for _ in range(self.free_loops))
        return out

    # -- simple rewrites ----------------------------------------------------------

    def with_parities(self, overs: dict[int, int]) -> "Diagram":
        """This map with crossing ``n`` over at parity ``overs[n]``, sharing the
        dart arrays, arcs, faces, components and shadow code."""
        nodes = list(self.nodes)
        for n, over in overs.items():
            if not isinstance(nodes[n], Crossing):
                raise InvalidVertexError(f"node {n} is not a crossing")
            nodes[n] = Crossing(over)
        out = Diagram._trusted(
            tuple(nodes), self._darts, self.free_loops, self.crossing_count
        )
        out._arcs, out._faces = self._arcs, self._faces
        out._components, out._shadow = self._components, self._shadow
        return out


@dataclass(frozen=True)
class StrandPath:
    """An open strand: its two vertex-slot ends and crossing entry darts."""

    ends: tuple[Dart, Dart]
    passages: tuple[Dart, ...]


@dataclass(frozen=True)
class GraphProjection:
    """How a diagram projects onto its underlying multigraph.

    ``graph.edges[i]`` is realized by ``strands[i]``; vertex ``i`` of the
    graph is diagram node ``node_of_vertex[i]``.
    Closed crossing-only circles (not graph edges) are listed separately.
    """

    diagram: Diagram
    graph: Multigraph
    node_of_vertex: tuple[int, ...]
    strands: tuple[StrandPath, ...]
    circles: tuple[tuple[Dart, ...], ...]

    def edge_at_slot(self, dart: Dart) -> int:
        """Graph edge whose strand ends at the given vertex slot."""
        for i, strand in enumerate(self.strands):
            if dart in strand.ends:
                return i
        raise InvalidVertexError(f"{dart} is not a vertex slot on any strand")


def _least_trace(nodes, darts, roots, heads):
    """(code, node order, slot origins) of the least trace of one component
    from the root darts ``roots``, as ``Diagram._least_traces`` describes
    it.

    The traces from every root advance together, one row at a time, and a
    trace drops out once its row is larger than the least row of that
    round, so no root is traced twice.  Once one trace is left, it runs to
    its end, straight into the code.  Every trace covers the one component,
    so all end at the same row.
    """
    deg, first, partner = darts
    traces = []  # each root's node numbers, slot origins, order
    for n, o in roots:
        number = [-1] * len(nodes)
        origin = [0] * len(nodes)
        number[n] = 0
        origin[n] = o
        traces.append((number, origin, [n]))
    code = []
    i = 0
    while i < len(traces[0][2]):
        alone = len(traces) == 1
        least = None
        for trace in traces:
            number, origin, order = trace
            row = code if alone else []
            n = order[i]  # order grows as nodes get numbers
            node = nodes[n]
            o = origin[n]
            if type(node) is Crossing:
                row += heads[(node.over - o) % 2]
            else:
                row += ("v", node.label, node.degree)
            # the partners of the slots from o on, counter-clockwise
            cut = first[n] + o
            for m, t in partner[cut:first[n + 1]] + partner[first[n]:cut]:
                q = number[m]
                if q < 0:
                    number[m] = q = len(order)
                    origin[m] = t
                    order.append(m)
                row.append(q)
                row.append((t - origin[m]) % deg[m])
            if alone:
                break
            if row == least:
                kept.append(trace)
            elif least is None or row < least:
                least, kept = row, [trace]
        if not alone:
            code += least
            traces = kept
        i += 1
    _number, origin, order = traces[0]
    return tuple(code), order, origin


def _arcs_of(darts) -> tuple[Arc, ...]:
    """Every arc of the dart arrays once, as (lesser end, greater end), in
    dart order."""
    _deg, first, partner = darts
    # the partner of an arc's greater end is its lesser end
    return tuple(
        (partner[j], end) for i, end in enumerate(partner) if i < (j := first[end[0]] + end[1])
    )


def _rejoin(d: Diagram, keep, thru: dict[Dart, Dart]):
    """The dart arrays of the nodes ``keep``, renumbered in that order, with
    each strand run on through the other nodes along ``thru``; and the set
    of removed darts those strands passed.  A strand that reaches a removed
    dart ``thru`` does not map raises ``TopologyError``."""
    deg, first, partner = d._darts
    new_index = [-1] * len(deg)
    for i, n in enumerate(keep):
        new_index[n] = i
    new_deg = [deg[n] for n in keep]
    new_partner = []
    passed: set[Dart] = set()
    for n in keep:
        for end in partner[first[n]:first[n + 1]]:
            m = new_index[end[0]]
            while m < 0:
                out = thru.get(end)
                if out is None:
                    raise TopologyError("strand leaves the selected cycles")
                passed.add(end)
                passed.add(out)
                end = partner[first[out[0]] + out[1]]
                m = new_index[end[0]]
            new_partner.append(end if m == end[0] else (m, end[1]))
    return (new_deg, list(accumulate(new_deg, initial=0)), new_partner), passed


def splice(d: Diagram, thru: dict[Dart, Dart]) -> Diagram:
    """Delete the nodes named in ``thru``, rejoining strands through it.

    ``thru`` is a fixed-point-free involution covering every slot of every
    node it mentions (connections may run between different removed
    nodes).  The kept nodes keep their order, strands are re-routed through
    the identifications, and each circle that closes up entirely inside the
    removed nodes becomes a free loop.  This is an edit of ``d``'s dart
    arrays, taken on trust: the caller checked that strands rejoined this
    way keep every component on its sphere.
    """
    nodes = d.nodes
    removed = {n for n, _s in thru}
    keep = [n for n in range(len(nodes)) if n not in removed]
    darts, passed = _rejoin(d, keep, thru)
    # the strands pass darts of ``thru`` only, so unless they pass them all
    # some circle is trapped
    loops = _trapped_loops(d, thru, passed) if len(passed) < len(thru) else 0
    return Diagram._trusted(
        tuple([nodes[n] for n in keep]),
        darts,
        d.free_loops + loops,
        d.crossing_count - len([n for n in removed if type(nodes[n]) is Crossing]),
    )


def _trapped_loops(d: Diagram, thru: dict[Dart, Dart], passed: set[Dart]) -> int:
    """How many circles close up inside the removed nodes: the removed darts
    (the keys of ``thru``) that no rejoined strand ``passed`` lie on them,
    each a cycle of alternate ``thru`` and arc steps."""
    _deg, first, partner = d._darts
    trapped = set(thru).difference(passed)
    loops = 0
    while trapped:
        loops += 1
        cur = trapped.pop()
        while thru[cur] in trapped:
            m, t = thru[cur]
            trapped.remove((m, t))
            cur = partner[first[m] + t]
            trapped.discard(cur)
    return loops


_CROSSINGS = (Crossing(0), Crossing(1))


def _grown(d: Diagram, overs):
    """The nodes and a copy of the dart arrays of ``d`` with one more
    crossing per entry of ``overs``, over at that parity.  Their darts come
    last and are joined by the caller."""
    deg, first, partner = d._darts
    added = len(overs)
    nodes = d.nodes + tuple(_CROSSINGS[o] for o in overs)
    darts = (
        deg + [4] * added,
        first + [first[-1] + 4 * k for k in range(1, added + 1)],
        partner + [None] * (4 * added),
    )
    return nodes, darts


def _join(darts, a: Dart, b: Dart) -> None:
    """Make ``a`` and ``b`` the two ends of one arc in ``darts``."""
    _deg, first, partner = darts
    partner[first[a[0]] + a[1]] = b
    partner[first[b[0]] + b[1]] = a


def _union(d1: Diagram, d2: Diagram) -> Diagram:
    """``d1`` and ``d2`` side by side, ``d2``'s nodes numbered after
    ``d1``'s, on trust: the union of two maps is a map, though its vertex
    labels need not be distinct."""
    (deg1, first1, partner1), (deg2, first2, partner2) = d1._darts, d2._darts
    shift, base = len(d1.nodes), first1[-1]
    darts = (
        deg1 + deg2,
        first1 + [base + i for i in first2[1:]],
        partner1 + [(n + shift, s) for n, s in partner2],
    )
    free_loops = d1.free_loops + d2.free_loops
    return Diagram._trusted(
        d1.nodes + d2.nodes, darts, free_loops, d1.crossing_count + d2.crossing_count
    )


def disjoint_union_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """``d1`` and ``d2`` side by side, ``d2``'s nodes numbered after
    ``d1``'s; validated, so their vertex labels must be distinct."""
    union = _union(d1, d2)
    return Diagram(union.nodes, union.arcs, union.free_loops)


def connected_sum_diagrams(
    d1: Diagram, arc1: int, d2: Diagram, arc2: int, swap: bool = False
) -> Diagram:
    """Cut one arc in each diagram and join the stubs pairwise."""
    (x1, y1) = d1.arcs[arc1]
    (x2, y2) = d2.arcs[arc2]
    shift = len(d1.nodes)

    def sh(dart: Dart) -> Dart:
        return (dart[0] + shift, dart[1])

    if swap:
        x2, y2 = y2, x2
    arcs = [a for i, a in enumerate(d1.arcs) if i != arc1]
    arcs.extend((sh(a), sh(b)) for i, (a, b) in enumerate(d2.arcs) if i != arc2)
    arcs.append((x1, sh(x2)))
    arcs.append((y1, sh(y2)))
    return Diagram(d1.nodes + d2.nodes, arcs, d1.free_loops + d2.free_loops)


# crossing_assignments refuses diagrams with more crossings, and
# section3_crossing_number drawings with more
MAX_ASSIGNED_CROSSINGS = 16


def crossing_assignments(d: Diagram):
    """Yield every reassignment of over/under at the crossings as its tuple
    of over parities, one per crossing by node index, in binary counter
    order (the first crossing's bit flips fastest)."""
    c = d.crossing_count
    if c > MAX_ASSIGNED_CROSSINGS:
        raise SizeLimitExceeded(f"{c} crossings would give 2^{c} assignments")
    for word in range(1 << c):
        yield tuple((word >> j) & 1 for j in range(c))


def sublink_crossings(projection: GraphProjection, cycles) -> list[int]:
    """The crossings where two strands of ``cycles`` meet, in node order:
    the ones ``extract_sublink`` keeps."""
    parities: dict[int, set[int]] = {}
    for cycle in cycles:
        for e in cycle:
            for n, s in projection.strands[e].passages:
                parities.setdefault(n, set()).add(s % 2)
    return sorted(n for n, ps in parities.items() if len(ps) == 2)


def extract_sublink(
    projection: GraphProjection, cycles: list[list[int]]
) -> Diagram:
    """Restrict a diagram to edge-disjoint graph cycles, as a link diagram.

    Each cycle lists the edge indices of a simple cycle of
    ``projection.graph`` (``Multigraph.is_simple_cycle``) in any order.  At
    each vertex a cycle's two strand ends there are joined, crossings met by
    one surviving strand are passed straight through, and crossings where
    two surviving strands meet are kept with their over/under intact.  A
    cycle that meets no kept crossing closes up as one free loop.  The
    result is validated: cycles that share a vertex can cut out a map that
    is not on a sphere.
    """
    g = projection.graph
    strands = projection.strands
    # how strands run on through the nodes not kept: through a vertex the
    # way its cycle does, and straight through a crossing
    thru: dict[Dart, Dart] = {}
    for cycle in cycles:
        if not g.is_simple_cycle(cycle):
            raise FormatError(f"cycle {list(cycle)} is not a simple cycle")
        # the cycle meets each of its vertices at two strand ends
        ends: dict[int, Dart] = {}
        for e in cycle:
            for end in strands[e].ends:
                other = ends.pop(end[0], None)
                if other is None:
                    ends[end[0]] = end
                else:
                    thru[end], thru[other] = other, end
    edges = [e for cycle in cycles for e in cycle]
    if len(set(edges)) != len(edges):
        raise FormatError("an edge appears in two cycles")
    kept = sublink_crossings(projection, cycles)
    keep = set(kept)
    for e in edges:
        for n, s in strands[e].passages:
            if n not in keep:
                thru[(n, s)], thru[(n, (s + 2) % 4)] = (n, (s + 2) % 4), (n, s)
    d = projection.diagram
    darts, passed = _rejoin(d, kept, thru)
    loops = _trapped_loops(d, thru, passed) if len(passed) < len(thru) else 0
    return Diagram([d.nodes[n] for n in kept], _arcs_of(darts), loops)


# -- serialization -------------------------------------------------------------


def parse_diagram(text: str) -> Diagram:
    """Parse the line-based diagram format.

    ::

        diagram
        crossing 02        # over slots 0 and 2
        vertex a 3
        loop               # one crossing-free circle
        arc 0.1 1.0

    Nodes are referenced by position (0-based) in listing order.
    """
    nodes: list[Node] = []
    arcs = []
    free_loops = 0
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "diagram":
            if saw_header:
                raise FormatError(f"line {lineno}: repeated diagram header")
            saw_header = True
        elif not saw_header:
            raise FormatError(f"line {lineno}: content before diagram header")
        elif kw == "crossing":
            if len(fields) != 2 or fields[1] not in ("02", "13"):
                raise FormatError(f"line {lineno}: expected 'crossing 02' or 'crossing 13'")
            nodes.append(Crossing(0 if fields[1] == "02" else 1))
        elif kw == "vertex":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'vertex <label> <degree>'")
            try:
                degree = parse_int(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: bad degree") from None
            nodes.append(Vertex(fields[1], degree))
        elif kw == "loop":
            if len(fields) != 1:
                raise FormatError(f"line {lineno}: 'loop' takes no arguments")
            free_loops += 1
        elif kw == "arc":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'arc <n>.<s> <n>.<s>'")
            ends = []
            for token in fields[1:]:
                part = token.split(".")
                if len(part) != 2:
                    raise FormatError(f"line {lineno}: bad arc end {token!r}")
                try:
                    ends.append((parse_int(part[0]), parse_int(part[1])))
                except ValueError:
                    raise FormatError(f"line {lineno}: bad arc end {token!r}") from None
            arcs.append(tuple(ends))
        else:
            raise FormatError(f"line {lineno}: unknown keyword {kw!r}")
    if not saw_header:
        raise FormatError("missing diagram header")
    return Diagram(nodes, arcs, free_loops)


def diagram_to_text(d: Diagram) -> str:
    lines = ["diagram"]
    for node in d.nodes:
        if isinstance(node, Crossing):
            lines.append(f"crossing {'02' if node.over == 0 else '13'}")
        else:
            lines.append(f"vertex {node.label} {node.degree}")
    lines.extend(["loop"] * d.free_loops)
    for (a, b) in d.arcs:
        lines.append(f"arc {a[0]}.{a[1]} {b[0]}.{b[1]}")
    return "\n".join(lines) + "\n"

