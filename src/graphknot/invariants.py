"""Link invariants and crossing-number bounds.

The bracket polynomial is computed by planar tangle contraction: crossings
are added one at a time, and each non-crossing matching of the open
boundary darts carries the states seen so far, collected by (state
exponent, closed loops), before powers of the circle polynomial are
expanded.
Orientations for writhe and linking numbers are chosen canonically: every
circle is traversed starting from its smallest entry dart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import Diagram, GraphProjection, extract_sublink, sublink_crossings
from .errors import (
    DisconnectedError,
    FormatError,
    NotALinkError,
    SizeLimitExceeded,
    TopologyError,
)
from .moves import Budget, search_min_crossings
from .multigraph import Multigraph


class LaurentPoly:
    """Integer Laurent polynomial in one variable ``A``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, int] = {
            int(e): int(c) for e, c in (coeffs or {}).items() if c
        }

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @property
    def span(self) -> int:
        """Difference between extreme exponents (0 for 0 or 1 terms)."""
        if not self.coeffs:
            return 0
        return max(self.coeffs) - min(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                power = "A" if e == 1 else f"A^{e}"
                body = mag + power
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r})"

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in sorted(self.coeffs.items())}


CIRCLE_POLY = LaurentPoly({2: -1, -2: -1})

_circle_powers: dict[int, LaurentPoly] = {0: LaurentPoly.one()}


def _circle_power(k: int) -> LaurentPoly:
    while len(_circle_powers) <= k:
        _circle_powers[len(_circle_powers)] = (
            _circle_powers[len(_circle_powers) - 1] * CIRCLE_POLY
        )
    return _circle_powers[k]


# A contraction key packs one class of states as
# (A-exponent << _LOOP_BITS) + closed loops.
_LOOP_BITS = 16
_LOOP_MASK = (1 << _LOOP_BITS) - 1
_A_STEP = 1 << _LOOP_BITS

# The bracket refuses diagrams with more crossings.
MAX_BRACKET_CROSSINGS = 20


def kauffman_bracket(d: Diagram) -> LaurentPoly:
    """Bracket polynomial of a link diagram, by planar tangle contraction.

    The A-smoothing at a crossing whose over slots are ``(o, o+2)`` joins
    slot pairs ``(o+1, o+2)`` and ``(o+3, o)``; the B-smoothing joins
    ``(o, o+1)`` and ``(o+2, o+3)``.
    """
    if d.vertices():
        raise NotALinkError("bracket is defined for link diagrams")
    n = len(d.nodes)
    if n > MAX_BRACKET_CROSSINGS:
        raise SizeLimitExceeded(f"{n} crossings exceeds the bracket guard")
    if n == 0:
        if d.free_loops == 0:
            raise NotALinkError("empty diagram has no bracket")
        return LaurentPoly(_circle_power(d.free_loops - 1).coeffs)
    out: dict[int, int] = {}
    for key, mult in _contract(d).items():
        exp = key >> _LOOP_BITS
        circles = (key & _LOOP_MASK) + d.free_loops
        for e, c in _circle_power(circles - 1).coeffs.items():
            out[e + exp] = out.get(e + exp, 0) + c * mult
    return LaurentPoly(out)


def _contract(d: Diagram) -> dict[int, int]:
    """Multiplicity of every (A-exponent, closed loops) class of states.

    Darts are integers ``4 * crossing + slot``.  Crossings are added one at
    a time: next, the one with the most slots joined to crossings already
    added, ties going to the lower node index.  ``boundary`` lists the open
    darts, those of added crossings whose partner is not added yet, and a
    matching is a tuple giving, for each boundary position, the position
    its strand ends at.

    When crossing ``c`` is added, its slots become points ``L .. L+3`` after
    the ``L`` old positions: ``inner`` joins points along the old matching
    and the smoothing, ``outer`` along the arcs at ``c``.  Every strand then
    runs from one new boundary point to another, alternating inner and outer
    steps; each cycle left over passes through a joined slot of ``c`` and is
    a closed loop.
    """
    n = len(d.nodes)
    # every node has degree 4, so dart (m, t) has index 4 * m + t
    pair = [4 * m + t for m, t in d._darts[2]]
    added = [False] * n
    joined_to_added = [0] * n
    boundary: list[int] = []
    position: dict[int, int] = {}
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for _ in range(n):
        c = -1
        for x in range(n):
            if not added[x] and (c < 0 or joined_to_added[x] > joined_to_added[c]):
                c = x
        added[c] = True
        size = len(boundary)
        outer = [-1] * (size + 4)
        joined = []
        arcs_out = 0
        for s in range(4):
            other = pair[4 * c + s]
            if other >> 2 == c:
                outer[size + s] = size + (other & 3)
                joined.append(size + s)
                arcs_out += s < (other & 3)  # each self-arc once
            elif other in position:
                p = position[other]
                outer[size + s] = p
                outer[p] = size + s
                joined.append(size + s)
                arcs_out += 1
            else:
                joined_to_added[other >> 2] += 1
        ends = [p for p in range(size + 4) if outer[p] < 0]
        new_index = [-1] * (size + 4)
        for i, p in enumerate(ends):
            new_index[p] = i
        boundary = [boundary[p] if p < size else 4 * c + p - size for p in ends]
        position = {x: i for i, x in enumerate(boundary)}
        width = len(ends)
        join_12_30 = (size + 3, size + 2, size + 1, size)
        join_01_23 = (size + 1, size, size + 3, size + 2)
        if d.nodes[c].over == 0:
            smoothings = ((join_12_30, _A_STEP), (join_01_23, -_A_STEP))
        else:
            smoothings = ((join_01_23, _A_STEP), (join_12_30, -_A_STEP))
        merged: dict[tuple[int, ...], dict[int, int]] = {}
        for matching, classes in states.items():
            for table, step in smoothings:
                inner = matching + table
                strands = [-1] * width
                arcs_on_strands = 0
                for i in range(width):
                    if strands[i] >= 0:
                        continue
                    q = inner[ends[i]]
                    o = outer[q]
                    while o >= 0:
                        arcs_on_strands += 1
                        q = inner[o]
                        o = outer[q]
                    j = new_index[q]
                    strands[i] = j
                    strands[j] = i
                if arcs_on_strands < arcs_out:
                    # count each cycle once, from its lowest joined slot
                    for start in joined:
                        q = inner[start]
                        while q < size or q > start:
                            q = outer[q]
                            if q == start:
                                step += 1
                                break
                            if q < 0 or size <= q < start:
                                break
                            q = inner[q]
                key = tuple(strands)
                target = merged.get(key)
                if target is None:
                    merged[key] = {k + step: v for k, v in classes.items()}
                else:
                    for k, v in classes.items():
                        k += step
                        target[k] = target.get(k, 0) + v
        states = merged
    return states[()]


# -- orientations, writhe, linking ----------------------------------------------


def _passages(d: Diagram):
    """Canonically oriented circles and, per crossing, its two entry slots
    tagged with the circle that uses them."""
    if d.vertices():
        raise NotALinkError("orientations here are for link diagrams only")
    _, circles = d.strands()
    info: dict[int, list[tuple[int, int]]] = {}
    for ci, entries in enumerate(circles):
        for n, s in entries:
            info.setdefault(n, []).append((ci, s))
    return circles, info


def _sign(d: Diagram, n: int, entries: list[tuple[int, int]]) -> int:
    (_, s1), (_, s2) = entries
    o = d.nodes[n].over
    if s1 % 2 == o:
        over_in, under_in = s1, s2
    else:
        over_in, under_in = s2, s1
    over_exit = (over_in + 2) % 4
    under_exit = (under_in + 2) % 4
    return 1 if under_exit == (over_exit + 1) % 4 else -1


def writhe(d: Diagram) -> int:
    _, info = _passages(d)
    return sum(_sign(d, n, ent) for n, ent in info.items())


def linking_numbers(d: Diagram) -> dict[tuple[int, int], int]:
    """Pairwise linking numbers of the circles, canonically oriented.

    Circles are indexed in the order of ``strands()``; free loops (which
    link nothing) take the last indices.  Pairs that never share a
    crossing are omitted: an absent key means linking number zero.
    """
    circles, info = _passages(d)
    sums: dict[tuple[int, int], int] = {}
    for n, ent in info.items():
        (c1, _), (c2, _) = ent
        if c1 == c2:
            continue
        key = (min(c1, c2), max(c1, c2))
        sums[key] = sums.get(key, 0) + _sign(d, n, ent)
    for key, v in sums.items():
        if v % 2:
            raise TopologyError("odd crossing count between two circles")
        sums[key] = v // 2
    return sums


# -- span bounds -----------------------------------------------------------------


def span_lower_bound(d: Diagram) -> int:
    """Crossing-number lower bound from the bracket span, for diagrams with
    a single connected component.  (The bound is unsound for split diagrams:
    each extra split part inflates the span by 4.)"""
    if len(d.components()) + d.free_loops != 1:
        raise DisconnectedError("span bound requires a connected diagram")
    return (kauffman_bracket(d).span + 3) // 4


def component_span_lower_bound(d: Diagram) -> int:
    """Sum of per-component span bounds (sound for split diagrams)."""
    return sum(span_lower_bound(part) for part in d.split_components())


# -- cycle-based obstructions ----------------------------------------------------


def simple_cycles(g: Multigraph, max_cycles: int = 100_000) -> list[list[int]]:
    """Every simple cycle, as an ordered list of edge indices.

    Loop edges are 1-cycles and parallel pairs are 2-cycles.  Each cycle
    appears once (direction and starting point are quotiented out).
    """
    cycles: list[list[int]] = []
    seen: set[frozenset[int]] = set()

    def record(path: list[int]) -> None:
        key = frozenset(path)
        if key not in seen:
            seen.add(key)
            cycles.append(list(path))
            if len(cycles) > max_cycles:
                raise SizeLimitExceeded("too many cycles to enumerate")

    # each vertex's (edge, other end) pairs, in edge order, loops left out
    near: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            record([i])
        else:
            near[u].append((i, v))
            near[v].append((i, u))
    for root in range(g.vertex_count):
        _extend_cycles(near, record, root, root, {root}, [])
    return sorted(cycles, key=lambda c: (len(c), c))


def _extend_cycles(
    near, record, root: int, current: int, blocked: set[int], path: list[int]
) -> None:
    """Record every cycle through ``root`` that continues the simple
    ``path`` from ``root`` to ``current`` over vertices above ``root``,
    along the (edge, other end) pairs ``near`` lists at each vertex.  A
    module function, not a closure: a recursive closure refers to itself
    through its own cell, and each call would leave that cycle behind for
    the collector."""
    for e, w in near[current]:
        if e in path:
            continue
        if w == root and path:
            record(path + [e])
        elif w > root and w not in blocked:
            _extend_cycles(near, record, root, w, blocked | {w}, path + [e])


def cycle_vertices(g: Multigraph, cycle: list[int]) -> set[int]:
    out: set[int] = set()
    for e in cycle:
        u, v = g.endpoints(e)
        out.add(u)
        out.add(v)
    return out


def disjoint_cycle_pairs(g: Multigraph, cycles=None):
    cycles = simple_cycles(g) if cycles is None else cycles
    vertex_sets = [cycle_vertices(g, c) for c in cycles]
    for i, j in itertools.combinations(range(len(cycles)), 2):
        if vertex_sets[i].isdisjoint(vertex_sets[j]):
            yield cycles[i], cycles[j]


# -- crossing-number estimation ---------------------------------------------------


def _signed_linking(d: Diagram) -> tuple[int, ...]:
    """``linking_numbers`` of ``d``, signed, in circle-pair order."""
    return tuple(lk for _, lk in sorted(linking_numbers(d).items()))


def _bracket_span(d: Diagram) -> int:
    return kauffman_bracket(d).span


@dataclass(frozen=True)
class Obstruction:
    """Why the crossing number is at least ``bound``."""

    kind: str  # "nonplanar-graph" | "block-euler-girth" | "linked-cycles" | "sublink-span"
    bound: int
    cycles: tuple[tuple[int, ...], ...] = ()
    value: int = 0  # linking number or span, depending on kind

    def to_json(self):
        return {
            "kind": self.kind,
            "bound": self.bound,
            "cycles": [list(c) for c in self.cycles],
            "value": self.value,
        }


class _Sublink:
    """A candidate's extraction: its cycle tuple ``key``, the sublink
    ``diagram`` it extracts to, the ``positions`` in the map's parity vector
    of the crossings that sublink keeps, and its ``values`` by measure and
    by the over bits of those crossings, the first bit 0."""

    __slots__ = ("key", "diagram", "positions", "values")

    def __init__(self, key, diagram: Diagram, positions: tuple[int, ...]):
        self.key, self.diagram, self.positions = key, diagram, positions
        self.values: dict = {}


class ObstructionScan:
    """The lower-bound scan of one map, its over/under-free half kept.

    A diagram's projection, its planarity and graph-wide crossing bound
    (``Multigraph.crossing_lower_bound``), simple cycles and disjoint cycle
    pairs, and the sublink each candidate extracts to (or the error
    extracting it raises), depend on its map alone.  They are built on first
    use, in scan order, and kept, so a crossing assignment of the map is
    only a parity vector: one over parity per crossing, by node index, as
    ``crossing_assignments`` yields them.  ``obstructions`` reads nothing
    else of it.  Each candidate's kept crossings are positions in that
    vector, found once.

    A sublink's linking numbers and span bounds depend only on the over bits
    of the crossings it keeps, so they are kept per (cycles, bits): ``hits``
    counts the values served from there instead of computed again.
    Switching every kept crossing gives the sublink's mirror image, whose
    bracket is the sublink's with A and A^-1 exchanged: the spans and span
    bounds stay, and the signed linking numbers negate (Kauffman, Topology
    26, 1987).  So the bits are kept by the representative whose first bit
    is 0, and a vector and its complement share one value.

    ``obstructions`` skips, before extracting it, a candidate whose sublink
    keeps too few crossings to yield anything; the count of kept crossings
    depends on the map alone and is kept per cycle tuple, and ``skipped``
    counts the candidates passed over.  A disjoint pair keeping fewer than
    two crossings has linking numbers 0, since the crossings between two
    circles come in pairs, and a span bound of at most its crossing count
    (a connected c-crossing diagram has bracket span at most 4c; Kauffman,
    Topology 26, 1987), so below the 2 an unlinked pair needs.  A single
    cycle keeping fewer than three crossings is a knot diagram of at most
    two crossings, an unknot, whose bracket span is 0.
    """

    def __init__(self, d: Diagram):
        self.diagram = d
        self._projection: GraphProjection | None = None
        self._planar: bool | None = None
        self._graph_bound: int | None = None
        self._cycles: list[list[int]] | None = None
        self._position: dict[int, int] | None = None
        self._itself: _Sublink | None = None
        self._kept: dict = {}
        self._sublinks: dict = {}
        # the candidates in scan order, each None when skipped, extended as
        # far as some scan has asked from the iterators of their cycle tuples
        self._pairs: list[_Sublink | None] = []
        self._more_pairs = None
        self._singles: list[_Sublink | None] = []
        self._more_singles = None
        self.hits = 0
        self.skipped = 0

    @property
    def projection(self) -> GraphProjection:
        if self._projection is None:
            self._projection = self.diagram.underlying_graph()
        return self._projection

    @property
    def planar(self) -> bool:
        if self._planar is None:
            self._planar = self.projection.graph.is_planar()
        return self._planar

    @property
    def graph_bound(self) -> int:
        """``crossing_lower_bound`` of the projection's graph; 0, without
        computing it, when the graph is planar."""
        if self._graph_bound is None:
            graph = self.projection.graph
            self._graph_bound = 0 if self.planar else graph.crossing_lower_bound()
        return self._graph_bound

    def cycles(self) -> list[list[int]]:
        if self._cycles is None:
            self._cycles = simple_cycles(self.projection.graph)
        return self._cycles

    def _positions(self, kept: list[int]) -> tuple[int, ...]:
        """The positions of the crossings ``kept`` in the parity vector."""
        if self._position is None:
            self._position = {n: i for i, n in enumerate(self.diagram.crossings())}
        return tuple(self._position[n] for n in kept)

    def _kept_crossings(self, key) -> list[int]:
        """``sublink_crossings`` of the cycle tuple ``key``, kept per tuple."""
        kept = self._kept.get(key)
        if kept is None:
            kept = self._kept[key] = sublink_crossings(self.projection, key)
        return kept

    def _extraction(self, cycles) -> _Sublink:
        """The extraction of ``cycles``.  It, or the ``FormatError`` or
        ``TopologyError`` extracting raises, is kept per cycle tuple."""
        key = tuple(map(tuple, cycles))
        hit = self._sublinks.get(key)
        if hit is None:
            try:
                sub = extract_sublink(self.projection, [list(c) for c in key])
                hit = _Sublink(key, sub, self._positions(self._kept_crossings(key)))
            except (FormatError, TopologyError) as exc:
                hit = exc.with_traceback(None)
            self._sublinks[key] = hit
        if isinstance(hit, Exception):
            # a fresh error each time: a traceback on the kept one would hold
            # this frame, and so the scan, in a reference cycle
            raise type(hit)(*hit.args)
        return hit

    def _walk(self, walk: list, more, least: int):
        """Yield the candidates of ``walk`` in order, extending it from the
        iterator of cycle tuples ``more`` as far as asked: None for a tuple
        whose sublink keeps fewer than ``least`` crossings, else its
        extraction.  A tuple whose extraction raises ``TopologyError`` is
        left out."""
        i = 0
        while True:
            while i < len(walk):
                yield walk[i]
                i += 1
            for key in more:
                if len(self._kept_crossings(key)) < least:
                    walk.append(None)
                    break
                try:
                    walk.append(self._extraction(key))
                    break
                except TopologyError:
                    continue
            else:
                return

    def _value(self, measure, sub: _Sublink, bits: tuple[int, ...]):
        """``measure`` of the sublink ``sub`` at the parity vector ``bits``,
        kept per measure and over bits of its kept crossings, a vector and
        its complement sharing one value."""
        over = tuple([bits[i] for i in sub.positions])
        mirrored = bool(over) and over[0] == 1
        if mirrored:
            over = tuple([1 - b for b in over])
        slot = (measure, over)
        value = sub.values.get(slot)
        if value is None:
            value = measure(sub.diagram.with_parities(dict(enumerate(over))))
            sub.values[slot] = value
        else:
            self.hits += 1
        if mirrored and measure is _signed_linking:
            return tuple([-lk for lk in value])
        return value

    def sublink(self, cycles) -> Diagram:
        """``extract_sublink`` of ``cycles`` in the scan's diagram."""
        return self._extraction(cycles).diagram

    def linking(self, cycles, bits: tuple[int, ...]) -> tuple[int, ...]:
        """The signed linking numbers of the sublink at the parity vector
        ``bits``, by circle pair."""
        return self._value(_signed_linking, self._extraction(cycles), bits)

    def span_bound(self, cycles, bits: tuple[int, ...]) -> int:
        """``component_span_lower_bound`` of the sublink at the parity vector
        ``bits``."""
        return self._value(component_span_lower_bound, self._extraction(cycles), bits)

    def obstructions(self, bits: tuple[int, ...]):
        """Yield each obstruction of the map at the parity vector ``bits``,
        with the signed linking numbers behind it (empty unless
        linked-cycles).

        Cheap evidence comes first: a link diagram's own span, then linking
        numbers of disjoint cycle pairs, then bracket spans of single
        cycles, then spans of the unlinked pairs.  A pair keeping fewer than
        two crossings, or a cycle fewer than three, is skipped unextracted:
        it yields nothing (see the class docstring).
        """
        if self._more_pairs is None:
            d = self.diagram
            if not d.vertices() and (d.components() or d.free_loops):
                # a pure link diagram bounds itself through its own span; all
                # its nodes are crossings, so node n is at position n
                self._itself = _Sublink((), d, tuple(range(d.crossing_count)))
            pairs = disjoint_cycle_pairs(self.projection.graph, self.cycles())
            self._more_pairs = ((tuple(c1), tuple(c2)) for c1, c2 in pairs)
            self._more_singles = ((tuple(c),) for c in self.cycles())
        if self._itself is not None:
            bound = self._value(component_span_lower_bound, self._itself, bits)
            if bound > 0:
                yield Obstruction("sublink-span", bound, (), -1), ()
        unlinked = []
        for sub in self._walk(self._pairs, self._more_pairs, 2):
            if sub is None:
                self.skipped += 1
                continue
            signed = self._value(_signed_linking, sub, bits)
            total = sum(abs(v) for v in signed)
            if total >= 1:
                yield Obstruction("linked-cycles", 2 * total, sub.key, total), signed
            else:
                unlinked.append(sub)
        for sub in self._walk(self._singles, self._more_singles, 3):
            if sub is None:
                self.skipped += 1
                continue
            # one cycle extracts to one circle, so its bound is its own span's
            span = self._value(_bracket_span, sub, bits)
            bound = (span + 3) // 4
            if bound > 0:
                yield Obstruction("sublink-span", bound, sub.key, span), ()
        for sub in unlinked:
            bound = self._value(component_span_lower_bound, sub, bits)
            if bound >= 2:
                yield Obstruction("sublink-span", bound, sub.key, -1), ()

    def at_least_two(
        self, bits: tuple[int, ...]
    ) -> tuple[Obstruction, tuple[int, ...]] | None:
        """The first obstruction at the parity vector ``bits`` with bound two
        or more, and its signed linking numbers; None when none bites."""
        return next(((o, lk) for o, lk in self.obstructions(bits) if o.bound >= 2), None)


@dataclass(frozen=True)
class CrossingNumberReport:
    value: int | None
    lower_bound: int
    upper_bound: int
    conclusive: bool
    cap_relative: bool  # conclusive only among diagrams within the crossing cap
    crossing_cap: int
    states: int
    obstructions: tuple[Obstruction, ...]
    notes: tuple[str, ...]

    def to_json(self):
        return {
            "value": self.value,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "conclusive": self.conclusive,
            "cap_relative": self.cap_relative,
            "crossing_cap": self.crossing_cap,
            "states": self.states,
            "obstructions": [o.to_json() for o in self.obstructions],
            "notes": list(self.notes),
        }


def lower_bound_obstructions(
    d: Diagram, stop_when: int | None = None, shadow: bool = False
) -> tuple[int, tuple[Obstruction, ...]]:
    """Every obstruction of ``d``: non-planarity of its graph, then the
    graph's block bound (``ObstructionScan.graph_bound``, listed only when
    it exceeds the 1 of non-planarity), then the ``ObstructionScan``,
    stopping at the first that reaches ``stop_when``.

    The graph-wide bounds come first because they hold for every drawing
    of the graph and cost one pass over the map, while the scan enumerates
    cycles and computes brackets: where the block bound already reaches
    the drawing's crossing count, as on K3,4, K6 and K5.K5, the scan is
    not run.

    With ``shadow`` only the graph-wide bounds are listed.  The scan's
    linked cycles and sublink spans bound the one spatial graph ``d``
    draws, and crossing changes leave its isotopy class."""
    scan = ObstructionScan(d)
    obstructions: list[Obstruction] = []

    def best() -> int:
        return max((o.bound for o in obstructions), default=0)

    def below_stop() -> bool:
        return stop_when is None or best() < stop_when

    if not scan.planar:
        obstructions.append(Obstruction("nonplanar-graph", 1))
        if below_stop() and scan.graph_bound > 1:
            obstructions.append(Obstruction("block-euler-girth", scan.graph_bound))
    if below_stop() and not shadow:
        for o, _signed in scan.obstructions(d.parities()):
            obstructions.append(o)
            if stop_when is not None and o.bound >= stop_when:
                break
    return best(), tuple(obstructions)


def crossing_number(
    d: Diagram, budget: Budget | None = None, shadow: bool = False
) -> CrossingNumberReport:
    """Minimal crossings over diagrams move-equivalent to ``d``; with
    ``shadow``, over diagrams reachable from ``d`` by moves and crossing
    changes, found by one search over shadows (``search_min_crossings``).

    The answer is conclusive when the search's upper bound meets a lower
    bound, or (flagged ``cap_relative``) when ``d`` is within the crossing
    cap and the whole reachable set under the cap was exhausted without
    meeting it.  With ``shadow`` the lower bounds are the graph-wide ones
    alone (``lower_bound_obstructions``).
    """
    budget = budget or Budget()
    ub = d.crossing_count
    lb, obstructions = lower_bound_obstructions(d, stop_when=ub, shadow=shadow)
    if ub <= lb:
        found, states, exhausted = ub, 0, False
        note = "diagram already meets its lower bound; no search needed"
    else:
        result = search_min_crossings(d, budget, stop_at=lb, shadow=shadow)
        found, states = result.best.crossing_count, result.states
        # exhausting the cap closes nothing unless ``d`` is within the cap
        exhausted = result.exhausted and ub <= budget.max_crossings
        if found <= lb:
            note = "search met the lower bound"
        elif exhausted:
            note = (
                f"exhausted every diagram reachable with at most "
                f"{budget.max_crossings} crossings"
            )
        elif result.exhausted:
            note = (
                f"the drawing's {ub} crossings exceed the {budget.max_crossings}-"
                "crossing cap, so exhausting the cap closes nothing"
            )
        else:
            note = "state budget exhausted before the search finished"
    conclusive = found <= lb or exhausted
    return CrossingNumberReport(
        value=found if conclusive else None,
        lower_bound=lb,
        upper_bound=found,
        conclusive=conclusive,
        cap_relative=found > lb and exhausted,
        crossing_cap=budget.max_crossings,
        states=states,
        obstructions=obstructions,
        notes=(note,),
    )

