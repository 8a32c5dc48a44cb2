"""Non-planarity certificates from knotted diagrams, and a crossing-number
driver that searches from a graph's base drawing.

The certificate machinery is one-sided: a ``NonPlanarCertificate`` proves
the underlying graph of a diagram is non-planar (given that the graph is
minimalizable, which the caller asserts), while ``None`` only means the
method saw nothing — never that the graph is planar.

A certificate for a degree-4 vertex ``v`` packages two facts:

* condition (i): the four rotation-neighbouring edge pairs at ``v`` extend
  to cycles of the underlying graph such that the two cycles of each
  opposite pair meet only in ``v``;
* condition (ii): however the crossings of the diagram are reassigned,
  splicing one of the two single-crossing tangles into ``v`` leaves an
  embedded graph that provably needs at least two crossings (typically via
  a Hopf-linked pair of cycles).

Certificates embed the diagram in text form plus every cycle and linking
number used, so ``verify_certificate`` can recheck them arithmetically,
with no search.

All ``2^c`` reassignments share one shadow, and the +1 and -1 tangles
differ only in the parity of their crossing, so both substitutions are one
map.  Condition (ii) and ``verify_certificate`` substitute the +1 tangle
once per call and keep that map's projection, cycles, cycle pairs and
sublinks in one ``ObstructionScan``.  A crossing assignment with either
tangle is a parity vector of that map, not a diagram: it costs only the
linking numbers and brackets of sublink parities that neither it nor
their mirror images have met yet, walked in the same order as a fresh
scan would walk it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    MAX_ASSIGNED_CROSSINGS,
    Diagram,
    GraphProjection,
    crossing_assignments,
    diagram_to_text,
    parse_diagram,
)
from .errors import FormatError, SizeLimitExceeded, TopologyError, WrongDegreeError
from .invariants import (
    Obstruction,
    ObstructionScan,
    crossing_number,
    CrossingNumberReport,
    cycle_vertices,
    simple_cycles,
)
from .layout import base_diagram
from .moves import Budget
from .multigraph import Multigraph, disjoint_union, one_point_union
from .tangle import RationalTangle, VertexOrientation, substitute

TANGLE_PLUS = RationalTangle((1,))

CERTIFICATE_FORMAT = "graphknot-certificate-v1"


# -- condition (i): crossed cycle pairs at a degree-4 vertex -------------------


@dataclass(frozen=True)
class ConditionOneWitness:
    """Cycles showing the four edge ends at ``vertex`` interleave.

    ``pair_edges[s]`` is the rotation-neighbouring pair at slots
    ``(s, s+1)``; ``cycles[s]`` runs through both of its edges.  The cycles
    of the opposite pairs (0, 2) share only the vertex itself, and likewise
    for (1, 3).
    """

    vertex: int
    graph_vertex: int
    pair_edges: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]

    def to_json(self):
        return {
            "graph_vertex": self.graph_vertex,
            "pairs": [list(p) for p in self.pair_edges],
            "cycles": [list(c) for c in self.cycles],
        }


def _rotation_pairs(projection: GraphProjection, v: int) -> tuple[tuple[int, int], ...]:
    """The graph edges at each rotation-neighbouring slot pair ``(s, s+1)``
    of the degree-4 vertex node ``v``."""
    slot_edges = [projection.edge_at_slot((v, s)) for s in range(4)]
    return tuple((slot_edges[s], slot_edges[(s + 1) % 4]) for s in range(4))


def condition_i(d: Diagram, vertex: int) -> ConditionOneWitness | None:
    """Search exhaustively for a condition-(i) witness at ``vertex``."""
    if d.is_crossing(vertex) or d.degree_of(vertex) != 4:
        raise WrongDegreeError("condition (i) needs a degree-4 graph vertex")
    projection = d.underlying_graph()
    g = projection.graph
    gv = projection.node_of_vertex.index(vertex)
    pairs = _rotation_pairs(projection, vertex)
    cycles = simple_cycles(g)
    # each cycle through a pair, with its vertex set
    through: list[list[tuple[list[int], set[int]]]] = []
    for ea, eb in pairs:
        need = {ea, eb}
        through.append(
            [(c, cycle_vertices(g, c)) for c in cycles if need <= set(c)]
        )
    chosen: list[tuple[int, ...] | None] = [None] * 4
    for s in (0, 1):
        hit = next(
            (
                (tuple(c1), tuple(c2))
                for c1, vs1 in through[s]
                for c2, vs2 in through[s + 2]
                if vs1 & vs2 == {gv}
            ),
            None,
        )
        if hit is None:
            return None
        chosen[s], chosen[s + 2] = hit
    return ConditionOneWitness(vertex, gv, pairs, tuple(chosen))


# -- condition (ii): every reassignment stays two crossings deep ---------------


@dataclass(frozen=True)
class AssignmentRecord:
    """One crossing assignment together with the substitution certifying it.

    ``bits`` lists the over parity per crossing (crossings by node index),
    ``r`` is +1 or -1 for which single-crossing tangle replaced the vertex,
    and ``linking`` stores the signed pairwise linking numbers behind a
    linked-cycles certificate (empty for span-based ones).
    """

    bits: tuple[int, ...]
    r: int
    certificate: Obstruction
    linking: tuple[int, ...] = ()

    def to_json(self):
        return {
            "bits": list(self.bits),
            "r": self.r,
            "certificate": self.certificate.to_json(),
            "linking": list(self.linking),
        }


class _Substitutions:
    """The +1 and -1 tangle substituted at ``where``, as one map.

    The two tangles are one twist of opposite sign: one crossing on the
    same darts, over at opposite parities.  Substitution keeps the
    diagram's nodes, in order, ahead of the tangle's, so the +1 tangle is
    substituted once, its map's ``ObstructionScan`` serves both tangles,
    and an assignment with either tangle is a parity vector of that map:
    the assignment's bits, then the tangle crossing's parity (``parities``).
    """

    def __init__(self, d: Diagram, where: VertexOrientation):
        self._d, self._where = d, where
        self._scan: ObstructionScan | None = None

    @property
    def scan(self) -> ObstructionScan:
        if self._scan is None:
            self._scan = ObstructionScan(substitute(self._d, self._where, TANGLE_PLUS))
        return self._scan

    def parities(self, r: int, bits: tuple[int, ...]) -> tuple[int, ...]:
        """The map's parity vector of the assignment ``bits`` with tangle
        ``r``: the -1 tangle's crossing is the +1 tangle's, switched."""
        plus = self.scan.diagram.nodes[-1].over
        return bits + (plus if r == 1 else 1 - plus,)


def condition_ii(
    d: Diagram, where: VertexOrientation
) -> tuple[AssignmentRecord, ...] | None:
    """Certify cr >= 2 for a substitution of every crossing assignment.

    For each of the ``2^c`` reassignments ``D'`` of the diagram's crossings,
    try replacing ``where`` with the +1 tangle and then the -1 tangle; keep
    the first whose result is certified to need at least two crossings.
    Returns ``None`` as soon as some assignment certifies neither way.

    Only assignment-independent obstructions (linked cycles or a sublink
    span) are tried, never a move search, so every record can be replayed
    by ``verify_certificate`` and the outcome is sound unconditionally.
    The tangles' one map is substituted and scanned once; an assignment
    costs only the linking numbers and brackets of its parity vector.
    """
    subs = _Substitutions(d, where)
    records: list[AssignmentRecord] = []
    for bits in crossing_assignments(d):
        scan = subs.scan
        if scan.diagram.crossing_count <= 1:
            return None  # it needs at most one crossing, so nothing bounds it by two
        for r in (1, -1):
            found = scan.at_least_two(subs.parities(r, bits))
            if found is not None:
                records.append(AssignmentRecord(bits, r, *found))
                break
        else:
            return None
    return tuple(records)


# -- the certificate ------------------------------------------------------------


@dataclass(frozen=True)
class NonPlanarCertificate:
    diagram_text: str
    orientation: VertexOrientation
    witness: ConditionOneWitness
    per_assignment: tuple[AssignmentRecord, ...]
    minimalizability: str = "asserted by caller"

    def to_json(self):
        return {
            "format": CERTIFICATE_FORMAT,
            "diagram": self.diagram_text,
            "vertex": self.orientation.vertex,
            "a_slot": self.orientation.a_slot,
            "minimalizability": self.minimalizability,
            "condition_i": self.witness.to_json(),
            "assignments": [rec.to_json() for rec in self.per_assignment],
        }


def _int(x) -> int:
    """A certificate number: a JSON integer, never a fraction or a boolean."""
    if type(x) is not int:
        raise FormatError(f"malformed certificate: {x!r} is not an integer")
    return x


def certificate_from_json(data: dict) -> NonPlanarCertificate:
    if not isinstance(data, dict) or data.get("format") != CERTIFICATE_FORMAT:
        raise FormatError("not a recognized certificate payload")
    if not isinstance(data.get("diagram"), str):
        raise FormatError("malformed certificate: the diagram must be text")
    minimalizability = data.get("minimalizability", "asserted by caller")
    if not isinstance(minimalizability, str):
        raise FormatError("malformed certificate: the minimalizability must be text")
    try:
        wit = data["condition_i"]
        witness = ConditionOneWitness(
            vertex=_int(data["vertex"]),
            graph_vertex=_int(wit["graph_vertex"]),
            pair_edges=tuple((_int(a), _int(b)) for a, b in wit["pairs"]),
            cycles=tuple(tuple(_int(e) for e in c) for c in wit["cycles"]),
        )
        records = tuple(
            AssignmentRecord(
                bits=tuple(_int(b) for b in rec["bits"]),
                r=_int(rec["r"]),
                certificate=Obstruction(
                    kind=rec["certificate"]["kind"],
                    bound=_int(rec["certificate"]["bound"]),
                    cycles=tuple(
                        tuple(_int(e) for e in c) for c in rec["certificate"]["cycles"]
                    ),
                    value=_int(rec["certificate"]["value"]),
                ),
                linking=tuple(_int(x) for x in rec["linking"]),
            )
            for rec in data["assignments"]
        )
        return NonPlanarCertificate(
            diagram_text=data["diagram"],
            orientation=VertexOrientation(_int(data["vertex"]), _int(data["a_slot"])),
            witness=witness,
            per_assignment=records,
            minimalizability=minimalizability,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed certificate: {exc}") from exc


def check_nonplanar(d: Diagram, where: VertexOrientation) -> NonPlanarCertificate | None:
    """Run both conditions at ``where`` and assemble a certificate.

    The caller is responsible for the hypothesis that the underlying graph
    is minimalizable; the certificate records it as asserted by the caller.
    ``None`` is always inconclusive, never a planarity claim.
    """
    witness = condition_i(d, where.vertex)
    if witness is None:
        return None
    records = condition_ii(d, where)
    if records is None:
        return None
    return NonPlanarCertificate(
        diagram_text=diagram_to_text(d),
        orientation=where,
        witness=witness,
        per_assignment=records,
    )


# -- replaying a certificate -----------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    notes: tuple[str, ...]

    def to_json(self):
        return {"ok": self.ok, "notes": list(self.notes)}


_REPLAYABLE = ("linked-cycles", "sublink-span")


def _map_problem(scan: ObstructionScan, kind, cycles) -> str | None:
    """What is wrong with an obstruction's cycles on its substituted map
    (none of it depends on over/under); None when nothing is."""
    g = scan.projection.graph
    for c in cycles:
        if not g.is_simple_cycle(c):
            return f"certificate cycle {list(c)} is not a simple cycle"
    if kind == "linked-cycles":
        if len(cycles) != 2:
            return "linked-cycles certificate needs exactly two cycles"
        if cycle_vertices(g, list(cycles[0])) & cycle_vertices(g, list(cycles[1])):
            return "linked cycles are not vertex-disjoint"
    if kind in _REPLAYABLE:
        try:
            scan.sublink(cycles)
        except (FormatError, TopologyError) as exc:
            return f"cycles do not extract to a sublink: {exc}"
    return None


def _replay_assignment(
    subs: _Substitutions, bits: tuple[int, ...], rec: AssignmentRecord, checked: dict
) -> str | None:
    """Recheck the record of one crossing assignment; a message on failure,
    None when good.  ``checked`` keeps ``_map_problem`` per kind and cycles
    across the records of one certificate."""
    if rec.r not in (1, -1):
        return f"r must be +1 or -1, got {rec.r}"
    cert = rec.certificate
    if cert.bound < 2:
        return "certificate bound is below two"
    scan = subs.scan
    kind = cert.kind if cert.kind in _REPLAYABLE else None
    shape = (kind, cert.cycles)
    if shape not in checked:
        checked[shape] = _map_problem(scan, kind, cert.cycles)
    if checked[shape] is not None:
        return checked[shape]
    if kind is None:
        return f"certificate kind {cert.kind!r} cannot be replayed without a search"
    parities = subs.parities(rec.r, bits)
    if kind == "linked-cycles":
        signed = scan.linking(cert.cycles, parities)
        if signed != rec.linking:
            return (
                f"stored linking numbers {list(rec.linking)} disagree with "
                f"recomputed {list(signed)}"
            )
        total = sum(abs(x) for x in signed)
        if total != cert.value or 2 * total != cert.bound:
            return "linking numbers do not support the stored bound"
        return None
    bound = scan.span_bound(cert.cycles, parities)
    if bound != cert.bound:
        return f"recomputed span bound {bound} != stored {cert.bound}"
    return None


def verify_certificate(cert: NonPlanarCertificate | dict) -> VerifyReport:
    """Recheck a certificate arithmetically, with no search.

    Every cycle is revalidated against the embedded diagram, the opposite-
    pair disjointness is rechecked, the assignments are checked to cover
    all of ``{0,1}^c``, and each linking number or span is recomputed from
    scratch and compared with the stored value.
    """
    if isinstance(cert, dict):
        try:
            cert = certificate_from_json(cert)
        except FormatError as exc:
            return VerifyReport(False, (str(exc),))
    notes: list[str] = []
    try:
        d = parse_diagram(cert.diagram_text)
    except FormatError as exc:
        return VerifyReport(False, (f"embedded diagram does not parse: {exc}",))
    v = cert.orientation.vertex
    if not 0 <= v < len(d.nodes) or d.is_crossing(v) or d.degree_of(v) != 4:
        return VerifyReport(False, ("vertex is not a degree-4 graph vertex",))
    if not (0 <= cert.orientation.a_slot < 4):
        return VerifyReport(False, ("slot for corner a must be 0..3",))
    if len(cert.witness.cycles) != 4 or len(cert.witness.pair_edges) != 4:
        return VerifyReport(
            False, ("witness needs exactly four cycles and four pairs",)
        )

    projection = d.underlying_graph()
    g = projection.graph
    gv = projection.node_of_vertex.index(v)
    if cert.witness.graph_vertex != gv:
        return VerifyReport(False, ("witness names the wrong graph vertex",))
    pairs = _rotation_pairs(projection, v)
    if cert.witness.pair_edges != pairs:
        return VerifyReport(False, ("witness pairs disagree with the rotation at v",))
    for s in range(4):
        cyc = cert.witness.cycles[s]
        if not g.is_simple_cycle(cyc):
            return VerifyReport(False, (f"witness cycle {s} is not a simple cycle",))
        if not set(pairs[s]) <= set(cyc):
            return VerifyReport(False, (f"witness cycle {s} misses its edge pair",))
    for s in (0, 1):
        met = cycle_vertices(g, list(cert.witness.cycles[s])) & cycle_vertices(
            g, list(cert.witness.cycles[s + 2])
        )
        if met != {gv}:
            return VerifyReport(
                False, (f"opposite cycles {s} and {s + 2} meet outside v: {met}",)
            )
    notes.append("condition (i) witness rechecked")

    # the count comes first: the diagram is untrusted, and 2^c assignments
    # are only walked when the certificate already holds that many records
    uncovered = VerifyReport(False, ("assignments do not cover every reassignment",))
    if len(cert.per_assignment) != 1 << d.crossing_count:
        return uncovered
    by_bits = {rec.bits: rec for rec in cert.per_assignment}
    subs = _Substitutions(d, cert.orientation)
    checked: dict = {}
    for bits in crossing_assignments(d):
        rec = by_bits.get(bits)
        if rec is None:
            return uncovered
        problem = _replay_assignment(subs, bits, rec, checked)
        if problem is not None:
            return VerifyReport(
                False, (f"assignment {list(rec.bits)} (r={rec.r:+d}): {problem}",)
            )
    notes.append(
        f"all {len(cert.per_assignment)} assignments replayed with sound bounds"
    )
    return VerifyReport(True, tuple(notes))


# -- the driver for graph crossing numbers ---------------------------------------


@dataclass(frozen=True)
class Section3Report:
    value: int | None
    closed: bool
    base_texts: tuple[str, ...]
    search: CrossingNumberReport
    notes: tuple[str, ...]

    def to_json(self):
        return {
            "value": self.value,
            "closed": self.closed,
            "bases": list(self.base_texts),
            "search": self.search.to_json(),
            "notes": list(self.notes),
        }


def _default_budget(base: Diagram) -> Budget:
    """``section3_crossing_number``'s budget for the drawing ``base``: a cap
    one crossing above it, and 200,000 states."""
    return Budget(max_crossings=base.crossing_count + 1, max_states=200_000)


def section3_crossing_number(
    g: Multigraph,
    budget: Budget | None = None,
    edge_order: list[int] | None = None,
) -> Section3Report:
    """The least crossing count reachable from one drawing of ``g`` by
    moves and crossing changes.

    A base drawing is laid out greedily (``base_diagram``, which routes
    each edge under every earlier one), and one bounded search over its
    shadows (``crossing_number`` with ``shadow``) looks for fewer
    crossings.  G is minimalizable when a minimal diagram
    can be reached from any diagram of G by crossing changes, so the
    relation searched is isotopy together with crossing changes.

    The lower bounds are the ones that hold for every drawing of ``g``:
    non-planarity and the block bound (``Multigraph.crossing_lower_bound``).
    Where the block bound already reaches the drawing's crossing count, as
    on K3,4, K6 and K5.K5, the value closes with no search.  Otherwise it
    closes when the search meets the bound, or when it exhausts a crossing
    cap that the drawing is within (noted as such).  The latter is relative
    to the moves in ``MOVE_KINDS``, which have no move that passes a strand
    across a graph vertex, and to the cap: it is the least crossing count
    those moves reach, an upper bound on cr(G), not cr(G) itself.  Failing
    both within the state budget, the value is withheld (``None``).

    No search starts from a drawing with more than
    ``MAX_ASSIGNED_CROSSINGS`` crossings: it raises ``SizeLimitExceeded``.
    """
    base = base_diagram(g, edge_order=edge_order)
    if base.crossing_count > MAX_ASSIGNED_CROSSINGS:
        raise SizeLimitExceeded(
            f"the base drawing has {base.crossing_count} crossings; the "
            f"crossing-number search starts from at most {MAX_ASSIGNED_CROSSINGS}"
        )
    budget = budget or _default_budget(base)
    report = crossing_number(base, budget, shadow=True)
    notes = ()
    if report.cap_relative:
        notes = (f"closed only relative to the {report.crossing_cap}-crossing cap",)
    return Section3Report(
        value=report.value,
        closed=report.conclusive,
        base_texts=(diagram_to_text(base),),
        search=report,
        notes=notes,
    )


# -- additivity of crossing numbers under unions ---------------------------------


@dataclass(frozen=True)
class AdditivityReport:
    kind: str
    left: Section3Report
    right: Section3Report
    combined: Section3Report
    holds: bool | None


def additivity_check(
    g1: Multigraph,
    g2: Multigraph,
    kind: str,
    budget: Budget | None = None,
) -> AdditivityReport:
    """Compare cr(g1) + cr(g2) against the union's crossing number.

    ``kind`` is ``"disjoint"`` or ``"one-point"`` (gluing vertex 0 to
    vertex 0).  The union's base drawing routes all of ``g1``'s edges
    before ``g2``'s, so the base drawing has every left-graph arc passing
    over every right-graph arc.
    """
    if kind == "disjoint":
        combined = disjoint_union(g1, g2)
    elif kind == "one-point":
        combined = one_point_union(g1, 0, g2, 0)
    else:
        raise FormatError("union kind must be 'disjoint' or 'one-point'")
    n1 = g1.vertex_count
    left_edges = [
        i for i, (u, v) in enumerate(combined.edges) if u < n1 and v < n1
    ]
    right_edges = [
        i for i, (u, v) in enumerate(combined.edges) if not (u < n1 and v < n1)
    ]
    order = left_edges + right_edges
    left = section3_crossing_number(g1, budget)
    right = section3_crossing_number(g2, budget)
    both = section3_crossing_number(combined, budget, edge_order=order)
    if left.value is None or right.value is None or both.value is None:
        holds = None
    else:
        holds = both.value == left.value + right.value
    return AdditivityReport(kind, left, right, both, holds)
