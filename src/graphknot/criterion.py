"""Non-planarity certificates from knotted diagrams, and crossing-number
drivers that sweep a graph's labelled drawings.

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
differ only in the parity of their crossing.  So condition (ii) and
``verify_certificate`` substitute each tangle at most once per call and
keep that map's projection, cycles, cycle pairs and sublinks in an
``ObstructionScan``; a crossing assignment is a parity update of the map
(``Diagram.with_parities``) that costs only the linking numbers and
brackets of parity vectors its sublinks have not met yet, walked in the
same order as a fresh scan would walk it.  ``section3_crossing_number``
likewise shares one scan across the assignments of its drawing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, crossing_assignments, diagram_to_text, parse_diagram
from .errors import FormatError, TopologyError, WrongDegreeError
from .invariants import (
    Obstruction,
    ObstructionScan,
    crossing_number,
    CrossingNumberReport,
    cycle_vertices,
    simple_cycles,
)
from .layout import base_diagram
from .moves import Budget, descending_diagram
from .multigraph import Multigraph, disjoint_union, one_point_union
from .tangle import RationalTangle, VertexOrientation, substitute

TANGLE_PLUS = RationalTangle((1,))
TANGLE_MINUS = RationalTangle((-1,))

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


def condition_i(d: Diagram, vertex: int) -> ConditionOneWitness | None:
    """Search exhaustively for a condition-(i) witness at ``vertex``."""
    if d.is_crossing(vertex) or d.degree_of(vertex) != 4:
        raise WrongDegreeError("condition (i) needs a degree-4 graph vertex")
    projection = d.underlying_graph()
    g = projection.graph
    gv = projection.node_of_vertex.index(vertex)
    slot_edges = tuple(projection.edge_at_slot((vertex, s)) for s in range(4))
    pairs = tuple((slot_edges[s], slot_edges[(s + 1) % 4]) for s in range(4))
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
    """The +1 and -1 tangle substituted at ``where``, each at most once.

    Substitution keeps the diagram's nodes, in order, ahead of the tangle's,
    so the first crossings of a substituted map are the diagram's own: a
    crossing assignment reaches it as a parity update of one shared map,
    and the map's ``ObstructionScan`` serves every assignment.
    """

    def __init__(self, d: Diagram, where: VertexOrientation):
        self._d, self._where = d, where
        self._scans: dict[int, ObstructionScan] = {}

    def scan(self, r: int) -> ObstructionScan:
        if r not in self._scans:
            tangle = TANGLE_PLUS if r == 1 else TANGLE_MINUS
            self._scans[r] = ObstructionScan(substitute(self._d, self._where, tangle))
        return self._scans[r]

    def assigned(self, r: int, bits: tuple[int, ...]) -> Diagram:
        """The substitution of tangle ``r`` into the assignment ``bits``."""
        base = self.scan(r).diagram
        return base.with_parities(dict(zip(base.crossings(), bits)))


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
    Each tangle's map is substituted and scanned once; an assignment costs
    only its linking numbers and brackets.
    """
    subs = _Substitutions(d, where)
    records: list[AssignmentRecord] = []
    for assigned in crossing_assignments(d):
        bits = tuple(assigned.nodes[n].over for n in assigned.crossings())
        hit = None
        for r in (1, -1):
            sub = subs.assigned(r, bits)
            if sub.crossing_count <= 1:
                continue  # it needs at most one crossing, so nothing bounds it by two
            found = subs.scan(r).at_least_two(sub)
            if found is not None:
                hit = AssignmentRecord(bits, r, *found)
                break
        if hit is None:
            return None
        records.append(hit)
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
            minimalizability=data.get("minimalizability", "asserted by caller"),
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


def _is_simple_cycle(g: Multigraph, cycle: tuple[int, ...]) -> bool:
    if not cycle or len(set(cycle)) != len(cycle):
        return False
    if any(not 0 <= e < g.edge_count for e in cycle):
        return False
    degree: dict[int, int] = {}
    for e in cycle:
        u, v = g.endpoints(e)
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if any(c != 2 for c in degree.values()):
        return False
    # connectivity of the cycle edges as their own little graph
    verts = sorted(degree)
    index = {v: i for i, v in enumerate(verts)}
    sub = Multigraph(
        len(verts), tuple((index[u], index[v]) for u, v in map(g.endpoints, cycle))
    )
    return sub.is_connected()


_REPLAYABLE = ("linked-cycles", "sublink-span")


def _map_problem(scan: ObstructionScan, kind, cycles) -> str | None:
    """What is wrong with an obstruction's cycles on its substituted map
    (none of it depends on over/under); None when nothing is."""
    g = scan.projection.graph
    for c in cycles:
        if not _is_simple_cycle(g, c):
            return f"certificate cycle {list(c)} is not a simple cycle"
    if kind == "linked-cycles":
        if len(cycles) != 2:
            return "linked-cycles certificate needs exactly two cycles"
        if cycle_vertices(g, list(cycles[0])) & cycle_vertices(g, list(cycles[1])):
            return "linked cycles are not vertex-disjoint"
    if kind in _REPLAYABLE:
        try:
            scan.sublink(cycles, scan.diagram)
        except (FormatError, TopologyError) as exc:
            return f"cycles do not extract to a sublink: {exc}"
    return None


def _replay_assignment(
    subs: _Substitutions, bits: tuple[int, ...], rec: AssignmentRecord, checked: dict
) -> str | None:
    """Recheck the record of one crossing assignment; a message on failure,
    None when good.  ``checked`` keeps ``_map_problem`` per tangle, kind and
    cycles across the records of one certificate."""
    if rec.r not in (1, -1):
        return f"r must be +1 or -1, got {rec.r}"
    cert = rec.certificate
    if cert.bound < 2:
        return "certificate bound is below two"
    scan = subs.scan(rec.r)
    kind = cert.kind if cert.kind in _REPLAYABLE else None
    shape = (rec.r, kind, cert.cycles)
    if shape not in checked:
        checked[shape] = _map_problem(scan, kind, cert.cycles)
    if checked[shape] is not None:
        return checked[shape]
    if kind is None:
        return f"certificate kind {cert.kind!r} cannot be replayed without a search"
    assigned = subs.assigned(rec.r, bits)
    if kind == "linked-cycles":
        signed = scan.linking(cert.cycles, assigned)
        if signed != rec.linking:
            return (
                f"stored linking numbers {list(rec.linking)} disagree with "
                f"recomputed {list(signed)}"
            )
        total = sum(abs(x) for x in signed)
        if total != cert.value or 2 * total != cert.bound:
            return "linking numbers do not support the stored bound"
        return None
    bound = scan.span_bound(cert.cycles, assigned)
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
    slot_edges = tuple(projection.edge_at_slot((v, s)) for s in range(4))
    pairs = tuple((slot_edges[s], slot_edges[(s + 1) % 4]) for s in range(4))
    if cert.witness.pair_edges != pairs:
        return VerifyReport(False, ("witness pairs disagree with the rotation at v",))
    for s in range(4):
        cyc = cert.witness.cycles[s]
        if not _is_simple_cycle(g, cyc):
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
    for assigned in crossing_assignments(d):
        bits = tuple(assigned.nodes[n].over for n in assigned.crossings())
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


# -- the enumeration driver for graph crossing numbers ---------------------------


@dataclass(frozen=True)
class Section3Subproblem:
    assignment: tuple[int, ...]
    report: CrossingNumberReport

    def to_json(self):
        return {
            "assignment": list(self.assignment),
            "report": self.report.to_json(),
        }


@dataclass(frozen=True)
class Section3Report:
    value: int | None
    closed: bool
    base_texts: tuple[str, ...]
    subproblems: tuple[Section3Subproblem, ...]
    notes: tuple[str, ...]

    def to_json(self):
        return {
            "value": self.value,
            "closed": self.closed,
            "bases": list(self.base_texts),
            "subproblems": [s.to_json() for s in self.subproblems],
            "notes": list(self.notes),
        }


def section3_crossing_number(
    g: Multigraph,
    budget: Budget | None = None,
    edge_order: list[int] | None = None,
) -> Section3Report:
    """Minimum crossing number over the crossing assignments of one drawing.

    A base drawing is laid out greedily and layered descendingly, and every
    crossing assignment of it is driven through the bounded exact
    crossing-number search; all of them share the drawing's map, and so one
    ``ObstructionScan``, and an assignment whose mirror image (every bit
    switched) came first is given that one's report.  The reported value is
    the minimum, and it is withheld (``None``) if any subproblem's bounds
    fail to close.

    A subproblem closes when a lower bound meets the least crossing count
    its search found, or when the search exhausts its crossing cap (noted
    as such).  The latter is relative to the moves in ``MOVE_KINDS`` other
    than crossing changes, which have no move that passes a strand across
    a graph vertex, and to the cap: its value is the least crossing count
    those moves reach, an upper bound on the least over every diagram of
    that spatial graph, not that least itself.

    The graph-wide bounds of ``lower_bound_obstructions`` come first,
    non-planarity and then the block bound
    (``Multigraph.crossing_lower_bound``): they hold for every drawing, so
    for every assignment, and the shared scan computes them once.  Where
    the block bound already reaches the drawing's crossing count, as on
    K3,4, K6 and K5.K5, every assignment closes with no cycle scan and no
    search.
    """
    notes = []
    layered = descending_diagram(
        base_diagram(g, edge_order=edge_order).underlying_graph(), edge_order
    )
    scan = ObstructionScan(layered)
    reports: dict[tuple[int, ...], CrossingNumberReport] = {}
    subproblems: list[Section3Subproblem] = []
    best: int | None = None
    closed = True
    for assigned in crossing_assignments(layered):
        bits = tuple(assigned.nodes[n].over for n in assigned.crossings())
        sub_budget = budget or Budget(
            max_crossings=assigned.crossing_count + 1, max_states=200_000
        )
        mirror = reports.get(tuple(1 - b for b in bits))
        report = reports[bits] = crossing_number(assigned, sub_budget, scan, mirror)
        subproblems.append(Section3Subproblem(bits, report))
        if not report.conclusive:
            closed = False
        else:
            if report.cap_relative:
                notes.append(
                    f"assignment {list(bits)} closed only relative to the "
                    f"{report.crossing_cap}-crossing cap"
                )
            if best is None or report.value < best:
                best = report.value
    return Section3Report(
        value=best if closed else None,
        closed=closed,
        base_texts=(diagram_to_text(layered),),
        subproblems=tuple(subproblems),
        notes=tuple(notes),
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
    before ``g2``'s, so the layered start has every left-graph arc passing
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
