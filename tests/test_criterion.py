"""The non-planarity certificate machinery and the crossing-number driver."""

import json
import random
import time

import pytest

from graphknot import (
    Budget,
    Multigraph,
    VertexOrientation,
    WrongDegreeError,
    additivity_check,
    certificate_from_json,
    check_nonplanar,
    complete_bipartite,
    complete_graph,
    crossing_number,
    cycle_graph,
    disjoint_union,
    one_point_union,
    parse_diagram,
    section3_crossing_number,
    verify_certificate,
)
from graphknot import apply_move, enumerate_moves, extract_sublink, linking_numbers
from graphknot import criterion, invariants
from graphknot.criterion import (
    TANGLE_MINUS,
    TANGLE_PLUS,
    AssignmentRecord,
    condition_i,
    condition_ii,
)
from graphknot.diagram import crossing_assignments
from graphknot.invariants import Obstruction, ObstructionScan
from graphknot.moves import descending_diagram, search_min_crossings
from graphknot.tangle import substitute
from graphknot.gallery import (
    bowtie,
    k5_diagram,
    subdivided_k5,
    two_squares,
    wheel4,
)
from graphknot.layout import base_diagram
from oracles import atlas_graphs, full_obstructions, small_crossing_number


def degree_four_vertices(d):
    return [n for n in d.vertices() if d.nodes[n].degree == 4]


# -- condition (i): four cycle pairs through the vertex --------------------------


def test_condition_i_holds_at_every_k5_vertex():
    d = k5_diagram()
    for v in degree_four_vertices(d):
        w = condition_i(d, v)
        assert w is not None
        assert len(w.pair_edges) == 4 and len(w.cycles) == 4
        # each chosen cycle really contains its slot pair
        for (e1, e2), cycle in zip(w.pair_edges, w.cycles):
            assert e1 in cycle and e2 in cycle


def test_condition_i_fails_on_cut_vertices():
    # no cycle crosses from one lobe to the other
    for g in (bowtie(), two_squares()):
        d = base_diagram(g)
        v = next(n for n in degree_four_vertices(d))
        assert condition_i(d, v) is None


def test_condition_i_holds_at_the_wheel_hub():
    d = base_diagram(wheel4())
    hub = degree_four_vertices(d)[0]
    assert condition_i(d, hub) is not None


def test_condition_i_needs_degree_four():
    d = base_diagram(cycle_graph(3))
    with pytest.raises(WrongDegreeError):
        condition_i(d, d.vertices()[0])


# -- condition (ii) and full certificates ------------------------------------------


def test_condition_ii_certifies_every_k5_assignment():
    d = k5_diagram()
    v = degree_four_vertices(d)[0]
    records = condition_ii(d, VertexOrientation(v, 0))
    assert records is not None
    assert len(records) == 2  # one crossing, two assignments
    for rec in records:
        assert rec.r in (1, -1)
        assert rec.certificate.bound >= 2
        assert rec.certificate.kind == "linked-cycles"
        assert any(abs(lk) == 1 for lk in rec.linking)


def test_condition_ii_gives_up_on_the_planar_wheel():
    d = base_diagram(wheel4())
    hub = degree_four_vertices(d)[0]
    assert condition_ii(d, VertexOrientation(hub, 0)) is None


def test_check_nonplanar_certifies_k5_at_every_vertex():
    d = k5_diagram()
    for v in degree_four_vertices(d):
        cert = check_nonplanar(d, VertexOrientation(v, 0))
        assert cert is not None
        assert verify_certificate(cert).ok


def test_check_nonplanar_is_silent_on_planar_graphs():
    for g in (wheel4(), bowtie(), two_squares()):
        d = base_diagram(g)
        for v in degree_four_vertices(d):
            for slot in range(4):
                assert check_nonplanar(d, VertexOrientation(v, slot)) is None


def test_certificate_found_inside_a_bigger_graph():
    # a certificate at any vertex condemns the whole graph, so a non-planar
    # subgraph shows up even with extra material attached
    d = base_diagram(subdivided_k5())
    hits = [
        v
        for v in degree_four_vertices(d)
        if check_nonplanar(d, VertexOrientation(v, 0)) is not None
    ]
    assert hits


def test_certificate_round_trips_through_json():
    d = k5_diagram()
    v = degree_four_vertices(d)[0]
    cert = check_nonplanar(d, VertexOrientation(v, 0))
    data = json.loads(json.dumps(cert.to_json()))
    back = certificate_from_json(data)
    report = verify_certificate(back)
    assert report.ok, report.notes


def tampered(cert, mutate):
    data = cert.to_json()
    mutate(data)
    return certificate_from_json(data)


def test_verifier_rejects_tampering():
    d = k5_diagram()
    cert = check_nonplanar(d, VertexOrientation(degree_four_vertices(d)[0], 0))

    def flip_linking(data):
        rec = data["assignments"][0]
        rec["linking"] = [-lk for lk in rec["linking"]]

    def drop_assignment(data):
        del data["assignments"][0]

    def fake_cycle(data):
        data["condition_i"]["cycles"][0] = data["condition_i"]["cycles"][1]

    def lower_bound(data):
        data["assignments"][0]["certificate"]["bound"] = 1

    for mutate in (flip_linking, drop_assignment, fake_cycle, lower_bound):
        report = verify_certificate(tampered(cert, mutate))
        assert not report.ok


def test_verifier_rejects_search_only_evidence():
    d = k5_diagram()
    cert = check_nonplanar(d, VertexOrientation(degree_four_vertices(d)[0], 0))

    def fake_search_kind(data):
        rec = data["assignments"][0]["certificate"]
        rec["kind"] = "exhausted-search"

    report = verify_certificate(tampered(cert, fake_search_kind))
    assert not report.ok


# -- condition (ii) against its per-assignment oracle -------------------------------


def oracle_condition_ii(d, where):
    """condition (ii) the slow way: every crossing assignment substituted and
    scanned afresh by a new ``ObstructionScan``, its linking numbers recomputed."""
    records = []
    for assigned in crossing_assignments(d):
        bits = tuple(assigned.nodes[n].over for n in assigned.crossings())
        for r, tangle in ((1, TANGLE_PLUS), (-1, TANGLE_MINUS)):
            sub = substitute(assigned, where, tangle)
            found = ObstructionScan(sub).at_least_two(sub)
            if found is None:
                continue
            certificate = found[0]
            linking = ()
            if certificate.kind == "linked-cycles":
                cycles = [list(c) for c in certificate.cycles]
                lk = linking_numbers(extract_sublink(sub.underlying_graph(), cycles))
                linking = tuple(lk[key] for key in sorted(lk))
            records.append(AssignmentRecord(bits, r, certificate, linking))
            break
        else:
            return None
    return tuple(records)


def k5_routing(crossings, rng):
    """A diagram of K5 with exactly ``crossings`` crossings, by seeded moves
    from the one-crossing drawing."""
    d = k5_diagram()
    while d.crossing_count < crossings:
        sites = enumerate_moves(d, (rng.choice(("R1_add", "R2_add", "R3", "R5_twist")),))
        if sites:
            grown = apply_move(d, sites[rng.randrange(len(sites))])
            if grown.crossing_count <= crossings:
                d = grown
    return d


def test_condition_ii_matches_its_per_assignment_oracle():
    started = time.monotonic()
    rng = random.Random(6)
    drawings = [k5_routing(c, rng) for c in range(2, 7)]
    drawings += [base_diagram(g) for g in (wheel4(), bowtie(), two_squares())]
    certified = 0
    for d in drawings:
        for v in degree_four_vertices(d):
            where = VertexOrientation(v, 0)
            records = condition_ii(d, where)
            assert records == oracle_condition_ii(d, where)
            certified += records is not None
    assert certified >= 5
    assert time.monotonic() - started < 10


def test_condition_ii_substitutes_each_tangle_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return substitute(*args)

    monkeypatch.setattr(criterion, "substitute", counted)
    d = k5_routing(4, random.Random(4))
    where = VertexOrientation(degree_four_vertices(d)[0], 0)
    cert = check_nonplanar(d, where)
    assert cert is not None and len(cert.per_assignment) == 16
    assert len(calls) <= 2 and len(set(calls)) == len(calls)
    calls.clear()
    assert verify_certificate(cert).ok
    assert len(calls) <= 2 and len(set(calls)) == len(calls)


def test_verifier_names_each_tampered_record():
    d = k5_routing(4, random.Random(4))
    cert = check_nonplanar(d, VertexOrientation(degree_four_vertices(d)[0], 0))
    assert cert is not None and verify_certificate(cert).ok
    data = cert.to_json()

    def negate_linking(rec):
        rec["linking"] = [-lk for lk in rec["linking"]]

    def bound_one(rec):
        rec["certificate"]["bound"] = 1

    def flip_r(rec):
        rec["r"] = -rec["r"]

    linked = 0
    for i, rec in enumerate(data["assignments"]):
        tampers = [bound_one, flip_r]
        if any(rec["linking"]):
            tampers.append(negate_linking)
            linked += 1
        for tamper in tampers:
            changed = json.loads(json.dumps(data))
            tamper(changed["assignments"][i])
            report = verify_certificate(changed)
            assert not report.ok
            assert report.notes[0].startswith(f"assignment {rec['bits']} ")
    assert linked


# -- the crossing-number driver -----------------------------------------------------


def test_driver_on_k4():
    report = section3_crossing_number(complete_graph(4))
    assert report.value == 0 and report.closed


def test_driver_on_k5():
    report = section3_crossing_number(complete_graph(5))
    assert report.value == 1 and report.closed
    # the lower bound is certified, not just searched out
    ones = [s for s in report.subproblems if s.report.value == 1]
    assert ones
    for s in ones:
        assert any(o.kind == "nonplanar-graph" for o in s.report.obstructions)


def test_driver_never_goes_below_the_planarity_bound():
    report = section3_crossing_number(complete_graph(5))
    assert report.value >= 1


def test_additivity_of_triangles():
    report = additivity_check(cycle_graph(3), cycle_graph(3), "disjoint")
    assert report.holds is True
    assert report.combined.value == 0


def test_additivity_rejects_unknown_kind():
    with pytest.raises(Exception):
        additivity_check(cycle_graph(3), cycle_graph(3), "smashed")


@pytest.mark.parametrize(
    "g, cr",
    [
        (complete_bipartite(3, 4), 2),
        (complete_graph(6), 3),
        (one_point_union(complete_graph(5), 0, complete_graph(5), 0), 2),
    ],
    ids=["K3,4", "K6", "K5.K5"],
)
def test_the_block_bound_closes_drawings_that_meet_it(g, cr):
    """Each layered drawing already has cr(G) crossings, which the graph's
    block bound reaches: every assignment closes with no search, by proof
    rather than relative to the crossing cap."""
    assert g.crossing_lower_bound() == cr
    report = section3_crossing_number(g)
    assert report.value == cr and report.closed
    for s in report.subproblems:
        assert s.report.states == 0
        assert s.report.notes[0].endswith("no search needed")
        assert Obstruction("block-euler-girth", cr) in s.report.obstructions
    assert not any("closed only relative" in note for note in report.notes)


GRAPH_WIDE = ("nonplanar-graph", "block-euler-girth")


def _lower_bound_faults():
    """Where a graph-wide lower bound exceeds the exact crossing number, or
    a closed value falls below it, over every connected graph with at most
    six vertices.  The knot-theoretic obstructions bound the crossings of
    one spatial graph, which may exceed cr(G), so they are not checked."""
    faults = []
    for g in atlas_graphs():
        cr = small_crossing_number(g)
        assert cr is not None
        if g.crossing_lower_bound() > cr:
            faults.append((g, "crossing_lower_bound"))
        report = section3_crossing_number(g)
        if any(
            o.kind in GRAPH_WIDE and o.bound > cr
            for s in report.subproblems
            for o in s.report.obstructions
        ):
            faults.append((g, "obstruction"))
        if report.closed and report.value < cr:
            faults.append((g, "value"))
    return faults


def test_no_lower_bound_exceeds_the_exact_crossing_number():
    assert _lower_bound_faults() == []


def test_a_block_bound_one_too_high_is_caught(monkeypatch):
    bound = Multigraph.crossing_lower_bound
    monkeypatch.setattr(Multigraph, "crossing_lower_bound", lambda g: bound(g) + 1)
    faults = _lower_bound_faults()
    assert (complete_graph(6), "crossing_lower_bound") in faults
    assert (complete_graph(6), "obstruction") in faults


# -- one scan per drawing --------------------------------------------------------


# K6 - e labelled as atlas G207: its layered drawing has 3 crossings, one
# more than its block bound, so its assignments still search
K6_MINUS_E = Multigraph(6, tuple(e for e in complete_graph(6).edges if e != (0, 3)))


@pytest.mark.parametrize(
    "g, searches",
    [
        # these three close by the block bound, with no search
        (complete_bipartite(3, 4), 0),
        (complete_graph(6), 0),
        (one_point_union(complete_graph(5), 0, complete_graph(5), 0), 0),
        (K6_MINUS_E, 3),
    ],
    ids=["K3,4", "K6", "K5.K5", "K6-e"],
)
def test_driver_reports_what_a_fresh_crossing_number_reports(g, searches, monkeypatch):
    """The driver's subproblems share one scan, and an assignment's mirror
    image shares its exhausted search; each report still equals
    ``crossing_number`` run on its assignment alone."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return search_min_crossings(*args, **kwargs)

    monkeypatch.setattr(invariants, "search_min_crossings", counted)
    report = section3_crossing_number(g)
    monkeypatch.undo()
    # half of the assignments that need a search are mirrors of the other half
    assert len(calls) == searches
    (text,) = report.base_texts
    layered = parse_diagram(text)
    budget = Budget(max_crossings=layered.crossing_count + 1, max_states=200_000)
    assert len(report.subproblems) == 1 << layered.crossing_count
    for s in report.subproblems:
        assigned = layered.with_parities(dict(zip(layered.crossings(), s.assignment)))
        assert s.report.to_json() == crossing_number(assigned, budget).to_json()


def test_a_shared_scan_finds_what_a_fresh_scan_finds():
    """One scan serves every crossing assignment of its map: the obstructions
    are a fresh scan's, in the same order, and the linking numbers and spans
    of a sublink are computed once per parity vector of its crossings.  The
    candidates skipped for keeping too few crossings are counted on every
    assignment."""
    rng = random.Random(8)
    maps = [k5_routing(c, rng) for c in (3, 4, 5)]
    where = VertexOrientation(degree_four_vertices(maps[-1])[0], 0)
    maps += [substitute(maps[-1], where, t) for t in (TANGLE_PLUS, TANGLE_MINUS)]
    hits, skipped, found = [], [], 0
    for d in maps:
        scan = ObstructionScan(d)
        for assigned in crossing_assignments(d):
            shared = list(scan.obstructions(assigned))
            fresh = ObstructionScan(assigned)
            assert shared == list(fresh.obstructions(assigned))
            assert fresh.hits == 0
            found += len(shared)
        hits.append(scan.hits)
        skipped.append(scan.skipped)
    assert found == 64  # 32 from each tangle's 64 assignments
    assert hits == [0, 16, 120, 300, 300]
    assert skipped == [296, 560, 1024, 960, 960]


# the graphs whose crossing numbers perfbench's certify workload asks for
CERTIFY_GRAPHS = [
    cycle_graph(5),
    complete_graph(4),
    wheel4(),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    complete_bipartite(3, 4),
    complete_graph(5),
    complete_graph(6),
    subdivided_k5(),
    disjoint_union(complete_graph(4), complete_graph(5)),
    one_point_union(complete_graph(5), 0, complete_graph(5), 0),
]


def test_the_scan_skips_only_candidates_that_yield_nothing():
    """On every crossing assignment of the layered drawings that
    ``section3_crossing_number`` makes of the certify graphs, and of K5
    routings with 2-6 crossings, the scan yields what its oracle yields:
    the oracle extracts and measures every candidate.  Every candidate the
    scan skips, a disjoint pair whose sublink keeps fewer than two
    crossings or a cycle fewer than three, yields nothing in the oracle."""
    rng = random.Random(19)
    maps = [descending_diagram(base_diagram(g).underlying_graph()) for g in CERTIFY_GRAPHS]
    maps += [k5_routing(c, rng) for c in range(2, 7)]
    total_skipped = found = 0
    for d in maps:
        scan = ObstructionScan(d)
        for assigned in crossing_assignments(d):
            before = scan.skipped
            expected, kept, yielded = full_obstructions(assigned)
            assert list(scan.obstructions(assigned)) == expected
            short = {
                key
                for key, n in kept.items()
                if n is not None and n < (2 if len(key) == 2 else 3)
            }
            assert not short & yielded
            assert scan.skipped - before == len(short)
            total_skipped += len(short)
            found += len(expected)
    assert total_skipped > 0 and found > 0
