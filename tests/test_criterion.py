"""The non-planarity certificate machinery and the crossing-number driver."""

import importlib.util
import itertools
import json
import random
import time
from pathlib import Path

import networkx as nx
import pytest

from graphknot import (
    Budget,
    FormatError,
    InvalidVertexError,
    Multigraph,
    TopologyError,
    VertexOrientation,
    WrongDegreeError,
    additivity_check,
    certificate_from_json,
    check_nonplanar,
    complete_bipartite,
    complete_graph,
    crossing_number,
    cycle_graph,
    diagram_to_text,
    disjoint_union,
    one_point_union,
    parse_diagram,
    section3_crossing_number,
    simple_cycles,
    verify_certificate,
)
from graphknot import apply_move, enumerate_moves, extract_sublink, linking_numbers
from graphknot import criterion, invariants
from graphknot.criterion import (
    TANGLE_PLUS,
    AssignmentRecord,
    condition_i,
    condition_ii,
)
from graphknot.diagram import Crossing, Diagram, crossing_assignments
from graphknot.invariants import (
    Obstruction,
    ObstructionScan,
    _bracket_span,
    _signed_linking,
    _Sublink,
    component_span_lower_bound,
)
from graphknot.moves import descending_diagram, search_min_crossings
from graphknot.tangle import RationalTangle, substitute
from graphknot.gallery import (
    bowtie,
    k5_diagram,
    subdivided_k5,
    two_squares,
    wheel4,
)
from graphknot.layout import base_diagram
from oracles import (
    assignment_crossing_number,
    atlas_graphs,
    full_obstructions,
    small_crossing_number,
    sweep_drawings,
    walked_sublink,
)


DATA = Path(__file__).resolve().parent.parent / "data"

# the other tangle of condition (ii), which the criterion reaches as the
# +1 tangle's map with its crossing switched
TANGLE_MINUS = RationalTangle((-1,))


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


def test_verifier_rejects_cycles_that_extract_off_the_sphere():
    """Two edge-disjoint cycles that share a vertex, with interleaved slots
    there on the r = -1 map: the sublink they cut out is no sphere map, and
    only ``extract_sublink``'s validation of it rejects the record."""
    data = json.loads((DATA / "k5_certificate.json").read_text())
    rec = data["assignments"][0]
    rec["certificate"] = {
        "kind": "sublink-span", "bound": 2, "cycles": [[1, 2], [0, 5, 3]], "value": -1,
    }
    rec["linking"] = []
    report = verify_certificate(data)
    assert not report.ok
    assert "cycles do not extract to a sublink" in report.notes[0]
    assert "not a sphere diagram" in report.notes[0]


def test_verifier_takes_an_obstruction_cycle_in_any_edge_order():
    """A 4-cycle of the K5 certificate's r = +1 map, listed so that its
    first two edges share no vertex, passes the map checks and extracts to
    the sublink of its walk order; the walk rejected such a listing."""
    data = json.loads((DATA / "k5_certificate.json").read_text())
    where = VertexOrientation(data["vertex"], data["a_slot"])
    d = substitute(parse_diagram(data["diagram"]), where, TANGLE_PLUS)
    scan = ObstructionScan(d)
    ordered = next(c for c in scan.cycles() if len(c) == 4)
    shuffled = [ordered[0], ordered[2], ordered[1], ordered[3]]
    with pytest.raises(FormatError, match="share no vertex"):
        walked_sublink(scan.projection, [shuffled])
    assert criterion._map_problem(scan, "sublink-span", (tuple(shuffled),)) is None
    assert scan.sublink([shuffled]) == scan.sublink([ordered])


# -- extract_sublink against the walk it replaced ------------------------------------


def sublink_cases(d):
    """``d``'s projection, and every simple cycle and every edge-disjoint
    pair of cycles of its graph (pairs that share a vertex included)."""
    projection = d.underlying_graph()
    cycles = simple_cycles(projection.graph)
    pairs = [[a, b] for a, b in itertools.combinations(cycles, 2) if not set(a) & set(b)]
    return projection, [[c] for c in cycles] + pairs


def extracted(extract, projection, cycles):
    """The text of the sublink, or the type of the ``TopologyError`` raised."""
    try:
        return diagram_to_text(extract(projection, cycles))
    except TopologyError as exc:
        return type(exc)


def small_multigraphs():
    """Every multigraph on four vertices with at most four edges, loops
    and parallel edges included."""
    pairs = [(u, v) for u in range(4) for v in range(u, 4)]
    for m in range(1, 5):
        for edges in itertools.combinations_with_replacement(pairs, m):
            yield Multigraph(4, edges)


def test_extract_sublink_matches_the_walk_on_small_multigraphs():
    sizes = set()
    for g in small_multigraphs():
        projection, cases = sublink_cases(base_diagram(g))
        for cycles in cases:
            got = extracted(extract_sublink, projection, cycles)
            assert got == extracted(walked_sublink, projection, cycles), (g.edges, cycles)
            sizes.add(len(cycles))
    assert sizes == {1, 2}


def test_extract_sublink_ignores_the_edge_order():
    rng = random.Random(7)
    out_of_walk_order = 0
    for d in (k5_diagram(), base_diagram(complete_graph(6))):
        projection, cases = sublink_cases(d)
        for cycles in cases:
            want = extracted(extract_sublink, projection, cycles)
            shuffled = [rng.sample(c, len(c)) for c in cycles]
            assert extracted(extract_sublink, projection, shuffled) == want
            try:
                walked_sublink(projection, shuffled)
            except (FormatError, IndexError, InvalidVertexError):
                out_of_walk_order += 1
            except TopologyError:
                pass
    assert out_of_walk_order > 100


def test_extract_sublink_matches_the_walk_on_k5_maps():
    """The K5 certificate's two substituted maps and K5 routings with 2-6
    crossings: among their cycle pairs that share a vertex are some that
    cut out no sphere map, and both extractions reject those alike."""
    data = json.loads((DATA / "k5_certificate.json").read_text())
    where = VertexOrientation(data["vertex"], data["a_slot"])
    d = parse_diagram(data["diagram"])
    maps = [substitute(d, where, t) for t in (TANGLE_PLUS, TANGLE_MINUS)]
    rng = random.Random(27)
    maps += [k5_routing(c, rng) for c in range(2, 7)]
    outcomes = set()
    for d in maps:
        projection, cases = sublink_cases(d)
        for cycles in cases:
            got = extracted(extract_sublink, projection, cycles)
            assert got == extracted(walked_sublink, projection, cycles), cycles
            outcomes.add(got if got is TopologyError else len(cycles))
    assert outcomes == {1, 2, TopologyError}


# -- condition (ii) against its per-assignment oracle -------------------------------


def oracle_condition_ii(d, where):
    """condition (ii) the slow way: every crossing assignment substituted and
    scanned afresh by a new ``ObstructionScan``, its linking numbers recomputed."""
    records = []
    for bits in crossing_assignments(d):
        assigned = d.with_parities(dict(zip(d.crossings(), bits)))
        for r, tangle in ((1, TANGLE_PLUS), (-1, TANGLE_MINUS)):
            sub = substitute(assigned, where, tangle)
            found = ObstructionScan(sub).at_least_two(sub.parities())
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
    drawings = [k5_routing(c, rng) for c in (*range(2, 7), *range(2, 6))]
    drawings += [base_diagram(g) for g in (wheel4(), bowtie(), two_squares())]
    certified = 0
    for d in drawings:
        for v in degree_four_vertices(d):
            for slot in range(4):
                where = VertexOrientation(v, slot)
                records = condition_ii(d, where)
                assert records == oracle_condition_ii(d, where)
                certified += records is not None
    assert certified >= 100
    assert time.monotonic() - started < 10


def test_condition_ii_substitutes_each_tangle_once(monkeypatch):
    """Both tangles come from one substitution, of the +1 tangle, in a
    certificate run and in its replay."""
    calls = []

    def counted(*args):
        calls.append(args[2])
        return substitute(*args)

    monkeypatch.setattr(criterion, "substitute", counted)
    d = k5_routing(4, random.Random(4))
    where = VertexOrientation(degree_four_vertices(d)[0], 0)
    cert = check_nonplanar(d, where)
    assert cert is not None and len(cert.per_assignment) == 16
    assert {rec.r for rec in cert.per_assignment} == {1, -1}
    assert calls == [TANGLE_PLUS]
    calls.clear()
    assert verify_certificate(cert).ok
    assert calls == [TANGLE_PLUS]


def test_a_parity_update_is_built_only_for_a_computed_value(monkeypatch):
    """Neither condition (ii) nor its replay builds a diagram per crossing
    assignment: ``with_parities`` runs once for each sublink value the one
    scan computes, and for nothing else."""
    scans, updates = [], []
    with_parities = Diagram.with_parities

    class Kept(ObstructionScan):
        def __init__(self, d):
            super().__init__(d)
            scans.append(self)

    def counted(self, overs):
        updates.append(self)
        return with_parities(self, overs)

    def computed():
        (scan,) = scans
        return sum(len(s.values) for s in scan._sublinks.values() if isinstance(s, _Sublink))

    monkeypatch.setattr(criterion, "ObstructionScan", Kept)
    monkeypatch.setattr(Diagram, "with_parities", counted)
    d = k5_routing(5, random.Random(4))
    cert = check_nonplanar(d, VertexOrientation(degree_four_vertices(d)[0], 0))
    assert cert is not None
    assert 0 < len(updates) == computed()
    scans.clear()
    updates.clear()
    assert verify_certificate(cert).ok
    assert 0 < len(updates) == computed()


def one_map_cases():
    """(diagram, where) at each degree-4 vertex and slot of K5 routings with
    2-6 crossings, of the K5 certificate's diagram and of the planar
    sweep's drawings."""
    rng = random.Random(31)
    drawings = [k5_routing(c, rng) for c in range(2, 7)]
    certificate = json.loads((DATA / "k5_certificate.json").read_text())
    drawings.append(parse_diagram(certificate["diagram"]))
    drawings += sweep_drawings()
    return [
        (d, VertexOrientation(v, slot))
        for d in drawings
        for v in degree_four_vertices(d)
        for slot in range(4)
    ]


def test_both_tangles_substitute_to_one_map():
    """The -1 tangle's substitution is the +1 tangle's map with the last
    crossing switched, so one parity vector per assignment and tangle
    stands for either."""
    cases = one_map_cases()
    assert len(cases) > 400
    for d, where in cases:
        plus, minus = (substitute(d, where, t) for t in (TANGLE_PLUS, TANGLE_MINUS))
        assert plus._darts == minus._darts
        assert plus.nodes[:-1] == minus.nodes[:-1]
        assert {plus.nodes[-1], minus.nodes[-1]} == {Crossing(0), Crossing(1)}
        subs = criterion._Substitutions(d, where)
        assert subs.parities(1, d.parities()) == plus.parities()
        assert subs.parities(-1, d.parities()) == minus.parities()


MEASURES = (_signed_linking, _bracket_span, component_span_lower_bound)


def test_a_scan_value_is_a_fresh_measure_and_its_mirror_shares_it():
    """On the shared maps of ``one_map_cases``, at every slot of the drawings
    with at most two crossings and at one slot of the others, each value
    the scan keeps for a scanned candidate, at every parity vector, is that
    measure of a sublink extracted afresh from the assigned diagram; and on
    the complement vector the linking numbers negate and both spans stay."""
    maps = [
        substitute(d, where, TANGLE_PLUS)
        for d, where in one_map_cases()
        if where.a_slot == 0 or d.crossing_count <= 2
    ]
    candidates = 0
    for m in maps:
        scan = ObstructionScan(m)
        vectors = list(crossing_assignments(m))
        for bits in vectors:
            list(scan.obstructions(bits))
        scanned = [sub for sub in scan._pairs + scan._singles if sub is not None]
        candidates += len(scanned)
        fresh = {}
        for bits in vectors:
            projection = m.with_parities(dict(zip(m.crossings(), bits))).underlying_graph()
            for sub in scanned:
                sublink = extract_sublink(projection, [list(c) for c in sub.key])
                values = tuple(measure(sublink) for measure in MEASURES)
                assert values == tuple(scan._value(f, sub, bits) for f in MEASURES)
                fresh[sub.key, bits] = values
        for (key, bits), (lk, span, bound) in fresh.items():
            mirror = fresh[key, tuple(1 - b for b in bits)]
            assert mirror == (tuple(-x for x in lk), span, bound)
    assert candidates > 100


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
    assert report.search.value == 1 and report.search.lower_bound == 1
    assert any(o.kind == "nonplanar-graph" for o in report.search.obstructions)


def test_driver_never_goes_below_the_planarity_bound():
    report = section3_crossing_number(complete_graph(5))
    assert report.value >= 1


def test_a_drawing_above_the_cap_closes_no_value():
    # K4,6 is drawn with 16 crossings and its block bound is 8: a search
    # capped at 10 crossings has nowhere to go, which proves nothing
    report = section3_crossing_number(
        complete_bipartite(4, 6), Budget(max_crossings=10, max_states=1000)
    )
    assert (report.value, report.closed, report.search.cap_relative) == (None, False, False)
    assert report.search.notes == (
        "the drawing's 16 crossings exceed the 10-crossing cap, so exhausting "
        "the cap closes nothing",
    )
    # a drawing above the cap still closes where it meets the lower bound
    report = section3_crossing_number(complete_graph(5), Budget(max_crossings=0))
    assert (report.value, report.closed) == (1, True)


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
    block bound reaches: the value closes with no search, by proof rather
    than relative to the crossing cap."""
    assert g.crossing_lower_bound() == cr
    report = section3_crossing_number(g)
    assert report.value == cr and report.closed
    assert report.search.states == 0
    assert report.search.notes[0].endswith("no search needed")
    assert Obstruction("block-euler-girth", cr) in report.search.obstructions
    assert not any("closed only relative" in note for note in report.notes)


GRAPH_WIDE = ("nonplanar-graph", "block-euler-girth")


def test_atlas_graphs_filter_the_whole_atlas():
    # the atlas holds every graph with up to 7 vertices
    small = list(atlas_graphs())
    assert len(small) == 143
    seven = list(atlas_graphs(7))
    assert len(seven) == 996 and seven[:143] == small
    assert max(g.vertex_count for _i, g in seven) == 7
    # each graph comes with its own atlas index
    for i, g in seven[::50]:
        assert sorted(tuple(sorted(e)) for e in nx.graph_atlas(i).edges()) == list(g.edges)


def _lower_bound_faults():
    """Where a graph-wide lower bound exceeds the exact crossing number, or
    a closed value falls below it, over every connected graph with at most
    six vertices, each drawn by its default edge order and two seeded
    others.  Only graph-wide bounds close the driver's value; a
    knot-theoretic obstruction bounds the crossings of one spatial graph,
    which may exceed cr(G)."""
    faults = []
    for _i, g in atlas_graphs():
        cr = small_crossing_number(g)
        assert cr is not None
        if g.crossing_lower_bound() > cr:
            faults.append((g, "crossing_lower_bound"))
        m = g.edge_count
        shuffled = [random.Random(seed).sample(range(m), m) for seed in (0, 1)]
        for order in [None, *shuffled]:
            report = section3_crossing_number(g, edge_order=order)
            assert all(o.kind in GRAPH_WIDE for o in report.search.obstructions)
            if any(o.bound > cr for o in report.search.obstructions):
                faults.append((g, "obstruction"))
            if report.closed and report.value < cr:
                faults.append((g, "value"))
    return faults


def test_no_lower_bound_exceeds_the_exact_crossing_number():
    assert _lower_bound_faults() == []


def _table_graphs():
    """The graphs of ``scripts/crossing_numbers.py``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "crossing_numbers.py"
    spec = importlib.util.spec_from_file_location("crossing_numbers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [g for _name, g, _published in module.GRAPHS]


def test_driver_matches_the_assignment_oracle():
    """One search over shadows gives the value and ``closed`` that one
    isotopy search per crossing assignment gives, on every connected graph
    with at most six vertices and on the graphs of the crossing-number
    table."""
    for g in [g for _i, g in atlas_graphs()] + _table_graphs():
        report = section3_crossing_number(g)
        assert (report.value, report.closed) == assignment_crossing_number(g), g.edges


def test_a_block_bound_one_too_high_is_caught(monkeypatch):
    bound = Multigraph.crossing_lower_bound
    monkeypatch.setattr(Multigraph, "crossing_lower_bound", lambda g: bound(g) + 1)
    faults = _lower_bound_faults()
    assert (complete_graph(6), "crossing_lower_bound") in faults
    assert (complete_graph(6), "obstruction") in faults


# -- one scan per drawing --------------------------------------------------------


# K6 - e labelled as atlas G207: its layered drawing has 3 crossings, one
# more than its block bound, so it still searches
K6_MINUS_E = Multigraph(6, tuple(e for e in complete_graph(6).edges if e != (0, 3)))


@pytest.mark.parametrize(
    "g, searches",
    [
        # these three close by the block bound, with no search
        (complete_bipartite(3, 4), 0),
        (complete_graph(6), 0),
        (one_point_union(complete_graph(5), 0, complete_graph(5), 0), 0),
        (K6_MINUS_E, 1),
    ],
    ids=["K3,4", "K6", "K5.K5", "K6-e"],
)
def test_driver_reports_what_a_fresh_crossing_number_reports(g, searches, monkeypatch):
    """The driver runs at most one search, over shadows, and its report
    equals ``crossing_number`` with ``shadow`` run on the layered drawing
    alone."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["shadow"])
        return search_min_crossings(*args, **kwargs)

    monkeypatch.setattr(invariants, "search_min_crossings", counted)
    report = section3_crossing_number(g)
    monkeypatch.undo()
    assert calls == [True] * searches
    (text,) = report.base_texts
    layered = parse_diagram(text)
    budget = Budget(max_crossings=layered.crossing_count + 1, max_states=200_000)
    fresh = crossing_number(layered, budget, shadow=True)
    assert report.search.to_json() == fresh.to_json()
    assert (report.value, report.closed) == (fresh.value, fresh.conclusive)


def test_a_shared_scan_finds_what_a_fresh_scan_finds():
    """One scan serves every crossing assignment of its map: the obstructions
    are a fresh scan's, in the same order, and the linking numbers and spans
    of a sublink are computed once per parity vector of its crossings and
    its complement, the mirror image's.  The candidates skipped for keeping
    too few crossings are counted on every assignment."""
    rng = random.Random(8)
    maps = [k5_routing(c, rng) for c in (3, 4, 5)]
    where = VertexOrientation(degree_four_vertices(maps[-1])[0], 0)
    maps += [substitute(maps[-1], where, t) for t in (TANGLE_PLUS, TANGLE_MINUS)]
    hits, skipped, found = [], [], 0
    for d in maps:
        scan = ObstructionScan(d)
        for bits in crossing_assignments(d):
            assigned = d.with_parities(dict(zip(d.crossings(), bits)))
            shared = list(scan.obstructions(bits))
            fresh = ObstructionScan(assigned)
            assert shared == list(fresh.obstructions(bits))
            assert fresh.hits == 0
            found += len(shared)
        hits.append(scan.hits)
        skipped.append(scan.skipped)
    assert found == 64  # 32 from each tangle's 64 assignments
    assert hits == [0, 24, 140, 326, 326]
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
        for bits in crossing_assignments(d):
            assigned = d.with_parities(dict(zip(d.crossings(), bits)))
            before = scan.skipped
            expected, kept, yielded = full_obstructions(assigned)
            assert list(scan.obstructions(bits)) == expected
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
