"""Diagrams as combinatorial maps: faces, canonical codes, serialization."""

import itertools
import json
import random
from pathlib import Path

import pytest

from graphknot import (
    Crossing,
    Diagram,
    FormatError,
    Multigraph,
    RationalTangle,
    SizeLimitExceeded,
    TopologyError,
    Vertex,
    complete_graph,
    crossing_assignments,
    diagram_to_text,
    disjoint_union_diagrams,
    extract_sublink,
    kauffman_bracket,
    parse_diagram,
    simple_cycles,
)
from graphknot.gallery import (
    figure_eight,
    hopf_link,
    k4_diagram,
    k5_diagram,
    linked_triangles,
    trefoil,
    unknot,
    unlink,
    wheel4,
)
from graphknot.diagram import splice
from graphknot.invariants import CIRCLE_POLY, LaurentPoly, cycle_vertices
from graphknot.layout import base_diagram
from oracles import (
    atlas_graphs,
    mirror_diagram,
    monomial,
    splice_identify,
    validated_base_diagram,
)


DATA = Path(__file__).resolve().parent.parent / "data"


SAMPLES = [
    unknot(),
    unlink(3),
    hopf_link(),
    trefoil(),
    figure_eight(),
    k4_diagram(),
    k5_diagram(),
    linked_triangles(),
]


def test_unknot_is_one_free_loop():
    d = unknot()
    assert d.crossing_count == 0
    assert d.free_loops == 1
    assert not d.nodes


def test_euler_count_on_the_trefoil():
    d = trefoil()
    vertices = len(d.nodes)
    edges = len(d.arcs)
    faces = len(d.faces())
    assert (vertices, edges, faces) == (3, 6, 5)
    assert vertices - edges + faces == 2


def test_faces_partition_the_darts():
    for d in SAMPLES:
        seen = [dart for face in d.faces() for dart in face]
        assert sorted(seen) == sorted(d.darts())


def test_phi_is_a_permutation():
    d = figure_eight()
    images = {d.phi(dart) for dart in d.darts()}
    assert images == set(d.darts())


def test_rejects_bad_incidence():
    # dart (0, 1) used twice
    with pytest.raises((FormatError, TopologyError)):
        Diagram([Crossing(0)], [((0, 0), (0, 1)), ((0, 1), (0, 2))])
    # odd dart left unpaired
    with pytest.raises((FormatError, TopologyError)):
        Diagram([Vertex("a", 2)], [((0, 0), (0, 0))])


def test_canonical_form_is_idempotent():
    for d in SAMPLES:
        c = d.canonical_form()
        assert c.canonical_code() == d.canonical_code()
        assert c.canonical_form().canonical_code() == c.canonical_code()


def test_canonical_code_ignores_arc_listing_order():
    d = trefoil()
    shuffled = Diagram(d.nodes, list(reversed(d.arcs)), d.free_loops)
    assert shuffled.canonical_code() == d.canonical_code()


def test_canonical_code_ignores_node_listing_order():
    d = hopf_link()
    # swap the two crossings and renumber the arc ends accordingly
    swap = {0: 1, 1: 0}
    arcs = [
        ((swap[a[0]], a[1]), (swap[b[0]], b[1])) for a, b in d.arcs
    ]
    relisted = Diagram([d.nodes[1], d.nodes[0]], arcs, d.free_loops)
    assert relisted.canonical_code() == d.canonical_code()


def test_double_mirror_restores_the_code():
    for d in SAMPLES:
        assert (
            mirror_diagram(mirror_diagram(d)).canonical_code()
            == d.canonical_code()
        )


def test_mirror_swaps_over_bits():
    d = trefoil()
    m = mirror_diagram(d)
    assert m.canonical_code() != d.canonical_code()
    for n in d.crossings():
        assert m.nodes[n].over != d.nodes[n].over


def test_text_round_trip():
    for d in SAMPLES:
        assert parse_diagram(diagram_to_text(d)).canonical_code() == d.canonical_code()


# values a JSON document can carry where the text format writes a bare
# token or an integer
@pytest.mark.parametrize(
    "key, value",
    [("degree", 4.0), ("degree", True), ("degree", "4"), ("label", 7), ("label", ["a"]),
     ("label", "a#b"), ("label", "a.b"), ("label", "a b"), ("label", "")],
)
def test_json_vertex_fields_must_be_what_the_text_format_writes(key, value):
    fields = {"label": "a", "degree": 2, key: value}
    with pytest.raises(FormatError):
        Vertex(**fields)


@pytest.mark.parametrize("over", [True, False, 1.0, 0.0, 2])
def test_a_crossing_parity_is_the_int_0_or_1(over):
    # a bool or float equals its int, and would otherwise be held as given
    with pytest.raises(FormatError):
        Crossing(over)
    with pytest.raises(FormatError):
        trefoil().with_parities({0: over})


@pytest.mark.parametrize("free_loops", [1.7, True, "3", -1])
def test_a_free_loop_count_is_a_non_negative_int(free_loops):
    # int() would take each of the first three
    with pytest.raises(FormatError):
        Diagram([], [], free_loops)


@pytest.mark.parametrize("slot", ["1", 1.5, 1.0, None, (1,)])
def test_diagram_rejects_a_non_integer_dart(slot):
    arcs = [((0, 0), (0, slot)), ((0, 2), (0, 3))]
    with pytest.raises(FormatError):
        Diagram([Crossing(0)], arcs)
    with pytest.raises(FormatError):
        Diagram([Crossing(0)], [(b, a) for a, b in arcs])


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_diagram("crossing 02")  # no header
    with pytest.raises(FormatError):
        parse_diagram("diagram\ncrossing 7\n")
    with pytest.raises(FormatError):
        parse_diagram("diagram\narc 0.0\n")
    with pytest.raises(FormatError):
        parse_diagram("diagram\nvertex a\n")


@pytest.mark.parametrize("token", ["٣", "１", "1_0", "+1"])
def test_parse_reads_only_ascii_integers(token):
    with pytest.raises(FormatError, match="bad degree"):
        parse_diagram(f"diagram\nvertex a {token}\n")
    with pytest.raises(FormatError, match="bad arc end"):
        parse_diagram(f"diagram\nvertex a 1\nvertex b 1\narc 0.{token} 1.0\n")


def test_underlying_graph_of_k5_routing():
    d = k5_diagram()
    g = d.underlying_graph().graph
    assert g == complete_graph(5)


def test_components_split_and_merge():
    d = unlink(3)
    assert d.free_loops == 3
    assert len(linked_triangles().components()) == 1  # crossings join the strands
    lt_graph = linked_triangles().underlying_graph().graph
    assert len(lt_graph.components()) == 2  # but the graph stays split


def test_split_components_of_a_union():
    from graphknot import disjoint_union_diagrams

    d = disjoint_union_diagrams(hopf_link(), trefoil())
    parts = d.split_components()
    assert sorted(p.crossing_count for p in parts) == [2, 3]
    # the parts are cut from the dart arrays on trust; free loops come last
    parts = disjoint_union_diagrams(d, unlink(2)).split_components()
    assert [(len(p.nodes), p.free_loops) for p in parts] == [(2, 0), (3, 0), (0, 1), (0, 1)]
    for p in parts:
        full = Diagram(p.nodes, p.arcs, p.free_loops)
        assert (p._darts, p.crossing_count) == (full._darts, full.crossing_count)


def test_crossing_assignments_enumerate_all_bit_patterns():
    # binary counter order: the first crossing's bit flips fastest
    assert list(crossing_assignments(hopf_link())) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_assignment_guard_at_its_edge():
    assert next(crossing_assignments(RationalTangle((16,)).closure_n())) == (0,) * 16
    with pytest.raises(SizeLimitExceeded):
        next(crossing_assignments(RationalTangle((17,)).closure_n()))


def test_extract_sublink_from_linked_triangles():
    d = linked_triangles()
    g = d.underlying_graph().graph
    cycles = [
        sorted(e for e in range(g.edge_count) if set(g.endpoints(e)) <= comp)
        for comp in g.components()
    ]
    sub = extract_sublink(d.underlying_graph(), tuple(tuple(c) for c in cycles))
    assert not sub.vertices()
    assert sub.crossing_count == 2


def test_extract_sublink_keeps_a_cycle_that_meets_no_kept_crossing():
    # linked triangles beside a separate triangle: the third cycle passes no
    # kept crossing, so it survives as one free loop
    triangle = Diagram(
        [Vertex(label, 2) for label in ("6", "7", "8")],
        [((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (0, 0))],
    )
    projection = disjoint_union_diagrams(linked_triangles(), triangle).underlying_graph()
    g = projection.graph
    cycles = [
        sorted(e for e in range(g.edge_count) if set(g.endpoints(e)) <= comp)
        for comp in g.components()
    ]
    assert len(cycles) == 3
    sub = extract_sublink(projection, cycles)
    assert sub.crossing_count == 2 and sub.free_loops == 1


def test_extract_sublink_without_a_kept_crossing_is_one_circle_per_cycle():
    # K6 drawn with three crossings: a crossing that the chosen cycles pass
    # only once is not kept
    projection = base_diagram(complete_graph(6)).underlying_graph()
    g = projection.graph
    cycles = simple_cycles(g)
    choices = [[c] for c in cycles] + [
        [a, b]
        for a, b in itertools.combinations(cycles, 2)
        if not cycle_vertices(g, a) & cycle_vertices(g, b)
    ]
    free = [cs for cs in choices if not extract_sublink(projection, cs).nodes]
    passing = [
        cs for cs in free if any(projection.strands[e].passages for c in cs for e in c)
    ]
    assert {len(cs) for cs in passing} == {1, 2}
    for cs in free:
        assert extract_sublink(projection, cs) == Diagram([], [], len(cs))


@pytest.mark.parametrize(
    "cycles",
    [
        [[]],
        [[99]],
        [[-1]],
        [[0]],  # one edge that is no loop
        [[0, 1]],  # an open path
        [[0, 14]],  # two edges that share no vertex
        [[0, 1, 5, 99]],
        [[0, 1, 5], [5, 9, 12]],  # two cycles that share an edge
        [[0, 1, 5, 0]],
        [[0, 1, 5, 12, 13, 14]],  # two triangles listed as one cycle
        [[0, 1, 5], [0]],
    ],
)
def test_extract_sublink_rejects_malformed_cycles(cycles):
    # K6: edge i joins the i-th vertex pair in order, so 0, 1, 5 is the
    # triangle 012 and 12, 13, 14 the triangle 345
    projection = base_diagram(complete_graph(6)).underlying_graph()
    assert projection.graph.edges[5] == (1, 2) and projection.graph.edges[14] == (4, 5)
    with pytest.raises(FormatError):
        extract_sublink(projection, cycles)


def test_extract_sublink_raises_format_errors_on_edge_index_lists():
    # K5's ten edges, with indices out of range on both sides: a list that
    # is no simple cycle raises FormatError, never IndexError
    projection = k5_diagram().underlying_graph()
    rng = random.Random(3)
    extracted = 0
    for _ in range(2000):
        cycle = [rng.randint(-2, 12) for _ in range(rng.randint(0, 5))]
        try:
            extract_sublink(projection, [cycle])
            extracted += 1
        except FormatError:
            assert not projection.graph.is_simple_cycle(cycle)
    assert extracted > 0


def test_base_diagram_places_vertices_in_graph_order():
    d = base_diagram(complete_graph(4))
    assert d.vertices() == [0, 1, 2, 3]
    assert [d.nodes[n].label for n in d.vertices()] == ["0", "1", "2", "3"]
    assert d.crossing_count == 0


def test_base_diagram_matches_the_validating_builder():
    """Edges inserted on trust and the drawing validated once give, byte
    for byte, the drawing of a builder that validated each intermediate
    one: on every connected atlas graph with at most seven vertices, by its
    default edge order and two seeded others, and on multigraphs with
    loops and parallel edges."""
    looped = [
        Multigraph(2, ((0, 0), (0, 1), (1, 1))),
        Multigraph(3, ((0, 0), (0, 1), (0, 1), (0, 2), (1, 2), (2, 2), (2, 2))),
        Multigraph(5, tuple(complete_graph(5).edges) + ((3, 3), (1, 4))),
    ]
    for g in [g for _i, g in atlas_graphs(max_vertices=7)] + looped:
        m = g.edge_count
        shuffled = [random.Random(seed).sample(range(m), m) for seed in (0, 1)]
        for order in [None, *shuffled]:
            want = diagram_to_text(validated_base_diagram(g, order))
            assert diagram_to_text(base_diagram(g, order)) == want, (g, order)


def test_base_diagram_of_k5_is_the_stored_drawing():
    text = diagram_to_text(base_diagram(complete_graph(5)))
    assert text == (DATA / "k5.diagram").read_text()
    assert text == json.loads((DATA / "k5_certificate.json").read_text())["diagram"]


RATIONAL_CLOSURES = [
    closure(RationalTangle(word))
    for word in [(2,), (3,), (4,), (2, 2), (3, 2), (2, 1, 2), (-2, 3), (2, 2, 2)]
    for closure in (RationalTangle.closure_n, RationalTangle.closure_d)
]


def smoothed(d, a_smoothing):
    """``splice`` of the crossings ``n`` in ``a_smoothing`` by the
    A-smoothing where it maps ``n`` to True and the B-smoothing elsewhere:
    over at parity ``o``, A joins slots (o+1, o+2) and (o+3, o), and B joins
    (o, o+1) and (o+2, o+3); the validating ``splice_identify`` agrees."""
    thru = {}
    for n, a in a_smoothing.items():
        o = d.nodes[n].over
        for s, t in ((o + 1, o + 2), (o + 3, o)) if a else ((o, o + 1), (o + 2, o + 3)):
            thru[(n, s % 4)] = (n, t % 4)
            thru[(n, t % 4)] = (n, s % 4)
    out = splice(d, thru)
    assert out == splice_identify(d, thru)
    return out


def states(d):
    """Every A/B state of ``d``'s crossings, as maps to True at A."""
    xs = d.crossings()
    for word in range(1 << len(xs)):
        yield {n: bool(word >> j & 1) for j, n in enumerate(xs)}


@pytest.mark.parametrize("d", RATIONAL_CLOSURES)
def test_splicing_every_crossing_sums_to_the_bracket(d):
    total = LaurentPoly()
    for state in states(d):
        loops = smoothed(d, state)
        assert not loops.nodes and not loops.arcs
        a = sum(state.values())
        exp = a - (len(state) - a)
        total = total + CIRCLE_POLY ** (loops.free_loops - 1) * monomial(1, exp)
    assert total == kauffman_bracket(d)


@pytest.mark.parametrize("d", RATIONAL_CLOSURES)
def test_splicing_in_two_steps_leaves_the_same_circles(d):
    # the first step reroutes strands through some crossings and closes the
    # circles that run only through them; the second finishes the state
    xs = d.crossings()
    for first in (xs[:1], xs[::2], xs[1:]):
        kept = [n for n in xs if n not in first]
        for state in states(d):
            part = smoothed(d, {n: state[n] for n in first})
            rest = smoothed(part, {i: state[n] for i, n in enumerate(kept)})
            assert rest.free_loops == smoothed(d, state).free_loops


def test_splice_identify_rejects_bad_identifications():
    d = trefoil()
    with pytest.raises(FormatError, match="cover each removed slot"):
        splice_identify(d, {(0, 0): (0, 1), (0, 1): (0, 0)})
    with pytest.raises(FormatError, match="involution"):
        splice_identify(d, {(0, s): (0, (s + 1) % 4) for s in range(4)})
    with pytest.raises(FormatError, match="involution"):
        splice_identify(d, {(0, s): (0, s) for s in range(4)})
