"""Rational tangles: fractions, normal forms, closures, substitution."""

import pytest

from graphknot import (
    FormatError,
    RationalTangle,
    TopologyError,
    Vertex,
    VertexOrientation,
    WrongDegreeError,
    kauffman_bracket,
    linking_numbers,
    parse_conway,
    substitute,
)
from graphknot import complete_graph
from graphknot.diagram import Diagram, disjoint_union_diagrams
from graphknot.gallery import k5_diagram, trefoil, wheel4
from graphknot.invariants import LaurentPoly
from graphknot.layout import base_diagram
from graphknot.tangle import (
    END_LABELS,
    fragment_from_twists,
    infinity_tangle,
    normalize_fraction,
    tangle_from_fraction,
    zero_tangle,
)
from oracles import normal_forms, splice_identify

A, B, C, D = END_LABELS


def test_conway_oracle():
    # worked by hand: 1 + 1/(2 + 1/(2 + 1/2)) = 17/12
    t = parse_conway("2 2 2 1")
    assert t.fraction() == (17, 12)
    assert t.minimal_crossings() == 7
    assert t.normal_form() == t


def test_small_fractions():
    assert RationalTangle(()).fraction() == (1, 0)  # infinity
    assert RationalTangle((0,)).fraction() == (0, 1)
    assert RationalTangle((3,)).fraction() == (3, 1)
    assert RationalTangle((2, 2)).fraction() == (5, 2)
    assert RationalTangle((-2, -1, 0)).fraction() == (-2, 3)


def test_twist_rules():
    # horizontal twists add to the numerator, vertical to the denominator:
    # one more twist in the last (horizontal) block sends f to f + 1, and a
    # block of one vertical twist closed by an empty horizontal block sends
    # f to 1/(1/f + 1)
    assert RationalTangle((2, 1)).fraction() == (3, 2)
    assert RationalTangle((2, 2)).fraction() == (5, 2)
    assert RationalTangle((2, 1, 1, 0)).fraction() == (3, 5)
    assert RationalTangle((1, 0)).fraction() == (1, 1)  # from infinity
    assert RationalTangle((4,)).fraction() == (4, 1)


def test_normalize_fraction():
    assert normalize_fraction(4, 6) == (2, 3)
    assert normalize_fraction(-4, -6) == (2, 3)
    assert normalize_fraction(4, -6) == (-2, 3)
    assert normalize_fraction(5, 0) == (1, 0)
    assert normalize_fraction(0, -7) == (0, 1)


def test_normal_form_is_idempotent_and_fraction_preserving():
    for word in [(3, -1), (2, -1, 3), (0,), (), (4, -2), (-1, 2, -3)]:
        t = RationalTangle(word)
        nf = t.normal_form()
        assert nf.fraction() == t.fraction()
        assert nf.normal_form() == nf


def test_normal_form_entries_share_a_sign():
    nf = RationalTangle((3, -1)).normal_form()
    signs = {a > 0 for a in nf.conway if a != 0}
    assert len(signs) <= 1


def test_mirror_negates_the_fraction():
    t = parse_conway("2 2 2 1")
    p, q = t.fraction()
    assert t.mirror().fraction() == (-p, q)


def test_parse_conway_errors():
    with pytest.raises(FormatError):
        parse_conway("")
    with pytest.raises(FormatError):
        parse_conway("2 x 1")
    assert parse_conway("inf") == RationalTangle(())


@pytest.mark.parametrize("token", ["٣", "１", "1_0", "+1"])
def test_parse_conway_reads_only_ascii_integers(token):
    with pytest.raises(FormatError, match="bad twist sequence"):
        parse_conway(f"2 {token}")


@pytest.mark.parametrize("conway", [(1.7, True), ("3",), (True,), (2, 2.0)])
def test_twist_counts_must_be_ints(conway):
    with pytest.raises(FormatError, match="twist counts must be ints"):
        RationalTangle(conway)


@pytest.mark.parametrize("sign", [0, 2, -3, 1.0, True])
def test_twist_signs_must_be_one_or_minus_one(sign):
    with pytest.raises(FormatError, match="twist sign"):
        fragment_from_twists([("h", 1), ("v", sign)])


def test_zero_and_infinity_closures():
    zero = RationalTangle((0,))
    inf = RationalTangle(())
    # numerator closure of 0 is a two-component unlink, denominator an unknot
    n0 = zero.closure_n()
    assert n0.crossing_count == 0 and n0.free_loops == 2
    d0 = zero.closure_d()
    assert d0.crossing_count == 0 and d0.free_loops == 1
    # and the roles swap for the infinity tangle
    ninf = inf.closure_n()
    assert ninf.crossing_count == 0 and ninf.free_loops == 1
    dinf = inf.closure_d()
    assert dinf.crossing_count == 0 and dinf.free_loops == 2


def test_closure_brackets_match_the_classics():
    assert kauffman_bracket(RationalTangle((2,)).closure_n()) == LaurentPoly(
        {-4: -1, 4: -1}
    )
    assert kauffman_bracket(RationalTangle((3,)).closure_n()) == kauffman_bracket(
        trefoil()
    )
    assert kauffman_bracket(RationalTangle((2, 2)).closure_n()) == LaurentPoly(
        {-8: 1, -4: -1, 0: 1, 4: -1, 8: 1}
    )


def test_integer_closures_are_torus_links():
    for n in range(2, 6):
        d = RationalTangle((n,)).closure_n()
        assert d.crossing_count == n
        assert kauffman_bracket(d).span == 4 * n


def test_hopf_linking_number_from_closure():
    d = RationalTangle((2,)).closure_n()
    assert [abs(lk) for lk in linking_numbers(d).values()] == [1]


def test_display_round_trip():
    for text in ["2 2 2 1", "inf", "0", "-3 -1"]:
        assert parse_conway(text).display() == text


def test_substitute_needs_a_degree_four_vertex():
    d = base_diagram(complete_graph(4))
    with pytest.raises(WrongDegreeError):
        substitute(d, VertexOrientation(d.vertices()[0], 0), RationalTangle((1,)))


def test_substituting_zero_or_infinity_adds_no_crossings():
    d = base_diagram(wheel4())
    v = next(n for n in d.vertices() if d.nodes[n].degree == 4)
    for tangle in (zero_tangle(), infinity_tangle()):
        sub = substitute(d, VertexOrientation(v, 0), tangle)
        assert sub.crossing_count == d.crossing_count
        assert not any(
            isinstance(sub.nodes[n], Vertex) and sub.nodes[n].degree == 4
            for n in sub.vertices()
        ) or len(sub.vertices()) == len(d.vertices()) - 1


def test_substituting_one_crossing_tangles():
    d = base_diagram(wheel4())
    v = next(n for n in d.vertices() if d.nodes[n].degree == 4)
    for word in ((1,), (-1,)):
        sub = substitute(d, VertexOrientation(v, 0), RationalTangle(word))
        assert sub.crossing_count == d.crossing_count + 1
        assert len(sub.vertices()) == len(d.vertices()) - 1


def test_substituting_a_diagram_that_is_no_tangle_is_rejected():
    # a caller's diagram is checked: its markers must end strands, and
    # strands joining opposite corners would have to cross in the box
    d = k5_diagram()
    crossed = Diagram([Vertex(x, 1) for x in END_LABELS], [((0, 0), (2, 0)), ((1, 0), (3, 0))])
    with pytest.raises(TopologyError):
        substitute(d, VertexOrientation(0, 0), crossed)
    star = Diagram(
        [Vertex(A, 3), Vertex(B, 1), Vertex(C, 1), Vertex(D, 1)],
        [((0, 0), (1, 0)), ((0, 1), (2, 0)), ((0, 2), (3, 0))],
    )
    bare = Diagram(
        [Vertex(A, 1), Vertex(B, 1), Vertex(C, 2), Vertex(D, 0)],
        [((0, 0), (2, 0)), ((1, 0), (2, 1))],
    )
    for fragment in (star, bare):
        with pytest.raises(WrongDegreeError, match="marker"):
            substitute(d, VertexOrientation(0, 0), fragment)


def test_substitution_respects_the_orientation_slot():
    # rotating corner a around the vertex permutes which strands connect
    d = base_diagram(wheel4())
    v = next(n for n in d.vertices() if d.nodes[n].degree == 4)
    codes = {
        substitute(d, VertexOrientation(v, s), zero_tangle()).canonical_code()
        for s in range(4)
    }
    assert len(codes) == 2  # slots two apart give the same smoothing


# -- the trusted builds against the validating splice ----------------------------


def end_dart(d, shift, end):
    """``end``, or the dart of the marker it labels in ``d``, numbered as
    in a diagram where ``d``'s nodes follow ``shift`` others."""
    return (d.vertex_index(end) + shift, 0) if isinstance(end, str) else end


def glued(d, shift, pairs):
    """The ``splice`` map that glues the two ends of each pair."""
    thru = {}
    for x, y in pairs:
        x, y = end_dart(d, shift, x), end_dart(d, shift, y)
        thru[x], thru[y] = y, x
    return thru


def assert_same_map(got, want):
    assert got.nodes == want.nodes and got.arcs == want.arcs
    assert got._darts == want._darts
    assert got.free_loops == want.free_loops
    assert got.crossing_count == want.crossing_count


def test_closures_match_the_validating_splice():
    """Twists and closures edit dart arrays on trust; each fragment of up
    to 8 crossings is a map that full validation accepts, and each closure
    is what the validating ``splice_identify`` makes of it."""
    for t in normal_forms(0, 8):
        f = t.fragment()
        assert_same_map(f, Diagram(f.nodes, f.arcs, f.free_loops))
        assert_same_map(t.closure_n(), splice_identify(f, glued(f, 0, [(A, B), (D, C)])))
        assert_same_map(t.closure_d(), splice_identify(f, glued(f, 0, [(A, D), (B, C)])))


def test_substitution_matches_the_validating_splice():
    d = k5_diagram()
    for t in normal_forms(0, 3):
        f = t.fragment()
        union = disjoint_union_diagrams(d, f)  # validated: the labels differ
        for v in d.vertices():
            for a_slot in range(4):
                # box corners a, d, c, b run counter-clockwise from a_slot
                corners = [((v, (a_slot + k) % 4), m) for k, m in enumerate((A, D, C, B))]
                want = splice_identify(union, glued(f, len(d.nodes), corners))
                assert_same_map(substitute(d, VertexOrientation(v, a_slot), t), want)


def test_a_fragment_is_validated_once(monkeypatch):
    """Only the 0- or infinity tangle a fragment starts from is validated,
    not each twist, closure or substitution."""
    d = k5_diagram()
    calls = []
    validate = Diagram._validate
    monkeypatch.setattr(Diagram, "_validate", lambda self: calls.append(1) or validate(self))
    t = RationalTangle((3, 2, 4, 2))
    t.closure_n()
    assert len(calls) == 1
    t.closure_d()
    assert len(calls) == 2
    substitute(d, VertexOrientation(0, 0), t)
    assert len(calls) == 3
