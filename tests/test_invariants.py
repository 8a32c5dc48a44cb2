"""Bracket polynomial, linking numbers, span bounds, cycle obstructions."""

import gc
import time
import weakref

import pytest

from graphknot import (
    Budget,
    DisconnectedError,
    FormatError,
    LaurentPoly,
    Multigraph,
    NotALinkError,
    RationalTangle,
    SizeLimitExceeded,
    complete_graph,
    component_span_lower_bound,
    connected_sum_diagrams,
    crossing_number,
    cycle_graph,
    disjoint_union,
    disjoint_union_diagrams,
    kauffman_bracket,
    linking_numbers,
    lower_bound_obstructions,
    simple_cycles,
    span_lower_bound,
    writhe,
)
from graphknot.gallery import (
    figure_eight,
    hopf_link,
    k4_diagram,
    k5_diagram,
    kinked_unknot,
    linked_triangles,
    trefoil,
    unknot,
    unlink,
)
from graphknot.invariants import ObstructionScan, cycle_vertices, disjoint_cycle_pairs
from oracles import bracket_state_sum, is_alternating, is_reduced, mirror_diagram, monomial


# frozen polynomial values, cross-checked against the delta-recursion by hand
BRACKET_ORACLES = [
    (unknot(), LaurentPoly.one()),
    (unlink(2), LaurentPoly({2: -1, -2: -1})),
    (hopf_link(), LaurentPoly({-4: -1, 4: -1})),
    (trefoil(), LaurentPoly({-5: -1, 3: -1, 7: 1})),
    (figure_eight(), LaurentPoly({-8: 1, -4: -1, 0: 1, 4: -1, 8: 1})),
]


@pytest.mark.parametrize("d,value", BRACKET_ORACLES)
def test_bracket_oracles(d, value):
    assert kauffman_bracket(d) == value


def test_bracket_of_mirror_inverts_the_variable():
    for d, _ in BRACKET_ORACLES:
        b = kauffman_bracket(d)
        m = kauffman_bracket(mirror_diagram(d))
        assert m.coeffs == {-e: c for e, c in b.coeffs.items()}


def test_bracket_multiplies_under_connected_sum():
    d = connected_sum_diagrams(hopf_link(), 0, trefoil(), 0)
    assert kauffman_bracket(d) == kauffman_bracket(hopf_link()) * kauffman_bracket(
        trefoil()
    )


def test_bracket_gains_a_circle_factor_under_disjoint_union():
    d = disjoint_union_diagrams(hopf_link(), trefoil())
    delta = LaurentPoly({2: -1, -2: -1})
    assert kauffman_bracket(d) == delta * kauffman_bracket(
        hopf_link()
    ) * kauffman_bracket(trefoil())


def test_bracket_at_the_twenty_crossing_guard():
    """T(2, 20) sits at the guard and is cheap.  Its value follows the twist
    recurrence: of the two smoothings at one crossing of the T(2, n) twist,
    the B-smoothing leaves the T(2, n-1) twist and the A-smoothing a chain of
    n-1 kinks, each worth -A^3, so <T(2,n)> = A^-1 <T(2,n-1)> + A (-A^3)^(n-1)
    from <T(2,0)> = delta, the two-circle unlink."""
    a, a_inv = monomial(1, 1), monomial(1, -1)
    kink = monomial(-1, 3)
    expected = LaurentPoly({2: -1, -2: -1})
    for n in range(1, 21):
        expected = a_inv * expected + a * kink ** (n - 1)
    d = RationalTangle((20,)).closure_n()
    assert d.crossing_count == 20
    t0 = time.monotonic()
    value = kauffman_bracket(d)
    assert time.monotonic() - t0 < 1.0
    assert value == expected


def test_bracket_guard_rejects_twenty_one_crossings():
    d = RationalTangle((21,)).closure_n()
    with pytest.raises(SizeLimitExceeded):
        kauffman_bracket(d)
    with pytest.raises(SizeLimitExceeded):
        bracket_state_sum(d)


def test_bracket_rejects_graph_diagrams():
    with pytest.raises(NotALinkError):
        kauffman_bracket(k5_diagram())


def test_laurent_poly_display():
    assert str(LaurentPoly({-4: -1, 4: -1})) == "-A^-4 - A^4"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({0: 3})) == "3"
    assert str(LaurentPoly({1: 2, 0: -1})) == "-1 + 2A"


def test_writhe_and_linking():
    assert abs(writhe(trefoil())) == 3
    assert writhe(figure_eight()) == 0
    assert [abs(lk) for lk in linking_numbers(hopf_link()).values()] == [1]
    # pairs that never share a crossing are omitted (zero by convention)
    lks = linking_numbers(disjoint_union_diagrams(hopf_link(), unlink(1)))
    assert list(lks) == [(0, 1)] and abs(lks[0, 1]) == 1


def test_linking_number_requires_two_components():
    # a one-circle diagram has no pair to link; a graph diagram has no circles
    assert linking_numbers(trefoil()) == {}
    with pytest.raises(NotALinkError):
        linking_numbers(k5_diagram())


def test_span_bounds():
    assert span_lower_bound(trefoil()) == 3
    assert span_lower_bound(hopf_link()) == 2
    assert span_lower_bound(kinked_unknot(2)) == 0
    with pytest.raises(DisconnectedError):
        span_lower_bound(unlink(2))
    both = disjoint_union_diagrams(hopf_link(), trefoil())
    assert component_span_lower_bound(both) == 5


def test_alternating_and_reduced_predicates():
    assert is_alternating(trefoil()) and is_reduced(trefoil())
    assert is_alternating(hopf_link()) and is_reduced(hopf_link())
    assert not is_reduced(kinked_unknot(1))
    # descending K5 routing: one crossing between graph vertices, vacuously ok
    assert is_alternating(k5_diagram())


def test_simple_cycle_counts():
    assert len(simple_cycles(complete_graph(4))) == 7  # four triangles, three squares
    assert len(simple_cycles(complete_graph(5))) == 37
    assert len(simple_cycles(cycle_graph(6))) == 1
    # a loop is a one-cycle, a parallel pair a two-cycle
    assert len(simple_cycles(Multigraph(2, [(0, 0), (0, 1), (0, 1)]))) == 2


def test_cycle_guard_at_its_edge():
    # K4 has exactly seven simple cycles
    assert len(simple_cycles(complete_graph(4), max_cycles=7)) == 7
    with pytest.raises(SizeLimitExceeded):
        simple_cycles(complete_graph(4), max_cycles=6)


def test_simple_cycles_leaves_nothing_for_the_collector():
    gc.disable()
    try:
        gc.collect()
        assert len(simple_cycles(complete_graph(5))) == 37
        assert gc.collect() == 0  # freed by reference counting alone
    finally:
        gc.enable()


def test_cycle_vertices():
    g = complete_graph(4)
    triangle = next(c for c in simple_cycles(g) if len(c) == 3)
    assert len(cycle_vertices(g, triangle)) == 3


def test_disjoint_cycle_pairs():
    assert not list(disjoint_cycle_pairs(complete_graph(5)))  # needs six vertices
    two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert len(list(disjoint_cycle_pairs(two_triangles))) == 1


def test_obstructions_on_the_k5_routing():
    bound, obs = lower_bound_obstructions(k5_diagram())
    assert bound == 1
    assert any(o.kind == "nonplanar-graph" for o in obs)


def test_obstructions_on_linked_triangles():
    bound, obs = lower_bound_obstructions(linked_triangles())
    assert bound == 2
    linked = next(o for o in obs if o.kind == "linked-cycles")
    assert abs(linked.value) == 1
    assert linked.bound == 2


def test_obstruction_scan_keeps_failed_extractions_without_cycles():
    d = k5_diagram()
    scan = ObstructionScan(d)
    edges = tuple(scan.cycles()[0])
    gc.disable()
    try:
        for _ in range(2):  # extracted once, then kept
            with pytest.raises(FormatError, match="appears in two cycles"):
                scan.sublink((edges, edges), d)
        gone = weakref.ref(scan)
        del scan
        assert gone() is None  # freed by reference counting alone
    finally:
        gc.enable()


def test_crossing_number_reports():
    r = crossing_number(hopf_link())
    assert r.value == 2 and r.conclusive and not r.cap_relative

    r = crossing_number(trefoil())
    assert r.value == 3 and r.conclusive

    r = crossing_number(kinked_unknot(2), Budget(max_crossings=4, max_states=5_000))
    assert r.value == 0 and r.conclusive

    r = crossing_number(k4_diagram())
    assert r.value == 0

    r = crossing_number(k5_diagram())
    assert r.value == 1 and r.conclusive


def test_cr_at_least_two_answers():
    for d in (hopf_link(), trefoil()):
        assert ObstructionScan(d).at_least_two(d) is not None
    # with no obstruction, the answer stays undecided
    for d in (unknot(), kinked_unknot(1), kinked_unknot(2)):
        assert ObstructionScan(d).at_least_two(d) is None


def test_certified_answers_carry_obstructions():
    d = linked_triangles()
    found = ObstructionScan(d).at_least_two(d)
    assert found is not None and found[0].kind == "linked-cycles"
