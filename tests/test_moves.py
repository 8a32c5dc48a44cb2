"""Local moves: enumeration, application, inverses, and equivalence search."""

import pytest

from graphknot import (
    Budget,
    ISOTOPY_KINDS,
    MOVE_KINDS,
    MoveNotApplicable,
    MoveSite,
    Multigraph,
    apply_move,
    cc_equivalent_within,
    complete_graph,
    cycle_graph,
    descending_diagram,
    enumerate_moves,
    equivalent_within,
    kauffman_bracket,
    replay_path,
    search_min_crossings,
    simplify,
)
from graphknot.gallery import (
    figure_eight,
    hopf_link,
    k5_diagram,
    kinked_unknot,
    trefoil,
    unknot,
    wheel4,
)
from graphknot.layout import base_diagram
from oracles import mirror_diagram


INVERSE = {
    "R1_add": "R1_remove",
    "R2_add": "R2_remove",
    "R5_twist": "R5_untwist",
}


def test_isotopy_kinds_exclude_crossing_changes():
    assert "CrossingChange" in MOVE_KINDS
    assert "CrossingChange" not in ISOTOPY_KINDS
    assert set(ISOTOPY_KINDS) < set(MOVE_KINDS)


@pytest.mark.parametrize("d", [trefoil(), figure_eight(), k5_diagram(), wheel4_d := base_diagram(Multigraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]))])
def test_every_enumerated_move_applies(d):
    for site in enumerate_moves(d):
        nd = apply_move(d, site)
        assert nd.crossing_count >= 0  # construction validated internally


@pytest.mark.parametrize("kind", ["R1_add", "R2_add", "R5_twist"])
def test_growing_moves_are_invertible(kind):
    d = k5_diagram()
    grown = [s for s in enumerate_moves(d) if s.kind == kind]
    assert grown, f"no {kind} site on the sample diagram"
    for site in grown[:8]:
        nd = apply_move(d, site)
        undone = {
            apply_move(nd, back).canonical_code()
            for back in enumerate_moves(nd, (INVERSE[kind],))
        }
        assert d.canonical_code() in undone


def test_crossing_change_is_an_involution():
    d = trefoil()
    site = MoveSite("CrossingChange", (0,))
    assert apply_move(apply_move(d, site), site).canonical_code() == d.canonical_code()


def test_move_rejects_bad_site():
    with pytest.raises(MoveNotApplicable):
        apply_move(trefoil(), MoveSite("R1_remove", (0, 0)))
    with pytest.raises(MoveNotApplicable):
        apply_move(unknot(), MoveSite("R2_remove", (0, 0)))


def test_r1_pair_changes_bracket_by_a_unit():
    d = trefoil()
    for site in enumerate_moves(d, ("R1_add",))[:6]:
        nd = apply_move(d, site)
        ratio_exponents = {3, -3}
        b0, b1 = kauffman_bracket(d), kauffman_bracket(nd)
        assert any(
            b1 == b0 * __import__("graphknot").LaurentPoly({e: -1})
            for e in ratio_exponents
        )


def test_simplify_unkinks():
    d = kinked_unknot(3)
    best = simplify(d, Budget(max_crossings=4, max_states=5_000))
    assert best.crossing_count == 0
    assert best.free_loops == 1


def test_simplify_cannot_break_the_trefoil():
    result = search_min_crossings(trefoil(), Budget(max_crossings=5, max_states=5_000))
    assert result.best.crossing_count == 3
    assert result.exhausted


def test_trefoil_is_not_isotopic_to_the_unknot():
    res = equivalent_within(
        trefoil(), unknot(), Budget(max_crossings=5, max_states=5_000)
    )
    assert res.equivalent is False
    assert res.exhausted


def test_trefoil_unknots_under_crossing_changes():
    res = cc_equivalent_within(
        trefoil(), unknot(), Budget(max_crossings=5, max_states=20_000)
    )
    assert res.equivalent is True
    replayed = replay_path(trefoil(), res.path, shadow=True)
    assert replayed.canonical_code() == unknot().canonical_code()


def test_equivalence_paths_replay():
    d1 = kinked_unknot(2)
    res = equivalent_within(d1, unknot(), Budget(max_crossings=4, max_states=5_000))
    assert res.equivalent is True
    assert replay_path(d1, res.path).canonical_code() == unknot().canonical_code()


def test_descending_diagram_is_stable():
    proj = base_diagram(complete_graph(5)).underlying_graph()
    d1 = descending_diagram(proj)
    d2 = descending_diagram(d1.underlying_graph())
    assert d1.canonical_code() == d2.canonical_code()


def test_descending_respects_the_edge_order():
    g = complete_graph(5)
    proj = base_diagram(g).underlying_graph()
    order = list(range(g.edge_count))
    d = descending_diagram(proj, order)
    # the strand of smaller rank passes over at every crossing
    rank = {}
    for pos, e in enumerate(order):
        for dart in proj.strands[e].passages:
            rank.setdefault(dart[0], []).append((pos, dart[1]))
    for crossing, hits in rank.items():
        (r1, s1), (r2, s2) = sorted(hits)
        over = d.nodes[crossing].over
        assert s1 % 2 == over  # earlier strand on top


def test_cross_component_pokes_are_enumerated():
    from graphknot import disjoint_union_diagrams

    d = disjoint_union_diagrams(trefoil(), trefoil())
    comp_of = {n: i for i, comp in enumerate(d.components()) for n in comp}
    sites = [
        s
        for s in enumerate_moves(d, ("R2_add",))
        if comp_of[s.params[0][0]] != comp_of[s.params[1][0]]
    ]
    assert sites
    poked = apply_move(d, sites[0])
    assert poked.crossing_count == d.crossing_count + 2
    assert len(poked.components()) == 1


def test_max_states_stops_expansion_at_the_cap():
    # 6 diagrams of at most 4 crossings are reachable from the trefoil; the
    # first expansion alone records 5 of them
    def run(max_states):
        r = search_min_crossings(trefoil(), Budget(max_crossings=4, max_states=max_states))
        return r.states, r.exhausted

    assert run(1) == (1, False)
    assert run(2) == (5, False)  # the last expansion overshoots the cap
    assert run(6) == (6, False)  # every state recorded, but the cap stopped it
    assert run(7) == (6, True)


def test_equivalent_within_tests_max_states_after_each_expansion():
    # the trefoil and its mirror are separated by 11 states within 4 crossings
    def run(max_states):
        r = equivalent_within(
            trefoil(), mirror_diagram(trefoil()), Budget(max_crossings=4, max_states=max_states)
        )
        return r.equivalent, r.states, r.exhausted

    assert run(1) == (None, 6, False)  # the first state is always expanded
    assert run(11) == (None, 11, False)
    assert run(12) == (False, 11, True)


def test_a_shadow_path_replays_to_the_target_shadow():
    # case 252 of the descending acceptance test, a loop at one of four
    # vertices: keyed by parity-relative codes, its backward half found no
    # over-0 R2_add whose code was the stored one
    from test_acceptance import _perturbed

    base = base_diagram(Multigraph(4, ((0, 0),)))
    dd1, dd2 = (
        descending_diagram(_perturbed(base, seed).underlying_graph()) for seed in (504, 505)
    )
    assert dd1.canonical_code() != dd2.canonical_code()
    cap = max(dd1.crossing_count, dd2.crossing_count) + 2
    res = cc_equivalent_within(dd1, dd2, Budget(max_crossings=cap, max_states=100_000))
    assert res.equivalent is True
    assert res.path is not None
    assert replay_path(dd1, res.path, shadow=True).canonical_code() == dd2.shadow_code()
