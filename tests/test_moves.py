"""Local moves: enumeration, application, inverses, and equivalence search."""

import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from graphknot import (
    Budget,
    FormatError,
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
    disjoint_union_diagrams,
    enumerate_moves,
    equivalent_within,
    kauffman_bracket,
    replay_path,
    search_min_crossings,
    simplify,
)
from graphknot.diagram import Crossing, Diagram, Vertex, parse_diagram
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
    wheel4,
)
from graphknot.layout import base_diagram
from graphknot.moves import (
    _KINDS,
    _Side,
    _carried,
    _kink,
    _neighbors,
    _poke,
    _slides,
    _spelled,
    _state_key,
    _twisted,
)
from oracles import (
    arc_partners,
    bigon_pokes,
    kink,
    level_order_equivalent,
    mirror_diagram,
    poke,
    queued_search_min_crossings,
    slides,
    splice_identify,
    twisted,
    ungated_reachable,
)

DATA = Path(__file__).resolve().parent.parent / "data"


INVERSE = {
    "R1_add": "R1_remove",
    "R2_add": "R2_remove",
    "R5_twist": "R5_untwist",
}


def test_isotopy_kinds_exclude_crossing_changes():
    assert "CrossingChange" in MOVE_KINDS
    assert "CrossingChange" not in ISOTOPY_KINDS
    assert set(ISOTOPY_KINDS) < set(MOVE_KINDS)


# Small diagrams that between them offer sites of every kind, with and
# without shadow: free loops to curl and poke, separate components, kinks,
# bigons, triangles a strand passes across, vertices with a loop edge and a
# twist to undo.  The one-crossing curl has its kinks at slots 1 and 3,
# where the next slot wraps round to 0; the others' kinks sit at slot 2.
MOVE_CORPUS = [
    unlink(2),
    disjoint_union_diagrams(trefoil(), unknot()),
    disjoint_union_diagrams(hopf_link(), trefoil()),
    figure_eight(),
    kinked_unknot(2),
    apply_move(trefoil(), MoveSite("R2_add", ((0, 1), (1, 1), 1))),
    k4_diagram(),
    apply_move(k4_diagram(), MoveSite("R5_twist", (0, 0, 1))),
    base_diagram(Multigraph(2, ((0, 0), (0, 1), (1, 1)))),
    linked_triangles(),
    Diagram([Crossing(0)], [((0, 1), (0, 2)), ((0, 3), (0, 0))]),
]

# Two bigons whose strands poke, but an arc joins an outer end of one
# strand to an outer end of the other, so that removing the bigon would
# leave one arc that no R2_add pokes apart: a Hopf link with a bigon one of
# whose crossings carries a kink, and an edge between two leaves that pokes
# itself.  ``enumerate_moves`` offers neither removal.
GATED_BIGONS = [
    Diagram(
        [Crossing(0)] * 4,
        [((0, 0), (3, 1)), ((0, 1), (1, 0)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
         ((1, 1), (3, 2)), ((2, 0), (2, 1)), ((2, 2), (3, 0)), ((2, 3), (3, 3))],
    ),
    Diagram(
        [Vertex("0", 1), Vertex("1", 1), Crossing(0), Crossing(1)],
        [((0, 0), (2, 3)), ((1, 0), (3, 3)), ((2, 0), (3, 0)), ((2, 1), (3, 2)),
         ((2, 2), (3, 1))],
    ),
]

# Two kink, poke and slide perturbations of the Hopf link on which the
# search once answered "equivalent" without a path: its backward side
# removed a kinked bigon, and no R2_add rebuilt it.
HOPF_KINK_BIGON = [
    parse_diagram(
        "diagram\ncrossing 02\ncrossing 02\ncrossing 13\ncrossing 02\ncrossing 02\n"
        "arc 0.0 1.1\narc 0.1 3.1\narc 0.2 1.3\narc 0.3 4.1\narc 1.0 3.2\narc 1.2 4.0\n"
        "arc 2.0 4.3\narc 2.1 4.2\narc 2.2 2.3\narc 3.0 3.3\n"
    ),
    parse_diagram(
        "diagram\ncrossing 02\ncrossing 02\ncrossing 13\ncrossing 02\ncrossing 02\n"
        "arc 0.0 3.2\narc 0.1 1.0\narc 0.2 4.0\narc 0.3 1.2\narc 1.1 3.1\narc 1.3 4.1\n"
        "arc 2.0 4.3\narc 2.1 4.2\narc 2.2 2.3\narc 3.0 3.3\n"
    ),
]


@pytest.mark.parametrize("d", [trefoil(), figure_eight(), k5_diagram(), wheel4_d := base_diagram(Multigraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])), *MOVE_CORPUS])
def test_every_enumerated_move_applies(d):
    """Every site applies, with and without shadow.  Every move edits its
    parent's dart arrays and skips validation; the validating constructor
    is its oracle."""
    for shadow in (False, True):
        for site in enumerate_moves(d, shadow=shadow):
            r = apply_move(d, site, shadow=shadow)
            full = Diagram(r.nodes, r.arcs, r.free_loops)
            assert full.arcs == r.arcs and full._darts == r._darts, site
            assert full.crossing_count == r.crossing_count, site
            assert full.canonical_code() == r.canonical_code(), site
            assert full.shadow_code() == r.shadow_code(), site


# candidates of every kind, a superset of what any listing offers: every
# dart as a kink, a twist or a triangle's anchor, both orders of each
# bigon's darts, every node for a crossing change, every arc and free loop
# to curl, every ordered pair of darts and free loops to poke, and every
# slot to twist, each with both parities and flips
def _candidates(d):
    darts = d.darts()
    ends = darts + ["loop"]
    return {
        "R1_remove": darts,
        "R2_remove": [order for f in d.faces() if len(f) == 2 for order in (f, f[::-1])],
        "R5_untwist": darts,
        "R3": [(x,) for x in darts],
        "CrossingChange": [(n,) for n in range(len(d.nodes))],
        "R1_add": [
            *itertools.product(range(len(d.arcs)), (0, 1), (0, 1)),
            *itertools.product(["loop"], (0, 1)),
        ],
        "R2_add": list(itertools.product(ends, ends, (0, 1))),
        "R5_twist": [(n, s, over) for n, s in darts for over in (0, 1)],
    }


@pytest.mark.parametrize("d", MOVE_CORPUS + GATED_BIGONS)
def test_a_filtered_candidate_applies_exactly_when_enumerated(d):
    """The converse of ``test_every_enumerated_move_applies``: with and
    without ``shadow``, a candidate applies exactly when ``enumerate_moves``
    lists it (an ``R2_remove`` in either order), and is otherwise rejected
    by its move."""
    for shadow in (False, True):
        for kind, candidates in _candidates(d).items():
            listed = {s.params for s in enumerate_moves(d, (kind,), shadow=shadow)}
            assert listed <= set(candidates)
            for params in candidates:
                try:
                    apply_move(d, MoveSite(kind, params), shadow=shadow)
                    applied = True
                except MoveNotApplicable:
                    applied = False
                either = {params, params[::-1]} if kind == "R2_remove" else {params}
                assert applied == bool(either & listed), (kind, params, shadow)


@pytest.mark.parametrize("shadow", [False, True])
def test_the_gated_bigons_poke_but_offer_no_removal(shadow):
    for d in GATED_BIGONS:
        pair = arc_partners(d)
        bigons = [f for f in d.faces() if len(f) == 2]
        poking = [f for f in bigons if bigon_pokes(d, pair, *f, shadow)]
        listed = [s.params for s in enumerate_moves(d, ("R2_remove",), shadow=shadow)]
        assert [f for f in bigons if poke(d, pair, *f, shadow)] == listed
        assert set(poking) - set(listed), shadow


def _undo_site(d, site, child, shadow):
    """The site of ``child`` that undoes ``site``, spelled as the listing
    of ``child`` spells it."""
    return _spelled(child, _KINDS[site.kind][2](d, site.params), shadow)


@pytest.mark.parametrize("shadow", [False, True])
@pytest.mark.parametrize("d", MOVE_CORPUS + GATED_BIGONS)
def test_every_listed_site_is_undone_by_its_undo_site(d, shadow):
    """The undo of every listed isotopy site is listed on the child, and
    its build has the parent's state key: the move graph is undirected."""
    key = _state_key(shadow)
    for site in enumerate_moves(d, ISOTOPY_KINDS, shadow=shadow):
        child = apply_move(d, site, shadow=shadow)
        back = _undo_site(d, site, child, shadow)
        assert back in enumerate_moves(child, (back.kind,), shadow=shadow), (site, back)
        assert key(apply_move(child, back, shadow=shadow)) == key(d), (site, back)


def renumbered(d, rng):
    """``d`` with its nodes shuffled and every node's slots rotated, by
    ``rng``: the same map, numbered otherwise."""
    perm = list(range(len(d.nodes)))
    rng.shuffle(perm)
    turn = [rng.randrange(node.degree) if node.degree else 0 for node in d.nodes]
    nodes = [None] * len(d.nodes)
    for n, node in enumerate(d.nodes):
        if type(node) is Crossing:
            node = Crossing((node.over + turn[n]) % 2)
        nodes[perm[n]] = node

    def moved(u):
        n, s = u
        return (perm[n], (s + turn[n]) % d.nodes[n].degree)

    return Diagram(nodes, [(moved(a), moved(b)) for a, b in d.arcs], d.free_loops)


def _dart_form(d, site):
    """``site`` with an ``R1_add``'s arc named by the two darts its kink
    joins, as the undos name it."""
    if site.kind != "R1_add" or site.params[0] == "loop":
        return site
    i, over, flip = site.params
    x, y = d.arcs[i]
    return MoveSite("R1_add", ((y, x) if flip else (x, y), over))


@pytest.mark.parametrize("shadow", [False, True])
@pytest.mark.parametrize("d", MOVE_CORPUS + GATED_BIGONS)
def test_a_site_carried_to_a_renumbered_copy_is_listed_there_and_builds_alike(d, shadow):
    """Carried through the least traces onto ``canonical_form`` and onto
    two seeded renumberings that also rotate the slots, every listed site
    is listed on the copy and builds a diagram of the same state key."""
    key = _state_key(shadow)
    rng = random.Random(29)
    for copy in (d.canonical_form(), renumbered(d, rng), renumbered(d, rng)):
        assert key(copy) == key(d)
        listed = set(enumerate_moves(copy, ISOTOPY_KINDS, shadow=shadow))
        for site in enumerate_moves(d, ISOTOPY_KINDS, shadow=shadow):
            moved = _spelled(copy, _carried(d, copy, _dart_form(d, site), shadow), shadow)
            assert moved in listed, (site, moved)
            assert key(apply_move(copy, moved, shadow=shadow)) == key(apply_move(d, site, shadow=shadow))


def _side_reachable(d, budget, shadow):
    """The state keys that a partial side records when run to the end."""
    side = _Side(d, budget, shadow, partial=True)
    while side.waiting:
        for _ in side.expand():
            pass
    return set(side.record)


@pytest.mark.parametrize("shadow", [False, True])
@pytest.mark.parametrize("d", MOVE_CORPUS + HOPF_KINK_BIGON)
def test_the_gate_keeps_every_reachable_state(d, shadow):
    """Removing only the bigons an R2_add can rebuild loses no state that
    every poking bigon's removal reaches, one crossing above the start."""
    budget = Budget(max_crossings=d.crossing_count + 1)
    assert _side_reachable(d, budget, shadow) == ungated_reachable(d, budget, shadow)


def _site_cases(d, shadow):
    """A site of each predicate-filtered kind at every dart, and an
    ``R2_remove`` site at every ordered pair of darts on one face, with the
    answers of the array predicate and of its ``pair`` oracle."""
    pair = arc_partners(d)
    for x in d.darts():
        yield "R1_remove", x, _kink(d, *x), kink(d, pair, *x)
        yield "R5_untwist", x, _twisted(d, *x), twisted(d, pair, *x)
        yield "R3", (x,), _slides(d, x, shadow), slides(d, pair, x, shadow)
    for face in d.faces():
        for s in face:
            for t in face:
                fast, slow = _poke(d, s, t, shadow), poke(d, pair, s, t, shadow)
                yield "R2_remove", (s, t), fast, slow


@pytest.mark.parametrize("d", MOVE_CORPUS)
def test_the_site_predicates_match_their_pair_oracles(d):
    """The predicates read the dart arrays; their oracles read the arc dict
    ``pair`` that ``arc_partners`` builds from ``arcs``.  On ``d`` and on each child a search builds from it, with and
    without ``shadow``, they agree at every candidate, and ``apply_move``
    raises ``MoveNotApplicable`` exactly where the oracle fails the site."""
    for shadow in (False, True):
        budget = Budget(max_crossings=d.crossing_count + 2)  # room for every kind
        for e in [d, *(child for _site, child in _neighbors(d, budget, shadow))]:
            for kind, params, fast, slow in _site_cases(e, shadow):
                assert fast == slow, (kind, params, shadow)
                try:
                    apply_move(e, MoveSite(kind, params), shadow=shadow)
                    applied = True
                except MoveNotApplicable:
                    applied = False
                assert applied == slow, (kind, params, shadow)


def removal_thru(d, site):
    """How a removal site's crossings are spliced out, read off the site:
    straight through for R1 and R2, and for R5 the twist crossing's slots
    joined in the two adjacent pairs that untwist it."""
    if site.kind == "R1_remove":
        matchings = {site.params[0]: ((0, 2), (1, 3))}
    elif site.kind == "R2_remove":
        matchings = {end[0]: ((0, 2), (1, 3)) for end in site.params}
    else:
        c, k = d.partner(site.params)
        matchings = {c: ((k, (k + 1) % 4), ((k + 2) % 4, (k + 3) % 4))}
    thru = {}
    for n, pairs in matchings.items():
        for s, t in pairs:
            thru[(n, s)] = (n, t)
            thru[(n, t)] = (n, s)
    return thru


@pytest.mark.parametrize("d", MOVE_CORPUS)
def test_unguarded_builds_match_the_guarded_moves(d):
    """A search builds the sites ``enumerate_moves`` lists without looking
    them up in the listing; each child equals what ``apply_move`` makes of
    the same site, and is a map that full validation accepts."""
    budget = Budget(max_crossings=d.crossing_count + 2)  # room for every kind
    for shadow in (False, True):
        expected, slid = [], set()
        for site in enumerate_moves(d, ISOTOPY_KINDS, shadow=shadow):
            if site.kind == "R3":  # a search slides each triangle once
                (anchor,) = site.params
                if anchor in slid:
                    continue
                second = d.phi(anchor)
                slid.update((anchor, second, d.phi(second)))
            expected.append((site, apply_move(d, site, shadow=shadow)))
        built = list(_neighbors(d, budget, shadow))
        assert [site for site, _r in built] == [site for site, _r in expected]
        for (site, r), (_site, want) in zip(built, expected):
            assert r._darts == want._darts and r.nodes == want.nodes, site
            assert r.free_loops == want.free_loops, site
            assert r.crossing_count == want.crossing_count, site
            assert Diagram(r.nodes, r.arcs, r.free_loops)._darts == r._darts, site


REMOVALS = ("R1_remove", "R2_remove", "R5_untwist")


@pytest.mark.parametrize("d", MOVE_CORPUS)
def test_removal_moves_match_the_validating_splice(d):
    """Removal moves delete their crossings with the trusted ``splice``;
    the validating ``splice_identify``, which walks an arc dict, is their
    oracle."""
    for shadow in (False, True):
        for site in enumerate_moves(d, REMOVALS, shadow=shadow):
            r = apply_move(d, site, shadow=shadow)
            full = splice_identify(d, removal_thru(d, site))
            assert r.nodes == full.nodes and r.arcs == full.arcs, site
            assert r._darts == full._darts, site
            assert r.free_loops == full.free_loops, site
            assert r.crossing_count == full.crossing_count, site


@pytest.mark.parametrize(
    "d, kind, shadow, free_loops",
    [
        (hopf_link(), "R2_remove", True, 2),  # both circles close up
        (kinked_unknot(1), "R1_remove", False, 1),  # the figure-eight curl
    ],
)
def test_removal_moves_count_trapped_circles(d, kind, shadow, free_loops):
    sites = enumerate_moves(d, (kind,), shadow=shadow)
    assert sites
    for site in sites:
        r = apply_move(d, site, shadow=shadow)
        assert (r.nodes, r.free_loops) == ((), free_loops)
        assert r == splice_identify(d, removal_thru(d, site))


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


def test_the_move_corpus_offers_every_kind():
    for shadow in (False, True):
        kinds = {s.kind for d in MOVE_CORPUS for s in enumerate_moves(d, shadow=shadow)}
        assert kinds == set(MOVE_KINDS) - ({"CrossingChange"} if shadow else set())


@pytest.mark.parametrize("shadow", [False, True])
@pytest.mark.parametrize("d", MOVE_CORPUS)
def test_the_three_anchors_of_a_triangle_slide_it_alike(d, shadow):
    """A search applies only the first R3 site of each triangle."""
    anchors = {s.params[0] for s in enumerate_moves(d, ("R3",), shadow=shadow)}
    triangles = {face for face in d.faces() if face[0] in anchors}
    for face in triangles:
        assert set(face) <= anchors
        slid = [apply_move(d, MoveSite("R3", (a,)), shadow=shadow) for a in face]
        assert len({r.canonical_code() for r in slid}) == 1
        assert len({r.shadow_code() for r in slid}) == 1


def test_move_parameters_of_the_wrong_type_are_rejected():
    d = trefoil()
    deep = ()
    for _ in range(10_000):  # deeper than any recursion could follow
        deep = (deep,)
    for site in (
        MoveSite("R1_add", (0, 0.5, 0)),  # an over parity that is no parity
        MoveSite("R1_add", (0, True, 0)),  # a bool would ride into the node
        MoveSite("R1_add", (0, 0, 2)),
        MoveSite("R2_add", ((0, 1.0), (1, 1), 0)),  # hashes equal to (0, 1)
        MoveSite("R3", ((0.0, 0),)),
        MoveSite("CrossingChange", (True,)),
        MoveSite("R1_add", (0, 0)),  # too few parameters
        MoveSite("R1_add", [0, 0, 0]),  # listed as a tuple, not a list
        MoveSite("R2_add", ([0, 1], (1, 1), 0)),  # a dart as a list
        MoveSite("R3", deep),
        MoveSite("R2_add", (deep, (1, 1), 0)),
        MoveSite(["R1_add"], (0, 0, 0)),  # an unhashable kind
    ):
        with pytest.raises(MoveNotApplicable):
            apply_move(d, site)


_JUNK = st.sampled_from([None, "loop", 0.5, -1, (), "x"])


def _near(x):
    """Parameters like ``x``: each entry kept, made a float or bool, moved
    to a nearby integer or replaced by junk; a tuple also loses an entry or
    becomes a list."""
    if isinstance(x, tuple):
        return st.one_of(
            st.tuples(*map(_near, x)), st.just(x[:-1]), st.just(list(x))
        )
    if isinstance(x, int):
        return st.one_of(
            st.just(x), st.just(float(x)), st.just(x == 1), st.integers(-1, x + 2), _JUNK
        )
    return st.one_of(st.just(x), _JUNK)


# a shape of each kind's parameters, for a diagram that offers no such site
_SHAPES = {
    "R1_remove": (0, 0),
    "R2_remove": ((0, 0), (1, 0)),
    "R5_untwist": (0, 0),
    "R3": ((0, 0),),
    "CrossingChange": (0,),
    "R1_add": (0, 0, 0),
    "R2_add": ((0, 0), (1, 1), 0),
    "R5_twist": (0, 0, 0),
}


@given(st.sampled_from(MOVE_CORPUS), st.sampled_from(MOVE_KINDS), st.booleans(), st.data())
@settings(deadline=None, max_examples=400)
def test_malformed_move_parameters_are_rejected_or_make_a_valid_map(d, kind, shadow, data):
    sites = enumerate_moves(d, (kind,), shadow=shadow)
    shape = data.draw(st.sampled_from(sites)).params if sites else _SHAPES[kind]
    site = MoveSite(kind, data.draw(_near(shape)))
    try:
        r = apply_move(d, site, shadow=shadow)
    except MoveNotApplicable:
        return
    assert Diagram(r.nodes, r.arcs, r.free_loops)._darts == r._darts
    # equal is not enough: 1.0 and True compare equal to 1
    assert all(type(x) is int for arc in r.arcs for dart in arc for x in dart)
    assert all(type(n.over) is int for n in r.nodes if isinstance(n, Crossing))


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


@pytest.mark.parametrize(
    "bad", [[0, 0, 1, 2, 3, 4, 5, 6, 7, 8], [0, 1, 2]], ids=["repeated", "short"]
)
def test_an_edge_order_that_is_not_a_permutation_is_a_format_error(bad):
    g = complete_graph(5)
    with pytest.raises(FormatError, match="edge_order must permute"):
        base_diagram(g, edge_order=bad)
    with pytest.raises(FormatError, match="edge_order must permute"):
        descending_diagram(base_diagram(g).underlying_graph(), bad)


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


ORACLE_SEARCHES = [*MOVE_CORPUS, parse_diagram((DATA / "k5.diagram").read_text())]


@pytest.mark.parametrize(
    "d, shadow",
    [(d, False) for d in ORACLE_SEARCHES] + [(d, True) for d in ORACLE_SEARCHES],
    ids=[f"d{i}" for i in range(len(ORACLE_SEARCHES))]
    + [f"d{i}-shadow" for i in range(len(ORACLE_SEARCHES))],
)
def test_search_matches_the_diagram_queue_oracle(d, shadow):
    # from a state cap that stops the search before its first expansion
    # up to caps that let the smaller searches run out of states
    key = _state_key(shadow)
    for cap in (d.crossing_count, d.crossing_count + 2):
        for max_states in (1, 2, 6, 7, 50, 500):
            for stop_at in (None, 0):
                budget = Budget(max_crossings=cap, max_states=max_states)
                r = search_min_crossings(d, budget, stop_at, shadow)
                best, states, exhausted = queued_search_min_crossings(
                    d, budget, stop_at, shadow
                )
                assert (key(r.best), r.states, r.exhausted) == (
                    key(best),
                    states,
                    exhausted,
                ), (cap, max_states, stop_at)


def test_k5_search_keeps_few_bytes_a_state():
    # a search that queued whole diagrams peaked at 2,203 B a state here;
    # a waiting state that keeps only its shared parent and its site, 1,258
    d = parse_diagram((DATA / "k5.diagram").read_text())
    tracemalloc.start()
    try:
        r = search_min_crossings(d, Budget(max_states=5000))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.states == 5089
    assert peak / r.states <= 1600


def test_equivalent_within_tests_max_states_after_each_expansion():
    # the trefoil and its mirror are separated by 11 states within 4 crossings
    def run(max_states):
        r = equivalent_within(
            trefoil(), mirror_diagram(trefoil()), Budget(max_crossings=4, max_states=max_states)
        )
        return r.equivalent, r.states, r.exhausted

    # the first batch is always expanded; it takes the kinds that add no
    # crossing, which offer the alternating trefoil no site
    assert run(1) == (None, 2, False)
    assert run(11) == (None, 11, False)
    assert run(12) == (False, 11, True)


def test_the_hopf_kink_bigon_perturbations_come_with_a_path():
    hopf = hopf_link()
    for perturbed in HOPF_KINK_BIGON:
        budget = Budget(max_crossings=perturbed.crossing_count, max_states=100_000)
        res = equivalent_within(hopf, perturbed, budget)
        assert res.equivalent is True
        assert res.path is not None and _replays(hopf, perturbed, res.path, False)


def test_a_shadow_path_replays_to_the_target_shadow():
    # case 252 of the descending acceptance test, a loop at one of four
    # vertices: a shadow search's steps are listed over 0, so the walk back
    # spells each undo site over 0, whatever the crossing it rebuilds had
    from test_acceptance import descending_pair

    dd1, dd2 = descending_pair(252)
    assert dd1.canonical_code() != dd2.canonical_code()
    cap = max(dd1.crossing_count, dd2.crossing_count) + 2
    res = cc_equivalent_within(dd1, dd2, Budget(max_crossings=cap, max_states=100_000))
    assert res.equivalent is True
    assert res.path is not None
    assert _replays(dd1, dd2, res.path, shadow=True)


def _replays(d1, d2, path, shadow):
    """``path`` leads from ``d1`` to ``d2``, or to its shadow."""
    end = replay_path(d1, path, shadow=shadow)
    return end.canonical_code() == (d2.shadow_code() if shadow else d2.canonical_code())


def _agrees_with_the_level_order_search(d1, d2, budget, shadow):
    res = equivalent_within(d1, d2, budget, shadow=shadow)
    verdict, _states = level_order_equivalent(d1, d2, budget, shadow=shadow)
    assert verdict is not None, "the budget must let both searches finish"
    assert res.equivalent is verdict
    # one answer shape: a path exactly when the diagrams are equivalent
    assert (res.path is not None) == (res.equivalent is True)
    if res.path is not None:
        assert _replays(d1, d2, res.path, shadow)


@pytest.mark.parametrize("shadow", [False, True])
def test_the_move_corpus_verdicts_match_the_level_order_search(shadow):
    # within the larger crossing count of the two, most pairs are separated
    # only once a side has run out of states, which any order reaches
    for d1, d2 in itertools.combinations(MOVE_CORPUS, 2):
        cap = max(d1.crossing_count, d2.crossing_count)
        budget = Budget(max_crossings=cap, max_states=100_000)
        _agrees_with_the_level_order_search(d1, d2, budget, shadow)


@pytest.mark.parametrize("shadow", [False, True])
def test_descending_verdicts_match_the_level_order_search(shadow):
    from test_acceptance import DESCENDING_GRAPHS, descending_pair

    for case in range(10, len(DESCENDING_GRAPHS) + 1, 10):
        dd1, dd2 = descending_pair(case)
        cap = max(dd1.crossing_count, dd2.crossing_count) + 2
        budget = Budget(max_crossings=cap, max_states=100_000)
        _agrees_with_the_level_order_search(dd1, dd2, budget, shadow)


def test_the_descending_tail_pair_meets_within_300_states():
    # case 333 of the descending acceptance test: expanding whole levels,
    # the search spent 1,952 states, most of them on the 85-113 neighbours
    # each of 4-crossing states far from where the two sides meet
    from test_acceptance import descending_pair

    dd1, dd2 = descending_pair(333)
    cap = max(dd1.crossing_count, dd2.crossing_count) + 2
    budget = Budget(max_crossings=cap, max_states=100_000)
    res = cc_equivalent_within(dd1, dd2, budget)
    assert res.equivalent is True
    assert res.states <= 300
    assert res.path is not None and _replays(dd1, dd2, res.path, shadow=True)
    assert level_order_equivalent(dd1, dd2, budget, shadow=True) == (True, 1952)


def test_simplify_stops_at_no_crossings_without_vertices(monkeypatch):
    # the kinked unknot reaches 0 crossings after 15 states; searched to
    # the end within 5 crossings it takes 3,050
    import graphknot.moves as moves

    states = []
    search = moves.search_min_crossings

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        states.append(result.states)
        return result

    monkeypatch.setattr(moves, "search_min_crossings", counted)
    d = kinked_unknot(2)
    best = simplify(d, Budget(max_crossings=5, max_states=5_000))
    assert states == [15]
    assert best.canonical_code() == unknot().canonical_code()
    full = search(d, Budget(max_crossings=4, max_states=5_000))
    assert full.exhausted
    assert simplify(d, Budget(max_crossings=4, max_states=5_000)) == full.best.canonical_form()
