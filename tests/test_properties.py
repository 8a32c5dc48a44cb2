"""Property-based invariants: algebra laws, round trips, move reversibility."""

import contextlib
import copy
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from graphknot import (
    ISOTOPY_KINDS,
    GraphKnotError,
    InvalidVertexError,
    LaurentPoly,
    MoveNotApplicable,
    MoveSite,
    Multigraph,
    RationalTangle,
    apply_move,
    automorphisms,
    diagram_to_text,
    disjoint_union_diagrams,
    enumerate_moves,
    graph_to_text,
    kauffman_bracket,
    parse_diagram,
    parse_graph,
    path_graph,
    verify_certificate,
)
from graphknot.cli import main
from graphknot.criterion import VerifyReport
from graphknot.diagram import Crossing, Diagram, Vertex
from graphknot.gallery import figure_eight, hopf_link, k4_diagram, k5_diagram, linked_triangles
from graphknot.layout import base_diagram
from graphknot.moves import _KINDS, _spelled, normalize_shadow
from graphknot.tangle import normalize_fraction, tangle_from_fraction
from oracles import (
    arc_partners,
    bracket_state_sum,
    brute_force_automorphisms,
    group_elements,
    mirror_diagram,
    monomial,
    shifted,
)
from test_moves import GATED_BIGONS, MOVE_CORPUS


# -- strategies -------------------------------------------------------------------


laurent_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(LaurentPoly)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 6))
    edges = tuple(
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    )
    return Multigraph(n, edges)


@st.composite
def link_diagrams(draw):
    word = tuple(draw(st.lists(st.integers(-3, 3), max_size=4)))
    d = RationalTangle(word).closure_n()
    for _ in range(draw(st.integers(0, 2))):
        sites = enumerate_moves(d, ("R1_add", "R2_add"))
        if not sites:
            break
        d = apply_move(d, sites[draw(st.integers(0, len(sites) - 1))])
    return d


@st.composite
def graph_diagrams(draw):
    return base_diagram(draw(multigraphs()))


# -- Laurent polynomial ring laws ------------------------------------------------


@given(laurent_polys, laurent_polys, laurent_polys)
def test_laurent_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly()
    # equal polynomials hash equal, however their terms were summed; and a
    # polynomial equals no int, whose hash it does not share
    assert hash((a + b) - b) == hash(a)
    assert LaurentPoly({0: 3}) != 3 and len({LaurentPoly({0: 3}), 3}) == 2


@given(laurent_polys, st.integers(-5, 5))
def test_laurent_shift_is_monomial_multiplication(a, e):
    assert shifted(a, e) == a * monomial(1, e)


@given(laurent_polys, laurent_polys)
def test_span_is_additive_for_products(a, b):
    if a and b:
        assert (a * b).span == a.span + b.span


# -- fractions ---------------------------------------------------------------------


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_normalize_fraction_is_idempotent(p, q):
    assume(p or q)
    f = normalize_fraction(p, q)
    assert normalize_fraction(*f) == f


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_normal_form_realizes_the_fraction(p, q):
    assume(p or q)
    f = normalize_fraction(p, q)
    t = tangle_from_fraction(f)
    assert t.fraction() == f
    assert t.normal_form() == t


@given(st.lists(st.integers(-4, 4), max_size=5))
def test_fraction_survives_normalization(word):
    t = RationalTangle(tuple(word))
    assert t.normal_form().fraction() == t.fraction()


@given(st.lists(st.integers(-4, 4), max_size=5))
def test_mirror_is_an_involution(word):
    t = RationalTangle(tuple(word))
    assert t.mirror().mirror() == t
    p, q = t.fraction()
    assert t.mirror().fraction() == normalize_fraction(-p, q)


# -- serialization round trips --------------------------------------------------


@given(multigraphs())
def test_graph_text_round_trip(g):
    assert parse_graph(graph_to_text(g)) == g


@st.composite
def loopy_multigraphs(draw):
    # few edges over few vertex pairs, so loops, parallel edges and
    # non-trivial groups are common
    n = draw(st.integers(0, 6))
    if n == 0:
        return Multigraph(0, ())
    vertex = st.integers(0, n - 1)
    return Multigraph(n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=9))))


@given(loopy_multigraphs())
@settings(deadline=None)
def test_stabilizer_chain_matches_brute_force_on_multigraphs(g):
    fast = automorphisms(g)
    slow = brute_force_automorphisms(g)
    assert fast.order == slow.order
    assert fast.orbits() == slow.orbits()
    assert group_elements(fast) == set(slow.generators)


@given(st.one_of(link_diagrams(), graph_diagrams()))
@settings(deadline=None)
def test_diagram_text_round_trip(d):
    assert parse_diagram(diagram_to_text(d)).canonical_code() == d.canonical_code()


# -- canonical codes ----------------------------------------------------------------


# Reference implementations: the map structure computed the slow, obvious way,
# and the canonical code as the least full trace over every dart of each
# component.  ``Diagram`` prunes roots by their head and drops a trace once a
# row of it loses to another root's; its answers must be exactly these.


def reference_faces(d):
    pair = arc_partners(d)

    def phi(dart):
        n, s = pair[dart]
        return (n, (s + 1) % d.degree_of(n))

    remaining = set(pair)
    out = []
    while remaining:
        start = min(remaining)
        orbit = [start]
        remaining.discard(start)
        dart = phi(start)
        while dart != start:
            orbit.append(dart)
            remaining.discard(dart)
            dart = phi(dart)
        out.append(tuple(orbit))
    return tuple(sorted(out))


def reference_components(d):
    parent = list(range(len(d.nodes)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in d.arcs:
        parent[find(a[0])] = find(b[0])
    groups = {}
    for n in range(len(d.nodes)):
        groups.setdefault(find(n), set()).add(n)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def reference_trace(d, root):
    """(code, node order, slot origins) of the full trace from ``root``."""
    pair = arc_partners(d)
    number = {root[0]: 0}
    origin = {root[0]: root[1]}
    order = [root[0]]
    code = []
    i = 0
    while i < len(order):
        n = order[i]
        i += 1
        node = d.nodes[n]
        if isinstance(node, Crossing):
            head = ("x", (node.over - origin[n]) % 2)
        else:
            head = ("v", node.label, node.degree)
        row = []
        for k in range(d.degree_of(n)):
            m, t = pair[(n, (origin[n] + k) % d.degree_of(n))]
            if m not in number:
                number[m] = len(order)
                origin[m] = t
                order.append(m)
            row.append((number[m], (t - origin[m]) % d.degree_of(m)))
        code.append((head, tuple(row)))
    return tuple(code), order, origin


def reference_least_traces(d):
    pieces = []
    for comp in reference_components(d):
        darts = [(n, s) for n in sorted(comp) for s in range(d.degree_of(n))]
        if not darts:
            n = min(comp)
            node = d.nodes[n]
            pieces.append((((("isolated", node.label, node.degree), ()),), [n], {n: 0}))
            continue
        best = None
        for dart in darts:
            traced = reference_trace(d, dart)
            if best is None or traced[0] < best[0]:
                best = traced
        pieces.append(best)
    return sorted(pieces, key=lambda p: p[0])


def reference_canonical_code(d):
    return (tuple(p[0] for p in reference_least_traces(d)), d.free_loops)


def flat(key):
    """A reference key ``(component codes, free loops)`` in the form
    ``canonical_code`` gives it: each code, a tuple of rows ``(head,
    cells)``, written out as one flat tuple of each row's head fields and
    then its cells' ``q, r`` values."""
    codes, loops = key
    return (
        tuple(
            tuple(x for head, cells in code for x in (*head, *(v for c in cells for v in c)))
            for code in codes
        ),
        loops,
    )


def reference_canonical_form(d):
    new_index, origins, nodes = {}, {}, []
    for _code, order, origin in reference_least_traces(d):
        for n in order:
            new_index[n] = len(nodes)
            origins[n] = origin[n]
            node = d.nodes[n]
            if isinstance(node, Crossing):
                node = Crossing((node.over - origin[n]) % 2)
            nodes.append(node)

    def remap(dart):
        n, s = dart
        return (new_index[n], (s - origins[n]) % d.degree_of(n))

    return Diagram(nodes, [(remap(a), remap(b)) for a, b in d.arcs], d.free_loops)


PLANAR_MOVES = ("R1_add", "R1_remove", "R2_add", "R2_remove", "R3")


@given(st.one_of(link_diagrams(), graph_diagrams()), st.lists(st.integers(0, 10_000), max_size=2))
@settings(deadline=None)
def test_map_structure_and_canonical_form_match_the_references(d, picks):
    for pick in picks:
        sites = enumerate_moves(d, PLANAR_MOVES)
        if sites:
            d = apply_move(d, sites[pick % len(sites)])
    assert {x: d.partner(x) for x in d.darts()} == arc_partners(d)
    assert d.faces() == reference_faces(d)
    assert d.components() == reference_components(d)
    assert d.canonical_code() == flat(reference_canonical_code(d))
    assert d.canonical_form() == reference_canonical_form(d)



@given(st.one_of(link_diagrams(), graph_diagrams()), st.randoms())
@settings(deadline=None)
def test_canonical_code_ignores_arc_order(d, rng):
    arcs = list(d.arcs)
    rng.shuffle(arcs)
    shuffled = Diagram(d.nodes, arcs, d.free_loops)
    assert shuffled.canonical_code() == d.canonical_code()


@given(st.one_of(link_diagrams(), graph_diagrams()))
@settings(deadline=None)
def test_canonical_form_is_idempotent(d):
    c = d.canonical_form()
    assert c.canonical_code() == d.canonical_code()
    assert c.canonical_form().canonical_code() == c.canonical_code()


# -- parity updates share the map ---------------------------------------------------


@given(st.one_of(link_diagrams(), graph_diagrams()), st.data())
@settings(deadline=None)
def test_parity_updates_match_a_full_construction(d, data):
    overs = data.draw(
        st.dictionaries(st.sampled_from(d.crossings()), st.integers(0, 1))
        if d.crossings()
        else st.just({})
    )
    fast = d.with_parities(overs)
    slow = Diagram(
        [Crossing(overs[n]) if n in overs else node for n, node in enumerate(d.nodes)],
        d.arcs,
        d.free_loops,
    )
    assert fast == slow
    assert all(fast.partner(x) == slow.partner(x) for x in d.darts())
    assert fast.faces() == slow.faces()
    assert fast.components() == slow.components()
    assert fast.crossing_count == slow.crossing_count
    assert fast.canonical_code() == slow.canonical_code()
    assert fast.shadow_code() == slow.shadow_code()
    for v in d.vertices():
        with pytest.raises(InvalidVertexError):
            d.with_parities({v: 0})


# -- shadow codes -------------------------------------------------------------------


def reference_shadow_code(d):
    """The least trace over every dart of each component with every crossing
    head made ``("x", 0)``, each trace run to its end."""
    pieces = []
    for comp in reference_components(d):
        darts = [(n, s) for n in sorted(comp) for s in range(d.degree_of(n))]
        if not darts:
            node = d.nodes[min(comp)]
            pieces.append(((("isolated", node.label, node.degree), ()),))
            continue
        traces = []
        for dart in darts:
            code = reference_trace(d, dart)[0]
            traces.append(tuple((("x", 0) if h[0] == "x" else h, row) for h, row in code))
        pieces.append(min(traces))
    return (tuple(sorted(pieces)), d.free_loops)


@given(st.one_of(link_diagrams(), graph_diagrams()), st.data())
@settings(deadline=None)
def test_shadow_code_is_the_code_of_the_shadow(d, data):
    overs = data.draw(st.fixed_dictionaries({n: st.integers(0, 1) for n in d.crossings()}))
    switched = d.with_parities(overs)
    fresh = Diagram(switched.nodes, switched.arcs, switched.free_loops)  # nothing cached
    assert switched.shadow_code() == d.shadow_code() == fresh.shadow_code()
    assert fresh.shadow_code() == flat(reference_shadow_code(fresh))
    assert normalize_shadow(fresh).canonical_code() == fresh.shadow_code()
    # a shadow search is offered one R2_add of each twin pair (u1, u2, 0) and
    # (u2, u1, 0); the one it skips makes the same shadow.  Only the plain
    # listing offers both, and a build does not read ``shadow``.
    kept = {site.params for site in enumerate_moves(fresh, ("R2_add",), shadow=True)}
    for site in enumerate_moves(fresh, ("R2_add",)):
        if site.params[2] != 0 or site.params in kept:
            continue
        u1, u2, _ = site.params
        twin = MoveSite("R2_add", (u2, u1, 0))
        assert twin.params in kept
        skipped = apply_move(fresh, site).shadow_code()
        assert skipped == apply_move(fresh, twin).shadow_code()


def sequential_shadow_traces(d):
    """Per component: the least shadow trace, its node order and slot
    origins, and how many roots tie for it.  Every dart is a root, traced to
    its end in dart order, and the first to reach the least code wins."""
    pieces = []
    for comp in reference_components(d):
        best, ties = None, 0
        for dart in [(n, s) for n in sorted(comp) for s in range(d.degree_of(n))]:
            code, order, origin = reference_trace(d, dart)
            code = tuple((("x", 0) if h[0] == "x" else h, row) for h, row in code)
            if best is None or code < best[0]:
                best, ties = (code, order, origin), 1
            elif code == best[0]:
                ties += 1
        if best is None:  # an isolated vertex
            node = d.nodes[min(comp)]
            best, ties = (((("isolated", node.label, node.degree), ()),), [min(comp)], {}), 1
        pieces.append((best, ties))
    return pieces


# labels whose text order differs from the order they are listed in
LABELS = ("1", "10", "2", "a", "B", "b", "A", "01", "9", "x")


@st.composite
def relabelled_graph_diagrams(draw):
    """A graph diagram beside up to two isolated vertices, in either
    order, with its vertices relabelled by a drawn permutation of
    ``LABELS``, so that label order and node order differ."""
    d = draw(graph_diagrams())
    isolated = Diagram([Vertex(f"i{k}", 0) for k in range(draw(st.integers(0, 2)))], [])
    d = disjoint_union_diagrams(*draw(st.permutations((d, isolated))))
    labels = iter(draw(st.permutations(LABELS)))
    nodes = [Vertex(next(labels), n.degree) if isinstance(n, Vertex) else n for n in d.nodes]
    return Diagram(nodes, d.arcs, d.free_loops)


def renumbered(d, perm):
    """``d`` with node ``n`` moved to index ``perm[n]``."""
    nodes = [None] * len(d.nodes)
    for n, node in enumerate(d.nodes):
        nodes[perm[n]] = node
    arcs = [((perm[a[0]], a[1]), (perm[b[0]], b[1])) for a, b in d.arcs]
    return Diagram(nodes, arcs, d.free_loops)


# T(2,n) closures have maps with symmetries, so several roots of a trace tie
# for the least code.  The least traces find each component themselves, so
# the corpus also has vertices whose label order is not their node order,
# isolated vertices, crossing-only components before or after vertex
# components, and link diagrams whose crossings are renumbered, so that a
# walk from the least node meets them out of node order.
tied_diagrams = st.one_of(
    st.integers(2, 7).map(lambda n: RationalTangle((n,)).closure_n()),
    st.integers(2, 7).map(lambda n: RationalTangle((n,)).closure_d()),
    st.just(k5_diagram()),
    link_diagrams(),
    graph_diagrams(),
    relabelled_graph_diagrams(),
    st.permutations((graph_diagrams(), link_diagrams())).flatmap(
        lambda pair: st.builds(disjoint_union_diagrams, *pair)
    ),
    st.one_of(st.integers(3, 7).map(lambda n: RationalTangle((n,)).closure_n()), link_diagrams())
    .flatmap(lambda d: st.permutations(range(len(d.nodes))).map(lambda p: renumbered(d, p))),
    # a walk from node 0 meets the tied least roots of these out of node order
    st.sampled_from([
        renumbered(RationalTangle((3,)).closure_d(), (1, 0, 2)),
        renumbered(RationalTangle((4,)).closure_d(), (1, 2, 0, 3)),
    ]),
)


@given(tied_diagrams, st.data())
@settings(deadline=None)
def test_lock_step_traces_match_a_sequential_reference(d, data):
    overs = data.draw(st.fixed_dictionaries({n: st.integers(0, 1) for n in d.crossings()}))
    d = Diagram(d.with_parities(overs).nodes, d.arcs, d.free_loops)
    pieces = sequential_shadow_traces(d)
    codes = sorted(code for (code, _order, _origin), _ties in pieces)
    assert d.shadow_code() == flat((tuple(codes), d.free_loops))
    assert d.shadow_parities() == {
        n: origin[n] % 2
        for (_code, order, origin), _ties in pieces
        for n in order
        if isinstance(d.nodes[n], Crossing)
    }
    # in component order, the first root in dart order to reach its
    # component's least trace wins: the same node order and slot origins
    assert [(order, [origin[n] for n in order]) for _c, order, origin in d._least_traces(True)] == [
        (order, [origin.get(n, 0) for n in order]) for (_c, order, origin), _ties in pieces
    ]
    assert d.canonical_code() == flat(reference_canonical_code(d))
    assert d.canonical_form() == reference_canonical_form(d)


@given(st.one_of(link_diagrams(), graph_diagrams()), st.data())
@settings(deadline=None)
def test_flat_codes_sort_as_the_nested_references(a, data):
    """Searches break ties by code order, so the flat codes must sort
    exactly as the nested reference codes do.  ``b`` is another diagram, or
    ``a`` one move on or with other parities, so that codes can agree far
    into their rows."""
    b = data.draw(
        st.one_of(
            link_diagrams(),
            graph_diagrams(),
            st.sampled_from(enumerate_moves(a, ISOTOPY_KINDS) or [None]),
            st.fixed_dictionaries({n: st.integers(0, 1) for n in a.crossings()}),
        )
    )
    if b is None:
        b = a
    elif isinstance(b, MoveSite):
        b = apply_move(a, b)
    elif isinstance(b, dict):
        b = a.with_parities(b)
    for key, reference in (
        (Diagram.canonical_code, reference_canonical_code),
        (Diagram.shadow_code, reference_shadow_code),
    ):
        ka, kb, ra, rb = key(a), key(b), reference(a), reference(b)
        assert (ka < kb, ka == kb, kb < ka) == (ra < rb, ra == rb, rb < ra)


def test_a_trusted_childs_keys_find_no_components():
    """The least traces find each component themselves, so a child
    that a move builds on trust never computes ``components()``."""
    d = disjoint_union_diagrams(k5_diagram(), hopf_link())
    for site in enumerate_moves(d, ISOTOPY_KINDS):
        child = apply_move(d, site)
        child.canonical_code()
        child.shadow_code()
        assert child._components is None, site


def test_the_lock_step_corpus_has_tied_roots():
    for d in (RationalTangle((5,)).closure_n(), RationalTangle((5,)).closure_d()):
        assert any(ties > 1 for _trace, ties in sequential_shadow_traces(d))


# -- moves --------------------------------------------------------------------------


GROW_TO_SHRINK = {
    "R1_add": "R1_remove",
    "R2_add": "R2_remove",
    "R5_twist": "R5_untwist",
}


@given(st.one_of(link_diagrams(), graph_diagrams()), st.integers(0, 10_000))
@settings(deadline=None)
def test_growing_moves_can_be_undone(d, pick):
    sites = enumerate_moves(d, tuple(GROW_TO_SHRINK))
    if not sites:
        return
    site = sites[pick % len(sites)]
    grown = apply_move(d, site)
    shrunk = {
        apply_move(grown, back).canonical_code()
        for back in enumerate_moves(grown, (GROW_TO_SHRINK[site.kind],))
    }
    assert d.canonical_code() in shrunk


@st.composite
def grown_diagrams(draw):
    """A move-corpus, link or graph diagram with up to three kinks, pokes,
    slides or twists added, so that bigons meet kinks, loops and vertices."""
    corpus = st.sampled_from(MOVE_CORPUS + GATED_BIGONS)
    d = draw(st.one_of(corpus, link_diagrams(), graph_diagrams()))
    for _ in range(draw(st.integers(0, 3))):
        sites = enumerate_moves(d, ("R1_add", "R2_add", "R3", "R5_twist"))
        if not sites or d.crossing_count > 8:
            break
        d = apply_move(d, sites[draw(st.integers(0, len(sites) - 1))])
    return d


@given(grown_diagrams(), st.booleans())
@settings(deadline=None, max_examples=150)
def test_every_listed_r2_removal_has_an_r2_add_inverse(d, shadow):
    """Some ``R2_add`` of the child, loop pokes included, rebuilds the
    parent's state key: a search can walk back every removal it takes."""
    key = Diagram.shadow_code if shadow else Diagram.canonical_code
    for site in enumerate_moves(d, ("R2_remove",), shadow=shadow):
        child = apply_move(d, site, shadow=shadow)
        rebuilt = {
            key(apply_move(child, back, shadow=shadow))
            for back in enumerate_moves(child, ("R2_add",), shadow=shadow)
        }
        assert key(d) in rebuilt, site


@given(grown_diagrams(), st.booleans(), st.integers(0, 10_000))
@settings(deadline=None, max_examples=150)
def test_a_listed_site_of_each_kind_is_undone_by_its_undo_site(d, shadow, pick):
    """For one listed site of each isotopy kind, the undo site its kind's
    entry names is listed on the child, spelled as the listing spells it,
    and its build has the parent's state key."""
    key = Diagram.shadow_code if shadow else Diagram.canonical_code
    for kind in ISOTOPY_KINDS:
        sites = enumerate_moves(d, (kind,), shadow=shadow)
        if not sites:
            continue
        site = sites[pick % len(sites)]
        child = apply_move(d, site, shadow=shadow)
        back = _spelled(child, _KINDS[kind][2](d, site.params), shadow)
        assert back in enumerate_moves(child, (back.kind,), shadow=shadow), (site, back)
        assert key(apply_move(child, back, shadow=shadow)) == key(d), (site, back)


def isotopy_neighbours(d, image=lambda nd: nd):
    """The canonical codes of ``image`` of every diagram one isotopy move
    from ``d``."""
    codes = set()
    for site in enumerate_moves(d, ISOTOPY_KINDS):
        try:
            codes.add(image(apply_move(d, site)).canonical_code())
        except MoveNotApplicable:
            pass
    return codes


@given(st.one_of(link_diagrams(), graph_diagrams()), st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_the_mirror_image_has_the_mirrored_neighbours(d, pick):
    """The moves offered at a diagram's mirror image are the mirror images of
    the moves offered at the diagram, so move searches from the two explore
    mirror-image sets, of the same size and crossing counts."""
    sites = enumerate_moves(d, ISOTOPY_KINDS)
    if sites:
        with contextlib.suppress(MoveNotApplicable):
            d = apply_move(d, sites[pick % len(sites)])
    if d.crossing_count > 8:
        return
    assert isotopy_neighbours(mirror_diagram(d)) == isotopy_neighbours(d, mirror_diagram)


@given(link_diagrams(), st.integers(0, 10_000))
@settings(deadline=None, max_examples=40)
def test_bracket_survives_second_and_third_moves(d, pick):
    if d.crossing_count > 8:
        return
    sites = enumerate_moves(d, ("R2_add", "R2_remove", "R3"))
    if not sites:
        return
    site = sites[pick % len(sites)]
    assert kauffman_bracket(apply_move(d, site)) == kauffman_bracket(d)


@given(link_diagrams(), st.integers(0, 10_000))
@settings(deadline=None, max_examples=40)
def test_bracket_contraction_matches_the_state_sum_after_moves(d, pick):
    sites = enumerate_moves(d, ("R2_add", "R2_remove", "R3"))
    if sites:
        d = apply_move(d, sites[pick % len(sites)])
    if d.crossing_count <= 12 and (d.crossing_count or d.free_loops):
        assert kauffman_bracket(d) == bracket_state_sum(d)


# -- the certificate trust boundary ------------------------------------------------


DATA = Path(__file__).resolve().parent.parent / "data"
K5_CERTIFICATE = json.loads((DATA / "k5_certificate.json").read_text())


def leaf_paths(node, path=()):
    """Key/index paths to every scalar of a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in leaf_paths(child, path + (key,))]


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**63, -(2**63)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@given(st.sampled_from(leaf_paths(K5_CERTIFICATE)), json_values)
@settings(deadline=None, max_examples=300)
def test_verify_survives_any_value_at_any_certificate_leaf(path, value):
    data = copy.deepcopy(K5_CERTIFICATE)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        report = verify_certificate(data)
    except GraphKnotError:
        return
    assert isinstance(report, VerifyReport)


# -- hostile input through the command line ------------------------------------------


K5_DIAGRAM_LINES = (DATA / "k5.diagram").read_text().splitlines()

# tokens that Python's ``int`` reads as integers and the text formats do not
NOT_ASCII_INTEGERS = ["٣", "１", "1_0", "+1"]

tokens = st.one_of(
    st.sampled_from(
        ["diagram", "vertex", "crossing", "arc", "loop", "02", "13", "0", "4", "5",
         "-1", "99", "0.0", "5.3", "4.9", "6.0", "-1.2", "1.", ".", "#", "x",
         "graph", "edge", *NOT_ASCII_INTEGERS]
    ),
    st.text(max_size=6),
)


@st.composite
def line_edits(draw, lines):
    """``lines`` after one to three edits: a line deleted, duplicated,
    swapped with another or replaced, or one of its tokens replaced."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "replace", "token")))
        if not lines:
            lines.append(draw(st.text(max_size=12)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "replace":
            lines[i] = " ".join(draw(st.lists(tokens, min_size=1, max_size=3)))
        else:
            fields = lines[i].split() or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(tokens)
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def run_on_stdin(argv, text):
    """Exit code and stderr of the command line run in process on ``text``."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@given(line_edits(K5_DIAGRAM_LINES))
@settings(deadline=None, max_examples=150)
def test_criterion_survives_line_edits_of_a_diagram(text):
    code, err = run_on_stdin(["criterion", "-", "--json"], text)
    assert code in (0, 1, 2) and "Traceback" not in err


@given(line_edits(K5_CERTIFICATE["diagram"].splitlines()))
@settings(deadline=None, max_examples=150)
def test_verify_survives_line_edits_of_the_embedded_diagram(text):
    data = dict(K5_CERTIFICATE, diagram=text)
    code, err = run_on_stdin(["verify", "-", "--json"], json.dumps(data))
    assert code in (0, 1, 2) and "Traceback" not in err


# -- hostile diagram files ---------------------------------------------------------


BOUNDARY_CORPUS = [
    hopf_link(),
    figure_eight(),
    k4_diagram(),
    k5_diagram(),
    linked_triangles(),
    RationalTangle((2, -1)).closure_d(),
]


@given(st.sampled_from(BOUNDARY_CORPUS).flatmap(
    lambda d: line_edits(diagram_to_text(d).splitlines())
))
@settings(deadline=None, max_examples=300)
def test_diagram_text_is_read_or_rejected(text):
    try:
        d = parse_diagram(text)
    except GraphKnotError:
        return
    text = diagram_to_text(d)
    back = parse_diagram(text)
    assert back == d and diagram_to_text(back) == text


@given(st.sampled_from([d for d in BOUNDARY_CORPUS if not d.vertices()]).flatmap(
    lambda d: line_edits(diagram_to_text(d).splitlines())
))
@settings(deadline=None, max_examples=150)
def test_invariant_survives_line_edits_of_a_link_diagram(text):
    code, err = run_on_stdin(["invariant", "-", "--json"], text)
    assert code in (0, 1, 2) and "Traceback" not in err


# searches small enough for a fuzz: the default budget runs out of memory first
small_budgets = st.tuples(st.integers(0, 6), st.integers(0, 300)).map(
    lambda b: ["--budget-crossings", str(b[0]), "--budget-states", str(b[1])]
)


@given(st.sampled_from(BOUNDARY_CORPUS).flatmap(
    lambda d: line_edits(diagram_to_text(d).splitlines())
), small_budgets)
@settings(deadline=None, max_examples=300)
def test_simplify_survives_line_edits_of_a_diagram(text, budget):
    code, err = run_on_stdin(["simplify", "-", "--json", *budget], text)
    assert code in (0, 1, 2) and "Traceback" not in err


# -- hostile graph files and twist words ----------------------------------------------


GRAPH_TEXTS = [
    (DATA / "k4.graph").read_text(),
    (DATA / "k5.graph").read_text(),
    graph_to_text(path_graph(11)),
]


@given(st.sampled_from(GRAPH_TEXTS).flatmap(lambda text: line_edits(text.splitlines())))
@settings(deadline=None, max_examples=300)
def test_graph_text_is_read_or_rejected(text):
    try:
        g = parse_graph(text)
    except GraphKnotError:
        return
    assert parse_graph(graph_to_text(g)) == g


@given(st.sampled_from(GRAPH_TEXTS).flatmap(lambda text: line_edits(text.splitlines())))
@settings(deadline=None, max_examples=150)
def test_aut_survives_line_edits_of_a_graph(text):
    code, err = run_on_stdin(["aut", "-", "--json"], text)
    assert code in (0, 1, 2) and "Traceback" not in err


@given(st.sampled_from(GRAPH_TEXTS).flatmap(lambda text: line_edits(text.splitlines())),
       small_budgets)
@settings(deadline=None, max_examples=300)
def test_crossing_number_survives_line_edits_of_a_graph(text, budget):
    code, err = run_on_stdin(["crossing-number", "-", "--json", *budget], text)
    assert code in (0, 1, 2) and "Traceback" not in err


twist_tokens = st.one_of(
    st.integers(-30, 30).map(str),
    st.sampled_from(["inf", "infinity", "-", "x", "1.5", *NOT_ASCII_INTEGERS]),
    st.text(max_size=4),
)


@given(st.lists(twist_tokens, max_size=6).map(" ".join))
@settings(deadline=None, max_examples=300)
def test_tangle_survives_any_word(word):
    code, err = run_on_stdin(["tangle", word], "")
    assert code in (0, 1, 2) and "Traceback" not in err
