"""Multigraphs, automorphisms, and the symmetric-product decomposition."""

import itertools
import time

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from graphknot import (
    FormatError,
    InvalidVertexError,
    Minimalizability,
    Multigraph,
    Permutation,
    SizeLimitExceeded,
    automorphisms,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graph_to_text,
    minimalizability,
    one_point_union,
    parse_graph,
    path_graph,
    simple_cycles,
    symmetric_product_orbits,
)
from oracles import brute_force_automorphisms, group_elements


# group orders worked out by hand: Aut(K_n) = S_n, Aut(K_{m,m}) doubles the
# side swap, a path only reverses, a cycle is dihedral
AUT_ORDERS = [
    (complete_graph(5), 120),
    (complete_graph(4), 24),
    (complete_bipartite(3, 3), 72),
    (complete_bipartite(2, 3), 12),
    (path_graph(3), 2),
    (path_graph(4), 2),
    (cycle_graph(4), 8),
    (cycle_graph(5), 10),
    (Multigraph(1, []), 1),
    (Multigraph(2, [(0, 1), (0, 1)]), 2),
]


@pytest.mark.parametrize("g,order", AUT_ORDERS)
def test_automorphism_orders(g, order):
    assert automorphisms(g).order == order


def _mapped_edges(g: Multigraph, p: Permutation) -> list[tuple[int, int]]:
    return sorted(tuple(sorted((p(u), p(v)))) for u, v in g.edges)


@pytest.mark.parametrize("g,order", AUT_ORDERS)
def test_backtracking_agrees_with_brute_force(g, order):
    fast = automorphisms(g)
    slow = brute_force_automorphisms(g)
    assert fast.order == slow.order == order
    assert fast.orbits() == slow.orbits()
    assert group_elements(fast) == set(slow.generators)


def test_automorphism_guard_at_its_edge():
    assert automorphisms(path_graph(10)).order == 2
    with pytest.raises(SizeLimitExceeded):
        automorphisms(path_graph(11))


@pytest.mark.parametrize("g", [complete_graph(10), Multigraph(10, [])])
def test_the_largest_group_under_the_guard(g):
    # 10! elements, never listed: one generator per coset of the chain
    start = time.monotonic()
    aut = automorphisms(g)
    assert time.monotonic() - start < 1
    assert aut.order == 3628800
    assert len(aut.generators) == 45
    assert aut.orbits() == [frozenset(range(10))]


def test_automorphisms_fix_the_graph():
    g = one_point_union(cycle_graph(3), 0, cycle_graph(3), 0)
    edges = sorted(g.edges)
    aut = automorphisms(g)
    assert aut.generators
    for p in aut.generators:
        assert _mapped_edges(g, p) == edges
    elements = group_elements(aut)
    assert len(elements) == aut.order == 8
    for p in elements:
        assert _mapped_edges(g, p) == edges


def test_every_small_atlas_graph_agrees_with_networkx():
    # all 1252 graphs with 1 to 7 vertices, disconnected ones included
    graphs = nx.graph_atlas_g()[1:]
    assert len(graphs) == 1252
    for G in graphs:
        n = G.number_of_nodes()
        g = Multigraph(n, tuple(G.edges()))
        aut = automorphisms(g)
        isos = {
            Permutation(tuple(m[i] for i in range(n)))
            for m in GraphMatcher(G, G).isomorphisms_iter()
        }
        orbits = sorted({frozenset(p(v) for p in isos) for v in range(n)}, key=min)
        assert aut.order == len(isos), g
        assert aut.orbits() == orbits, g
        assert group_elements(aut) == isos, g


def test_orbits_of_the_bowtie():
    g = one_point_union(cycle_graph(3), 0, cycle_graph(3), 0)
    aut = automorphisms(g)
    assert aut.order == 8
    sizes = sorted(len(o) for o in aut.orbits())
    assert sizes == [1, 4]  # cut vertex alone, outer vertices together


def test_symmetric_product_cases():
    # K5: one block of five, 5! = 120 = |Aut|
    blocks = symmetric_product_orbits(automorphisms(complete_graph(5)))
    assert blocks is not None and sorted(len(b) for b in blocks) == [5]
    # C4: dihedral of order 8 is a proper subgroup of S4
    assert symmetric_product_orbits(automorphisms(cycle_graph(4))) is None
    # star: center fixed, leaves fully symmetric
    star = Multigraph(5, [(0, i) for i in range(1, 5)])
    blocks = symmetric_product_orbits(automorphisms(star))
    assert blocks is not None and sorted(len(b) for b in blocks) == [1, 4]


@pytest.mark.parametrize(
    "g,verdict",
    [
        (complete_graph(5), Minimalizability.SYMMETRIC_PRODUCT),
        (path_graph(3), Minimalizability.SYMMETRIC_PRODUCT),
        (Multigraph(3, [(0, 1), (1, 2)]), Minimalizability.SYMMETRIC_PRODUCT),
        (cycle_graph(4), Minimalizability.UNKNOWN),
        (path_graph(4), Minimalizability.UNKNOWN),
        # a loop pins down every vertex: degrees 3, 2, 1 are all distinct
        (Multigraph(3, [(0, 0), (0, 1), (1, 2)]), Minimalizability.TRIVIAL),
    ],
)
def test_minimalizability_verdicts(g, verdict):
    assert minimalizability(g)[0] is verdict


def test_planarity():
    assert complete_graph(4).is_planar()
    assert not complete_graph(5).is_planar()
    assert not complete_bipartite(3, 3).is_planar()
    assert disjoint_union(complete_graph(4), cycle_graph(5)).is_planar()


def test_components_and_connectivity():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    assert not g.is_connected()
    assert sorted(len(c) for c in g.components()) == [2, 3]
    assert complete_graph(3).is_connected()
    # isolated vertices count as their own components
    assert len(Multigraph(3, [(0, 1)]).components()) == 2


def test_is_simple_cycle_agrees_with_simple_cycles():
    """Every edge subset of small multigraphs, in two orders, is a simple
    cycle exactly when ``simple_cycles`` lists its edges."""
    pairs = [(u, v) for u in range(4) for v in range(u, 4)]
    shapes = set()
    for m in range(1, 5):
        for edges in itertools.combinations_with_replacement(pairs, m):
            g = Multigraph(4, edges)
            cycles = {frozenset(c) for c in simple_cycles(g)}
            for k in range(1, m + 1):
                for subset in itertools.combinations(range(m), k):
                    want = frozenset(subset) in cycles
                    assert g.is_simple_cycle(subset) == want
                    assert g.is_simple_cycle(subset[::-1]) == want
                    shapes.add((k, want))
    assert shapes == {(k, w) for k in range(1, 5) for w in (True, False)}


def test_is_simple_cycle_rejects_malformed_edge_lists():
    g = Multigraph(3, [(0, 0), (0, 1), (0, 2), (1, 2)])  # a loop, then a triangle
    assert g.is_simple_cycle([3, 1, 2]) and g.is_simple_cycle([0])
    for edges in ([], [1, 1, 2, 3], [1, 2], [0, 1, 2, 3], [4], [-1, 1, 2], [1, 2, 3, 9]):
        assert not g.is_simple_cycle(edges), edges


def test_multiplicity_and_loops():
    g = Multigraph(2, [(0, 1), (0, 1), (1, 1)])
    assert g.multiplicity(0, 1) == 2
    assert g.is_loop(2)
    assert g.degrees() == [2, 4]  # the loop counts twice at vertex 1


def test_one_point_union_degrees():
    g = one_point_union(cycle_graph(3), 0, cycle_graph(4), 0)
    assert g.vertex_count == 6
    assert sorted(g.degrees()) == [2, 2, 2, 2, 2, 4]


def test_text_round_trip():
    for g, _ in AUT_ORDERS:
        assert parse_graph(graph_to_text(g)) == g


def test_parse_rejects_malformed():
    with pytest.raises(FormatError):
        parse_graph("edge 0 1")  # missing header
    with pytest.raises(InvalidVertexError):
        parse_graph("graph 2\nedge 0 5")  # vertex out of range
    with pytest.raises(FormatError):
        parse_graph("graph two\n")


@pytest.mark.parametrize("token", ["٣", "１", "1_0", "+1"])
def test_parse_reads_only_ascii_integers(token):
    with pytest.raises(FormatError, match="bad vertex count"):
        parse_graph(f"graph {token}\n")
    with pytest.raises(FormatError, match="bad vertex label"):
        parse_graph(f"graph 11\nedge 0 {token}\n")


def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    assert [p(i) for i in range(p.degree)] == [1, 2, 0]
    with pytest.raises(FormatError):
        Permutation((0, 2, 2))


def _isomorphic(g: Multigraph, h: Multigraph) -> bool:
    # connected g and h are isomorphic iff some automorphism of their disjoint
    # union carries vertex 0 of g into h
    return max(automorphisms(disjoint_union(g, h)).orbits()[0]) >= g.vertex_count


def test_isomorphism_examples():
    assert _isomorphic(cycle_graph(3), complete_graph(3))
    assert not _isomorphic(cycle_graph(4), path_graph(4))
    p = Permutation((4, 2, 0, 3, 1))
    relabeled = Multigraph(5, [(p(u), p(v)) for u, v in complete_bipartite(2, 3).edges])
    assert _isomorphic(relabeled, complete_bipartite(2, 3))
    assert not _isomorphic(complete_bipartite(2, 3), cycle_graph(5))
