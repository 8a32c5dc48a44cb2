"""Slow, obvious versions of what the package computes fast, for tests to
compare against.  Not a test module: pytest collects nothing here."""

import itertools
from collections import deque

import networkx as nx

from graphknot import Diagram, LaurentPoly, Multigraph, NotALinkError, SizeLimitExceeded
from graphknot.diagram import extract_sublink
from graphknot.errors import TopologyError
from graphknot.invariants import (
    MAX_BRACKET_CROSSINGS,
    Obstruction,
    _bracket_span,
    _signed_linking,
    component_span_lower_bound,
    disjoint_cycle_pairs,
    simple_cycles,
)
from graphknot.moves import Budget, _neighbors, _state_key
from graphknot.multigraph import AutGroup, Permutation

# the value of one closed loop, -A^2 - A^-2
DELTA = LaurentPoly({2: -1, -2: -1})


def bracket_state_sum(d: Diagram) -> LaurentPoly:
    """Bracket polynomial by the 2^n state sum over smoothings.

    The A-smoothing at a crossing whose over slots are ``(o, o+2)`` joins
    slot pairs ``(o+1, o+2)`` and ``(o+3, o)``; the B-smoothing joins
    ``(o, o+1)`` and ``(o+2, o+3)``.
    """
    if d.vertices():
        raise NotALinkError("bracket is defined for link diagrams")
    xs = d.crossings()
    n = len(xs)
    if n > MAX_BRACKET_CROSSINGS:
        raise SizeLimitExceeded(f"{n} crossings exceeds the bracket guard")
    if n == 0 and d.free_loops == 0:
        raise NotALinkError("empty diagram has no bracket")
    smooth_a = {}
    smooth_b = {}
    for c in xs:
        o = d.nodes[c].over
        smooth_a[c] = (((o + 1) % 4, (o + 2) % 4), ((o + 3) % 4, o))
        smooth_b[c] = ((o, (o + 1) % 4), ((o + 2) % 4, (o + 3) % 4))
    pair = d.pair
    counts: dict[tuple[int, int], int] = {}
    for word in range(1 << n):
        match: dict[tuple[int, int], tuple[int, int]] = {}
        a_count = 0
        for j, c in enumerate(xs):
            if (word >> j) & 1:
                chosen = smooth_b[c]
            else:
                chosen = smooth_a[c]
                a_count += 1
            for s, t in chosen:
                match[(c, s)] = (c, t)
                match[(c, t)] = (c, s)
        circles = d.free_loops
        visited: set[tuple[int, int]] = set()
        for dart in match:
            if dart in visited:
                continue
            circles += 1
            cur = dart
            while cur not in visited:
                visited.add(cur)
                step = match[cur]
                visited.add(step)
                cur = pair[step]
        key = (2 * a_count - n, circles)
        counts[key] = counts.get(key, 0) + 1
    total = LaurentPoly.zero()
    for (exp, circles), mult in counts.items():
        total = total + (DELTA ** (circles - 1) * mult).shifted(exp)
    return total


def brute_force_automorphisms(g: Multigraph) -> AutGroup:
    """The automorphism group by filtering all n! vertex permutations."""
    edge_multiset = sorted(g.edges)
    elems = []
    for image in itertools.permutations(range(g.vertex_count)):
        mapped = sorted(
            (image[u], image[v]) if image[u] <= image[v] else (image[v], image[u])
            for u, v in g.edges
        )
        if mapped == edge_multiset:
            elems.append(Permutation(image))
    return AutGroup(g.vertex_count, tuple(elems))


def atlas_graphs(max_vertices=6):
    """All connected simple graphs with up to ``max_vertices`` vertices, in
    networkx atlas order."""
    for G in nx.graph_atlas_g()[1:209]:
        n = G.number_of_nodes()
        if 0 < n <= max_vertices and nx.is_connected(G):
            yield Multigraph(n, tuple(sorted(tuple(sorted(e)) for e in G.edges())))


def small_crossing_number(g: Multigraph) -> int | None:
    """The crossing number of ``g`` where it is 0, 1, or that of K6 or
    K6 - e, found without any lower-bound formula; None otherwise.  That
    covers every graph with at most six vertices.

    cr = 0 when the simple graph is planar.  A non-planar graph has cr = 1
    when two independent edges, replaced by a new vertex joined to their
    four ends, leave a planar graph: its embedding draws the two edges
    through one point, and they cross there, or the graph would be planar.
    cr(K6) = 3 (Guy), and cr(K6 - e) = 2: at least 2 by deleting a crossed
    edge from any drawing of K6 - e plus that edge, and at most 2 by
    deleting a crossed edge from an optimal drawing of K6.
    """
    simple = nx.Graph()
    simple.add_nodes_from(range(g.vertex_count))
    simple.add_edges_from((u, v) for u, v in g.edges if u != v)
    if nx.check_planarity(simple)[0]:
        return 0
    for (a, b), (c, d) in itertools.combinations(list(simple.edges), 2):
        if len({a, b, c, d}) < 4:
            continue
        crossed = simple.copy()
        crossed.remove_edges_from([(a, b), (c, d)])
        crossed.add_edges_from(("x", w) for w in (a, b, c, d))
        if nx.check_planarity(crossed)[0]:
            return 1
    k6 = nx.complete_graph(6)
    if nx.is_isomorphic(simple, k6):
        return 3
    k6.remove_edge(0, 1)
    if nx.is_isomorphic(simple, k6):
        return 2
    return None


def mirror_diagram(d: Diagram) -> Diagram:
    """Every crossing switched: the mirror image through the sphere."""
    return d.with_parities({n: 1 - d.nodes[n].over for n in d.crossings()})


def queued_search_min_crossings(d: Diagram, budget: Budget, stop_at: int | None = None):
    """``search_min_crossings`` as a breadth-first search that queues whole
    diagrams: the best diagram, the state count and the ``exhausted`` flag.
    The same neighbours, ``best`` tie-break, ``stop_at`` and soft
    ``max_states`` rule, tested before each expansion."""
    seen = {d.canonical_code()}
    queue = deque([d])
    best = d
    if stop_at is not None and best.crossing_count <= stop_at:
        return best, 1, False
    while queue:
        cur = queue.popleft()
        if (cur.crossing_count, cur.canonical_code()) < (
            best.crossing_count,
            best.canonical_code(),
        ):
            best = cur
        if len(seen) >= budget.max_states:
            return best, len(seen), False
        for _site, nd in _neighbors(cur, budget, False):
            code = nd.canonical_code()
            if code in seen:
                continue
            seen.add(code)
            if stop_at is not None and nd.crossing_count <= stop_at:
                return nd, len(seen), False
            queue.append(nd)
    return best, len(seen), True


def level_order_equivalent(d1: Diagram, d2: Diagram, budget: Budget, shadow: bool = False):
    """The verdict and state count of a bidirectional search that expands
    whole breadth-first levels in arrival order, the side with the shorter
    frontier first: ``True`` when the sides meet, ``False`` when a side
    runs out of states, ``None`` when ``budget.max_states`` stops it.  The
    same state keys, neighbours, cap test and side rule as
    ``equivalent_within``, with no path."""
    key = _state_key(shadow)
    seen = [{key(d1)}, {key(d2)}]
    if seen[0] == seen[1]:
        return True, 2
    frontiers = [deque([d1]), deque([d2])]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        frontier = frontiers[side]
        for _ in range(len(frontier)):
            cur = frontier.popleft()
            for _site, nd in _neighbors(cur, budget, shadow):
                code = key(nd)
                if code in seen[side]:
                    continue
                seen[side].add(code)
                if code in seen[1 - side]:
                    return True, len(seen[0]) + len(seen[1])
                frontier.append(nd)
            if len(seen[0]) + len(seen[1]) >= budget.max_states:
                return None, len(seen[0]) + len(seen[1])
    return False, len(seen[0]) + len(seen[1])


def full_obstructions(d: Diagram):
    """``ObstructionScan(d).obstructions(d)`` with no candidate skipped and
    nothing kept: every disjoint cycle pair and every cycle is extracted
    from ``d`` itself and measured.

    Returns the obstructions with their signed linking numbers, in scan
    order; the crossing count of each candidate's sublink by cycle tuple
    (None where extracting raises ``TopologyError``); and the cycle tuples
    that yielded an obstruction."""
    found = []
    kept: dict[tuple, int | None] = {}
    yielded: set[tuple] = set()
    if not d.vertices() and (d.components() or d.free_loops):
        bound = component_span_lower_bound(d)
        if bound > 0:
            found.append((Obstruction("sublink-span", bound, (), -1), ()))
    projection = d.underlying_graph()
    g = projection.graph
    cycles = simple_cycles(g)

    def extract(key):
        try:
            sub = extract_sublink(projection, [list(c) for c in key])
        except TopologyError:
            kept[key] = None
            return None
        kept[key] = sub.crossing_count
        return sub

    unlinked = []
    for c1, c2 in disjoint_cycle_pairs(g, cycles):
        key = (tuple(c1), tuple(c2))
        sub = extract(key)
        if sub is None:
            continue
        signed = _signed_linking(sub)
        total = sum(abs(v) for v in signed)
        if total >= 1:
            found.append((Obstruction("linked-cycles", 2 * total, key, total), signed))
            yielded.add(key)
        else:
            unlinked.append((key, sub))
    for cycle in cycles:
        key = (tuple(cycle),)
        sub = extract(key)
        if sub is None:
            continue
        span = _bracket_span(sub)
        bound = (span + 3) // 4
        if bound > 0:
            found.append((Obstruction("sublink-span", bound, key, span), ()))
            yielded.add(key)
    for key, sub in unlinked:
        bound = component_span_lower_bound(sub)
        if bound >= 2:
            found.append((Obstruction("sublink-span", bound, key, -1), ()))
            yielded.add(key)
    return found, kept, yielded


# -- the move site predicates, read off the arc dict ``pair`` -------------------


def _phi(d: Diagram, x):
    """Next dart along the face to the right of ``x``."""
    n, s = d.pair[x]
    return (n, (s + 1) % d.degree_of(n))


def kink(d: Diagram, c: int, s: int) -> bool:
    """``moves._kink``: the arc at slot ``s`` of crossing ``c`` loops back
    to its next slot."""
    return d.is_crossing(c) and d.pair[(c, s)] == (c, (s + 1) % 4)


def poke(d: Diagram, s, t, shadow: bool) -> bool:
    """``moves._poke``: ``s`` and ``t`` bound a bigon face between two
    crossings whose strands poke instead of clasping, unless ``shadow``."""
    q, p = s[0], t[0]
    bigon = _phi(d, s) == t and _phi(d, t) == s and q != p
    if not (bigon and d.is_crossing(q) and d.is_crossing(p)):
        return False
    return shadow or d.nodes[q].is_over_slot(s[1]) == d.nodes[p].is_over_slot(d.pair[s][1])


def slides(d: Diagram, s1, shadow: bool) -> bool:
    """``moves._slides``: the face at ``s1`` is a triangle of three distinct
    crossings, and unless ``shadow`` a strand passes across it."""
    s2 = _phi(d, s1)
    s3 = _phi(d, s2)
    face = (s1, s2, s3)
    nodes = {n for n, _s in face}
    return (
        _phi(d, s3) == s1
        and len(nodes) == 3
        and all(d.is_crossing(n) for n in nodes)
        and (shadow or len({d.nodes[n].is_over_slot(s) for n, s in face}) == 2)
    )


def twisted(d: Diagram, v: int, i: int) -> bool:
    """``moves._twisted``: slots ``i`` and ``i + 1`` of vertex ``v`` run to
    consecutive slots of one crossing."""
    if d.is_crossing(v):
        return False
    ca = d.pair[(v, i)]
    cb = d.pair[(v, (i + 1) % d.degree_of(v))]
    return ca[0] == cb[0] and d.is_crossing(ca[0]) and cb[1] == (ca[1] - 1) % 4
