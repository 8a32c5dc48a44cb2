"""Slow, obvious versions of what the package computes fast, for tests to
compare against.  Not a test module: pytest collects nothing here."""

import itertools
from collections import deque
from math import gcd

import networkx as nx

from graphknot import Diagram, LaurentPoly, Multigraph, NotALinkError, SizeLimitExceeded
from graphknot.diagram import (
    Crossing,
    Dart,
    GraphProjection,
    StrandPath,
    Vertex,
    _arcs_of,
    _rejoin,
    crossing_assignments,
    extract_sublink,
    sublink_crossings,
)
from graphknot.errors import FormatError, InvalidVertexError, TopologyError
from graphknot.invariants import (
    MAX_BRACKET_CROSSINGS,
    Obstruction,
    ObstructionScan,
    _bracket_span,
    _signed_linking,
    component_span_lower_bound,
    disjoint_cycle_pairs,
    simple_cycles,
)
from graphknot.layout import _route, base_diagram
from graphknot.moves import (
    _KINDS,
    ISOTOPY_KINDS,
    Budget,
    _build,
    _state_key,
    apply_move,
    descending_diagram,
    enumerate_moves,
    search_min_crossings,
)
from graphknot.multigraph import (
    AutGroup,
    Permutation,
    automorphisms,
    symmetric_product_orbits,
)
from graphknot.tangle import normalize_fraction, tangle_from_fraction

# the value of one closed loop, -A^2 - A^-2
DELTA = LaurentPoly({2: -1, -2: -1})


def arc_partners(d: Diagram) -> dict:
    """The other end of the arc at every dart, read off ``d.arcs``."""
    pair = {}
    for a, b in d.arcs:
        pair[a] = b
        pair[b] = a
    return pair


def splice_identify(d: Diagram, thru: dict) -> Diagram:
    """``diagram.splice`` the slow way, with its input checked and its
    result validated: delete the nodes named in ``thru``, rejoining strands
    through it, walking an arc dict instead of the dart arrays.

    ``thru`` must be a fixed-point-free involution covering every slot of
    every node it mentions.  Each circle that closes up entirely inside the
    removed nodes becomes a free loop."""
    removed = {n for n, _ in thru}
    if set(thru) != {(n, s) for n in removed for s in range(d.degree_of(n))}:
        raise FormatError("identifications must cover each removed slot once")
    for a, b in thru.items():
        if a == b or thru.get(b) != a:
            raise FormatError("identifications must form an involution")
    keep = [n for n in range(len(d.nodes)) if n not in removed]
    new_index = {n: i for i, n in enumerate(keep)}
    pair = arc_partners(d)
    arcs = set()
    used = set()  # removed darts some rejoined strand runs through
    for n in keep:
        for s in range(d.degree_of(n)):
            end = pair[(n, s)]
            while end[0] in removed:
                used.update((end, thru[end]))
                end = pair[thru[end]]
            arcs.add(tuple(sorted([(new_index[n], s), (new_index[end[0]], end[1])])))
    loops = 0
    for start in sorted(set(thru) - used):
        if start in used:
            continue
        loops += 1
        x = start
        while x not in used:  # alternate thru and arc steps round the circle
            used.update((x, thru[x]))
            x = pair[thru[x]]
    return Diagram([d.nodes[n] for n in keep], arcs, d.free_loops + loops)


def other_end(g: Multigraph, edge_index: int, vertex: int) -> int:
    """The end of edge ``edge_index`` of ``g`` that is not ``vertex``."""
    u, v = g.edges[edge_index]
    if vertex == u:
        return v
    if vertex == v:
        return u
    raise InvalidVertexError(f"vertex {vertex} is not on edge {edge_index}")


def is_loop(g: Multigraph, edge_index: int) -> bool:
    u, v = g.edges[edge_index]
    return u == v


def walked_sublink(projection: GraphProjection, cycles) -> Diagram:
    """``diagram.extract_sublink`` the slow way: each cycle is walked in its
    listed order, which must be a closed walk without repeated vertices, and
    its strands are oriented along the walk; vertices are smoothed the way
    the walk runs through them, every crossing not kept is passed straight
    through, and a cycle that passes no kept crossing counts as one free
    loop.  A cycle listed out of walk order raises ``FormatError``, and an
    edge index out of range or off the walk can raise ``IndexError`` or
    ``InvalidVertexError``."""
    d = projection.diagram
    g = projection.graph
    used_edges: set[int] = set()
    for cycle in cycles:
        for e in cycle:
            if e in used_edges:
                raise FormatError(f"edge {e} appears in two cycles")
            used_edges.add(e)

    # how strands run on through the nodes not kept: through vertices the
    # way the cycles do, and straight through crossings (added below)
    thru: dict[Dart, Dart] = {}

    def strand_oriented(e: int, from_vertex: int) -> StrandPath:
        s = projection.strands[e]
        u, v = g.endpoints(e)
        if u == v:
            # loop: orientation choice is irrelevant to the caller
            return s
        start_node = projection.node_of_vertex[from_vertex]
        if s.ends[0][0] == start_node:
            return s
        # entry dart of a reversed passage is the old exit slot
        back = tuple((n, (t + 2) % 4) for n, t in reversed(s.passages))
        return StrandPath((s.ends[1], s.ends[0]), back)

    for cycle in cycles:
        if not cycle:
            raise FormatError("empty cycle")
        # walk the cycle, picking the vertex sequence
        if len(cycle) == 1:
            e = cycle[0]
            u, v = g.endpoints(e)
            if u != v:
                raise FormatError(f"cycle [{e}] is not a loop edge")
            path = projection.strands[e]
            thru[path.ends[0]] = path.ends[1]
            thru[path.ends[1]] = path.ends[0]
            continue
        u0, v0 = g.endpoints(cycle[0])
        second = g.endpoints(cycle[1])
        if u0 in second and v0 in second and u0 != v0:
            # ambiguous start of a 2-cycle; orient edge 0 from its low end
            start = u0
        elif v0 in second:
            start = u0
        elif u0 in second:
            start = v0
        else:
            raise FormatError("consecutive cycle edges share no vertex")
        visited = [start]
        prev_end: Dart | None = None
        for e in cycle:
            path = strand_oriented(e, visited[-1])
            if prev_end is not None:
                thru[prev_end] = path.ends[0]
                thru[path.ends[0]] = prev_end
            nxt = other_end(g, e, visited[-1])
            visited.append(nxt)
            prev_end = path.ends[1]
        if visited[-1] != visited[0]:
            raise FormatError("cycle does not close up")
        if len(set(visited[:-1])) != len(visited) - 1:
            raise FormatError("cycle repeats a vertex")
        first = strand_oriented(cycle[0], visited[0])
        thru[prev_end] = first.ends[0]
        thru[first.ends[0]] = prev_end

    kept = sublink_crossings(projection, cycles)
    free_loops = 0  # cycles that pass no kept crossing, which no strand meets
    for cycle in cycles:
        passed = {n for e in cycle for n, _ in projection.strands[e].passages}
        free_loops += passed.isdisjoint(kept)
    for n in set(d.crossings()).difference(kept):
        for s in range(4):
            thru[(n, s)] = (n, (s + 2) % 4)
    darts, _passed = _rejoin(d, kept, thru)
    return Diagram([d.nodes[n] for n in kept], _arcs_of(darts), free_loops)


def monomial(coeff: int, exp: int) -> LaurentPoly:
    """``coeff * A^exp``."""
    return LaurentPoly({exp: coeff})


def shifted(p: LaurentPoly, exp: int) -> LaurentPoly:
    """``p * A^exp``, by moving every exponent."""
    return LaurentPoly({e + exp: c for e, c in p.coeffs.items()})


def is_over_slot(d: Diagram, n: int, slot: int) -> bool:
    """Slot ``slot`` of crossing ``n`` passes on top."""
    return slot % 2 == d.nodes[n].over


def is_alternating(d: Diagram) -> bool:
    """Along every strand, over- and under-passages alternate.

    Arcs incident to graph vertices impose no constraint; only
    crossing-to-crossing arcs must join an over-end to an under-end.
    """
    for (n1, s1), (n2, s2) in d.arcs:
        if d.is_crossing(n1) and d.is_crossing(n2):
            if is_over_slot(d, n1, s1) == is_over_slot(d, n2, s2):
                return False
    return True


def is_reduced(d: Diagram) -> bool:
    """No nugatory crossing.

    A crossing is nugatory when a simple closed curve meets the diagram in
    that crossing alone — equivalently, when it carries a self-arc or cuts
    its projection component in two.
    """
    g = nx.Graph()
    g.add_nodes_from(range(len(d.nodes)))
    for (n1, _), (n2, _) in d.arcs:
        if n1 == n2:
            if d.is_crossing(n1):
                return False
        else:
            g.add_edge(n1, n2)
    cuts = set(nx.articulation_points(g))
    return not any(n in cuts for n in d.crossings())


def normal_forms(lo, hi):
    """Every reduced twist-sequence normal form with lo <= crossings <= hi.

    A form with c crossings is a continued fraction p/q whose terms sum to
    c, and |p| and q are largest when every term is 1, so |p|, q <=
    F(c + 1), the Fibonacci number: with that bound ``normal_forms(0, 9)``
    yields all 1024 forms with up to 9 crossings.
    """
    forms = {}
    bound, after = 1, 1  # F(1), F(2)
    for _ in range(hi):
        bound, after = after, bound + after
    for p in range(-bound, bound + 1):
        for q in range(0, bound + 1):
            if (p or q) and gcd(abs(p), q) == 1:
                t = tangle_from_fraction(normalize_fraction(p, q))
                if lo <= t.minimal_crossings() <= hi:
                    forms[t.conway] = t
    return [forms[k] for k in sorted(forms)]


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
    pair = arc_partners(d)
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
    total = LaurentPoly()
    for (exp, circles), mult in counts.items():
        total = total + shifted(DELTA ** (circles - 1) * mult, exp)
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
    return AutGroup(g.vertex_count, len(elems), tuple(elems))


def group_elements(aut: AutGroup) -> set[Permutation]:
    """Every element of the group that ``aut.generators`` generate: the
    identity closed under composition with them.  In a finite group each
    inverse is a power, so no inverses are needed."""
    identity = Permutation(tuple(range(aut.degree)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for s in aut.generators:
            q = Permutation(tuple(s.image[i] for i in p.image))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def atlas_graphs(max_vertices=6):
    """All connected simple graphs with up to ``max_vertices`` vertices, in
    networkx atlas order, each with its atlas index: ``(i, graph)``."""
    for i, G in enumerate(nx.graph_atlas_g()):
        n = G.number_of_nodes()
        if 0 < n <= max_vertices and nx.is_connected(G):
            yield i, Multigraph(n, tuple(sorted(tuple(sorted(e)) for e in G.edges())))


def validated_base_diagram(g: Multigraph, edge_order=None) -> Diagram:
    """``layout.base_diagram`` the slow way: each edge inserted by building,
    sorting and validating a whole ``Diagram`` from a list of arcs."""
    order = list(range(g.edge_count)) if edge_order is None else list(edge_order)
    d = Diagram([Vertex(str(i), 0) for i in range(g.vertex_count)], [])
    for e in order:
        d = _validated_insert_edge(d, *g.endpoints(e))
    return d


def _validated_insert_edge(d: Diagram, u: int, v: int) -> Diagram:
    nodes = list(d.nodes)
    if u == v:
        # a loop nests in the corner before slot 0; never cross anything
        nodes[u] = Vertex(nodes[u].label, nodes[u].degree + 2)
        arcs = [
            tuple((n, s + 2) if n == u else (n, s) for n, s in arc) for arc in d.arcs
        ]
        arcs.append(((u, 0), (u, 1)))
        return Diagram(nodes, arcs, d.free_loops)
    if any(u in comp and v not in comp for comp in d.components()):
        gap_u, crossed, gap_v = d.degree_of(u), [], d.degree_of(v)
    else:
        gap_u, crossed, gap_v = _route(d, u, v)

    def moved(dart):
        n, s = dart
        if (n == u and s >= gap_u) or (n == v and s >= gap_v):
            return (n, s + 1)
        return dart

    cut = set(crossed) | {d.partner(a) for a in crossed}
    arcs = [(moved(a), moved(b)) for a, b in d.arcs if a not in cut]
    prev = (u, gap_u)
    for a in crossed:
        x = len(nodes)
        nodes.append(Crossing(1))
        arcs += [(moved(a), (x, 1)), (moved(d.partner(a)), (x, 3)), (prev, (x, 2))]
        prev = (x, 0)
    arcs.append((prev, (v, gap_v)))
    for n in (u, v):
        nodes[n] = Vertex(nodes[n].label, nodes[n].degree + 1)
    return Diagram(nodes, arcs, d.free_loops)


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


def sweep_drawings() -> list[Diagram]:
    """The planar soundness sweep's drawings: each connected planar simple
    graph with at most six vertices that passes the symmetric-product
    screen, drawn by ``base_diagram`` when that has at most two crossings,
    and also with its first ``R2_add`` when it has none."""
    out = []
    for _i, g in atlas_graphs():
        if not g.is_planar() or symmetric_product_orbits(automorphisms(g)) is None:
            continue
        base = base_diagram(g)
        if base.crossing_count <= 2:
            out.append(base)
        if base.crossing_count == 0:
            sites = enumerate_moves(base, ("R2_add",))
            if sites:
                out.append(apply_move(base, sites[0]))
    return out


def mirror_diagram(d: Diagram) -> Diagram:
    """Every crossing switched: the mirror image through the sphere."""
    return d.with_parities({n: 1 - d.nodes[n].over for n in d.crossings()})


def unpruned_neighbors(d: Diagram, budget: Budget, shadow: bool, kinds=ISOTOPY_KINDS):
    """``moves._neighbors`` without its pruning by symmetries, undo sites
    and twins: each site of ``kinds`` on ``d`` within the budget, in list
    order, with the diagram it makes.  Of the three sites of an R3 triangle
    only the first is built, since all three slide it alike."""
    room = budget.max_crossings - d.crossing_count
    use = tuple(k for k in kinds if _KINDS[k][0] <= room)
    slid: set[Dart] = set()  # the darts of the triangles already slid
    for site in enumerate_moves(d, use, shadow=shadow):
        if site.kind == "R3":
            (anchor,) = site.params
            if anchor in slid:
                continue
            second = d.phi(anchor)
            slid.update((anchor, second, d.phi(second)))
        yield site, _build(d, site)


def queued_search_min_crossings(
    d: Diagram, budget: Budget, stop_at: int | None = None, shadow: bool = False
):
    """``search_min_crossings`` as a breadth-first search that queues whole
    diagrams: the best diagram, the state count and the ``exhausted`` flag.
    The same state keys, neighbours, ``best`` tie-break, ``stop_at`` and
    soft ``max_states`` rule, tested before each expansion."""
    key = _state_key(shadow)
    seen = {key(d)}
    queue = deque([d])
    best = d
    if stop_at is not None and best.crossing_count <= stop_at:
        return best, 1, False
    while queue:
        cur = queue.popleft()
        if (cur.crossing_count, key(cur)) < (best.crossing_count, key(best)):
            best = cur
        if len(seen) >= budget.max_states:
            return best, len(seen), False
        for _site, nd in unpruned_neighbors(cur, budget, shadow):
            code = key(nd)
            if code in seen:
                continue
            seen.add(code)
            if stop_at is not None and nd.crossing_count <= stop_at:
                return nd, len(seen), False
            queue.append(nd)
    return best, len(seen), True


def _assignment_bound(d: Diagram, scan: ObstructionScan) -> int:
    """The lower bound of one crossing assignment ``d``: the graph-wide
    bounds, then the obstructions of ``d``'s own spatial graph until one
    reaches ``d``'s crossing count."""
    bound = 0 if scan.planar else max(1, scan.graph_bound)
    if bound < d.crossing_count:
        for o, _signed in scan.obstructions(d.parities()):
            bound = max(bound, o.bound)
            if bound >= d.crossing_count:
                break
    return bound


def assignment_crossing_number(
    g: Multigraph, budget: Budget | None = None, edge_order=None
) -> tuple[int | None, bool]:
    """The value and ``closed`` of ``section3_crossing_number`` computed
    assignment by assignment: one isotopy search per crossing assignment
    of the same layered drawing, each closed by its own lower bound or by
    exhausting its cap, and the least value, withheld unless every
    assignment closed.

    The assignments share one ``ObstructionScan``.  An assignment's mirror
    image (every bit switched) reaches the mirror images of its diagrams,
    so when the mirror's search exhausted the same cap within the state
    budget and stopped above the same lower bound, its value is taken and
    no search is run."""
    layered = descending_diagram(
        base_diagram(g, edge_order=edge_order).underlying_graph(), edge_order
    )
    scan = ObstructionScan(layered)
    exhausted: dict[tuple[int, ...], tuple[int, int]] = {}  # bits -> (bound, value)
    best, closed = None, True
    for bits in crossing_assignments(layered):
        d = layered.with_parities(dict(zip(layered.crossings(), bits)))
        sub_budget = budget or Budget(
            max_crossings=d.crossing_count + 1, max_states=200_000
        )
        bound = _assignment_bound(d, scan)
        mirror = exhausted.get(tuple(1 - b for b in bits))
        if mirror is not None and mirror[0] == bound:
            found, conclusive = mirror[1], True
        elif d.crossing_count <= bound:
            found, conclusive = d.crossing_count, True
        else:
            r = search_min_crossings(d, sub_budget, stop_at=bound)
            found = r.best.crossing_count
            conclusive = found <= bound or r.exhausted
            if found > bound and r.exhausted and r.states < sub_budget.max_states:
                exhausted[bits] = (bound, found)
        if not conclusive:
            closed = False
        elif best is None or found < best:
            best = found
    return (best if closed else None), closed


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
            for _site, nd in unpruned_neighbors(cur, budget, shadow):
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
    """``ObstructionScan(d).obstructions(d.parities())`` with no candidate
    skipped and nothing kept: every disjoint cycle pair and every cycle is
    extracted from ``d`` itself and measured.

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


# -- the move site predicates, read off the arc dict ``pair = arc_partners(d)`` --


def _phi(d: Diagram, pair, x):
    """Next dart along the face to the right of ``x``."""
    n, s = pair[x]
    return (n, (s + 1) % d.degree_of(n))


def kink(d: Diagram, pair, c: int, s: int) -> bool:
    """``moves._kink``: the arc at slot ``s`` of crossing ``c`` loops back
    to its next slot."""
    return d.is_crossing(c) and pair[(c, s)] == (c, (s + 1) % 4)


def bigon_pokes(d: Diagram, pair, s, t, shadow: bool) -> bool:
    """``s`` and ``t`` bound a bigon face between two crossings whose
    strands poke instead of clasping, unless ``shadow``."""
    q, p = s[0], t[0]
    bigon = _phi(d, pair, s) == t and _phi(d, pair, t) == s and q != p
    if not (bigon and d.is_crossing(q) and d.is_crossing(p)):
        return False
    return shadow or is_over_slot(d, q, s[1]) == is_over_slot(d, p, pair[s][1])


def poke(d: Diagram, pair, s, t, shadow: bool) -> bool:
    """``moves._poke``: ``bigon_pokes``, and no arc joins an outer end of
    one strand to one of the other."""
    if not bigon_pokes(d, pair, s, t, shadow):
        return False
    # each strand runs along one side of the bigon, and its outer ends are
    # the slots opposite that side's two ends
    outer = [
        {(n, (k + 2) % 4) for n, k in (side, pair[side])} for side in (s, t)
    ]
    return not any(pair[x] in outer[1] for x in outer[0])


def ungated_neighbours(d: Diagram, budget: Budget, shadow: bool):
    """Every diagram one isotopy move from ``d`` within the budget, with
    an R2 removal at every bigon that ``bigon_pokes`` finds, whether or not
    an ``R2_add`` could undo it.  The other kinds are the searches' own
    neighbours; the removals are made by the validating splice."""
    kinds = tuple(k for k in ISOTOPY_KINDS if k != "R2_remove")
    found = [nd for _site, nd in unpruned_neighbors(d, budget, shadow, kinds)]
    pair = arc_partners(d)
    for face in d.faces():
        if len(face) == 2 and bigon_pokes(d, pair, *face, shadow):
            thru = {}
            for n, _slot in face:
                for a, b in ((0, 2), (1, 3)):
                    thru[(n, a)], thru[(n, b)] = (n, b), (n, a)
            found.append(splice_identify(d, thru))
    return found


def ungated_reachable(d: Diagram, budget: Budget, shadow: bool) -> set:
    """The state keys of everything ``ungated_neighbours`` reaches from
    ``d``, breadth-first."""
    key = _state_key(shadow)
    seen = {key(d)}
    queue = deque([d])
    while queue:
        for nd in ungated_neighbours(queue.popleft(), budget, shadow):
            code = key(nd)
            if code not in seen:
                seen.add(code)
                queue.append(nd)
    return seen


def slides(d: Diagram, pair, s1, shadow: bool) -> bool:
    """``moves._slides``: the face at ``s1`` is a triangle of three distinct
    crossings, and unless ``shadow`` a strand passes across it."""
    s2 = _phi(d, pair, s1)
    s3 = _phi(d, pair, s2)
    face = (s1, s2, s3)
    nodes = {n for n, _s in face}
    return (
        _phi(d, pair, s3) == s1
        and len(nodes) == 3
        and all(d.is_crossing(n) for n in nodes)
        and (shadow or len({is_over_slot(d, n, s) for n, s in face}) == 2)
    )


def twisted(d: Diagram, pair, v: int, i: int) -> bool:
    """``moves._twisted``: slots ``i`` and ``i + 1`` of vertex ``v`` run to
    consecutive slots of one crossing."""
    if d.is_crossing(v):
        return False
    ca = pair[(v, i)]
    cb = pair[(v, (i + 1) % d.degree_of(v))]
    return ca[0] == cb[0] and d.is_crossing(ca[0]) and cb[1] == (ca[1] - 1) % 4
