"""Slow, obvious versions of what the package computes fast, for tests to
compare against.  Not a test module: pytest collects nothing here."""

import itertools
from collections import deque

from graphknot import Diagram, LaurentPoly, Multigraph, NotALinkError, SizeLimitExceeded
from graphknot.invariants import MAX_BRACKET_CROSSINGS
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


def mirror_diagram(d: Diagram) -> Diagram:
    """Every crossing switched: the mirror image through the sphere."""
    return d.with_parities({n: 1 - d.nodes[n].over for n in d.crossings()})


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
