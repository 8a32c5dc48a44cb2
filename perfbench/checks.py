"""Output checks that do not trust the code under test.

Each check returns ``None`` when the output is right and a short reason when
it is wrong.  Nothing here compares against a stored copy of earlier output:
the expected values come from knot and graph theory (skein relations, V(1),
Kauffman-Murasugi-Thistlethwaite spans, published crossing numbers) or from
networkx, which shares no code with graphknot.

Polynomials are plain ``{exponent: coefficient}`` dicts in the variable A,
the same shape as the CLI's ``bracket`` JSON once its keys are ints.
"""

from __future__ import annotations

from math import gcd

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

# -- Laurent polynomials as dicts ----------------------------------------------


def poly(data) -> dict[int, int]:
    """Normalise CLI JSON (string keys) or a dict into ``{int: int}``."""
    return {int(e): int(c) for e, c in dict(data).items() if int(c)}


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_mul(a, b):
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_unit(k: int):
    """(-A^3)^k as a dict."""
    return {3 * k: -1 if k % 2 else 1}


def span(p) -> int:
    return max(p) - min(p) if p else 0


def mirror(p):
    return {-e: c for e, c in p.items()}


# -- bracket facts ----------------------------------------------------------------

DELTA = {2: -1, -2: -1}


def twist_bracket(n: int):
    """<T(2, n)> for the closed 2-strand braid sigma^n, by the skein relation.

    In the Temperley-Lieb algebra on two strands sigma = A + A^-1 E with
    E^2 = delta E, so sigma^n = a_n + b_n E with a_n = A^n and
    b_n = A^(n-2) - A^-3 b_(n-1).  Closing gives <T(2, n)> = a_n delta + b_n.
    """
    b: dict[int, int] = {}
    for k in range(1, n + 1):
        b = poly_add({k - 2: 1}, poly_mul({-3: -1}, b))
    return poly_add(poly_mul({n: 1}, DELTA), b)


def v_at_one(bracket, writhe: int) -> int:
    """The Jones polynomial at t = 1: (-1)^w <D>(A = 1)."""
    total = sum(bracket.values())
    return -total if writhe % 2 else total


def check_v_at_one(bracket, writhe: int, components: int) -> str | None:
    got = v_at_one(bracket, writhe)
    want = (-2) ** (components - 1)
    if got != want:
        return f"V(1) = {got}, want (-2)^({components}-1) = {want}"
    return None


def check_span(bracket, crossings: int) -> str | None:
    """Reduced alternating connected diagrams have span exactly 4c."""
    if span(bracket) != 4 * crossings:
        return f"span {span(bracket)} != 4 * {crossings}"
    return None


def check_twist(bracket, n: int) -> str | None:
    """<T(2, n)> equals the skein value for one of the two handednesses."""
    want = twist_bracket(n)
    if bracket != want and bracket != mirror(want):
        return f"T(2,{n}) bracket disagrees with the skein recurrence"
    return None


def check_product(bracket, left, right) -> str | None:
    """<D1 # D2> = <D1><D2>."""
    if bracket != poly_mul(left, right):
        return "connected-sum bracket is not the product of its summands"
    return None


def f_self(bracket, self_writhe: int):
    """(-A^3)^(-w) <D> with the writhe over self-crossings only.

    For a knot this is the f-polynomial.  For a link, leaving out the
    crossings between components makes it independent of the orientations,
    and it is still unchanged by all three Reidemeister moves.
    """
    return poly_mul(poly_unit(-self_writhe), bracket)


# -- rational tangles ------------------------------------------------------------


def word_fraction(word) -> tuple[int, int]:
    """Fraction p/q of a twist word (innermost entry first), q >= 0."""
    p, q = 1, 0
    for a in word:
        p, q = a * p + q, p
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    g = gcd(abs(p), q) or 1
    return p // g, q // g


def fraction_normal_form(p: int, q: int) -> tuple[int, ...]:
    """Reduced alternating twist word of p/q, by Euclid's algorithm."""
    if q == 0:
        return ()
    if p == 0:
        return (0,)
    if p < 0:
        return tuple(-a for a in fraction_normal_form(-p, q))
    quotients = []
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    return tuple(reversed(quotients))


def closure_components(p: int, q: int, closure: str) -> int:
    """Components of the N (numerator) or D (denominator) closure of p/q."""
    return 2 if (p if closure == "N" else q) % 2 == 0 else 1


# -- graphs ---------------------------------------------------------------------------


def diagram_graph(text: str) -> nx.MultiGraph:
    """Underlying graph of a diagram in graphknot's text format.

    Follows each strand from a vertex slot straight through crossings
    (slot s to slot s + 2) to the vertex slot where it ends.
    """
    kinds, pair = [], {}
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "crossing":
            kinds.append(None)
        elif fields[0] == "vertex":
            kinds.append(int(fields[2]))
        elif fields[0] == "arc":
            a, b = (tuple(int(x) for x in t.split(".")) for t in fields[1:3])
            pair[a], pair[b] = b, a
    g = nx.MultiGraph()
    g.add_nodes_from(n for n, k in enumerate(kinds) if k is not None)
    seen = set()
    for n, degree in enumerate(kinds):
        for s in range(degree or 0):
            if (n, s) in seen:
                continue
            cur = pair[(n, s)]
            while kinds[cur[0]] is None:
                cur = pair[(cur[0], (cur[1] + 2) % 4)]
            seen.update({(n, s), cur})
            g.add_edge(n, cur[0])
    return g


def check_certified_nonplanar(diagram_text: str) -> str | None:
    simple = nx.Graph(diagram_graph(diagram_text))
    simple.remove_edges_from(list(nx.selfloop_edges(simple)))
    planar, _ = nx.check_planarity(simple)
    if planar:
        return "certificate issued for a planar graph"
    return None


def automorphism_count(n: int, edges) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    if g.number_of_edges() != len(edges):
        raise ValueError("automorphism_count expects a simple graph")
    return sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())


# Published crossing numbers (Guy; Kleitman; Zarankiewicz for K3,4).
GRAPH_CROSSING_NUMBERS = {
    "C5": 0,
    "K4": 0,
    "W4": 0,
    "K2,3": 0,
    "K3,3": 1,
    "K3,4": 2,
    "K5": 1,
    "K6": 3,
    "K5-subdivided": 1,
}
UNIONS = {"K4+K5": ("K4", "K5"), "K5.K5": ("K5", "K5")}


def graph_crossing_number(name: str) -> int:
    """Published value, and for unions the sum over the parts (additivity)."""
    if name in UNIONS:
        return sum(GRAPH_CROSSING_NUMBERS[p] for p in UNIONS[name])
    return GRAPH_CROSSING_NUMBERS[name]


# Crossing numbers from the knot table, by rational-closure twist word.
# The unknot is the one-crossing N-closure of 1/1.
KNOTS = {
    "unknot": ((1,), 0),
    "hopf": ((2,), 2),
    "trefoil": ((3,), 3),
    "figure-eight": ((2, 2), 4),
    "5_1": ((5,), 5),
    "5_2": ((3, 2), 5),
}
