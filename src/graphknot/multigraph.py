"""Finite multigraphs with parallel edges and loops, plus automorphism tools.

Vertices are integers ``0 .. vertex_count - 1``.  Edges are unordered pairs
stored as ``(min, max)`` tuples; parallel edges simply repeat, and a loop is a
pair ``(v, v)``.  The edge *index* (position in the sorted ``edges`` tuple) is
the stable identifier used by anything that needs to distinguish parallel
edges.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum

import networkx as nx

from .errors import FormatError, InvalidVertexError, SizeLimitExceeded


@dataclass(frozen=True)
class Multigraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise FormatError("vertex count must be non-negative")
        normalized = []
        for edge in self.edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise FormatError(f"edge {edge!r} is not a pair") from None
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InvalidVertexError(
                    f"edge {edge!r} references a vertex outside 0..{self.vertex_count - 1}"
                )
            normalized.append((u, v) if u <= v else (v, u))
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def endpoints(self, edge_index: int) -> tuple[int, int]:
        return self.edges[edge_index]

    def degrees(self) -> list[int]:
        out = [0] * self.vertex_count
        for u, v in self.edges:
            out[u] += 1
            out[v] += 1
        return out

    def multiplicity(self, u: int, v: int) -> int:
        a, b = (u, v) if u <= v else (v, u)
        return sum(1 for e in self.edges if e == (a, b))

    def neighbors(self, vertex: int) -> set[int]:
        self._check_vertex(vertex)
        out = set()
        for u, v in self.edges:
            if u == vertex:
                out.add(v)
            elif v == vertex:
                out.add(u)
        return out

    def is_simple_cycle(self, edges) -> bool:
        """Whether the edge indices ``edges``, in any order, are the edges
        of one cycle without repeated vertices: a loop alone and two
        parallel edges are the short ones."""
        if not edges or len(set(edges)) != len(edges):
            return False
        if any(not 0 <= e < self.edge_count for e in edges):
            return False
        near: dict[int, list[int]] = {}  # each vertex's ends across its edges
        for e in edges:
            u, v = self.edges[e]
            near.setdefault(u, []).append(v)
            near.setdefault(v, []).append(u)
        if any(len(ws) != 2 for ws in near.values()):
            return False
        # each vertex met twice: one circle if one vertex reaches them all
        reached, frontier = set(), [next(iter(near))]
        while frontier:
            x = frontier.pop()
            if x not in reached:
                reached.add(x)
                frontier += near[x]
        return len(reached) == len(near)

    def _check_vertex(self, vertex: int) -> None:
        if not (0 <= vertex < self.vertex_count):
            raise InvalidVertexError(f"no vertex {vertex}")

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        parts = []
        for start in range(self.vertex_count):
            if start in seen:
                continue
            stack = [start]
            part = {start}
            while stack:
                x = stack.pop()
                for y in self.neighbors(x):
                    if y not in part:
                        part.add(y)
                        stack.append(y)
            seen |= part
            parts.append(part)
        return parts

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def _simple(self) -> nx.Graph:
        """The underlying simple graph: loops and parallel edges dropped."""
        simple = nx.Graph()
        simple.add_nodes_from(range(self.vertex_count))
        simple.add_edges_from((u, v) for u, v in self.edges if u != v)
        return simple

    def is_planar(self) -> bool:
        ok, _ = nx.check_planarity(self._simple())
        return ok

    def crossing_lower_bound(self) -> int:
        """A lower bound on the crossing number, read off the blocks of the
        underlying simple graph (dropping loops and parallel edges never
        raises it).

        The crossing number is the sum of the blocks' crossing numbers.  A
        block with n >= 3 vertices, m edges and girth g needs at least
        ⌈m - g(n - 2)/(g - 2)⌉ crossings, since a planar graph of girth g
        has at most g(n - 2)/(g - 2) edges, and at least 1 if it is
        non-planar; a bridge needs none (Schaefer, *Crossing Numbers of
        Graphs*, CRC 2018).  Both hold for every drawing of the graph.
        """
        total = 0
        for edges in nx.biconnected_component_edges(self._simple()):
            block = nx.Graph(edges)
            n, m = block.number_of_nodes(), block.number_of_edges()
            if n < 3:
                continue
            g = nx.girth(block)
            euler = -((g * (n - 2) - m * (g - 2)) // (g - 2))  # the ceiling, exactly
            if euler < 1:
                euler = 0 if nx.check_planarity(block)[0] else 1
            total += euler
        return total


# -- composition -----------------------------------------------------------


def disjoint_union(g: Multigraph, h: Multigraph) -> Multigraph:
    shift = g.vertex_count
    return Multigraph(
        g.vertex_count + h.vertex_count,
        g.edges + tuple((u + shift, v + shift) for u, v in h.edges),
    )


def one_point_union(g: Multigraph, gv: int, h: Multigraph, hv: int) -> Multigraph:
    """Glue ``h`` onto ``g`` by identifying vertex ``hv`` with ``gv``."""
    g._check_vertex(gv)
    h._check_vertex(hv)
    # vertices of h other than hv are appended after g's vertices
    mapping = {}
    next_label = g.vertex_count
    for x in range(h.vertex_count):
        if x == hv:
            mapping[x] = gv
        else:
            mapping[x] = next_label
            next_label += 1
    return Multigraph(
        g.vertex_count + h.vertex_count - 1,
        g.edges + tuple((mapping[u], mapping[v]) for u, v in h.edges),
    )


# -- standard constructions --------------------------------------------------


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite(m: int, n: int) -> Multigraph:
    return Multigraph(m + n, tuple((i, m + j) for i in range(m) for j in range(n)))


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Multigraph:
    if n < 1:
        raise FormatError("cycle needs at least one vertex")
    if n == 1:
        return Multigraph(1, ((0, 0),))
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


# -- text format -------------------------------------------------------------


_INTEGER = re.compile("-?[0-9]+")


def parse_int(token: str) -> int:
    """``token`` as an integer if it is ASCII digits with an optional leading
    ``-``; otherwise ``ValueError``.  Every text reader reads its numbers
    here, or by ``_INTEGER`` itself as ``parse_diagram``'s arc ends do, since
    ``int`` also takes other scripts' digits, ``1_0`` and ``+1``."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_graph(text: str) -> Multigraph:
    """Parse the line-based graph format.

    ::

        graph 4
        edge 0 1
        edge 1 2

    ``#`` starts a comment; blank lines are ignored.
    """
    vertex_count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "graph":
            if vertex_count is not None:
                raise FormatError(f"line {lineno}: repeated graph header")
            if len(fields) != 2:
                raise FormatError(f"line {lineno}: expected 'graph <n>'")
            try:
                vertex_count = parse_int(fields[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex count") from None
        elif fields[0] == "edge":
            if vertex_count is None:
                raise FormatError(f"line {lineno}: edge before graph header")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'edge <u> <v>'")
            try:
                edges.append((parse_int(fields[1]), parse_int(fields[2])))
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex label") from None
        else:
            raise FormatError(f"line {lineno}: unknown keyword {fields[0]!r}")
    if vertex_count is None:
        raise FormatError("missing graph header")
    return Multigraph(vertex_count, tuple(edges))


def graph_to_text(g: Multigraph) -> str:
    lines = [f"graph {g.vertex_count}"]
    lines.extend(f"edge {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# -- permutations and automorphisms ------------------------------------------


@dataclass(frozen=True)
class Permutation:
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(len(self.image))):
            raise FormatError(f"{self.image!r} is not a permutation")

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]


def _profiles(g: Multigraph) -> list[tuple]:
    """Cheap per-vertex invariants used to prune the automorphism search."""
    degs = g.degrees()
    out = []
    for v in range(g.vertex_count):
        loops = g.multiplicity(v, v)
        neigh = sorted(degs[w] for u, w in g.edges if u == v and w != v)
        neigh += sorted(degs[u] for u, w in g.edges if w == v and u != v)
        out.append((degs[v], loops, tuple(sorted(neigh))))
    return out


def _adjacency(g: Multigraph) -> list[list[int]]:
    m = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for u, v in g.edges:
        m[u][v] += 1
        if u != v:
            m[v][u] += 1
    return m


def _first_completion(profile, adj, image, used, k, targets) -> Permutation | None:
    """The first vertex permutation preserving edge multiplicities that agrees
    with ``image`` on ``0 .. k-1`` (``used`` marks those images) and sends
    ``k`` into ``targets``, trying images in increasing order; None if there
    is none.  ``profile`` and ``adj`` are ``_profiles`` and ``_adjacency`` of
    the graph."""
    n = len(image)
    for w in targets:
        if used[w] or profile[k] != profile[w]:
            continue
        if adj[k][k] != adj[w][w]:
            continue
        if any(adj[k][j] != adj[w][image[j]] for j in range(k)):
            continue
        image[k] = w
        used[w] = True
        if k + 1 == n:
            found = Permutation(tuple(image))
        else:
            found = _first_completion(profile, adj, image, used, k + 1, range(n))
        image[k] = -1
        used[w] = False
        if found is not None:
            return found
    return None


DEFAULT_MAX_AUT_VERTICES = 10


@dataclass(frozen=True)
class AutGroup:
    """The automorphism group G of a multigraph on ``degree`` vertices, by its
    order and generators; its elements are never listed.

    Let G_k be the automorphisms fixing each of ``0 .. k-1``, so G = G_0 >=
    G_1 >= ... >= G_n = 1.  ``generators`` holds, for each k and each w != k
    that some element of G_k sends k to, one such element.  With the
    identity they are one representative of each coset of G_{k+1} in G_k,
    so every element of G is a product of one representative per level:
    they generate G, and ``order`` is the product of the coset counts
    (Sims, "Computational methods in the study of permutation groups",
    1970).
    """

    degree: int
    order: int
    generators: tuple[Permutation, ...]

    def orbits(self) -> list[frozenset[int]]:
        """Vertex orbits, sorted by smallest member."""
        parent = list(range(self.degree))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in self.generators:
            for i in range(self.degree):
                ri, rj = find(i), find(p(i))
                if ri != rj:
                    parent[ri] = rj
        buckets: dict[int, set[int]] = {}
        for i in range(self.degree):
            buckets.setdefault(find(i), set()).add(i)
        return sorted((frozenset(b) for b in buckets.values()), key=min)

def automorphisms(g: Multigraph) -> AutGroup:
    """The automorphism group of ``g``, read off its pointwise-stabilizer
    chain on the base ``0, 1, ..., n-1``.

    At level k every automorphism found fixes ``0 .. k-1``: for each w > k a
    pruned depth-first search looks for the first one sending k to w and
    stops there.  So at most n(n-1)/2 automorphisms are built, however
    large the group.  The searches that find none can still take time
    factorial in n; ``DEFAULT_MAX_AUT_VERTICES`` bounds them.
    """
    if g.vertex_count > DEFAULT_MAX_AUT_VERTICES:
        raise SizeLimitExceeded(
            f"{g.vertex_count} vertices exceeds the guard of "
            f"{DEFAULT_MAX_AUT_VERTICES}"
        )
    n = g.vertex_count
    profile, adj = _profiles(g), _adjacency(g)
    image, used = [-1] * n, [False] * n
    order, generators = 1, []
    for k in range(n):
        cosets = 1  # the identity's, found without a search
        for w in range(k + 1, n):
            found = _first_completion(profile, adj, image, used, k, (w,))
            if found is not None:
                generators.append(found)
                cosets += 1
        order *= cosets
        image[k], used[k] = k, True
    return AutGroup(n, order, tuple(generators))


# -- minimalizability -----------------------------------------------------


class Minimalizability(Enum):
    """Whether every minimal-crossing diagram strategy is known to apply."""

    TRIVIAL = "trivial automorphism group"
    SYMMETRIC_PRODUCT = "symmetric-product automorphism group"
    UNKNOWN = "unknown"


def symmetric_product_orbits(
    aut: AutGroup,
) -> tuple[frozenset[int], ...] | None:
    """Orbit blocks if ``aut`` is the full product of their symmetric groups.

    Any permutation group fixes its own orbits setwise, so the group always
    embeds in the direct product of the symmetric groups on the orbits;
    equality holds exactly when the orders match.
    """
    orbits = aut.orbits()
    expected = 1
    for orbit in orbits:
        for k in range(2, len(orbit) + 1):
            expected *= k
    if aut.order == expected:
        return tuple(orbits)
    return None


def minimalizability(
    g: Multigraph,
) -> tuple[Minimalizability, tuple[frozenset[int], ...] | None, AutGroup]:
    """The verdict, its orbit blocks, and the automorphism group of ``g``
    that they were read from."""
    aut = automorphisms(g)
    if aut.order == 1:
        return Minimalizability.TRIVIAL, symmetric_product_orbits(aut), aut
    blocks = symmetric_product_orbits(aut)
    if blocks is not None:
        return Minimalizability.SYMMETRIC_PRODUCT, blocks, aut
    return Minimalizability.UNKNOWN, None, aut
