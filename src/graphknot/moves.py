"""Local moves on diagrams and the searches over them.

The move set: kink insertion/removal (R1), pokes (R2), triangle slides (R3),
twisting a pair of rotation-adjacent edges at a graph vertex into a crossing
and back (R5), and crossing changes.  Each kind is one entry of the table
``_KINDS``, which gives its change in the crossing count and its build;
``MOVE_KINDS`` lists the kinds in table order, which is the order of
``enumerate_moves``.  Every move is a rewrite of the rotation system in two
parts.  Where a move applies has one definition, the listing ``_listed``:
``enumerate_moves`` sorts it, and ``apply_move`` applies a site exactly
when the listing holds its parameters, spelled as the listing spells them
(plain ints, strings and pairs of plain ints), or raises
``MoveNotApplicable``; an ``R2_remove`` may name its bigon's two darts in
either order.  The condition of a removing move or an R3 slide is one
predicate (``_kink``, ``_poke``, ``_twisted``, ``_slides``) that the
listing filters its candidates by; the predicates read the dart arrays
``Diagram._darts``.  Every listed removal can be undone by a listed
growing move: ``_poke`` offers a bigon only where its two strands stay two
arcs once it is gone.  The build takes a listed site's parameters alone
and makes the child from the parent's dart arrays by a local edit and
``Diagram._trusted``, with no global re-check: the growing and sliding
moves (``R1_add``, ``R2_add``, ``R3``, ``R5_twist``) edit a copy where the
move acts with ``_grown`` and ``_join``, crossing changes share the map,
and the removing moves (``R1_remove``, ``R2_remove``, ``R5_untwist``)
delete their crossings with ``splice``.  The searches build the sites
they list with ``_build`` alone, so a child costs its local edit and its
key; ``apply_move`` lists the sites of its kind on every call.
``Diagram._validate`` stays the one definition of a valid map; the tests
hold every move result to it.

``shadow=True`` runs the same machinery on shadows: over/under data is
ignored, conditions that only exist to protect over/under consistency are
waived, and crossing changes are dropped.  Moves add crossings over at
parity 0, and of each pair of ``R2_add`` sites that poke the same two darts
in either order only the first is offered, since both make the same shadow.
A shadow search keys its states by ``Diagram.shadow_code``, so each shadow
is one state whatever its over/under data.  Two diagrams are equivalent
modulo crossing changes exactly when their shadows are move equivalent.

Both searches grow sides (``_Side``) that record each state as a parent
and a site.  ``search_min_crossings`` grows one side breadth-first;
``equivalent_within`` grows one from each end, fewest crossings first, by
partial expansion: a state's children that add crossings are built only
once the search has reached their crossing count.  Every move can be
undone, and each kind's entry in ``_KINDS`` also names the site that
undoes a listed one, so the move graph is undirected.  Where the sides
meet, the path's second half walks the far side's record back by those
undo sites, each carried onto the diagram the walk has reached by
matching the least traces of the two (``_carried``); no step lists or
builds a neighbourhood.

An expansion builds one child per orbit of sites (``_neighbors``).  The
roots that tie a component's least trace give its map automorphisms
(``Diagram._ties``), which permute the sites and so the children; a side
keeps them for the states that have any.  A site is skipped, unbuilt,
when a symmetry takes an earlier built site to it, when it is the undo of
the move that reached the state or an image of that undo, or when, off
shadows, it is the twin of a built ``R2_add``.  Each skipped child
has the key of an earlier sibling or of the state's parent, which the
side has recorded already, so the records, answers and paths are those
of building every site.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from .diagram import (
    Crossing,
    Dart,
    Diagram,
    GraphProjection,
    _grown,
    _join,
    _paired,
    _symmetries,
    splice,
)
from .errors import FormatError, MoveNotApplicable


@dataclass(frozen=True)
class MoveSite:
    kind: str
    params: tuple


@dataclass(frozen=True)
class Budget:
    """Limits of a search.

    ``max_crossings`` caps the crossings of every diagram a search visits.
    ``max_states`` caps the distinct diagrams it records, but softly: no
    expansion starts once the record holds ``max_states`` states, yet the
    last one records all of its new neighbours, so a search can end with
    more than ``max_states`` states.  An expansion is one waiting entry of
    a ``_Side``: in ``search_min_crossings`` a state and all its moves, in
    ``equivalent_within`` a state and one batch of its moves.
    ``exhausted`` needs a side with no waiting entries; it is false
    whenever the cap stopped the search.  In ``equivalent_within`` the
    record counts the states of both sides and the cap is tested after
    each expansion, so its first batch is always expanded.
    """

    max_crossings: int = 10
    max_states: int = 2_000_000


def normalize_shadow(d: Diagram) -> Diagram:
    """The one diagram of ``d``'s shadow whose ``canonical_code`` is its
    ``shadow_code``: each crossing is over at the parity of the slot by
    which the least shadow trace enters it (``Diagram.shadow_parities``)."""
    return d.with_parities(d.shadow_parities())


# -- where each move kind applies, and what it builds --------------------------


def _straight(c: int) -> dict[Dart, Dart]:
    """The ``splice`` map that runs both strands straight through crossing
    ``c``."""
    return {(c, 0): (c, 2), (c, 2): (c, 0), (c, 1): (c, 3), (c, 3): (c, 1)}


def _kink(d: Diagram, c: int, s: int) -> bool:
    """The arc at slot ``s`` of crossing ``c`` loops back to its next slot."""
    _deg, first, partner = d._darts
    return type(d.nodes[c]) is Crossing and partner[first[c] + s] == (c, (s + 1) % 4)


def _r1_remove(d: Diagram, params) -> Diagram:
    return splice(d, _straight(params[0]))


def _r1_add(d: Diagram, params) -> Diagram:
    c = len(d.nodes)
    if params[0] == "loop":
        nodes, darts = _grown(d, (params[1],))
        _join(darts, (c, 0), (c, 1))
        _join(darts, (c, 2), (c, 3))
        return Diagram._trusted(nodes, darts, d.free_loops - 1, d.crossing_count + 1)
    (arc_index, over, flip) = params
    x, y = d.arcs[arc_index]
    if flip:
        x, y = y, x
    nodes, darts = _grown(d, (over,))
    _join(darts, x, (c, 0))
    _join(darts, y, (c, 1))
    _join(darts, (c, 2), (c, 3))
    return Diagram._trusted(nodes, darts, d.free_loops, d.crossing_count + 1)


def _poke(d: Diagram, s: Dart, t: Dart, shadow: bool) -> bool:
    """``s`` and ``t`` bound a bigon face between two crossings whose
    strands poke instead of clasping, unless ``shadow``, and that stay two
    arcs once it is removed, so that an ``R2_add`` can undo the removal.
    Either order of the two darts gives the same answer."""
    (q, i), (p, j) = s, t
    nodes = d.nodes
    if q == p or type(nodes[q]) is not Crossing or type(nodes[p]) is not Crossing:
        return False
    # the face turns from s to t and from t to s: each slot's partner sits
    # just before the other slot on its crossing
    _deg, first, partner = d._darts
    m, k = partner[first[q] + i]
    if m != p or (k + 1) % 4 != j or partner[first[p] + j] != (q, (i - 1) % 4):
        return False
    # the strands run (q, i+2) .. (p, j+1) and (q, i+1) .. (p, j+2); if an
    # arc joins an outer end of one to an outer end of the other, removing
    # the bigon leaves them one arc, which no R2_add can poke back apart
    ends = ((q, (i + 2) % 4), (p, (j + 1) % 4))
    if partner[first[q] + (i + 1) % 4] in ends or partner[first[p] + (j + 2) % 4] in ends:
        return False
    # the strand along arc {s, pair(s)} is over at both ends or under at both
    return shadow or (i % 2 == nodes[q].over) == (k % 2 == nodes[p].over)


def _r2_remove(d: Diagram, params) -> Diagram:
    s, t = params
    thru = _straight(s[0])
    thru.update(_straight(t[0]))
    return splice(d, thru)


def _r2_add(d: Diagram, params) -> Diagram:
    """Poke the strand at dart ``u1`` across the one at ``u2``, making a
    bigon of two new crossings ``c1`` and ``c2``; ``"loop"`` in place of a
    dart pokes a free loop."""
    (u1, u2, over) = params
    _deg, first, partner = d._darts
    c1 = len(d.nodes)
    c2 = c1 + 1
    nodes, darts = _grown(d, (over, over))
    # the bigon: slots 1 and 2 of c1 meet slots 1 and 0 of c2
    _join(darts, (c1, 1), (c2, 1))
    _join(darts, (c2, 0), (c1, 2))
    # each poked strand runs on across the bigon to its old partner, read
    # off the parent's arrays; a poked free loop closes up there instead
    if u1 == "loop":
        _join(darts, (c1, 3), (c2, 3))
    else:
        _join(darts, u1, (c1, 3))
        _join(darts, (c2, 3), partner[first[u1[0]] + u1[1]])
    if u2 == "loop":
        _join(darts, (c1, 0), (c2, 2))
    else:
        _join(darts, u2, (c2, 2))
        _join(darts, (c1, 0), partner[first[u2[0]] + u2[1]])
    loops = (u1 == "loop") + (u2 == "loop")
    return Diagram._trusted(nodes, darts, d.free_loops - loops, d.crossing_count + 2)


def _slides(d: Diagram, s1: Dart, shadow: bool) -> bool:
    """The face at ``s1`` is a triangle of three distinct crossings, and
    unless ``shadow`` a strand passes across it: the triangle's three darts
    are neither all over nor all under.  Each of the three darts gives the
    same answer."""
    deg, first, partner = d._darts
    nodes = d.nodes
    q, i = s1
    p, j = partner[first[q] + i]
    j = (j + 1) % deg[p]
    r, k = partner[first[p] + j]
    k = (k + 1) % deg[r]
    return (
        partner[first[r] + k] == (q, (i - 1) % deg[q])
        and q != p != r != q
        and type(nodes[q]) is Crossing
        and type(nodes[p]) is Crossing
        and type(nodes[r]) is Crossing
        and (
            shadow
            or len({i % 2 == nodes[q].over, j % 2 == nodes[p].over, k % 2 == nodes[r].over})
            == 2
        )
    )


def _r3(d: Diagram, params) -> Diagram:
    (s1,) = params
    s2 = d.phi(s1)
    s3 = d.phi(s2)
    q, p, r = s1[0], s2[0], s3[0]

    def qs(k):
        return (q, (s1[1] + k) % 4)

    def ps(k):
        return (p, (s2[1] + k) % 4)

    def rs(k):
        return (r, (s3[1] + k) % 4)

    # counted from each corner's face dart, slots 0 and 3 hold the
    # triangle's sides; each outer slot (1 or 2) hands its strand over to a
    # side slot, and the outer slots are joined anew across the triangle
    sigma = {
        qs(2): ps(3),
        rs(1): ps(0),
        rs(2): qs(3),
        ps(1): qs(0),
        ps(2): rs(3),
        qs(1): rs(0),
    }
    deg, first, partner = d._darts
    darts = (deg, first, partner.copy())
    for a, b in sigma.items():
        far = partner[first[a[0]] + a[1]]
        _join(darts, b, sigma.get(far, far))
    _join(darts, ps(1), qs(2))
    _join(darts, ps(2), rs(1))
    _join(darts, qs(1), rs(2))
    return Diagram._trusted(d.nodes, darts, d.free_loops, d.crossing_count)


def _crossing_change(d: Diagram, params) -> Diagram:
    (c,) = params
    return d.with_parities({c: 1 - d.nodes[c].over})


def _r5_twist(d: Diagram, params) -> Diagram:
    (v, i, over) = params
    deg, first, partner = d._darts
    a = (v, i)
    b = (v, (i + 1) % deg[v])
    pa, pb = partner[first[v] + i], partner[first[v] + b[1]]
    c = len(d.nodes)
    nodes, darts = _grown(d, (over,))
    if pa == b:
        # the two slots are joined by a little loop arc; it rides along
        _join(darts, (c, 3), (c, 0))
    else:
        _join(darts, pa, (c, 3))
        _join(darts, pb, (c, 0))
    _join(darts, a, (c, 2))
    _join(darts, b, (c, 1))
    return Diagram._trusted(nodes, darts, d.free_loops, d.crossing_count + 1)


def _twisted(d: Diagram, v: int, i: int) -> bool:
    """Slots ``i`` and ``i + 1`` of vertex ``v`` run to consecutive slots of
    one crossing, as ``R5_twist`` leaves them.  At a vertex of degree 1 the
    two are one slot, whose arc cannot end at two slots."""
    nodes = d.nodes
    if type(nodes[v]) is Crossing:
        return False
    _deg, first, partner = d._darts
    c, k = partner[first[v] + i]
    return (
        type(nodes[c]) is Crossing
        and partner[first[v] + (i + 1) % nodes[v].degree] == (c, (k - 1) % 4)
    )


def _r5_untwist(d: Diagram, params) -> Diagram:
    (v, i) = params
    _deg, first, partner = d._darts
    c, k = partner[first[v] + i]
    # the slots fed by the vertex rejoin, and so do the other two
    w, x, y, z = (c, k), (c, (k + 1) % 4), (c, (k + 2) % 4), (c, (k + 3) % 4)
    return splice(d, {w: x, x: w, y: z, z: y})


# -- the way back --------------------------------------------------------------
#
# Every move a search takes can be undone (Kauffman, "Invariants of graphs
# in three-space", Trans. AMS 311, 1989): each kind's undo takes a listed
# site's parent and parameters and names the site of the child whose build
# has the parent's state key.  R1_add and R1_remove undo each other, and
# so do R2_add and R2_remove, and R5_twist and R5_untwist; an R3 slide is
# undone by the slide of the triangle it leaves.  The child's node numbers
# follow from the build: ``splice`` keeps the nodes it does not delete in
# order, and a growing move numbers its crossings after the parent's.  An
# undo names its site in dart form, which ``_spelled`` turns into the
# listing's spelling on the child or on any diagram ``_carried`` takes it
# to: an ``R1_add`` on an arc is ``((x, y), over)``, the darts its new
# crossing's slots 0 and 1 join; a new crossing is over at the parity that
# rebuilds the parent's crossing, even on a shadow; and two poked darts
# come in the order that pokes the parent's strands.


def _kept(n: int, *removed: int) -> int:
    """The number in the child of node ``n`` once ``splice`` deleted the
    nodes ``removed``."""
    return n - sum(m < n for m in removed)


def _r1_remove_undo(d: Diagram, params) -> MoveSite:
    # the kink's far slots c + 2 and c + 3 become slots 0 and 1 of the new
    # crossing, so its slot t is the old slot t + s + 2
    c, s = params
    over = (d.nodes[c].over + s) % 2
    x, y = d.partner((c, (s + 2) % 4)), d.partner((c, (s + 3) % 4))
    if x[0] == c:  # both loops of the crossing close up into a free loop
        return MoveSite("R1_add", ("loop", over))
    return MoveSite("R1_add", (((_kept(x[0], c), x[1]), (_kept(y[0], c), y[1])), over))


def _r1_add_undo(d: Diagram, params) -> MoveSite:
    return MoveSite("R1_remove", (len(d.nodes), 2))


def _r2_remove_undo(d: Diagram, params) -> MoveSite:
    # the bigon's darts (q, i) and (p, j) become darts (c1, 2) and (c2, 1)
    # of the poke: (q, i + 1) faces the poked strand's dart u1, and (p, j + 1)
    # the dart u2 it is poked across; an end that runs back into the bigon
    # is a free loop once it is gone
    (q, i), (p, j) = params
    over = (d.nodes[q].over + i) % 2

    def end(u: Dart):
        return "loop" if u[0] in (q, p) else (_kept(u[0], q, p), u[1])

    u1, u2 = d.partner((q, (i + 1) % 4)), d.partner((p, (j + 1) % 4))
    return MoveSite("R2_add", (end(u1), end(u2), over))


def _r2_add_undo(d: Diagram, params) -> MoveSite:
    c1 = len(d.nodes)
    return MoveSite("R2_remove", ((c1, 2), (c1 + 1, 1)))


def _r3_undo(d: Diagram, params) -> MoveSite:
    # the slide leaves its new triangle at the far slot of each corner
    ((q, i),) = params
    return MoveSite("R3", ((q, (i + 2) % 4),))


def _crossing_change_undo(d: Diagram, params) -> MoveSite:
    return MoveSite("CrossingChange", params)


def _r5_untwist_undo(d: Diagram, params) -> MoveSite:
    # the crossing's slot k, fed by (v, i), becomes the new one's slot 2
    v, i = params
    c, k = d.partner((v, i))
    return MoveSite("R5_twist", (_kept(v, c), i, (d.nodes[c].over + k) % 2))


def _r5_twist_undo(d: Diagram, params) -> MoveSite:
    return MoveSite("R5_untwist", params[:2])


# Every move kind, in the order ``enumerate_moves`` lists them, with its
# change in the crossing count, its build, which makes the child of a
# listed site from its parameters alone, and its undo.  Only the listing
# reads ``shadow``.
_KINDS = {
    "R1_remove": (-1, _r1_remove, _r1_remove_undo),
    "R2_remove": (-2, _r2_remove, _r2_remove_undo),
    "R5_untwist": (-1, _r5_untwist, _r5_untwist_undo),
    "R3": (0, _r3, _r3_undo),
    "CrossingChange": (0, _crossing_change, _crossing_change_undo),
    "R1_add": (1, _r1_add, _r1_add_undo),
    "R2_add": (2, _r2_add, _r2_add_undo),
    "R5_twist": (1, _r5_twist, _r5_twist_undo),
}

MOVE_KINDS = tuple(_KINDS)

# Crossing changes alter the object, not just the picture, so the searches
# that decide equivalence or count minimal crossings never take them.
# Equivalence *up to* crossing changes is the shadow search.
ISOTOPY_KINDS = tuple(k for k in MOVE_KINDS if k != "CrossingChange")


def _listed(d: Diagram, kind: str, shadow: bool) -> list[tuple]:
    """The parameters of every site of ``kind`` on ``d``, unsorted: the one
    definition of where a move of that kind applies."""
    overs = (0,) if shadow else (0, 1)
    if kind == "R1_remove":
        return [(c, s) for c in d.crossings() for s in range(4) if _kink(d, c, s)]
    if kind == "R2_remove":
        # a face starts at its least dart, so a bigon's two are sorted
        return [f for f in d.faces() if len(f) == 2 and _poke(d, *f, shadow)]
    if kind == "R5_untwist":
        return [
            (v, i) for v in d.vertices() for i in range(d.degree_of(v)) if _twisted(d, v, i)
        ]
    if kind == "R3":
        return [
            (anchor,)
            for face in d.faces()
            if len(face) == 3 and _slides(d, face[0], shadow)
            for anchor in face
        ]
    if kind == "CrossingChange":
        return [] if shadow else [(c,) for c in d.crossings()]
    found: list[tuple] = []
    if kind == "R1_add":
        for i in range(len(d.arcs)):
            for over in overs:
                for flip in (0, 1):
                    found.append((i, over, flip))
        if d.free_loops >= 1:
            for over in overs:
                found.append(("loop", over))
    elif kind == "R2_add":
        _deg, first, partner = d._darts
        for face in d.faces():
            # on a shadow, (u2, u1) pokes the bigon (u1, u2) does; keep
            # the twin whose text sorts first, each dart formatted once
            texts = [str(u) for u in face] if shadow else None
            for j, u1 in enumerate(face):
                for k, u2 in enumerate(face):
                    if u1 == u2 or partner[first[u1[0]] + u1[1]] == u2:
                        continue
                    if shadow and texts[k] < texts[j]:
                        continue
                    for over in overs:
                        found.append((u1, u2, over))
        # darts of separate components need no common face: the components
        # can always be arranged to present any two faces to each other,
        # since the map does not record their relative nesting
        comps = d.components()
        if len(comps) > 1:
            comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
            for u1 in d.darts():
                for u2 in d.darts():
                    if comp_of[u1[0]] < comp_of[u2[0]]:
                        for over in overs:
                            found.append((u1, u2, over))
        if d.free_loops >= 1:
            for dart in d.darts():
                for over in overs:
                    found.append(("loop", dart, over))
                    found.append((dart, "loop", over))
        if d.free_loops >= 2:
            for over in overs:
                found.append(("loop", "loop", over))
    elif kind == "R5_twist":
        for v in d.vertices():
            deg = d.degree_of(v)
            if deg < 2:
                continue
            for i in range(deg):
                for over in overs:
                    found.append((v, i, over))
    return found


def _plain(params) -> bool:
    """``params`` is spelled as the listing spells parameters: a tuple of
    plain ints, strings and pairs of plain ints.  A float or bool would
    match a listed int, since it equals and hashes like it, and then ride
    into the child.  Two levels deep, so no nesting recurses."""
    return type(params) is tuple and all(
        type(x) is int
        or type(x) is str
        or (type(x) is tuple and len(x) == 2 and type(x[0]) is int and type(x[1]) is int)
        for x in params
    )


def apply_move(d: Diagram, site: MoveSite, shadow: bool = False) -> Diagram:
    """The diagram ``site`` makes of ``d``.  A site applies exactly when
    ``enumerate_moves(d, shadow=shadow)`` lists it, up to the order of an
    ``R2_remove``'s two darts; any other raises ``MoveNotApplicable``."""
    kind, params = site.kind, site.params
    if type(kind) is str and kind in _KINDS and _plain(params):
        found = _listed(d, kind, shadow)
        if params in found or (kind == "R2_remove" and params[::-1] in found):
            return _build(d, site)
    # reprlib cuts the text of a deeply nested or huge input short
    raise MoveNotApplicable(f"{reprlib.repr(kind)} does not apply at {reprlib.repr(params)}")


def enumerate_moves(
    d: Diagram, kinds=MOVE_KINDS, shadow: bool = False
) -> list[MoveSite]:
    """All applicable sites, in a fixed deterministic order."""
    sites: list[MoveSite] = []
    for kind in kinds:
        sites.extend(MoveSite(kind, p) for p in _ordered(d, kind, shadow))
    return sites


def _ordered(d: Diagram, kind: str, shadow: bool) -> list[tuple]:
    """The parameters of every site of ``kind`` on ``d``, in the order of
    ``enumerate_moves``."""
    found = _listed(d, kind, shadow)
    found.sort(key=str)
    return found


def _build(d: Diagram, site: MoveSite) -> Diagram:
    """The diagram made by a site that ``_listed`` lists for ``d``: its
    kind's build alone, with no check."""
    return _KINDS[site.kind][1](d, site.params)


def _spelled(d: Diagram, site: MoveSite, shadow: bool) -> MoveSite:
    """The listed site of ``d`` that the dart form ``site`` names.  On a
    shadow a new crossing is over at parity 0.  Two poked darts of separate
    components come in component order, and on a shadow two darts of one
    face in the order of their text, as the listing offers them: poking the
    other strand across, over at the other parity, makes the same map."""
    kind, params = site.kind, site.params
    if kind == "R1_add":
        ends, over = params
        over = 0 if shadow else over
        if ends == "loop":
            return MoveSite(kind, (ends, over))
        x, y = ends
        flip = int(y < x)
        return MoveSite(kind, (d.arcs.index((y, x) if flip else (x, y)), over, flip))
    if kind == "R2_add":
        u1, u2, over = params
        over = 0 if shadow else over
        if u1 != "loop" and u2 != "loop":
            comps = d.components()
            c1 = next(k for k, comp in enumerate(comps) if u1[0] in comp)
            if u2[0] in comps[c1]:
                swap = shadow and str(u2) < str(u1)
            else:
                swap = next(k for k, comp in enumerate(comps) if u2[0] in comp) < c1
            if swap:
                u1, u2, over = u2, u1, over if shadow else 1 - over
        return MoveSite(kind, (u1, u2, over))
    if kind == "R5_twist":
        return MoveSite(kind, (*params[:2], 0 if shadow else params[2]))
    if kind == "R2_remove":
        return MoveSite(kind, tuple(sorted(params)))
    return site


def _dart_form(d: Diagram, site: MoveSite) -> MoveSite:
    """The listed ``site`` of ``d`` in dart form, as the undos name sites:
    an ``R1_add`` on an arc names the two darts its kink joins."""
    if site.kind != "R1_add" or site.params[0] == "loop":
        return site
    i, over, flip = site.params
    x, y = d.arcs[i]
    return MoveSite("R1_add", ((y, x) if flip else (x, y), over))


def _carried(src: Diagram, dst: Diagram, site: MoveSite, shadow: bool) -> MoveSite:
    """The dart form ``site`` of ``src`` carried onto ``dst``, a diagram of
    the same state key: each component's least trace numbers the nodes and
    rotates the slots of both alike, so ``_paired`` sends each trace of
    ``src`` onto the trace of ``dst``'s component of equal code."""
    pairs = zip(
        [piece[1:3] for piece in sorted(src._least_traces(shadow), key=lambda p: p[0])],
        [piece[1:3] for piece in sorted(dst._least_traces(shadow), key=lambda p: p[0])],
    )
    return _moved(site, *_paired(pairs, len(src.nodes)), src._darts[0])


def _moved(site: MoveSite, node, turn, deg) -> MoveSite:
    """The dart form ``site`` sent through the dart map ``(node, turn)`` of
    ``_paired``, on a diagram whose node degrees are ``deg``."""

    def to(u):
        if u == "loop":
            return u
        n, s = u
        return (node[n], (s + turn[n]) % deg[n])

    kind, params = site.kind, site.params
    if kind in ("R1_remove", "R5_untwist", "R5_twist"):  # a dart, spelled flat
        params = (*to(params[:2]), *params[2:])
    elif kind == "R1_add":
        ends, over = params
        params = (ends if ends == "loop" else (to(ends[0]), to(ends[1])), over)
    elif kind == "CrossingChange":
        params = (node[params[0]],)
    else:  # darts, "loop" and over parities in place
        params = tuple(x if type(x) is int else to(x) for x in params)
    return MoveSite(kind, params)


def _alike(d: Diagram, site: MoveSite, shadow: bool) -> list[MoveSite]:
    """``site`` and the sites of ``d`` that make the same map on sight: an
    R3 triangle slid from any of its three darts, and off shadows an
    ``R2_add``'s twin ``(u2, u1, 1 - over)``, which pokes the other strand
    across, over at the other parity.  Each is spelled as ``site`` is."""
    kind, params = site.kind, site.params
    if kind == "R3":
        (s1,) = params
        s2 = d.phi(s1)
        return [site, MoveSite(kind, (s2,)), MoveSite(kind, (d.phi(s2),))]
    if kind == "R2_add" and not shadow:
        u1, u2, over = params
        return [site, MoveSite(kind, (u2, u1, 1 - over))]
    return [site]


def _orbit(d: Diagram, site: MoveSite, maps, shadow: bool) -> set:
    """The params of the listed sites of ``d`` whose children have the
    state key of the child of ``site``, a site in dart form, all of its
    kind: the sites ``_alike`` it and their images under each symmetry of
    ``maps``, spelled as the listing spells them."""
    deg = d._darts[0]
    return {
        _spelled(d, image, shadow).params
        for same in _alike(d, site, shadow)
        for image in (same, *[_moved(same, node, turn, deg) for node, turn in maps])
    }


# -- searches -----------------------------------------------------------------


@dataclass
class SearchResult:
    best: Diagram
    exhausted: bool
    states: int


def _neighbors(
    d: Diagram, budget: Budget, shadow: bool, kinds=ISOTOPY_KINDS, ties=(), back=None
):
    """Each site of ``kinds`` on ``d`` within the budget, in list order,
    with the diagram it makes, less the sites known to repeat a key.  A
    kind changes the crossing count by its delta exactly, so keeping out
    the kinds that would pass the cap keeps out every child over it.
    Every site comes from the listing, so its kind's build makes it
    without the look-up ``apply_move`` does.

    ``ties`` are the tied traces of ``d`` (``Diagram._ties``), whose
    ``_symmetries`` are dart maps of its automorphisms, and ``back`` is
    the site, in dart form, that undoes the move by which a search reached
    ``d``, or None.  A site is skipped unbuilt when
    ``_orbit`` finds its child has the key of an earlier child or of the
    state ``back`` rebuilds: a site that ``_alike`` or a symmetry takes a
    built site to, such as the other two darts of a slid R3 triangle or,
    off shadows, the twin of a built ``R2_add``; and ``back`` itself, with
    its images.  A search has recorded both keys before it would key the
    skipped child, so it records the same states through the same first
    sites as it would building every site.  A kind's last site adds
    nothing to the kind's skip set, since no later site looks there."""
    room = budget.max_crossings - d.crossing_count
    use = tuple(k for k in kinds if _KINDS[k][0] <= room)
    maps = _symmetries(ties, len(d.nodes)) if ties else ()
    for kind in use:
        found = _ordered(d, kind, shadow)
        if not found:
            continue
        build = _KINDS[kind][1]
        # the listed params of this kind known to repeat a key
        skip = _orbit(d, back, maps, shadow) if back is not None and back.kind == kind else set()
        # whether a built site's orbit holds any site but itself: only under
        # a symmetry, or for the sites ``_alike`` pairs up
        grows = maps or kind == "R3" or (kind == "R2_add" and not shadow)
        last = found[-1]
        for params in found:
            if params in skip:
                continue
            site = MoveSite(kind, params)
            yield site, build(d, params)
            if params is last:
                break  # no later site of this kind to skip
            if grows:
                skip |= _orbit(d, _dart_form(d, site), maps, shadow)


def _state_key(shadow: bool):
    """What a search tells its states apart by: the shadow, or the map."""
    return Diagram.shadow_code if shadow else Diagram.canonical_code


# The batches of a partial expansion by the crossings their children add:
# the kinds that add none, then ``R1_add`` and ``R5_twist``, then ``R2_add``.
_BATCHES = {
    added: tuple(k for k in ISOTOPY_KINDS if max(_KINDS[k][0], 0) == added)
    for added in (0, 1, 2)
}


class _Side:
    """One side of a move search, grown from one diagram.

    The permanent record per visited code is just (parent code, site),
    which is all the path reconstruction needs: a path replays the sites
    of one side's record from its start, and walks the other side's back
    by their undo sites, carried onto the diagram it has reached; it
    lists no neighbourhood.  A state waiting to be
    expanded keeps only the diagram it was reached from, shared by its
    siblings, and is rebuilt from it and its site when expanded: most
    states are never expanded, so this keeps few diagrams alive.  The
    rebuild numbers its nodes as the child that was keyed did, so the
    symmetries read off that child's traces hold for it; ``ties`` keeps
    them, as ``Diagram._ties`` gives them, for the recorded states that
    have any until their first expansion takes them, and ``_neighbors``
    turns them into dart maps.  An expansion
    skips the sites whose children repeat a sibling's key (as plantri
    skips symmetric expansions: Brinkmann and McKay, MATCH 58, 2007) and
    the undo of the state's arrival, which rebuilds its parent (the
    used-operator rule of frontier search: Korf, Zhang, Thayer and
    Hohwald, J. ACM 52, 2005).

    The waiting entries form a heap: least rank first, then first to
    arrive.  Each entry is a state and the kinds it is to be expanded by;
    a later batch also keeps the rebuilt diagram, its undo site and its
    ties.
    A plain side ranks every state 0 and expands it by every kind at once.
    A ``partial`` side ranks a state by its crossing count c and expands
    it in batches (partial expansion, Yoshizumi, Miura and Ishida, AAAI
    2000): first by the kinds that add no crossing, then, pushed back with
    its rebuilt diagram, at rank c + 1 by the kinds that add one and at
    rank c + 2 by ``R2_add``.  A batch whose children would pass the cap
    is never pushed.  The sides usually meet before most growing batches
    come up, so most ``R2_add`` children are never built."""

    def __init__(self, d: Diagram, budget: Budget, shadow: bool, partial: bool):
        self.budget, self.shadow, self.partial = budget, shadow, partial
        self.key = _state_key(shadow)
        self.first = _BATCHES[0] if partial else ISOTOPY_KINDS
        code = self.key(d)
        self.record = {code: (None, None)}
        ties = d._ties(shadow)
        self.ties = {code: ties} if ties else {}
        self.pending = {code: d}
        self.waiting = [(self.rank(d), 0, code, self.first, None)]
        self.arrivals = count(1)

    def rank(self, d: Diagram) -> int:
        return d.crossing_count if self.partial else 0

    def expand(self):
        """Pop the least waiting entry and yield its state with its code;
        then record each new neighbour its kinds make within the budget and
        yield it with its code.  A state's first entry rebuilds it, names
        the site that undoes its arrival and, in a partial side, pushes back
        its later batches."""
        _rank, _arrival, code, kinds, built = heappop(self.waiting)
        if built is None:
            cur = self.pending.pop(code)
            back = None
            reached_by = self.record[code][1]
            if reached_by is not None:
                back = _KINDS[reached_by.kind][2](cur, reached_by.params)
                cur = _build(cur, reached_by)
            ties = self.ties.pop(code, ())
            if self.partial:
                for added in (1, 2):
                    rank = cur.crossing_count + added
                    if rank <= self.budget.max_crossings:
                        later = (cur, back, ties)
                        entry = (rank, next(self.arrivals), code, _BATCHES[added], later)
                        heappush(self.waiting, entry)
        else:
            cur, back, ties = built
        yield code, cur
        for site, nd in _neighbors(cur, self.budget, self.shadow, kinds, ties, back):
            ncode = self.key(nd)
            if ncode not in self.record:
                self.record[ncode] = (code, site)
                tied = nd._ties(self.shadow)
                if tied:
                    self.ties[ncode] = tied
                self.pending[ncode] = cur
                entry = (self.rank(nd), next(self.arrivals), ncode, self.first, None)
                heappush(self.waiting, entry)
                yield ncode, nd


def search_min_crossings(
    d: Diagram,
    budget: Budget | None = None,
    stop_at: int | None = None,
    shadow: bool = False,
) -> SearchResult:
    """Breadth-first search of everything reachable without exceeding the
    crossing cap.  ``exhausted`` reports whether the cap-bounded reachable
    set was fully explored before the state budget ran out.  With
    ``stop_at`` the search returns as soon as a diagram with that few
    crossings turns up (then ``exhausted`` only reflects how far it got).

    ``best`` has the fewest crossings, ties broken by the least state key:
    ``canonical_code``, or with ``shadow`` ``shadow_code``, whose states
    are shadows, so that crossing changes come free."""
    budget = budget or Budget()
    if stop_at is not None and d.crossing_count <= stop_at:
        return SearchResult(best=d, exhausted=False, states=1)
    # one plain side, whose constant rank expands its states in arrival order
    side = _Side(d, budget, shadow, partial=False)
    best, best_code = d, side.key(d)
    while side.waiting:
        expansion = side.expand()
        code, cur = next(expansion)
        if (cur.crossing_count, code) < (best.crossing_count, best_code):
            best, best_code = cur, code
        if len(side.record) >= budget.max_states:
            return SearchResult(best=best, exhausted=False, states=len(side.record))
        for _code, nd in expansion:
            if stop_at is not None and nd.crossing_count <= stop_at:
                return SearchResult(best=nd, exhausted=False, states=len(side.record))
    return SearchResult(best=best, exhausted=True, states=len(side.record))


def simplify(d: Diagram, budget: Budget | None = None) -> Diagram:
    """Best reachable diagram (fewest crossings, canonical tie-break).

    A diagram without vertices stops at the first diagram it reaches with
    no crossing: that one is just its free loops, one per component, and
    moves keep the component count, so no other diagram can beat it."""
    stop_at = None if d.vertices() else 0
    return search_min_crossings(d, budget, stop_at).best.canonical_form()


@dataclass
class EquivalenceResult:
    equivalent: bool | None  # None: undecided within the state budget
    path: tuple[MoveSite, ...] | None  # given exactly when equivalent is True
    states: int
    exhausted: bool


def _sites_to(record, code) -> list[MoveSite]:
    """The sites that lead from a side's start to its state ``code``."""
    sites = []
    while record[code][0] is not None:
        code, site = record[code]
        sites.append(site)
    sites.reverse()
    return sites


def equivalent_within(
    d1: Diagram,
    d2: Diagram,
    budget: Budget | None = None,
    shadow: bool = False,
) -> EquivalenceResult:
    """Bidirectional search for a move path ``d1 -> d2``.

    Each side keeps its waiting entries in a heap and expands one at a
    time: the one of least rank, the first to arrive among equal ranks.  A
    state of c crossings waits at rank c for the moves that add none, and
    its moves that add one or two crossings wait at rank c + 1 or c + 2
    (``_Side``).  The side with fewer waiting entries goes next (Pohl's
    cardinality rule).  The search stops when a side reaches a state the
    other has recorded, so a path it returns joins the two diagrams but is
    not promised to be a shortest one.  ``equivalent=True`` always comes
    with a path, which ``replay_path`` follows from ``d1`` to ``d2``: the
    forward half replays the sites the first side recorded, and the
    backward half rebuilds the second side's lineage from ``d2`` to the
    meeting state and takes the undo of each of its sites, in reverse,
    carried onto the diagram the path has reached.  Any other answer has
    ``path=None``.

    ``equivalent=False`` means the full reachable sets within the crossing
    cap were separated: no path of the moves in ``MOVE_KINDS`` other than
    crossing changes joins the diagrams through diagrams bounded by that
    cap.  The answer is relative to that move set.  For link diagrams it
    holds the Reidemeister moves; for graph diagrams it has no move that
    passes a strand across a vertex, so two diagrams of one spatial graph
    can be reported apart.  ``None`` means the state budget ran out first.
    With ``shadow`` the states are shadows, told apart by
    ``Diagram.shadow_code``.
    """
    budget = budget or Budget()
    key = _state_key(shadow)
    if key(d1) == key(d2):
        return EquivalenceResult(True, (), 2, True)
    # each side expands its entry of least rank first
    sides = [_Side(d, budget, shadow, partial=True) for d in (d1, d2)]
    records = [sides[0].record, sides[1].record]
    meet = None
    while meet is None and sides[0].waiting and sides[1].waiting:
        side = 0 if len(sides[0].waiting) <= len(sides[1].waiting) else 1
        expansion = sides[side].expand()
        next(expansion)  # the state itself; its new neighbours follow
        meet = next((c for c, _nd in expansion if c in records[1 - side]), None)
        if meet is None and len(records[0]) + len(records[1]) >= budget.max_states:
            return EquivalenceResult(None, None, len(records[0]) + len(records[1]), False)
    states = len(records[0]) + len(records[1])
    if meet is None:  # a side ran out of waiting states
        return EquivalenceResult(False, None, states, True)
    # each site of either half was listed on the diagram it is built from
    # here, so it is built unchecked
    path = _sites_to(records[0], meet)
    cur = d1
    for site in path:
        cur = _build(cur, site)
    # backward half: rebuild the lineage d2 .. meet, then walk it back from
    # cur, a diagram of meet's key, by the undo of each of its sites,
    # carried from the lineage onto cur
    back = _sites_to(records[1], meet)
    lineage = [d2]
    for site in back:
        lineage.append(_build(lineage[-1], site))
    for site, parent, child in reversed(list(zip(back, lineage, lineage[1:]))):
        undo = _KINDS[site.kind][2](parent, site.params)
        step = _spelled(cur, _carried(child, cur, undo, shadow), shadow)
        path.append(step)
        cur = _build(cur, step)
    return EquivalenceResult(True, tuple(path), states, True)


def cc_equivalent_within(
    d1: Diagram, d2: Diagram, budget: Budget | None = None
) -> EquivalenceResult:
    """Equivalence allowing crossing changes: compare shadows."""
    return equivalent_within(d1, d2, budget, shadow=True)


def replay_path(d: Diagram, path, shadow: bool = False) -> Diagram:
    """The end of ``path`` from ``d``; with ``shadow``, its
    ``normalize_shadow``, so that its ``canonical_code`` is the shadow's."""
    cur = d
    for site in path:
        cur = apply_move(cur, site, shadow=shadow)
    return normalize_shadow(cur) if shadow else cur


# -- descending reassignment ----------------------------------------------------


def descending_diagram(
    projection: GraphProjection, edge_order: list[int] | None = None
) -> Diagram:
    """Reassign over/under so earlier strands pass over later ones.

    Strands are ranked by ``edge_order`` (edge indices of the projection's
    graph; identity by default), with closed circles after all edges.  Each
    strand is walked from its lower end; where two strands meet, the one of
    smaller rank goes over, and where a strand crosses itself its first
    passage goes over.
    """
    d = projection.diagram
    order = list(range(len(projection.strands))) if edge_order is None else list(edge_order)
    if sorted(order) != list(range(len(projection.strands))):
        raise FormatError("edge_order must permute the edge indices")
    schedule: list[tuple[Dart, ...]] = [projection.strands[e].passages for e in order]
    schedule.extend(projection.circles)
    first_parity: dict[int, int] = {}  # crossing -> parity of its first passage
    for passages in schedule:
        for n, s in passages:
            first_parity.setdefault(n, s % 2)
    return d.with_parities(first_parity)
