"""Rational tangles: fractions, normal forms, diagrams, and substitution.

A tangle fragment is an ordinary sphere diagram with four degree-1 marker
vertices standing for the box corners: ``a`` top-left, ``b`` top-right,
``c`` bottom-right, ``d`` bottom-left (clockwise).  The 0-tangle joins
``a - b`` and ``d - c``; the infinity tangle joins ``a - d`` and ``b - c``.
A horizontal twist braids the two right ends ``(b, c)`` and sends the
fraction ``f`` to ``f ± 1``; a vertical twist braids the bottom ends
``(c, d)`` and sends ``f`` to ``1/(1/f ± 1)``.

The numerator closure ``N`` glues ``a - b`` and ``d - c``; the denominator
closure ``D`` glues ``a - d`` and ``b - c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import Dart, Diagram, Vertex, _grown, _join, _union, splice
from .errors import FormatError, WrongDegreeError
from .multigraph import parse_int

END_LABELS = ("__end_a", "__end_b", "__end_c", "__end_d")
_A, _B, _C, _D = END_LABELS

Fraction2 = tuple[int, int]  # (p, q), q >= 0, gcd 1; (1, 0) is infinity

INFINITY: Fraction2 = (1, 0)
ZERO: Fraction2 = (0, 1)


def normalize_fraction(p: int, q: int) -> Fraction2:
    if p == 0 and q == 0:
        raise FormatError("0/0 is not a tangle fraction")
    if q == 0:
        return (1, 0)
    if q < 0:
        p, q = -p, -q
    g = math.gcd(abs(p), q)
    return (p // g, q // g)


@dataclass(frozen=True)
class RationalTangle:
    """A tangle given by a twist-count sequence (innermost block first).

    The blocks alternate so that the final block is horizontal: an
    odd-length sequence starts from the 0-tangle with a horizontal block,
    an even-length one starts from the infinity tangle with a vertical
    block.  The empty sequence is the infinity tangle itself.
    """

    conway: tuple[int, ...]

    def __post_init__(self) -> None:
        conway = tuple(self.conway)
        # ``int`` would take a float, a bool or a string of digits
        if any(type(a) is not int for a in conway):
            raise FormatError(f"twist counts must be ints, got {conway!r}")
        object.__setattr__(self, "conway", conway)

    # -- arithmetic ------------------------------------------------------

    def fraction(self) -> Fraction2:
        p, q = 1, 0
        for a in self.conway:
            p, q = a * p + q, p
        return normalize_fraction(p, q)

    def mirror(self) -> "RationalTangle":
        return RationalTangle(tuple(-a for a in self.conway))

    def normal_form(self) -> "RationalTangle":
        return tangle_from_fraction(self.fraction())

    def minimal_crossings(self) -> int:
        """Crossings of the reduced alternating form of this tangle."""
        return sum(abs(a) for a in self.normal_form().conway)

    def twist_word(self) -> list[tuple[str, int]]:
        word = []
        n = len(self.conway)
        for i, a in enumerate(self.conway, start=1):
            kind = "h" if (n - i) % 2 == 0 else "v"
            word.extend([(kind, 1 if a > 0 else -1)] * abs(a))
        return word

    def start_fraction(self) -> Fraction2:
        if not self.conway:
            return INFINITY
        return ZERO if len(self.conway) % 2 == 1 else INFINITY

    # -- diagrams ----------------------------------------------------------

    def fragment(self) -> Diagram:
        return fragment_from_twists(self.twist_word(), self.start_fraction())

    def closure_n(self) -> Diagram:
        """Numerator closure: glue ``a - b`` and ``d - c``."""
        return _close(self.fragment(), [(_A, _B), (_D, _C)])

    def closure_d(self) -> Diagram:
        """Denominator closure: glue ``a - d`` and ``b - c``."""
        return _close(self.fragment(), [(_A, _D), (_B, _C)])

    # -- text ----------------------------------------------------------------

    def display(self) -> str:
        if not self.conway:
            return "inf"
        return " ".join(str(a) for a in self.conway)

    def __str__(self) -> str:
        return self.display()


def parse_conway(text: str) -> RationalTangle:
    text = text.strip()
    if text in ("inf", "infinity"):
        return RationalTangle(())
    if not text:
        raise FormatError("empty tangle description")
    try:
        entries = tuple(parse_int(tok) for tok in text.split())
    except ValueError:
        raise FormatError(f"bad twist sequence {text!r}") from None
    return RationalTangle(entries)


def tangle_from_fraction(f: Fraction2) -> RationalTangle:
    """The unique reduced alternating twist sequence with this fraction.

    Positive fractions expand by the greedy continued fraction (every
    quotient at least 1, leading entry at least 2 unless the fraction is an
    integer, with a single trailing 0 when the fraction is less than 1);
    negative fractions are the mirror of their absolute value.
    """
    p, q = normalize_fraction(*f)
    if q == 0:
        return RationalTangle(())
    if p == 0:
        return RationalTangle((0,))
    if p < 0:
        return tangle_from_fraction((-p, q)).mirror()
    quotients = []
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    # quotients are outermost-first; the twist sequence is innermost-first
    return RationalTangle(tuple(reversed(quotients)))


# -- fragment construction ---------------------------------------------------


def zero_tangle() -> Diagram:
    ends = [Vertex(lbl, 1) for lbl in END_LABELS]
    return Diagram(ends, [((0, 0), (1, 0)), ((3, 0), (2, 0))])


def infinity_tangle() -> Diagram:
    ends = [Vertex(lbl, 1) for lbl in END_LABELS]
    return Diagram(ends, [((0, 0), (3, 0)), ((1, 0), (2, 0))])


def _end_dart(d: Diagram, label: str) -> Dart:
    return (d.vertex_index(label), 0)


def _twist(d: Diagram, kind: str, sign: int) -> Diagram:
    """One structural twist on a fragment.

    The new crossing's slots run counter-clockwise NE=0, NW=1, SW=2, SE=3.
    A horizontal twist hangs the crossing off the right side (old ``b``/``c``
    attachments move to NW/SW, the markers re-attach at NE/SE); a vertical
    twist hangs it off the bottom (old ``d``/``c`` to NW/NE, markers at
    SW/SE).  Positive twists put the slot-(0,2) strand on top.  Like a
    growing move, this is a local edit of the dart arrays, taken on trust.
    """
    if kind == "h":
        first, second = _end_dart(d, _B), _end_dart(d, _C)
        marker_slots = (0, 3)  # new b at NE, new c at SE
        cap = (1, 2)  # if b and c were directly joined, cap NW-SW
        attach_slots = (1, 2)  # old b attachment at NW, old c at SW
    elif kind == "v":
        first, second = _end_dart(d, _D), _end_dart(d, _C)
        marker_slots = (2, 3)  # new d at SW, new c at SE
        cap = (0, 1)  # if d and c were directly joined, cap NE-NW
        attach_slots = (1, 0)  # old d attachment at NW, old c at NE
    else:
        raise FormatError(f"unknown twist kind {kind!r}")
    if type(sign) is not int or sign not in (1, -1):
        raise FormatError(f"twist sign must be the int 1 or -1, got {sign!r}")
    x = len(d.nodes)
    p_first = d.partner(first)
    p_second = d.partner(second)
    nodes, darts = _grown(d, (0 if sign > 0 else 1,))
    if p_first == second:
        _join(darts, (x, cap[0]), (x, cap[1]))
    else:
        _join(darts, p_first, (x, attach_slots[0]))
        _join(darts, p_second, (x, attach_slots[1]))
    _join(darts, first, (x, marker_slots[0]))
    _join(darts, second, (x, marker_slots[1]))
    return Diagram._trusted(nodes, darts, d.free_loops, d.crossing_count + 1)


def fragment_from_twists(twists, start: Fraction2 = ZERO) -> Diagram:
    """Build a fragment by twisting up from the 0- or infinity tangle, one
    twist per ``(kind, sign)``: kind ``"h"`` or ``"v"``, sign 1 or -1."""
    if start == ZERO:
        d = zero_tangle()
    elif start == INFINITY:
        d = infinity_tangle()
    else:
        raise FormatError("fragments start from the 0- or infinity tangle")
    for kind, sign in twists:
        d = _twist(d, kind, sign)
    return d


def _close(d: Diagram, pairs) -> Diagram:
    """Glue the markers of each pair of labels in the fragment ``d``,
    deleting all four."""
    thru: dict[Dart, Dart] = {}
    for la, lb in pairs:
        u, v = _end_dart(d, la), _end_dart(d, lb)
        thru[u], thru[v] = v, u
    return splice(d, thru)


# -- substitution into a diagram ------------------------------------------------


@dataclass(frozen=True)
class VertexOrientation:
    """A degree-4 vertex together with the slot that plays box corner a."""

    vertex: int
    a_slot: int = 0


def substitute(
    d: Diagram, where: VertexOrientation, tangle: RationalTangle | Diagram
) -> Diagram:
    """Replace a degree-4 vertex by a tangle.

    ``where.a_slot`` orients the box: corner ``a`` lands on that slot, and
    since box corners a, d, c, b run counter-clockwise, ``d``, ``c``, ``b``
    land on the next three slots counter-clockwise.  A rational tangle's
    fragment is spliced in on trust.  A ``Diagram`` given as the tangle is
    a fragment with the four markers, but a caller's diagram need not be a
    tangle, so what it makes is validated.  The markers are looked up in
    the fragment alone, so ``d`` may use their labels too.
    """
    vertex, a_slot = where.vertex, where.a_slot
    if d.is_crossing(vertex) or d.degree_of(vertex) != 4:
        raise WrongDegreeError("substitution needs a degree-4 vertex")
    if not (0 <= a_slot < 4):
        raise FormatError("slot for corner a must be 0..3")
    fragment = tangle.fragment() if isinstance(tangle, RationalTangle) else tangle
    shift = len(d.nodes)
    thru: dict[Dart, Dart] = {}
    for k, label in enumerate((_A, _D, _C, _B)):
        m = fragment.vertex_index(label)
        if fragment.degree_of(m) != 1:
            raise WrongDegreeError(f"tangle marker {label} must have degree 1")
        slot, marker = (vertex, (a_slot + k) % 4), (m + shift, 0)
        thru[slot], thru[marker] = marker, slot
    out = splice(_union(d, fragment), thru)
    if fragment is tangle:  # a caller's diagram: check that it was a tangle
        return Diagram(out.nodes, out.arcs, out.free_loops)
    return out

