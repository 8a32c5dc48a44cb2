"""End-to-end acceptance checks with wall-clock budgets.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible under ``pytest -s``
or in captured output) so a full run doubles as a scorecard.  The time
limits are asserted, not advisory.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import gcd

from graphknot import (
    Budget,
    LaurentPoly,
    MoveSite,
    Multigraph,
    RationalTangle,
    VertexOrientation,
    additivity_check,
    apply_move,
    automorphisms,
    cc_equivalent_within,
    check_nonplanar,
    complete_graph,
    connected_sum_diagrams,
    descending_diagram,
    diagram_to_text,
    disjoint_union_diagrams,
    enumerate_moves,
    kauffman_bracket,
    replay_path,
    section3_crossing_number,
    substitute,
    symmetric_product_orbits,
    verify_certificate,
)
from graphknot.gallery import (
    figure_eight,
    hopf_link,
    k5_diagram,
    kinked_unknot,
    trefoil,
    unknot,
    unlink,
)
from graphknot.layout import base_diagram
from graphknot.tangle import (
    infinity_tangle,
    normalize_fraction,
    tangle_from_fraction,
    zero_tangle,
)
from oracles import (
    atlas_graphs,
    bracket_state_sum,
    is_alternating,
    is_reduced,
    normal_forms,
)


@contextmanager
def scored(name, limit):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name} ({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    if elapsed > limit:
        print(f"[FAIL] {name} ({elapsed:.1f}s, over the {limit:.0f}s limit)")
        raise AssertionError(f"{name} took {elapsed:.1f}s, limit {limit:.0f}s")
    print(f"[PASS] {name} ({elapsed:.1f}s, limit {limit:.0f}s)")


def test_k5_certificates_at_every_vertex():
    """A certificate must exist for each of the five hub choices, and every
    crossing assignment must be pinned by a two-cycle sublink of linking
    number one."""
    with scored("k5-certificates-every-vertex", 5.0):
        d = k5_diagram()
        hubs = [v for v in d.vertices() if d.nodes[v].degree == 4]
        assert len(hubs) == 5
        for v in hubs:
            cert = check_nonplanar(d, VertexOrientation(v, 0))
            assert cert is not None, f"no certificate at vertex {v}"
            assert verify_certificate(cert).ok
            assert len(cert.per_assignment) == 2
            for rec in cert.per_assignment:
                assert rec.certificate.kind == "linked-cycles"
                assert rec.certificate.bound >= 2
                assert len(rec.certificate.cycles) == 2
                assert abs(rec.certificate.value) == 1
                assert any(abs(lk) == 1 for lk in rec.linking)


def test_soundness_sweep_on_small_planar_graphs():
    """Zero false positives over every connected planar simple graph with at
    most six vertices that passes the symmetric-product screen, on generated
    diagrams with at most two crossings."""
    with scored("soundness-sweep-planar-graphs", 600.0):
        cases = 0
        for _i, g in atlas_graphs():
            if not g.is_planar():
                continue
            if symmetric_product_orbits(automorphisms(g)) is None:
                continue
            base = base_diagram(g)
            diagrams = [base] if base.crossing_count <= 2 else []
            if base.crossing_count == 0:
                sites = enumerate_moves(base, ("R2_add",))
                if sites:
                    diagrams.append(apply_move(base, sites[0]))
            for d in diagrams:
                for v in d.vertices():
                    if d.nodes[v].degree != 4:
                        continue
                    for slot in range(4):
                        cases += 1
                        cert = check_nonplanar(d, VertexOrientation(v, slot))
                        assert cert is None, (
                            f"false positive on planar {g.edges} "
                            f"at vertex {v}, slot {slot}"
                        )
        assert cases > 300  # the sweep must not silently go vacuous


def test_alternating_closures_attain_the_span_bound():
    """For every twist normal form with 2..7 crossings, at least one closure
    is a connected reduced alternating diagram whose bracket span is exactly
    four times the crossing count."""
    with scored("alternating-closures-span", 60.0):
        forms = normal_forms(2, 7)
        assert len(forms) == 252

        def qualifies(d, r):
            return (
                len(d.components()) == 1
                and d.free_loops == 0
                and is_alternating(d)
                and is_reduced(d)
                and kauffman_bracket(d).span == 4 * r
            )

        for t in forms:
            r = t.minimal_crossings()
            assert qualifies(t.closure_n(), r) or qualifies(t.closure_d(), r), (
                t.conway
            )


def test_span_is_additive_under_connected_sums():
    """Twenty generated triples D1 # D(r) # D2 with reduced alternating
    outer summands: spans add exactly."""
    with scored("connected-sum-span-additivity", 60.0):
        pool = []
        for t in normal_forms(2, 4):
            d = t.closure_n()
            if (
                len(d.components()) == 1
                and d.free_loops == 0
                and is_alternating(d)
                and is_reduced(d)
            ):
                pool.append(d)
        middles = [t.closure_d() for t in normal_forms(2, 4)]
        triples = list(itertools.product(pool[:4], middles[:5], pool[-4:]))[:20]
        assert len(triples) == 20
        for d1, dm, d2 in triples:
            total = connected_sum_diagrams(
                connected_sum_diagrams(d1, 0, dm, 0), 0, d2, 0
            )
            expected = (
                kauffman_bracket(d1).span
                + kauffman_bracket(dm).span
                + kauffman_bracket(d2).span
            )
            assert kauffman_bracket(total).span == expected


def test_bracket_values_and_move_behavior():
    """Frozen values for the unknot and Hopf link, bracket invariance at
    every enumerable second/third move site on a small-diagram corpus, and
    the unit factor under first moves."""
    with scored("bracket-values-and-moves", 120.0):
        assert kauffman_bracket(unknot()) == LaurentPoly.one()
        assert kauffman_bracket(RationalTangle((2,)).closure_n()) == LaurentPoly(
            {-4: -1, 4: -1}
        )

        corpus = {}
        for d in (unknot(), unlink(2)):
            corpus[d.canonical_code()] = d
        for t in normal_forms(0, 4):
            for d in (t.closure_n(), t.closure_d()):
                corpus.setdefault(d.canonical_code(), d)
        for d in list(corpus.values()):
            if d.crossing_count <= 3:
                sites = enumerate_moves(d, ("R2_add",))
                if sites:
                    nd = apply_move(d, sites[0])
                    corpus.setdefault(nd.canonical_code(), nd)
        corpus = [d for d in corpus.values() if d.crossing_count <= 5]
        assert len(corpus) >= 30

        units = (LaurentPoly({3: -1}), LaurentPoly({-3: -1}))
        invariant_sites = unit_sites = 0
        for d in corpus:
            b = kauffman_bracket(d)
            for site in enumerate_moves(d, ("R2_add", "R2_remove", "R3")):
                assert kauffman_bracket(apply_move(d, site)) == b, site
                invariant_sites += 1
            for site in enumerate_moves(d, ("R1_add", "R1_remove")):
                nb = kauffman_bracket(apply_move(d, site))
                assert nb == b * units[0] or nb == b * units[1], site
                unit_sites += 1
        assert invariant_sites > 1000 and unit_sites > 500


def test_bracket_contraction_matches_the_state_sum():
    """The contraction and the 2^n state sum give identical brackets on
    every gallery link diagram and on both closures of every normal form
    with up to eight crossings, and of a fixed-stride sample of the
    9..12-crossing forms."""
    with scored("bracket-contraction-oracle", 20.0):
        diagrams = [
            unknot(), unlink(2), unlink(3), kinked_unknot(3), hopf_link(),
            trefoil(), figure_eight(),
            disjoint_union_diagrams(hopf_link(), trefoil()),
            connected_sum_diagrams(hopf_link(), 0, figure_eight(), 0),
        ]
        small = normal_forms(0, 8)
        assert len(small) == 512
        large = normal_forms(9, 12)[::336]
        assert len(large) == 23
        for t in small + large:
            diagrams.extend((t.closure_n(), t.closure_d()))
        compared = 0
        for d in diagrams:
            if d.crossing_count == 0 and d.free_loops == 0:
                continue  # the empty diagram has no bracket
            assert kauffman_bracket(d) == bracket_state_sum(d), diagram_to_text(d)
            compared += 1
        assert compared == 9 + 2 * (512 + 23)


def test_crossing_number_driver():
    """The crossing-number driver settles K4 at zero and K5 at one, with
    the one-crossing answer certified by a non-planarity bound."""
    with scored("crossing-number-driver", 120.0):
        r4 = section3_crossing_number(complete_graph(4))
        assert r4.value == 0 and r4.closed

        r5 = section3_crossing_number(complete_graph(5))
        assert r5.value == 1 and r5.closed
        assert r5.search.value == 1 and r5.search.lower_bound == 1
        assert any(o.kind == "nonplanar-graph" for o in r5.search.obstructions)


def test_crossing_number_additivity():
    """cr adds up over disjoint and one-point unions at desk scale."""
    with scored("crossing-number-additivity", 300.0):
        disjoint = additivity_check(complete_graph(4), complete_graph(5), "disjoint")
        assert disjoint.holds is True
        assert disjoint.combined.value == 1

        one_point = additivity_check(
            complete_graph(5), complete_graph(5), "one-point"
        )
        assert one_point.holds is True
        assert one_point.combined.value == 2


def _perturbed(base, seed, rounds=2):
    """A routing of the same placement: extra kinks/pokes/slides plus an
    arbitrary crossing assignment, leaving vertex rotations untouched."""
    rng = random.Random(seed)
    d = base
    for _ in range(rounds):
        kind = ("R1_add", "R2_add", "R3")[rng.randrange(3)]
        sites = enumerate_moves(d, (kind,))
        if sites:
            d = apply_move(d, sites[rng.randrange(len(sites))])
    for n in d.crossings():
        if rng.random() < 0.5:
            d = apply_move(d, MoveSite("CrossingChange", (n,)))
    return d


# Every multigraph with at most four edges on at most four vertices: the
# cases of the descending test, numbered from 1 in this order.
DESCENDING_GRAPHS = [
    Multigraph(n, combo)
    for n in range(1, 5)
    for m in range(0, 5)
    for combo in itertools.combinations_with_replacement(
        [(i, j) for i in range(n) for j in range(i, n)], m
    )
]


def descending_pair(case):
    """The two descending diagrams of case ``case`` (from 1): two
    independently perturbed routings of its graph's drawing, each layered
    descendingly with the identity arc order."""
    base = base_diagram(DESCENDING_GRAPHS[case - 1])
    return tuple(
        descending_diagram(_perturbed(base, seed).underlying_graph())
        for seed in (2 * case, 2 * case + 1)
    )


def test_descending_diagrams_coincide_up_to_moves():
    """For every multigraph with at most four edges on at most four
    vertices, two independently perturbed routings of the same vertex
    placement become equivalent once both are layered descendingly with the
    same arc order (verified by bidirectional search, whose move path must
    replay from one shadow to the other)."""
    with scored("descending-diagrams-coincide", 600.0):
        assert len(DESCENDING_GRAPHS) == 1251
        for case in range(1, len(DESCENDING_GRAPHS) + 1):
            dd1, dd2 = descending_pair(case)
            cap = max(dd1.crossing_count, dd2.crossing_count) + 2
            res = cc_equivalent_within(
                dd1, dd2, Budget(max_crossings=cap, max_states=100_000)
            )
            assert res.equivalent is True, (case, DESCENDING_GRAPHS[case - 1], res)
            # a path exactly when equivalent, the empty one for equal maps
            assert res.path is not None, case
            end = replay_path(dd1, res.path, shadow=True)
            assert end.canonical_code() == dd2.shadow_code(), case


def test_twist_words_classify_by_fraction():
    """For every fraction with numerator and denominator up to 12, distinct
    twist words realizing it give N-closures with equal brackets, and the
    normal form is idempotent and fraction-preserving."""
    with scored("twist-word-classification", 120.0):
        fractions = {(1, 0), (0, 1)}
        for p in range(-12, 13):
            for q in range(1, 13):
                if gcd(abs(p), q) == 1:
                    fractions.add(normalize_fraction(p, q))
        assert len(fractions) == 184

        for f in sorted(fractions):
            nf = tangle_from_fraction(f)
            words = [nf.conway, nf.conway[:1] + (0, 0) + nf.conway[1:]]
            first = nf.conway[0] if nf.conway else 0
            if abs(first) >= 2:
                s = 1 if first > 0 else -1
                words.append((s, first - s) + nf.conway[1:])
            brackets = set()
            for word in words:
                t = RationalTangle(word)
                assert t.fraction() == f
                assert t.normal_form() == nf
                assert t.normal_form().fraction() == f
                brackets.add(kauffman_bracket(t.closure_n()))
            assert len(brackets) == 1, (f, words)


def test_vertex_substitutions_stay_small():
    """On every generated crossing-free diagram with a degree-4 vertex, all
    four substitutions (both smoothings and both one-crossing tangles) give
    diagrams with crossing number at most one."""
    with scored("vertex-substitution-counting", 60.0):
        tangles = (
            zero_tangle(),
            infinity_tangle(),
            RationalTangle((1,)),
            RationalTangle((-1,)),
        )
        diagrams = []
        for _i, g in atlas_graphs():
            d = base_diagram(g)
            if d.crossing_count == 0 and any(
                d.nodes[v].degree == 4 for v in d.vertices()
            ):
                diagrams.append(d)
        assert len(diagrams) >= 30
        checked = 0
        for d in diagrams:
            for v in d.vertices():
                if d.nodes[v].degree != 4:
                    continue
                for slot in range(4):
                    for t in tangles:
                        sub = substitute(d, VertexOrientation(v, slot), t)
                        assert sub.crossing_count <= 1
                        checked += 1
        assert checked >= 800
