"""The three workloads, each built from a seed as a cycle of sub-rounds.

Every sub-round of a workload has the same make-up: the same number of ops
of each kind, drawn from the same cost strata, and the same fixed ops that
hit a known program fault.  The seed picks the inputs inside each stratum
and the order of the ops.  A run plays sub-rounds in turn, so a run that
stops after any whole sub-round has the same share of failed ops.

Every op starts from text (a diagram, a graph, a certificate or a twist
word), so no ``Diagram`` cache carries over from one op to the next.  Ops
with a CLI subcommand go through ``graphknot.cli.main`` in process; the
others call the library.  Program functions are always looked up on their
module when called, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache
from math import gcd
from pathlib import Path
from typing import Any, Callable

import networkx as nx
from graphknot import (
    cli,
    diagram,
    errors,
    gallery,
    invariants,
    layout,
    moves,
    multigraph,
    tangle,
)

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Budget of the descending-diagram acceptance test, and of every search here.
SEARCH_STATES = 100_000


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    fault: str | None = None  # the named program fault this op is kept to show


# The program faults kept as failing ops, each with the start of the one
# failure it is known to cause.  A fault-tagged op that fails in any other
# way is an unexpected failure.
FAULT_SHADOW = "shadow-path-recovery"
FAULT_KINK_BIGON = "kink-bigon-path-recovery"
FAULT_CYCLE_INDEX = "verify-raises-on-bad-cycle-index"
FAULT_SHORT_WITNESS = "verify-raises-on-short-witness"
FAULT_NEGATIVE_VERTEX = "verify-raises-on-negative-vertex"
FAULTS = {
    FAULT_SHADOW: "equivalent, but without a move path",
    FAULT_KINK_BIGON: "equivalent, but without a move path",
    FAULT_CYCLE_INDEX: "raised IndexError at endpoints < _is_simple_cycle < verify_certificate <",
    FAULT_SHORT_WITNESS: "raised IndexError at verify_certificate <",
    FAULT_NEGATIVE_VERTEX: "raised ValueError at verify_certificate <",
}


def raised(exc: BaseException) -> str:
    """An op's failure by exception, with the innermost functions it passed
    through, innermost first."""
    frames = traceback.extract_tb(exc.__traceback__)[::-1][:4]
    where = " < ".join(frame.name for frame in frames)
    return f"raised {type(exc).__name__} at {where}: {exc}"


def is_known_fault(op: Op, problem: str) -> bool:
    return op.fault is not None and problem.startswith(FAULTS[op.fault])


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def cli_json(output) -> tuple[int, dict]:
    code, text = output
    return code, json.loads(text) if text.strip() else {}


def _text(d) -> str:
    return diagram.diagram_to_text(d)


def _parse(text: str):
    return diagram.parse_diagram(text)


class Workdir:
    """CLI input files of one run, named by a running counter."""

    def __init__(self, path: Path):
        self.path = path
        self.count = 0

    def write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = self.path / f"{self.count:05d}{suffix}"
        path.write_text(text)
        return str(path)

    def reserve(self, suffix: str) -> str:
        self.count += 1
        return str(self.path / f"{self.count:05d}{suffix}")


def _perturb(d, rng: random.Random, kinds):
    """Apply one seeded move of each kind in turn, skipping kinds with no site."""
    for kind in kinds:
        sites = moves.enumerate_moves(d, (kind,))
        if sites:
            d = moves.apply_move(d, sites[rng.randrange(len(sites))])
    return d


def _cycle_draws(rng: random.Random, pool, per_round: int, rounds: int):
    """``rounds`` lists of ``per_round`` items, without repeats until the
    pool is used up."""
    order = []
    while len(order) < per_round * rounds:
        order.extend(rng.sample(pool, len(pool)))
    return [order[j * per_round : (j + 1) * per_round] for j in range(rounds)]


# -- search ----------------------------------------------------------------------


@cache
def _case_graphs():
    """The acceptance test's cases, numbered from 1 in the same order."""
    out = []
    for n in range(1, 5):
        pair_types = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(0, 5):
            out.extend(
                (n, combo)
                for combo in itertools.combinations_with_replacement(pair_types, m)
            )
    return out


def descending_cases():
    return range(1, len(_case_graphs()) + 1)


def _test_perturbed(base, seed: int):
    """Two seeded isotopy moves and a random crossing assignment, exactly as
    the acceptance test draws them."""
    rng = random.Random(seed)
    d = base
    for _ in range(2):
        kind = ("R1_add", "R2_add", "R3")[rng.randrange(3)]
        sites = moves.enumerate_moves(d, (kind,))
        if sites:
            d = moves.apply_move(d, sites[rng.randrange(len(sites))])
    for n in d.crossings():
        if rng.random() < 0.5:
            d = moves.apply_move(d, moves.MoveSite("CrossingChange", (n,)))
    return d


def descending_pair(case: int):
    """``(text1, text2, cap)`` for a case, or None when both descending
    diagrams already coincide."""
    n, combo = _case_graphs()[case - 1]
    base = layout.base_diagram(multigraph.Multigraph(n, combo))
    dd1, dd2 = (
        moves.descending_diagram(_test_perturbed(base, seed).underlying_graph())
        for seed in (2 * case, 2 * case + 1)
    )
    if dd1.canonical_code() == dd2.canonical_code():
        return None
    return _text(dd1), _text(dd2), max(dd1.crossing_count, dd2.crossing_count) + 2


def run_descending(text1: str, text2: str, cap: int):
    return moves.cc_equivalent_within(
        _parse(text1),
        _parse(text2),
        moves.Budget(max_crossings=cap, max_states=SEARCH_STATES),
    )


def check_path(text1: str, text2: str, result, shadow: bool) -> str | None:
    """The search said yes, and its path really leads from one to the other."""
    if result.equivalent is not True:
        return f"equivalent={result.equivalent}"
    if result.path is None:
        return "equivalent, but without a move path"
    target = _parse(text2)
    if shadow:
        target = moves.normalize_shadow(target)
    try:
        end = moves.replay_path(_parse(text1), result.path, shadow=shadow)
    except errors.GraphKnotError as exc:
        return f"path does not replay: {exc}"
    if end.canonical_code() != target.canonical_code():
        return "path ends away from the target"
    return None


def f_self_of(text: str):
    d = _parse(text)
    bracket = checks.poly(invariants.kauffman_bracket(d).to_json())
    self_writhe = invariants.writhe(d) - 2 * sum(invariants.linking_numbers(d).values())
    return checks.f_self(bracket, self_writhe)


def check_simplify(output, source_text: str, crossings: int) -> str | None:
    code, out = cli_json(output)
    if code != 0:
        return f"exit code {code}"
    if out["crossings_after"] != crossings:
        return f"simplified to {out['crossings_after']} crossings, table says {crossings}"
    if f_self_of(out["diagram"]) != f_self_of(source_text):
        return "simplified diagram has another f-polynomial"
    return None


def check_crossing_number(report, crossings: int) -> str | None:
    if not report.conclusive or report.value != crossings:
        return f"crossing number {report.value}, table says {crossings}"
    return None


# A poke and a slide.  A kink added before them makes equivalent_within
# answer "equivalent" without a path on some seeds (FAULT_KINK_BIGON), so
# the seeded equivalence ops add none; the fault is shown instead by the
# fixed perturbations in HOPF_KINK_BIGON.
KNOT_PERTURBATION = ("R2_add", "R3")
# Two kink, poke and slide (R1, R2, R3) perturbations of the Hopf link, the
# N-closure of 2, on which equivalent_within answers "equivalent" without a
# move path: the backward search removes a bigon one of whose crossings
# carries a kink, and no R2_add rebuilds it.
HOPF_KINK_BIGON = (
    "diagram\ncrossing 02\ncrossing 02\ncrossing 13\ncrossing 02\ncrossing 02\n"
    "arc 0.0 1.1\narc 0.1 3.1\narc 0.2 1.3\narc 0.3 4.1\narc 1.0 3.2\narc 1.2 4.0\n"
    "arc 2.0 4.3\narc 2.1 4.2\narc 2.2 2.3\narc 3.0 3.3\n",
    "diagram\ncrossing 02\ncrossing 02\ncrossing 13\ncrossing 02\ncrossing 02\n"
    "arc 0.0 3.2\narc 0.1 1.0\narc 0.2 4.0\narc 0.3 1.2\narc 1.1 3.1\narc 1.3 4.1\n"
    "arc 2.0 4.3\narc 2.1 4.2\narc 2.2 2.3\narc 3.0 3.3\n",
)
# search_cases.json: passing pairs slower than SEARCH_MAX_SECONDS are left
# out, and the rest cut into SEARCH_STRATA strata of similar cost.
SEARCH_STRATA = 40
SEARCH_MAX_SECONDS = 0.5
SEARCH_STRATA_PER_ROUND = 1  # pairs drawn from each cost stratum
SEARCH_FAILING_PER_ROUND = 5  # the cheapest pairs that hit FAULT_SHADOW
SEARCH_ROUNDS = 10


def build_search(rng: random.Random, work: Workdir) -> list[list[Op]]:
    cases = json.loads((HERE / "search_cases.json").read_text())
    draws = [
        _cycle_draws(rng, stratum, SEARCH_STRATA_PER_ROUND, SEARCH_ROUNDS)
        for stratum in cases["strata"]
    ]

    def pair_op(case: int, fault: str | None) -> Op:
        text1, text2, cap = descending_pair(case)
        return Op(
            "cc_equivalent_within",
            lambda: run_descending(text1, text2, cap),
            lambda res: check_path(text1, text2, res, shadow=True),
            fault,
        )

    def equivalence_op(knot_text: str, perturbed: str, fault: str | None = None) -> Op:
        budget = moves.Budget(
            max_crossings=_parse(perturbed).crossing_count, max_states=SEARCH_STATES
        )
        return Op(
            "equivalent_within",
            lambda: moves.equivalent_within(_parse(knot_text), _parse(perturbed), budget),
            lambda res: check_path(knot_text, perturbed, res, shadow=False),
            fault,
        )

    knots = {
        name: (_text(tangle.RationalTangle(word).closure_n()), c)
        for name, (word, c) in checks.KNOTS.items()
    }
    failing = [pair_op(c, FAULT_SHADOW) for c in cases["failing"][:SEARCH_FAILING_PER_ROUND]]
    failing += [
        equivalence_op(knots["hopf"][0], perturbed, FAULT_KINK_BIGON)
        for perturbed in HOPF_KINK_BIGON
    ]
    rounds = []
    for j in range(SEARCH_ROUNDS):
        ops = [pair_op(case, None) for d in draws for case in d[j]] + failing
        for knot_text, c in knots.values():
            knot = _parse(knot_text)
            kinked_d = _perturb(knot, rng, ["R1_add"])
            kinked, kinked_cap = _text(kinked_d), kinked_d.crossing_count
            poked_d = _perturb(knot, rng, KNOT_PERTURBATION)
            poked, cap = _text(poked_d), poked_d.crossing_count
            budget = moves.Budget(max_crossings=cap, max_states=SEARCH_STATES)
            path = work.write(kinked, ".diagram")
            ops.append(equivalence_op(knot_text, poked))
            ops.append(
                Op(
                    "simplify",
                    lambda p=path, cap=kinked_cap: run_cli(
                        "simplify", p, "--json",
                        "--budget-crossings", cap,
                        "--budget-states", SEARCH_STATES,
                    ),
                    lambda out, k=kinked, c=c: check_simplify(out, k, c),
                )
            )
            ops.append(
                Op(
                    "crossing_number",
                    lambda p=poked, b=budget: invariants.crossing_number(_parse(p), b),
                    lambda rep, c=c: check_crossing_number(rep, c),
                )
            )
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# -- bracket ---------------------------------------------------------------------


def normal_forms(lo: int, hi: int):
    """Every reduced twist-sequence normal form with lo..hi crossings, as the
    acceptance tests enumerate them."""
    forms = {}
    bound = 3 * hi
    for p in range(-bound, bound + 1):
        for q in range(0, bound + 1):
            if (p or q) and gcd(abs(p), q) == 1:
                t = tangle.tangle_from_fraction(tangle.normalize_fraction(p, q))
                if lo <= t.minimal_crossings() <= hi:
                    forms[t.conway] = t
    return [forms[k] for k in sorted(forms)]


def reduced_closure(word) -> str:
    """The closure of a normal form that is a reduced alternating diagram:
    N, unless the word ends in the 0 that marks a fraction below one."""
    return "D" if word and word[-1] == 0 else "N"


def check_invariant(output, crossings: int, components: int) -> str | None:
    """Every ``invariant`` input here is reduced, alternating and connected."""
    code, out = cli_json(output)
    if code != 0:
        return f"exit code {code}"
    if out["crossings"] != crossings:
        return f"{out['crossings']} crossings, built with {crossings}"
    bracket = checks.poly(out["bracket"])
    return checks.check_v_at_one(bracket, out["writhe"], components) or checks.check_span(
        bracket, crossings
    )


def check_tangle(output, word, source) -> str | None:
    """``source`` is the normal form the word was derived from."""
    code, out = cli_json(output)
    if code != 0:
        return f"exit code {code}"
    p, q = checks.word_fraction(word)
    nf = checks.fraction_normal_form(p, q)
    c = sum(abs(a) for a in nf)
    if out["fraction"] != f"{p}/{q}" or checks.word_fraction(source) != (p, q):
        return f"fraction {out['fraction']}, want {p}/{q}"
    if out["normal_form"] != (" ".join(map(str, nf)) or "inf"):
        return f"normal form {out['normal_form']}, want {nf}"
    if out["minimal_crossings"] != c:
        return f"minimal crossings {out['minimal_crossings']}, want {c}"
    word_crossings = sum(abs(a) for a in word)
    for closure in ("N", "D"):
        bracket = checks.poly(out[f"closure_{closure.lower()}_bracket"])
        mu = checks.closure_components(p, q, closure)
        problem = checks.check_v_at_one(bracket, word_crossings, mu)
        if problem is None and closure == reduced_closure(nf):
            problem = checks.check_span(bracket, c)
        if problem:
            return f"{closure}-closure: {problem}"
    return None


def _tangle_word(rng: random.Random, nf) -> tuple[int, ...]:
    """Another twist word for the same tangle, as the classification test
    writes them: with an inserted pair of zeros, or a split first entry."""
    words = [nf, nf[:1] + (0, 0) + nf[1:]]
    first = nf[0] if nf else 0
    if abs(first) >= 2:
        s = 1 if first > 0 else -1
        words.append((s, first - s) + nf[1:])
    return words[rng.randrange(len(words))]


# Each sub-round draws one normal form in 28 at each crossing count, so
# there are more small forms than large ones, as among all forms; that also
# puts the median op among the ten-crossing invariants.
BRACKET_FORMS_SHARE = 28
BRACKET_CROSSINGS = range(8, 13)
BRACKET_TWISTS = range(10, 15)
BRACKET_SUM_TOTALS = range(10, 15)
BRACKET_ROUNDS = 6


def build_bracket(rng: random.Random, work: Workdir) -> list[list[Op]]:
    forms = normal_forms(min(BRACKET_CROSSINGS), max(BRACKET_CROSSINGS))
    by_crossings = {
        c: [t.conway for t in forms if t.minimal_crossings() == c] for c in BRACKET_CROSSINGS
    }
    invariant_draws = {
        c: _cycle_draws(rng, words, len(words) // BRACKET_FORMS_SHARE, BRACKET_ROUNDS)
        for c, words in by_crossings.items()
    }
    tangle_draws = {
        c: _cycle_draws(rng, words, 1, BRACKET_ROUNDS) for c, words in by_crossings.items()
    }
    # knots for connected sums: N-closures of odd numerators, 3..7 crossings
    summands = {}
    for t in normal_forms(3, 7):
        p, _q = checks.word_fraction(t.conway)
        if p % 2 and reduced_closure(t.conway) == "N":
            summands.setdefault(t.minimal_crossings(), []).append(t.conway)

    def invariant_op(d, crossings, components, extra=None) -> Op:
        path = work.write(_text(d), ".diagram")

        def check(out):
            problem = check_invariant(out, crossings, components)
            if problem is None and extra is not None:
                problem = extra(checks.poly(cli_json(out)[1]["bracket"]))
            return problem

        return Op("invariant", lambda: run_cli("invariant", path, "--json"), check)

    twists = [
        invariant_op(
            tangle.RationalTangle((n,)).closure_n(),
            n,
            checks.closure_components(n, 1, "N"),
            lambda b, n=n: checks.check_twist(b, n),
        )
        for n in BRACKET_TWISTS
    ]
    rounds = []
    for j in range(BRACKET_ROUNDS):
        ops = list(twists)
        for c in BRACKET_CROSSINGS:
            for word in invariant_draws[c][j]:
                t = tangle.RationalTangle(word)
                closure = reduced_closure(word)
                d = t.closure_n() if closure == "N" else t.closure_d()
                p, q = checks.word_fraction(word)
                ops.append(invariant_op(d, c, checks.closure_components(p, q, closure)))
            (nf,) = tangle_draws[c][j]
            word = _tangle_word(rng, nf)
            ops.append(
                Op(
                    "tangle",
                    lambda w=" ".join(map(str, word)): run_cli("tangle", "--json", "--", w),
                    lambda out, w=word, nf=nf: check_tangle(out, w, nf),
                )
            )
        for total in BRACKET_SUM_TOTALS:
            c1 = rng.choice([c for c in summands if total - c in summands])
            d1 = tangle.RationalTangle(rng.choice(summands[c1])).closure_n()
            d2 = tangle.RationalTangle(rng.choice(summands[total - c1])).closure_n()
            summed = diagram.connected_sum_diagrams(
                d1,
                rng.randrange(len(d1.arcs)),
                d2,
                rng.randrange(len(d2.arcs)),
                swap=rng.random() < 0.5,
            )
            left, right = _text(d1), _text(d2)
            ops.append(
                invariant_op(
                    summed,
                    total,
                    1,
                    lambda b, left=left, right=right: checks.check_product(
                        b, bracket_of(left), bracket_of(right)
                    ),
                )
            )
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


@cache
def bracket_of(text: str):
    return checks.poly(invariants.kauffman_bracket(_parse(text)).to_json())


# -- certify ---------------------------------------------------------------------

GRAPHS = {
    "C5": lambda: multigraph.cycle_graph(5),
    "K4": lambda: multigraph.complete_graph(4),
    "W4": gallery.wheel4,
    "K2,3": lambda: multigraph.complete_bipartite(2, 3),
    "K3,3": lambda: multigraph.complete_bipartite(3, 3),
    "K3,4": lambda: multigraph.complete_bipartite(3, 4),
    "K5": lambda: multigraph.complete_graph(5),
    "K6": lambda: multigraph.complete_graph(6),
    "K5-subdivided": gallery.subdivided_k5,
    "K4+K5": lambda: multigraph.disjoint_union(
        multigraph.complete_graph(4), multigraph.complete_graph(5)
    ),
    "K5.K5": lambda: multigraph.one_point_union(
        multigraph.complete_graph(5), 0, multigraph.complete_graph(5), 0
    ),
}


def check_certificate(output, diagram_text: str, vertex: int) -> str | None:
    code, out = cli_json(output)
    if code != 0:
        return f"exit code {code}"
    if out.get("result") == "inconclusive":
        return "no certificate for a diagram of K5"
    if out["diagram"] != diagram_text or out["vertex"] != vertex:
        return "certificate is for another diagram or vertex"
    return checks.check_certified_nonplanar(out["diagram"])


def check_verdict(output, accept: bool) -> str | None:
    code, out = cli_json(output)
    if out.get("ok") is not accept or code != (0 if accept else 1):
        return f"verify said ok={out.get('ok')} (exit {code}), want ok={accept}"
    return None


def check_inconclusive(output) -> str | None:
    code, out = cli_json(output)
    if code != 0 or out.get("result") != "inconclusive":
        return "criterion certified a planar graph"
    return None


def check_graph_crossing_number(output, name: str) -> str | None:
    code, out = cli_json(output)
    want = checks.graph_crossing_number(name)
    if code != 0 or not out["closed"] or out["value"] != want:
        return f"cr({name}) = {out.get('value')}, published value {want}"
    return None


def check_aut(output, graph) -> str | None:
    code, out = cli_json(output)
    order = automorphism_count(graph)
    if code != 0 or out["order"] != order:
        return f"automorphism group order {out.get('order')}, networkx counts {order}"
    return None


@cache
def automorphism_count(graph) -> int:
    return checks.automorphism_count(graph.vertex_count, graph.edges)


def _renumber_nodes(text: str, order: list[int]) -> str:
    """The same diagram with node ``order[i]`` listed i-th."""
    lines = text.splitlines()
    nodes = [ln for ln in lines if ln.split()[0] in ("crossing", "vertex")]
    new = {old: i for i, old in enumerate(order)}
    out = ["diagram"] + [nodes[old] for old in order]
    out += [ln for ln in lines if ln == "loop"]
    for ln in lines:
        if ln.startswith("arc "):
            ends = [tuple(map(int, end.split("."))) for end in ln.split()[1:]]
            out.append("arc " + " ".join(f"{new[n]}.{s}" for n, s in ends))
    return "\n".join(out) + "\n"


def tampered_certificates(cert: dict) -> list[tuple[str, dict, str | None]]:
    """Each ``(what, certificate, fault)`` must be rejected by ``verify``."""

    def edit(change):
        c = json.loads(json.dumps(cert))
        change(c)
        return c

    def negate_linking(c):
        c["assignments"][0]["linking"] = [-x for x in c["assignments"][0]["linking"]]

    def bad_cycle(c):
        c["condition_i"]["cycles"][0] = [99, 100, 101]

    def short_witness(c):
        c["condition_i"]["cycles"] = c["condition_i"]["cycles"][:2]

    def negative_vertex(c):
        d = _parse(c["diagram"])
        c["diagram"] = _renumber_nodes(c["diagram"], d.crossings() + d.vertices())
        c["vertex"] = -1

    return [
        ("negated linking numbers", edit(negate_linking), None),
        ("missing assignment", edit(lambda c: c["assignments"].pop()), None),
        (
            "wrong witness vertex",
            edit(lambda c: c["condition_i"].update(graph_vertex=c["condition_i"]["graph_vertex"] + 1)),
            None,
        ),
        ("cycle edge out of range", edit(bad_cycle), FAULT_CYCLE_INDEX),
        ("two witness cycles", edit(short_witness), FAULT_SHORT_WITNESS),
        ("vertex -1", edit(negative_vertex), FAULT_NEGATIVE_VERTEX),
    ]


def sweep_cases():
    """The planar soundness sweep's diagrams: connected planar simple graphs
    on up to six vertices whose automorphism group passes the
    symmetric-product screen, drawn with at most two crossings."""
    out = []
    for G in nx.graph_atlas_g()[1:209]:
        n = G.number_of_nodes()
        if not (0 < n <= 6 and nx.is_connected(G)):
            continue
        g = multigraph.Multigraph(n, tuple(sorted(tuple(sorted(e)) for e in G.edges())))
        if not g.is_planar():
            continue
        if multigraph.symmetric_product_orbits(multigraph.automorphisms(g)) is None:
            continue
        base = layout.base_diagram(g)
        drawn = [base] if base.crossing_count <= 2 else []
        if base.crossing_count == 0:
            sites = moves.enumerate_moves(base, ("R2_add",))
            if sites:
                drawn.append(moves.apply_move(base, sites[0]))
        for d in drawn:
            text = _text(d)
            out.extend(
                (text, v, slot)
                for v in d.vertices()
                if d.nodes[v].degree == 4
                for slot in range(4)
            )
    return out


def _k5_routing(rng: random.Random, crossings: int):
    """A diagram of K5 with exactly ``crossings`` crossings, by seeded
    R1/R2/R3/R5 moves from the one-crossing drawing."""
    d = gallery.k5_diagram()
    while d.crossing_count < crossings:
        kind = rng.choice(("R1_add", "R2_add", "R3", "R5_twist"))
        sites = moves.enumerate_moves(d, (kind,))
        if sites:
            nd = moves.apply_move(d, sites[rng.randrange(len(sites))])
            if nd.crossing_count <= crossings:
                d = nd
    return d


CERTIFY_CROSSINGS = range(2, 7)
CERTIFY_SWEEP_PER_ROUND = 80
CERTIFY_ROUNDS = 3


def build_certify(rng: random.Random, work: Workdir) -> list[list[Op]]:
    k5_cert_path = str(ROOT / "data" / "k5_certificate.json")
    tampered = []
    for _what, cert, fault in tampered_certificates(json.loads(Path(k5_cert_path).read_text())):
        path = work.write(json.dumps(cert), ".json")
        tampered.append(
            Op(
                "verify",
                lambda p=path: run_cli("verify", p, "--json"),
                lambda out: check_verdict(out, False),
                fault,
            )
        )
    fixed = list(tampered)
    fixed.append(
        Op(
            "verify",
            lambda: run_cli("verify", k5_cert_path, "--json"),
            lambda out: check_verdict(out, True),
        )
    )
    for name, make in GRAPHS.items():
        g = make()
        path = work.write(multigraph.graph_to_text(g), ".graph")
        fixed.append(
            Op(
                "crossing-number",
                lambda p=path: run_cli("crossing-number", p, "--json"),
                lambda out, name=name: check_graph_crossing_number(out, name),
            )
        )
        fixed.append(
            Op(
                "aut",
                lambda p=path: run_cli("aut", p, "--json"),
                lambda out, g=g: check_aut(out, g),
            )
        )
    sweep_files = {}
    sweep_draws = _cycle_draws(rng, sweep_cases(), CERTIFY_SWEEP_PER_ROUND, CERTIFY_ROUNDS)
    rounds = []
    for j in range(CERTIFY_ROUNDS):
        ops, verifies = list(fixed), []
        for text, v, slot in sweep_draws[j]:
            if text not in sweep_files:
                sweep_files[text] = work.write(text, ".diagram")
            ops.append(
                Op(
                    "criterion",
                    lambda p=sweep_files[text], v=v, slot=slot: run_cli(
                        "criterion", p, "--vertex", v, "--orientation", slot, "--json"
                    ),
                    check_inconclusive,
                )
            )
        for c in CERTIFY_CROSSINGS:
            # Each vertex of K5 is certified on a routing of its own, so the
            # five criterion ops at a crossing count are five independent
            # diagrams and the 90th percentile does not jump with the cost
            # of a single routing.
            for i in range(5):
                d = _k5_routing(rng, c)
                v = d.vertices()[i]
                text = _text(d)
                path = work.write(text, ".diagram")
                cert = work.reserve(".json")
                ops.append(
                    Op(
                        "criterion",
                        lambda p=path, v=v, cert=cert: run_cli(
                            "criterion", p, "--vertex", v, "--json", "--out", cert
                        ),
                        lambda out, text=text, v=v: check_certificate(out, text, v),
                    )
                )
                verifies.append(
                    Op(
                        "verify",
                        lambda cert=cert: run_cli("verify", cert, "--json"),
                        lambda out: check_verdict(out, True),
                    )
                )
        rng.shuffle(ops)
        rng.shuffle(verifies)
        rounds.append(ops + verifies)
    return rounds


BUILDERS = {"search": build_search, "bracket": build_bracket, "certify": build_certify}
