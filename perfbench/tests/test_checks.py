"""The benchmark's output checks accept right answers and reject wrong ones.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import checks  # noqa: E402
import workloads  # noqa: E402
from graphknot import (  # noqa: E402
    RationalTangle,
    cc_equivalent_within,
    complete_graph,
    diagram_to_text,
    kauffman_bracket,
)
from graphknot.gallery import k4_diagram  # noqa: E402


def cli_output(**payload):
    return 0, json.dumps(payload)


def flip_one_sign(bracket: dict) -> dict:
    wrong = dict(bracket)
    e = min(wrong)
    wrong[e] = -wrong[e]
    return wrong


# -- bracket ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 10])
def test_twist_skein_matches_the_program_and_rejects_a_flipped_sign(n):
    got = checks.poly(kauffman_bracket(RationalTangle((n,)).closure_n()).to_json())
    assert checks.check_twist(got, n) is None
    assert checks.check_twist(flip_one_sign(got), n) is not None


def test_invariant_check_rejects_a_flipped_sign():
    d = RationalTangle((3, 2)).closure_n()  # 5_2: a knot, reduced alternating
    b = kauffman_bracket(d).to_json()
    right = cli_output(bracket=b, crossings=5, span=0, writhe=5)
    assert workloads.check_invariant(right, 5, 1) is None
    wrong = {str(e): c for e, c in flip_one_sign(checks.poly(b)).items()}
    assert workloads.check_invariant(cli_output(bracket=wrong, crossings=5, writhe=5), 5, 1)


def test_span_check_rejects_a_lost_extreme_term():
    b = checks.poly(kauffman_bracket(RationalTangle((4,)).closure_n()).to_json())
    assert checks.check_span(b, 4) is None
    b.pop(max(b))
    assert checks.check_span(b, 4) is not None


def test_connected_sum_product_rejects_a_wrong_summand():
    left = checks.poly(kauffman_bracket(RationalTangle((3,)).closure_n()).to_json())
    right = checks.poly(kauffman_bracket(RationalTangle((2, 2)).closure_n()).to_json())
    product = checks.poly_mul(left, right)
    assert checks.check_product(product, left, right) is None
    assert checks.check_product(flip_one_sign(product), left, right) is not None


def test_v_at_one_counts_components():
    hopf = checks.poly(kauffman_bracket(RationalTangle((2,)).closure_n()).to_json())
    assert checks.check_v_at_one(hopf, 2, 2) is None
    assert checks.check_v_at_one(hopf, 2, 1) is not None


def test_tangle_check_rejects_a_wrong_fraction():
    word, nf = (1, 2, 3), (1, 2, 3)
    code, text = workloads.run_cli("tangle", "--json", "--", "1 2 3")
    assert workloads.check_tangle((code, text), word, nf) is None
    out = json.loads(text)
    out["fraction"] = "9/7"
    assert workloads.check_tangle((code, json.dumps(out)), word, nf) is not None


# -- search -------------------------------------------------------------------


def test_path_check_rejects_a_path_that_stops_short():
    text1, text2, cap = workloads.descending_pair(100)
    result = cc_equivalent_within(
        workloads._parse(text1), workloads._parse(text2), workloads.moves.Budget(cap, 100_000)
    )
    assert workloads.check_path(text1, text2, result, shadow=True) is None
    result.path = result.path[:-1]
    assert workloads.check_path(text1, text2, result, shadow=True) is not None


def test_path_check_rejects_a_missing_path():
    text1, text2, cap = workloads.descending_pair(252)
    result = workloads.run_descending(text1, text2, cap)
    result.path = None
    assert workloads.check_path(text1, text2, result, shadow=True) is not None


def test_kink_bigon_perturbations_fail_as_their_fault_says():
    hopf = diagram_to_text(RationalTangle((2,)).closure_n())
    for perturbed in workloads.HOPF_KINK_BIGON:
        result = workloads.moves.equivalent_within(
            workloads._parse(hopf),
            workloads._parse(perturbed),
            workloads.moves.Budget(workloads._parse(perturbed).crossing_count, 100_000),
        )
        problem = workloads.check_path(hopf, perturbed, result, shadow=False)
        op = workloads.Op("equivalent_within", None, None, workloads.FAULT_KINK_BIGON)
        assert workloads.is_known_fault(op, problem), problem


def test_a_fault_tagged_op_failing_another_way_is_unexpected():
    op = workloads.Op("cc_equivalent_within", None, None, workloads.FAULT_SHADOW)
    assert workloads.is_known_fault(op, "equivalent, but without a move path")
    assert not workloads.is_known_fault(op, "path ends away from the target")
    assert not workloads.is_known_fault(op, "raised IndexError at apply_move < main: boom")
    untagged = workloads.Op("cc_equivalent_within", None, None)
    assert not workloads.is_known_fault(untagged, "equivalent, but without a move path")


def test_knot_crossing_number_checks_reject_a_wrong_value(tmp_path):
    knot = RationalTangle((3,)).closure_n()
    kinked = workloads._perturb(knot, random.Random(0), ["R1_add"])
    path = tmp_path / "kinked.diagram"
    path.write_text(diagram_to_text(kinked))
    out = workloads.run_cli("simplify", path, "--json", "--budget-crossings", 4)
    assert workloads.check_simplify(out, diagram_to_text(kinked), 3) is None
    assert workloads.check_simplify(out, diagram_to_text(kinked), 4) is not None
    report = workloads.invariants.crossing_number(kinked)
    assert workloads.check_crossing_number(report, 3) is None
    assert workloads.check_crossing_number(report, 2) is not None


def test_f_polynomial_tells_mirrors_apart():
    left = diagram_to_text(RationalTangle((3,)).closure_n())
    right = diagram_to_text(RationalTangle((-3,)).closure_n())
    assert workloads.f_self_of(left) != workloads.f_self_of(right)


# -- certify ------------------------------------------------------------------


def test_certificate_check_rejects_a_planar_graph():
    k5_cert = json.loads((HERE.parents[1] / "data" / "k5_certificate.json").read_text())
    assert workloads.check_certificate(
        (0, json.dumps(k5_cert)), k5_cert["diagram"], k5_cert["vertex"]
    ) is None
    planar = dict(k5_cert, diagram=diagram_to_text(k4_diagram()))
    assert workloads.check_certificate(
        (0, json.dumps(planar)), planar["diagram"], planar["vertex"]
    ) is not None


def test_graph_crossing_number_check_rejects_a_wrong_value():
    assert workloads.check_graph_crossing_number(cli_output(value=3, closed=True), "K6") is None
    assert workloads.check_graph_crossing_number(cli_output(value=2, closed=True), "K6")
    assert workloads.check_graph_crossing_number(cli_output(value=2, closed=True), "K5.K5") is None
    assert workloads.check_graph_crossing_number(cli_output(value=1, closed=True), "K5.K5")


def test_aut_check_uses_networkx_counts():
    k5 = complete_graph(5)
    assert workloads.automorphism_count(k5) == 120
    assert workloads.check_aut(cli_output(order=120), k5) is None
    assert workloads.check_aut(cli_output(order=60), k5) is not None


def test_verdict_check_wants_rejection_of_tampered_certificates(tmp_path):
    k5_cert = json.loads((HERE.parents[1] / "data" / "k5_certificate.json").read_text())
    for what, cert, fault in workloads.tampered_certificates(k5_cert):
        if fault is not None:
            continue
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        out = workloads.run_cli("verify", path, "--json")
        assert workloads.check_verdict(out, False) is None, what
        assert workloads.check_verdict(out, True) is not None, what


def test_tampered_certificates_raise_where_their_fault_says(tmp_path):
    k5_cert = json.loads((HERE.parents[1] / "data" / "k5_certificate.json").read_text())
    for what, cert, fault in workloads.tampered_certificates(k5_cert):
        if fault is None:
            continue
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        with pytest.raises(Exception) as info:
            workloads.run_cli("verify", path, "--json")
        op = workloads.Op("verify", None, None, fault)
        assert workloads.is_known_fault(op, workloads.raised(info.value)), what
        other = workloads.FAULT_NEGATIVE_VERTEX
        if fault != other:
            assert not workloads.is_known_fault(
                workloads.Op("verify", None, None, other), workloads.raised(info.value)
            ), what


def test_renumbered_diagram_puts_a_vertex_last():
    k5_cert = json.loads((HERE.parents[1] / "data" / "k5_certificate.json").read_text())
    _, cert, _ = workloads.tampered_certificates(k5_cert)[-1]
    d = workloads._parse(cert["diagram"])
    assert not d.is_crossing(len(d.nodes) - 1) and d.degree_of(len(d.nodes) - 1) == 4
    assert d.canonical_code() == workloads._parse(k5_cert["diagram"]).canonical_code()
