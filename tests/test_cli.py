"""Command-line behavior: outputs, exit codes, determinism."""

import json
import time
from pathlib import Path

import pytest

from graphknot import (
    Budget,
    Multigraph,
    complete_bipartite,
    complete_graph,
    diagram_to_text,
    disjoint_union,
    graph_to_text,
)
from graphknot import cli
from graphknot.cli import main
from graphknot.diagram import Diagram
from graphknot.gallery import hopf_link, k5_diagram, kinked_unknot


DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def k5_graph_file(tmp_path):
    path = tmp_path / "k5.graph"
    path.write_text(graph_to_text(complete_graph(5)))
    return str(path)


@pytest.fixture()
def k5_diagram_file(tmp_path):
    path = tmp_path / "k5.diagram"
    path.write_text(diagram_to_text(k5_diagram()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_tangle_fraction_line(capsys):
    code, out = run(capsys, "tangle", "2 2 2 1")
    assert code == 0
    assert out.splitlines()[0] == "fraction 17/12, |r| = 7"


def test_aut_line(capsys, k5_graph_file):
    code, out = run(capsys, "aut", k5_graph_file)
    assert code == 0
    assert out.strip() == (
        "order 120, blocks: [5] → strongly minimalizable "
        "(symmetric-product automorphism group)"
    )


def test_criterion_finds_k5(capsys, k5_diagram_file):
    code, out = run(capsys, "criterion", k5_diagram_file, "--vertex", "0")
    assert code == 0
    assert out.startswith("non-planar")


def test_criterion_reproduces_the_stored_k5_certificate(capsys):
    code, out = run(capsys, "criterion", str(DATA / "k5.diagram"), "--vertex", "0", "--json")
    assert code == 0
    assert out == (DATA / "k5_certificate.json").read_text()


def test_criterion_takes_a_vertex_labelled_like_a_tangle_marker(capsys, tmp_path):
    # substitution joins the diagram to a tangle fragment whose four corner
    # markers carry labels like this one
    text = (DATA / "k5.diagram").read_text()
    assert text.count("vertex 0 4\n") == 1
    path = tmp_path / "k5-marker.diagram"
    path.write_text(text.replace("vertex 0 4\n", "vertex __end_a 4\n"))
    code, out = run(capsys, "criterion", str(path), "--json")
    assert code == 0
    got = json.loads(out)
    want = json.loads((DATA / "k5_certificate.json").read_text())
    assert got.pop("diagram") == path.read_text()
    del want["diagram"]
    assert got == want  # the same verdict, from the same 2 assignments
    code, out = run(capsys, "criterion", str(path))
    assert code == 0
    assert out.startswith("non-planar: certificate at vertex 0 (label __end_a), 2 ")


def test_criterion_inconclusive_is_success(capsys, tmp_path):
    from graphknot.gallery import wheel4
    from graphknot.layout import base_diagram

    path = tmp_path / "wheel.diagram"
    path.write_text(diagram_to_text(base_diagram(wheel4())))
    code, out = run(capsys, "criterion", str(path))
    assert code == 0
    assert out.strip() == "inconclusive"


def test_criterion_verify_round_trip(capsys, k5_diagram_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _ = run(
        capsys, "criterion", k5_diagram_file, "--vertex", "1", "--out", str(cert_path)
    )
    assert code == 0
    code, out = run(capsys, "verify", str(cert_path))
    assert code == 0
    assert out.splitlines()[0] == "certificate accepted"


def test_verify_rejects_flipped_linking(capsys, k5_diagram_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "criterion", k5_diagram_file, "--vertex", "0", "--out", str(cert_path))
    data = json.loads(cert_path.read_text())
    data["assignments"][0]["linking"] = [
        -lk for lk in data["assignments"][0]["linking"]
    ]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data))
    code, out = run(capsys, "verify", str(bad_path))
    assert code == 1
    assert "REJECTED" in out


def test_invariant_output(capsys, tmp_path):
    path = tmp_path / "hopf.diagram"
    path.write_text(diagram_to_text(hopf_link()))
    code, out = run(capsys, "invariant", str(path))
    assert code == 0
    assert "bracket: -A^-4 - A^4" in out
    assert "span: 8" in out

    code, out = run(capsys, "invariant", str(path), "--json")
    data = json.loads(out)
    assert data["span"] == 8


def test_crossing_number_driver(capsys, k5_graph_file):
    code, out = run(capsys, "crossing-number", k5_graph_file)
    assert code == 0
    assert out.splitlines()[0] == "crossing number: 1"


def test_crossing_number_of_a_long_path(capsys, tmp_path):
    from graphknot import path_graph

    path = tmp_path / "p11.graph"
    path.write_text(graph_to_text(path_graph(11)))
    code, out = run(capsys, "crossing-number", str(path), "--json")
    data = json.loads(out)
    assert code == 0 and data["value"] == 0 and data["closed"] is True


def test_crossing_number_of_a_large_grid_exits_two(capsys, tmp_path):
    edges = [(8 * r + c, 8 * r + c + 1) for r in range(8) for c in range(7)]
    edges += [(8 * r + c, 8 * r + c + 8) for r in range(7) for c in range(8)]
    path = tmp_path / "grid8.graph"
    path.write_text(graph_to_text(Multigraph(64, tuple(edges))))
    assert main(["crossing-number", str(path)]) == 2
    assert capsys.readouterr().err.startswith("budget exceeded:")


K46 = complete_bipartite(4, 6)


@pytest.mark.parametrize(
    "g, code",
    # K4,6 is drawn with 16 crossings, the most the driver searches from;
    # with K3,3 beside it the drawing has 17
    [(K46, 0), (disjoint_union(K46, complete_bipartite(3, 3)), 2)],
    ids=["K4,6", "K4,6+K3,3"],
)
def test_crossing_number_size_guard_at_its_edge(capsys, tmp_path, g, code):
    path = tmp_path / "g.graph"
    path.write_text(graph_to_text(g))
    budget = ["--budget-crossings", "17", "--budget-states", "50"]
    assert main(["crossing-number", str(path), *budget]) == code
    if code:
        assert capsys.readouterr().err.startswith("budget exceeded:")


def test_simplify_removes_kinks(capsys, tmp_path):
    path = tmp_path / "kinks.diagram"
    path.write_text(diagram_to_text(kinked_unknot(3)))
    code, out = run(
        capsys, "simplify", str(path), "--budget-crossings", "4",
        "--budget-states", "5000",
    )
    assert code == 0
    assert "loop" in out and "crossing" not in out


def test_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(diagram_to_text(hopf_link())))
    code, out = run(capsys, "invariant", "-")
    assert code == 0
    assert "span: 8" in out


def test_input_errors_exit_one(capsys, tmp_path):
    code, _ = run(capsys, "invariant", str(tmp_path / "missing.diagram"))
    assert code == 1
    bad = tmp_path / "bad.diagram"
    bad.write_text("nonsense\n")
    code, _ = run(capsys, "invariant", str(bad))
    assert code == 1


def test_budget_errors_exit_two(capsys, tmp_path):
    path = tmp_path / "big.diagram"
    path.write_text(diagram_to_text(kinked_unknot(21)))
    code, _ = run(capsys, "invariant", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["tangle"], ["crossing-number", str(DATA / "k5.graph"), "--budget-states", "abc"]],
)
def test_argument_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tangle", "--help"])
    assert exc.value.code == 0
    assert "twist counts" in capsys.readouterr().out


def test_byte_identical_reruns(capsys, k5_diagram_file, k5_graph_file):
    outputs = set()
    for _ in range(2):
        _, out = run(capsys, "criterion", k5_diagram_file, "--vertex", "2", "--json")
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        _, out = run(capsys, "crossing-number", k5_graph_file, "--json")
        outputs.add(out)
    assert len(outputs) == 1


def test_out_flag_writes_the_artifact(capsys, tmp_path):
    path = tmp_path / "hopf.diagram"
    path.write_text(diagram_to_text(hopf_link()))
    target = tmp_path / "result.json"
    code, out = run(capsys, "invariant", str(path), "--json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_tangle_computes_each_closure_bracket_once(capsys, monkeypatch):
    import graphknot.cli as cli
    from graphknot import RationalTangle, kauffman_bracket

    calls = []

    def counted(d):
        calls.append(d)
        return kauffman_bracket(d)

    monkeypatch.setattr(cli, "kauffman_bracket", counted)
    t = RationalTangle((2, 2, 2, 1))
    code, out = run(capsys, "tangle", "2 2 2 1")
    assert code == 0 and len(calls) == 2
    assert out.splitlines()[2:] == [
        f"N-closure bracket: {kauffman_bracket(t.closure_n())}",
        f"D-closure bracket: {kauffman_bracket(t.closure_d())}",
    ]
    code, out = run(capsys, "tangle", "2 2 2 1", "--json")
    data = json.loads(out)
    assert len(calls) == 4
    assert data["closure_n_bracket"] == kauffman_bracket(t.closure_n()).to_json()
    assert data["closure_d_bracket"] == kauffman_bracket(t.closure_d()).to_json()


def test_aut_computes_the_group_once(capsys, monkeypatch, k5_graph_file):
    import graphknot.multigraph as multigraph

    calls = []
    original = multigraph.automorphisms

    def counted(g, **kwargs):
        calls.append(g)
        return original(g, **kwargs)

    monkeypatch.setattr(multigraph, "automorphisms", counted)
    code, out = run(capsys, "aut", k5_graph_file, "--json")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["order"] == 120


def test_zero_budget_is_not_the_default(capsys, k5_graph_file):
    code, out = run(
        capsys, "crossing-number", k5_graph_file, "--budget-crossings", "0", "--json"
    )
    assert code == 0
    assert json.loads(out)["search"]["crossing_cap"] == 0


def test_one_budget_flag_keeps_the_commands_default_for_the_other(capsys, k5_graph_file):
    # crossing-number's default cap is one above its drawing's crossing
    # count, 2 for K5, and its default state budget 200,000
    code, out = run(capsys, "crossing-number", k5_graph_file, "--budget-states", "5", "--json")
    assert code == 0
    assert json.loads(out)["search"]["crossing_cap"] == 2
    args = cli.build_parser().parse_args(
        ["crossing-number", k5_graph_file, "--budget-crossings", "3"]
    )
    assert cli._budget(args, lambda: Budget(2, 200_000)) == Budget(3, 200_000)
    # simplify's default is the search's own, ``Budget()``
    args = cli.build_parser().parse_args(["simplify", k5_graph_file, "--budget-crossings", "3"])
    assert cli._budget(args) == Budget(3, Budget().max_states)


@pytest.mark.parametrize("flag", ["--budget-crossings", "--budget-states"])
def test_negative_budget_is_an_input_error(capsys, k5_graph_file, flag):
    code = main(["crossing-number", k5_graph_file, flag, "-1"])
    assert code == 1
    assert "must be non-negative" in capsys.readouterr().err


def certificate_for(capsys, tmp_path, d, vertex):
    diagram_path = tmp_path / "routing.diagram"
    diagram_path.write_text(diagram_to_text(d))
    cert_path = tmp_path / "cert.json"
    code, _ = run(
        capsys, "criterion", str(diagram_path), "--vertex", str(vertex),
        "--out", str(cert_path),
    )
    assert code == 0
    return json.loads(cert_path.read_text())


def verify_verdict(capsys, tmp_path, data):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "verify", str(path), "--json")
    return code, json.loads(out)["ok"]


def test_verify_rejects_a_cycle_edge_out_of_range(capsys, tmp_path):
    data = certificate_for(capsys, tmp_path, k5_diagram(), 0)
    data["condition_i"]["cycles"][0] = [99, 100, 101]
    assert verify_verdict(capsys, tmp_path, data) == (1, False)


def test_verify_rejects_an_obstruction_edge_out_of_range(capsys, tmp_path):
    data = certificate_for(capsys, tmp_path, k5_diagram(), 0)
    data["assignments"][0]["certificate"]["cycles"][0] = [0, 1, 999]
    assert verify_verdict(capsys, tmp_path, data) == (1, False)


def test_verify_rejects_a_witness_with_two_cycles(capsys, tmp_path):
    data = certificate_for(capsys, tmp_path, k5_diagram(), 0)
    data["condition_i"]["cycles"] = data["condition_i"]["cycles"][:2]
    assert verify_verdict(capsys, tmp_path, data) == (1, False)


@pytest.mark.parametrize(
    "where, value, verdict",
    [
        (("assignments", 0, "bits"), [2], "certificate REJECTED"),
        (("assignments", 0, "bits"), [-1], "certificate REJECTED"),
        (("assignments", 0, "r"), 3, "certificate REJECTED"),
        # numbers that int() would truncate to a valid certificate
        (("vertex",), 0.7, "error:"),
        (("assignments", 0, "r"), -1.9, "error:"),
        (("assignments", 1, "bits"), [True], "error:"),
    ],
    ids=["bit-2", "bit-minus-1", "r-3", "vertex-0.7", "r-minus-1.9", "bit-true"],
)
def test_verify_rejects_a_bad_bit_or_sign(capsys, tmp_path, where, value, verdict):
    data = json.loads((DATA / "k5_certificate.json").read_text())
    *steps, key = where
    target = data
    for step in steps:
        target = target[step]
    target[key] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert (out if verdict.startswith("certificate") else err).startswith(verdict)


def test_verify_rejects_a_kinked_diagram_without_enumerating(capsys, tmp_path):
    import time

    from graphknot import apply_move, enumerate_moves, parse_diagram

    data = json.loads((DATA / "k5_certificate.json").read_text())
    d = parse_diagram(data["diagram"])
    for _ in range(40):
        d = apply_move(d, enumerate_moves(d, ("R1_add",))[0])
    data["diagram"] = diagram_to_text(d)
    path = tmp_path / "kinked.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    code, out = run(capsys, "verify", str(path))
    assert time.monotonic() - start < 1
    assert code == 1
    assert "assignments do not cover every reassignment" in out


def test_verify_rejects_vertex_minus_one(capsys, tmp_path):
    # with the vertices numbered last, node -1 is a degree-4 vertex
    d = k5_diagram()
    order = d.crossings() + d.vertices()
    new = {old: i for i, old in enumerate(order)}
    renumbered = Diagram(
        [d.nodes[old] for old in order],
        [((new[a], s), (new[b], t)) for (a, s), (b, t) in d.arcs],
        d.free_loops,
    )
    data = certificate_for(capsys, tmp_path, renumbered, len(order) - 1)
    data["vertex"] = -1
    assert verify_verdict(capsys, tmp_path, data) == (1, False)


def test_bracket_guard_exits_two_without_a_traceback(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import graphknot
    from graphknot import RationalTangle

    path = tmp_path / "t21.diagram"
    path.write_text(diagram_to_text(RationalTangle((21,)).closure_n()))
    src = str(Path(graphknot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "graphknot", "invariant", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("budget exceeded:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("word", ["21", "100000"])
def test_tangle_guard_exits_two_before_building_a_closure(capsys, word):
    start = time.monotonic()
    assert main(["tangle", word]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"budget exceeded: {word} crossings exceeds the bracket guard\n"


def test_tangle_at_the_guard_answers(capsys):
    code, out = run(capsys, "tangle", "20")
    assert code == 0 and out.startswith("fraction 20/1, |r| = 20\n")


def verify_error(capsys, tmp_path, raw):
    path = tmp_path / "payload.json"
    path.write_text(raw)
    code = main(["verify", str(path)])
    return code, capsys.readouterr().err


def test_verify_rejects_a_payload_that_is_not_an_object(capsys, tmp_path):
    code, err = verify_error(capsys, tmp_path, "[1]")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "field, value",
    [("diagram", 5), ("diagram", None), ("minimalizability", {"x": 1})],
    ids=["number", "null", "minimalizability-object"],
)
def test_verify_rejects_a_diagram_that_is_not_text(capsys, tmp_path, field, value):
    data = json.loads((DATA / "k5_certificate.json").read_text())
    data[field] = value
    code, err = verify_error(capsys, tmp_path, json.dumps(data))
    assert code == 1 and err.startswith("error:")


def test_verify_rejects_an_infinite_vertex(capsys, tmp_path):
    raw = (DATA / "k5_certificate.json").read_text()
    assert raw.count('"vertex": 0\n') == 1
    code, err = verify_error(
        capsys, tmp_path, raw.replace('"vertex": 0\n', '"vertex": 1e400\n')
    )
    assert code == 1 and err.startswith("error:")


def test_aut_guard_exits_two(capsys, tmp_path):
    from graphknot import path_graph

    path = tmp_path / "p11.graph"
    path.write_text(graph_to_text(path_graph(11)))
    assert main(["aut", str(path)]) == 2
    assert capsys.readouterr().err.startswith("budget exceeded:")


def test_aut_reads_the_largest_group_under_the_guard(capsys, tmp_path):
    k10 = tmp_path / "k10.graph"
    k10.write_text(graph_to_text(complete_graph(10)))
    code, out = run(capsys, "aut", str(k10), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 3628800 and report["blocks"] == [10]
    k11 = tmp_path / "k11.graph"
    k11.write_text(graph_to_text(complete_graph(11)))
    assert main(["aut", str(k11)]) == 2
    assert capsys.readouterr().err.startswith("budget exceeded:")


def test_criterion_assignment_guard_exits_two(capsys, tmp_path):
    from graphknot import apply_move, enumerate_moves

    d = k5_diagram()
    while d.crossing_count < 17:
        d = apply_move(d, enumerate_moves(d, ("R1_add",))[0])
    path = tmp_path / "k5-17.diagram"
    path.write_text(diagram_to_text(d))
    assert main(["criterion", str(path)]) == 2
    assert capsys.readouterr().err.startswith("budget exceeded:")


def test_a_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.diagram"
    path.write_bytes(b"\xff\xfe")
    assert main(["invariant", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("out", ["", "missing/result.json"])
def test_an_out_path_that_cannot_be_written_is_an_input_error(capsys, tmp_path, out):
    target = tmp_path / out
    assert main(["aut", str(DATA / "k5.graph"), "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_one_parser_serves_every_call(
    capsys, monkeypatch, tmp_path, k5_diagram_file, k5_graph_file
):
    """``main`` parses with the one parser of the process.  Each call parses
    to the ``Namespace`` a new parser gives and answers as it does when it
    is the parser's first call, whatever the calls before it set or broke."""
    import argparse

    import graphknot.cli as cli
    from graphknot.errors import FormatError

    hopf = tmp_path / "hopf.diagram"
    hopf.write_text(diagram_to_text(hopf_link()))
    kinked = tmp_path / "kinked.diagram"
    kinked.write_text(diagram_to_text(kinked_unknot(2)))
    target = tmp_path / "result.json"

    def parse(parser, argv):
        try:
            return argparse.ArgumentParser.parse_args(parser, argv)
        except (FormatError, SystemExit) as exc:
            return repr(exc)

    def call(argv):
        """What ``main(argv)`` parsed and answered: exit code, stdout,
        stderr and the file it wrote."""
        parsed, parser = [], cli._PARSER

        def recorded(*args, **kwargs):
            try:
                parsed.append(argparse.ArgumentParser.parse_args(parser, *args, **kwargs))
            except (FormatError, SystemExit) as exc:
                parsed.append(repr(exc))
                raise
            return parsed[-1]

        monkeypatch.setattr(parser, "parse_args", recorded)
        target.unlink(missing_ok=True)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        wrote = target.read_text() if target.exists() else None
        return parsed, (code, out, err, wrote)

    sequences = [
        (["aut", k5_graph_file, "--json"], ["aut", k5_graph_file]),
        (["invariant", str(hopf), "--out", str(target)], ["invariant", str(hopf)]),
        (
            ["criterion", k5_diagram_file, "--vertex", "2", "--orientation", "2", "--json"],
            ["criterion", k5_diagram_file, "--vertex", "2", "--json"],
        ),
        (
            ["crossing-number", k5_graph_file, "--budget-crossings", "0", "--json"],
            ["crossing-number", k5_graph_file, "--json"],
        ),
        (
            ["criterion", k5_diagram_file, "--json", "--orientation", "7"],
            ["criterion", k5_diagram_file, "--vertex", "2"],
        ),
        (
            ["simplify", "--help"],
            ["simplify", str(kinked), "--budget-crossings", "3", "--budget-states", "500"],
        ),
    ]
    shared = [[call(argv) for argv in sequence] for sequence in sequences]
    for sequence, results in zip(sequences, shared):
        # the first call's flag does change what the call answers
        assert results[0][1] != results[1][1]
        for argv, (parsed, answer) in zip(sequence, results):
            assert parsed == [parse(cli.build_parser(), argv)]
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            assert call(argv)[1] == answer
