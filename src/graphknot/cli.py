"""Command-line front end.

Every subcommand is deterministic: identical invocations produce
byte-identical output.  Exit codes: 0 for a completed computation
(including an inconclusive one), 1 for an input problem (malformed
argument, unreadable file, malformed text, rejected certificate), 2 for an
exceeded size guard.

One parser, built when this module is imported, serves every call of
``main`` in a process: argparse gives each call a fresh ``Namespace``, so
no call sees another's options.  ``build_parser`` is the one definition of
the command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .criterion import (
    NonPlanarCertificate,
    _default_budget,
    certificate_from_json,
    check_nonplanar,
    section3_crossing_number,
    verify_certificate,
)
from .diagram import Diagram, Vertex, diagram_to_text, parse_diagram
from .errors import FormatError, GraphKnotError, SizeLimitExceeded
from .invariants import MAX_BRACKET_CROSSINGS, kauffman_bracket, linking_numbers, writhe
from .layout import base_diagram
from .moves import Budget, simplify
from .multigraph import Minimalizability, minimalizability, parse_graph
from .tangle import VertexOrientation, parse_conway


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        why = f"not {exc.encoding} text ({exc.reason})"
        raise FormatError(f"cannot read {path}: {why}") from None


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise FormatError(f"cannot write {out}: {exc.strerror}") from None
    sys.stdout.write(text)


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _budget(args, default=Budget) -> Budget | None:
    """None when no budget flag is given; otherwise the flags given, each
    missing one taken from the command's own default budget ``default()``."""
    if args.budget_crossings is None and args.budget_states is None:
        return None
    crossings, states = args.budget_crossings, args.budget_states
    for flag, value in (("--budget-crossings", crossings), ("--budget-states", states)):
        if value is not None and value < 0:
            raise FormatError(f"{flag} must be non-negative, got {value}")
    defaults = default()
    return Budget(
        max_crossings=defaults.max_crossings if crossings is None else crossings,
        max_states=defaults.max_states if states is None else states,
    )


# -- subcommands ---------------------------------------------------------------


def _cmd_invariant(args) -> int:
    d = parse_diagram(_read(args.input))
    bracket = kauffman_bracket(d)
    report = {
        "bracket": bracket.to_json(),
        "span": bracket.span,
        "crossings": d.crossing_count,
    }
    lines = [
        f"bracket: {bracket}",
        f"span: {bracket.span}",
        f"crossings: {d.crossing_count}",
    ]
    if not d.vertices():
        report["writhe"] = wr = writhe(d)
        lines.append(f"writhe: {wr}")
        lks = linking_numbers(d)
        if lks:
            report["linking"] = {f"{i},{j}": lk for (i, j), lk in sorted(lks.items())}
            shown = ", ".join(f"({i},{j}): {lk}" for (i, j), lk in sorted(lks.items()))
            lines.append(f"linking numbers: {shown}")
    _emit(_dump(report) if args.json else "\n".join(lines), args.out)
    return 0


def _cmd_tangle(args) -> int:
    t = parse_conway(args.word)
    # each closure has one crossing per twist, so refuse before building one
    crossings = sum(abs(a) for a in t.conway)
    if crossings > MAX_BRACKET_CROSSINGS:
        raise SizeLimitExceeded(f"{crossings} crossings exceeds the bracket guard")
    p, q = t.fraction()
    nf = t.normal_form()
    bracket_n = kauffman_bracket(t.closure_n())
    bracket_d = kauffman_bracket(t.closure_d())
    report = {
        "word": t.display(),
        "fraction": f"{p}/{q}",
        "normal_form": nf.display(),
        "minimal_crossings": t.minimal_crossings(),
        "closure_n_bracket": bracket_n.to_json(),
        "closure_d_bracket": bracket_d.to_json(),
    }
    lines = [
        f"fraction {p}/{q}, |r| = {t.minimal_crossings()}",
        f"normal form: {nf.display()}",
        f"N-closure bracket: {bracket_n}",
        f"D-closure bracket: {bracket_d}",
    ]
    _emit(_dump(report) if args.json else "\n".join(lines), args.out)
    return 0


def _cmd_aut(args) -> int:
    g = parse_graph(_read(args.input))
    verdict, blocks, aut = minimalizability(g)
    order = aut.order
    sizes = sorted((len(b) for b in blocks), reverse=True) if blocks else None
    if verdict is Minimalizability.UNKNOWN:
        tail = "minimalizability unknown"
    else:
        tail = f"strongly minimalizable ({verdict.value})"
    report = {
        "order": order,
        "blocks": sizes,
        "verdict": verdict.name.lower(),
        "strongly_minimalizable": verdict is not Minimalizability.UNKNOWN,
    }
    line = f"order {order}, blocks: {sizes if sizes else '-'} → {tail}"
    _emit(_dump(report) if args.json else line, args.out)
    return 0


def _criterion_vertices(d: Diagram, vertex: int | None) -> list[int]:
    if vertex is not None:
        if vertex not in d.vertices():
            raise FormatError(f"node {vertex} is not a vertex of the diagram")
        return [vertex]
    found = [n for n in d.vertices() if d.nodes[n].degree == 4]
    if not found:
        raise FormatError("no degree-4 vertex to test")
    return found


def _cmd_criterion(args) -> int:
    d = parse_diagram(_read(args.input))
    cert: NonPlanarCertificate | None = None
    tried = []
    for v in _criterion_vertices(d, args.vertex):
        where = VertexOrientation(v, args.orientation)
        cert = check_nonplanar(d, where)
        tried.append(v)
        if cert is not None:
            break
    if cert is None:
        msg = {"result": "inconclusive", "vertices_tried": tried}
        _emit(_dump(msg) if args.json else "inconclusive", args.out)
        return 0
    if args.json or args.out:
        _emit(_dump(cert.to_json()), args.out)
        if not args.json:
            sys.stdout.write("non-planar\n")
    else:
        label = isinstance(d.nodes[cert.orientation.vertex], Vertex) and d.nodes[
            cert.orientation.vertex
        ].label
        print(
            f"non-planar: certificate at vertex {cert.orientation.vertex}"
            f" (label {label}), {len(cert.per_assignment)} assignments certified"
        )
    return 0


def _cmd_crossing_number(args) -> int:
    g = parse_graph(_read(args.input))
    budget = _budget(args, lambda: _default_budget(base_diagram(g)))
    report = section3_crossing_number(g, budget=budget)
    if args.json:
        _emit(_dump(report.to_json()), args.out)
        return 0
    if report.value is None:
        lines = ["crossing number: inconclusive"]
    else:
        lines = [f"crossing number: {report.value}"]
    lines.append(f"states: {report.search.states}")
    lines.extend(report.notes)
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    raw = _read(args.input)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    cert = certificate_from_json(data)
    report = verify_certificate(cert)
    if args.json:
        _emit(_dump(report.to_json()), args.out)
    else:
        status = "certificate accepted" if report.ok else "certificate REJECTED"
        _emit("\n".join([status, *report.notes]), args.out)
    return 0 if report.ok else 1


def _cmd_simplify(args) -> int:
    d = parse_diagram(_read(args.input))
    best = simplify(d, _budget(args))
    text = diagram_to_text(best)
    if args.json:
        _emit(
            _dump(
                {
                    "crossings_before": d.crossing_count,
                    "crossings_after": best.crossing_count,
                    "diagram": text,
                }
            ),
            args.out,
        )
    else:
        _emit(text, args.out)
        sys.stderr.write(
            f"{d.crossing_count} -> {best.crossing_count} crossings\n"
        )
    return 0


# -- argument plumbing ---------------------------------------------------------


def _add_common(sub, budget=False, vertex=False):
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--out", metavar="PATH", help="also write the result to PATH")
    if budget:
        sub.add_argument(
            "--budget-crossings", type=int, metavar="N", help="crossing cap for searches"
        )
        sub.add_argument(
            "--budget-states", type=int, metavar="N", help="state cap for searches"
        )
    if vertex:
        sub.add_argument(
            "--vertex", type=int, metavar="ID", help="diagram node index to test"
        )
        sub.add_argument(
            "--orientation",
            type=int,
            default=0,
            choices=(0, 1, 2, 3),
            metavar="SLOT",
            help="rotation slot that plays box corner a (default 0)",
        )


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argument as an input problem (exit 1), not by
    argparse's own exit 2, which the exit codes keep for a size guard."""

    def error(self, message: str):
        raise FormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphknot",
        description="Diagrams of knotted graphs: invariants, moves, and "
        "a one-sided non-planarity criterion.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("invariant", help="bracket, span, writhe, linking numbers")
    s.add_argument("input", help="diagram file, or - for stdin")
    _add_common(s)
    s.set_defaults(func=_cmd_invariant)

    s = subs.add_parser("tangle", help="fraction and closures of a twist word")
    s.add_argument("word", help="twist counts, innermost first, e.g. '2 2 2 1'")
    _add_common(s)
    s.set_defaults(func=_cmd_tangle)

    s = subs.add_parser("aut", help="automorphism group order and orbit blocks")
    s.add_argument("input", help="graph file, or - for stdin")
    _add_common(s)
    s.set_defaults(func=_cmd_aut)

    s = subs.add_parser("criterion", help="search for a non-planarity certificate")
    s.add_argument("input", help="diagram file, or - for stdin")
    _add_common(s, vertex=True)
    s.set_defaults(func=_cmd_criterion)

    s = subs.add_parser(
        "crossing-number",
        help="least crossings reachable from one drawing by moves and crossing changes",
    )
    s.add_argument("input", help="graph file, or - for stdin")
    _add_common(s, budget=True)
    s.set_defaults(func=_cmd_crossing_number)

    s = subs.add_parser("verify", help="replay a certificate without searching")
    s.add_argument("input", help="certificate JSON file, or - for stdin")
    _add_common(s)
    s.set_defaults(func=_cmd_verify)

    s = subs.add_parser("simplify", help="reduce crossings within a move budget")
    s.add_argument("input", help="diagram file, or - for stdin")
    _add_common(s, budget=True)
    s.set_defaults(func=_cmd_simplify)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except SizeLimitExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except GraphKnotError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
