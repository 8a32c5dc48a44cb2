"""Spans around the program's layer functions, recorded from outside.

``Tracer.install`` wraps each layer function listed in ``LAYERS`` and
rebinds the wrapper in every ``graphknot`` module namespace that binds the
original, so calls made inside the program are seen too (for example
``search_min_crossings`` is bound in both ``moves`` and ``invariants``).
Methods are wrapped on their class; the ``Diagram`` constructor through
``Diagram.__init__``.

Each call records a span (name, start, end, parent span) in flat arrays
kept in memory; ``write`` saves them when the run ends.  A span's self time
is its duration minus the time covered by its child spans.  Work counts are
taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path


def _crossings(args, result) -> int:
    return 2 ** args[0].crossing_count


# (metric prefix, module, attribute, work counters as (name, from (args, result)))
LAYERS = [
    ("diagram.construct", "graphknot.diagram", "Diagram.__init__", ()),
    ("diagram.canonical_code", "graphknot.diagram", "Diagram.canonical_code", ()),
    ("diagram.underlying_graph", "graphknot.diagram", "Diagram.underlying_graph", ()),
    ("diagram.extract_sublink", "graphknot.diagram", "extract_sublink", ()),
    ("moves.enumerate_moves", "graphknot.moves", "enumerate_moves",
     (("sites", lambda a, r: len(r)),)),
    ("moves.apply_move", "graphknot.moves", "apply_move", ()),
    ("moves.search_min_crossings", "graphknot.moves", "search_min_crossings",
     (("states", lambda a, r: r.states),)),
    ("moves.equivalent_within", "graphknot.moves", "equivalent_within",
     (("states", lambda a, r: r.states),)),
    ("invariants.kauffman_bracket", "graphknot.invariants", "kauffman_bracket",
     (("states", _crossings),)),
    ("invariants.simple_cycles", "graphknot.invariants", "simple_cycles",
     (("cycles", lambda a, r: len(r)),)),
    ("invariants.linking_numbers", "graphknot.invariants", "linking_numbers", ()),
    ("invariants.lower_bound_obstructions", "graphknot.invariants",
     "lower_bound_obstructions", ()),
    ("multigraph.automorphisms", "graphknot.multigraph", "automorphisms",
     (("elements", lambda a, r: r.order),)),
    ("multigraph.is_planar", "graphknot.multigraph", "Multigraph.is_planar", ()),
    ("tangle.substitute", "graphknot.tangle", "substitute", ()),
    ("layout.base_diagram", "graphknot.layout", "base_diagram", ()),
    ("criterion.condition_i", "graphknot.criterion", "condition_i", ()),
    ("criterion.condition_ii", "graphknot.criterion", "condition_ii",
     (("assignments", lambda a, r: len(r) if r else 0),)),
    ("criterion.verify_certificate", "graphknot.criterion", "verify_certificate", ()),
    ("criterion.section3_crossing_number", "graphknot.criterion",
     "section3_crossing_number", ()),
    ("cli.main", "graphknot.cli", "main", ()),
]

# apply_move counts the MoveNotApplicable it raises as rejected sites.
REJECTING = {"moves.apply_move": ("rejected", "graphknot.errors", "MoveNotApplicable")}


def metric_names() -> list[str]:
    names = []
    for prefix, _module, _attr, counters in LAYERS:
        names.append(f"{prefix}.calls")
        names.extend(f"{prefix}.{name}" for name, _ in counters)
        if prefix in REJECTING:
            names.append(f"{prefix}.{REJECTING[prefix][0]}")
        names.append(f"{prefix}.self_s")
    names.append("moves.new_state_ratio")
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith("_ratio"):
        return "states/apply"
    return name.rsplit(".", 1)[1] + "/op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.work: dict[str, int] = {}
        self.active = False
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name_index: int) -> int:
        i = len(self.span_name)
        self.span_name.append(name_index)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    @contextmanager
    def op(self, kind: str):
        """A root span for one benchmark op; layer spans nest under it."""
        if not self.active:
            yield
            return
        i = self._open(self._name(f"op:{kind}"))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def paused(self):
        """Calls made here (output checks) are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, prefix: str, fn, counters, rejecting):
        index = self._name(prefix)
        work = self.work
        for name, _ in counters:
            work[f"{prefix}.{name}"] = 0
        reject_key = None
        if rejecting:
            reject_key = f"{prefix}.{rejecting[0]}"
            work[reject_key] = 0
            reject_type = getattr(importlib.import_module(rejecting[1]), rejecting[2])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(i)
                if reject_key and isinstance(exc, reject_type):
                    work[reject_key] += 1
                raise
            self._close(i)
            for name, count in counters:
                work[f"{prefix}.{name}"] += count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "graphknot" or n.startswith("graphknot.")]
        for prefix, module_name, attr, counters in LAYERS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, original, counters, REJECTING.get(prefix))
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, name, value))
                        setattr(target, name, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for target, name, value in reversed(self._undo):
            setattr(target, name, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        n = len(self.span_name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i]) - covered[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, per attempted op."""
        self_s, calls = self.self_times()
        totals = dict(self.work)
        for prefix, *_ in LAYERS:
            totals[f"{prefix}.calls"] = calls.get(prefix, 0)
            totals[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
        applied = totals["moves.apply_move.calls"] - totals["moves.apply_move.rejected"]
        states = totals["moves.search_min_crossings.states"] + totals["moves.equivalent_within.states"]
        out = {name: totals[name] / ops for name in metric_names() if name in totals}
        out["moves.new_state_ratio"] = states / applied if applied else 0.0
        return out

    def write(self, path: Path) -> None:
        """Save every span: [name, start, end, parent index]."""
        spans = [
            [self.span_name[i], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.span_name))
        ]
        path.write_text(json.dumps({"names": self.names, "spans": spans}))
