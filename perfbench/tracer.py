"""Spans and counts for the traced benchmark run.

The tracer wraps public functions of skolog from the outside: each wrapper
is installed under the name its caller looks up (``skolog.engine.unify``,
``Database.clauses``, ...), so nothing in ``src/`` changes.  A span has a
name, start, end, parent span and operation id.  Spans stay in memory and
are written out when the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans; both are summed
per span name as spans close.
"""

from __future__ import annotations

import time
from array import array

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in entry order
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        # open spans: [span index, name id, start, ns covered by children]
        self._stack: list[list[int]] = []
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self._open.append(0)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.span_start)
        start = _now()
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self._stack.append([idx, nid, start, 0])

    def exit(self) -> None:
        end = _now()
        idx, nid, start, child_ns = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child_ns
        if self._stack:
            self._stack[-1][3] += dur

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span named ``name`` around every call.
        ``observe(tracer, result)`` may add counts from the result."""
        nid = self.name_id(name)
        enter, exit_, open_ = self.enter, self.exit, self._open

        def traced(*args, **kwargs):
            # a recursive call (proof_to_json) stays inside its outer span
            if open_[nid]:
                return fn(*args, **kwargs)
            open_[nid] = 1
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
                open_[nid] = 0
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of the spans named ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_ns[nid] / 1e9, self.self_ns[nid] / 1e9

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, start_ns, end_ns,
        parent index (-1 for a root), operation id (-1 for set-up)."""
        with open(path, "w") as f:
            f.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.span_start)):
                f.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )


class _Span:
    __slots__ = ("tracer", "nid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.enter(self.nid)

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


def _unify_result(tracer: Tracer, theta) -> None:
    if theta is None:
        tracer.count("unify_fail")


def _clauses_result(tracer: Tracer, snapshot) -> None:
    tracer.count("clauses_items", len(snapshot))


def _ask_result(tracer: Tracer, res) -> None:
    if res.source == "memo":
        tracer.count("memo_hits")


def _ground_result(tracer: Tracer, instances) -> None:
    tracer.count("ground_instances", len(instances))


def _model_result(tracer: Tracer, model_steps) -> None:
    tracer.count("tp_steps", model_steps[1])


def _solve_result(tracer: Tracer, outcome) -> None:
    if outcome.status == "depth_exceeded":
        tracer.count("depth_exceeded")


def install(tracer: Tracer, skolog) -> list[tuple[object, str, object]]:
    """Put wrappers in place; returns what ``uninstall`` needs to undo it.

    ``skolog`` is the imported package.  Every entry names the object the
    caller reads the function from, so calls made inside the engine are
    seen, not only those made by the benchmark.
    """
    engine, oracle, negation, explain, semantics = (
        skolog.engine, skolog.oracle, skolog.negation, skolog.explain, skolog.semantics,
    )
    db_cls = skolog.database.Database
    plan = [
        (engine, "solve", "engine.solve", _solve_result),
        (engine, "unify", "terms.unify", _unify_result),
        (engine, "compose", "terms.compose", None),
        (engine, "apply", "terms.apply", None),
        (engine, "rename_clause", "terms.rename", None),
        (engine, "find_s_fact", "negation.find_s_fact", None),
        (db_cls, "clauses", "database.clauses", _clauses_result),
        (db_cls, "asserta", "database.assert", None),
        (db_cls, "assertz", "database.assert", None),
        (db_cls, "retract", "database.retract", None),
        (oracle, "ask", "oracle.ask", _ask_result),
        (oracle, "ask_value", "oracle.ask", _ask_result),
        (negation, "negate_fact", "negation.negate", None),
        (negation, "constants_of", "negation.constants_of", None),
        (explain, "how", "explain.how", None),
        (explain, "proof_to_json", "explain.json", None),
        (explain, "trace_to_json", "explain.json", None),
        (explain, "trace_of", "explain.trace_of", None),
        (semantics, "minimal_model_with_steps", "semantics.minimal_model", _model_result),
        (semantics, "ground_instances", "semantics.ground_instances", _ground_result),
    ]
    undo = []
    for owner, attr, name, observe in plan:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, observe))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
