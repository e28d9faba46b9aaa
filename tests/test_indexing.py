"""Argument indexing changes nothing a user can see.

Random programs and write sequences run twice: once as they stand, and
once with ``Database.clauses`` made to ignore the call's arguments, so
that every call and every retract/1 scans the whole predicate.  Both runs must
give the same solutions in the same order, the same bindings (renamed
``_G<n>`` and ``_R<n>`` variables included), the same ``trace_of`` text,
live trace and warnings, and leave the same database behind.  A query
is stopped after ``LINE_BUDGET`` lines of live trace.

CI runs this once more under the ``robustness`` profile of ``conftest.py``.
"""

from __future__ import annotations

import io
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skolog import Database, Solver, SolveOptions, parse_program, parse_query
from skolog.database import load_clauses
from skolog.errors import SkologError
from skolog.explain import format_trace, trace_of
from skolog.parser import format_clause, format_term, parse_clause_text

# Arguments that share or split keys: 1 and '1', f/1 and f/2, [] and lists,
# variables.  Both of q/2's arguments draw from them, so a call that binds
# only the second goes through the second position's index, and one that
# binds both through the shorter of two lists.
ARGS = ("a", "b", "1", "'1'", "[]", "[a]", "[X|T]", "f(a)", "f(a, b)", "f(X)", "X", "Y", "_")
GROUND = tuple(x for x in ARGS if not any(c.isupper() or c == "_" for c in x))
PREDICATES = (("p", 1), ("q", 2))


def calls(args=ARGS):
    def build(pred, a, b):
        name, arity = pred
        return f"{name}({', '.join((a, b)[:arity])})"

    return st.builds(build, st.sampled_from(PREDICATES), st.sampled_from(args), st.sampled_from(args))


ground_calls = calls(GROUND)
writes = st.tuples(st.sampled_from(("asserta", "assertz", "retract")), calls())
body_goals = st.one_of(
    calls(),
    calls(),  # twice: user calls are the commonest goal
    st.just("!"),
    calls().map(lambda g: f"not({g})"),
    writes.map(lambda w: f"{w[0]}({w[1]})"),
    ground_calls.map(lambda g: f"assertz({g})"),
)
clauses = st.tuples(calls(), st.lists(body_goals, max_size=2)).map(
    lambda hb: f"{hb[0]} :- {', '.join(hb[1])}." if hb[1] else f"{hb[0]}."
)
programs = st.lists(st.one_of(clauses, ground_calls.map(lambda g: g + ".")), min_size=1, max_size=10).map("\n".join)
queries = st.lists(calls(), min_size=1, max_size=2).map(lambda gs: ", ".join(gs) + ".")
steps = st.lists(st.one_of(queries.map(lambda q: ("query", q)), writes), min_size=1, max_size=8)


# Trace lines a query may write before it is stopped.  The generator can
# build searches that are exponential under the depth limit, e.g. a p/1
# clause that calls p(_) after an assertz that grows p/1.  Both runs write
# the same trace, so they stop at the same line.
LINE_BUDGET = 5_000


class _OverBudget(Exception):
    pass


class _BudgetedTrace(io.StringIO):
    """A live trace stream that stops the query after LINE_BUDGET lines."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        if self.lines > LINE_BUDGET:
            raise _OverBudget
        return super().write(text)


def _session(program, parsed_steps):
    """Everything a user could see of the steps, and the database after."""
    db = Database()
    load_clauses(db, program)
    seen = []
    for kind, item in parsed_steps:
        if kind == "query":
            live, diag = _BudgetedTrace(), io.StringIO()
            solver = Solver(db, SolveOptions(depth_limit=8, max_solutions=12),
                            out=io.StringIO(), diag=diag, trace_out=live)
            try:
                outcome = solver.run(item)
            except SkologError as e:
                seen.append((type(e).__name__, str(e), live.getvalue(), diag.getvalue()))
                continue
            except _OverBudget:
                seen.append(("budget", live.getvalue(), diag.getvalue()))
                continue
            seen.append((outcome.status, live.getvalue(), diag.getvalue()))
            for sol in outcome.solutions:
                bindings = [(v.name, format_term(t)) for v, t in sol.bindings.items()]
                seen.append((bindings, format_trace(trace_of(sol.proof))))
        elif kind == "retract":
            theta = db.retract(item)
            seen.append(None if theta is None else sorted((repr(v), format_term(t)) for v, t in theta.items()))
        else:
            getattr(db, kind)(item)
    stored = [(sc.id, sc.kind, format_clause(sc.clause), sc.clause) for sc in db.all_stored()]
    return seen, stored


@given(programs, steps)
# at least 400 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(400, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_indexed_selection_matches_a_full_scan(text, raw_steps):
    # parse once: both runs must see the same variables, `_` ones included
    program = parse_program(text)
    parsed = [(k, parse_query(x) if k == "query" else parse_clause_text(x + ".")) for k, x in raw_steps]
    full_scan = Database.clauses

    def unindexed(self, ind, args=()):
        return full_scan(self, ind)

    with mock.patch.object(Database, "clauses", unindexed):
        want = _session(program, parsed)
    assert _session(program, parsed) == want
