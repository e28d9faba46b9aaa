"""Every answer's proof equals the one finalized from scratch.

A proof record keeps its entry goal and bindings once its first reader
(an earlier answer, a WHY, or the live trace) has resolved them, and
``Solver._solution`` takes them from there instead of resolving them
again.  These tests drive ``Solver.solutions()`` as a generator and, at
each answer, compare the ``Solution`` it yields, proof nodes included,
with ``finalize_from_scratch`` in ``util``, which resolves every record as
of its stamps with the reference resolver, not ``_Resolver``.  Count
tests pin how often finalization resolves a record as of its stamps, and
how many compounds it enters.

CI runs the random-program property once more under the ``robustness``
profile of ``conftest.py``.
"""

from __future__ import annotations

import inspect
import io
import itertools
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skolog import Database, ScriptedOracle, SolveOptions, Solver, parse_program, parse_query
from skolog.corpus import corpus_text
from skolog.database import load_clauses
from skolog.errors import SkologError
from skolog.parser import parse_clause_text
from skolog.terms import Struct, _Resolver, subterms, variables_in

from test_indexing import programs, steps
from util import finalize_from_scratch

# Head matches a query may make before it is stopped: the random programs
# can build searches that are exponential under the depth limit.
REDUCTION_BUDGET = 5_000

LISTS = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
firsts(X, Y) :- member(X, [a, b]), !, member(Y, [c, d]).
"""


class _OverBudget(Exception):
    pass


def _db(text):
    db = Database()
    load_clauses(db, parse_program(text))
    return db


def answers(solver, query, limit=None):
    """The solutions of ``query``, each checked at its yield against the
    proof finalized from scratch."""
    goals = parse_query(query) if isinstance(query, str) else query
    qvars = [v for v in variables_in(goals) if v.name != "_"]
    seen = []
    for sol in itertools.islice(solver.solutions(goals), limit):
        assert sol == finalize_from_scratch(solver, qvars)
        seen.append(sol)
    return seen


@given(programs, steps, st.booleans())
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_answer_of_a_random_program_is_finalized_as_from_scratch(text, raw_steps, tracing):
    # cut, not/1, assert and retract in clause bodies; tracing keeps every
    # call's choicepoint, so backtracking truncates the records elsewhere
    db = Database()
    load_clauses(db, parse_program(text))
    reduce, made = Solver._reduce, itertools.count()

    def budgeted(self, call):
        if next(made) > REDUCTION_BUDGET:
            raise _OverBudget
        return reduce(self, call)

    with mock.patch.object(Solver, "_reduce", budgeted):
        for kind, item in raw_steps:
            if kind != "query":
                getattr(db, kind)(parse_clause_text(item + "."))
                continue
            made = itertools.count()
            solver = Solver(db, SolveOptions(depth_limit=8), out=io.StringIO(), diag=io.StringIO(),
                            trace_out=io.StringIO() if tracing else None)
            try:
                answers(solver, item, limit=12)
            except (SkologError, _OverBudget):
                pass


def test_all_splits_of_six_are_finalized_as_from_scratch():
    out = answers(Solver(_db(LISTS)), "app(X, Y, [1,2,3,4,5,6]).")
    assert len(out) == 7


def test_nrev_then_member_is_finalized_as_from_scratch():
    out = answers(Solver(_db(LISTS)), "nrev([a,b,c,d], R), member(X, R).")
    assert len(out) == 4


def test_member_under_a_cut_is_finalized_as_from_scratch():
    # backtracking into member/2 before firsts/2, then into the member/2
    # after its cut, never into the one the cut dropped
    out = answers(Solver(_db(LISTS)), "member(Z, [1, 2]), firsts(X, Y).")
    assert len(out) == 4


def test_an_ask_kept_over_later_answers_is_finalized_as_from_scratch():
    db = _db(LISTS)
    solver = Solver(db, oracle=ScriptedOracle("askv color bob -> red\n"), out=io.StringIO())
    out = answers(solver, "ask_value(color, bob, C), member(X, [a, b, c]).")
    assert len(out) == 3


def test_a_second_query_on_one_solver_is_finalized_as_on_a_fresh_one():
    # the first query stops with nodes kept; the second, whose first record
    # is a builtin's, must not read them
    db = _db(LISTS)
    solver = Solver(db)
    answers(solver, "app(X, Y, [1,2,3,4,5,6]).", limit=4)
    second = "L = [a,b,c], nrev(L, R), app(X, Y, R)."
    assert answers(solver, second) == answers(Solver(db), second)


def test_all_splits_of_ten_resolve_each_record_as_of_its_stamps_once():
    # the first answer's one record, then two made for each later split
    # (its last rule reduction and the fact); finalizing every answer from
    # scratch makes 1 + 2 + ... + 11 = 66
    goals = parse_query("append(X, Y, [a,b,c,d,e,f,g,h,i,j]).")
    with mock.patch.object(_Resolver, "resolve", autospec=True, side_effect=_Resolver.resolve) as resolve:
        out = list(Solver(_db(corpus_text("append.pl"))).solutions(goals))
    assert len(out) == 11
    assert sum(len(c.args) > 3 for c in resolve.call_args_list) == 21


def test_all_splits_of_ten_traced_resolve_no_record_as_of_its_stamps():
    # the same run with a trace attached: each reduction's record keeps the
    # entry goal and bindings that its trace line shows
    goals = parse_query("append(X, Y, [a,b,c,d,e,f,g,h,i,j]).")
    solver = Solver(_db(corpus_text("append.pl")), trace_out=io.StringIO())
    with mock.patch.object(_Resolver, "resolve", autospec=True, side_effect=_Resolver.resolve) as resolve:
        out = list(solver.solutions(goals))
    assert len(out) == 11
    assert sum(len(c.args) > 3 for c in resolve.call_args_list) == 0


def entered_compounds(run, watched):
    """Call ``run()`` and count the compounds that ``_Resolver.resolve``
    enters, that is, pushes a frame for: all of them, and those whose id
    is in ``watched``.  A line tracer on ``resolve`` alone counts the runs
    of its one ``frames.append`` line."""
    code = _Resolver.resolve.__code__
    lines, first = inspect.getsourcelines(code)
    [push] = [first + i for i, line in enumerate(lines) if "frames.append(" in line]
    counts = [0, 0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == push:
            counts[0] += 1
            counts[1] += id(frame.f_locals["x"]) in watched
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return counts


@pytest.mark.parametrize("n", [10, 20, 40])
def test_all_splits_of_a_ground_list_walk_the_list_once(n):
    # under the final bindings, answer k enters its k + 1 goals and the k
    # cells of X's list, which hold variables: (n + 1)^2 in all; the input
    # list's n cells are entered once, by the first answer, which marks
    # them ground; the 2n + 1 records resolved as of their stamps enter
    # 3n + 1 more.  Entering the input list at every answer, as a memo
    # that lives for one answer does, adds n^2.
    goals = parse_query(f"append(X, Y, [{', '.join(f'e{i}' for i in range(n))}]).")
    cells = {id(t) for t in subterms(goals[0].args[2]) if type(t) is Struct}
    solver, out = Solver(_db(corpus_text("append.pl"))), []
    assert entered_compounds(lambda: out.extend(solver.solutions(goals)), cells) == [n * n + 6 * n + 2, n]
    assert len(out) == n + 1
