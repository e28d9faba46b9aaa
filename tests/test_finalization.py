"""Every answer's proof equals the one finalized from scratch.

A proof record keeps its entry goal and bindings once its first reader
(an earlier answer, a WHY, or the live trace) has resolved them, and
``Solver._solution`` takes them from there instead of resolving them
again.  These tests drive ``Solver.solutions()`` as a generator and, at
each answer, compare the ``Solution`` it yields, proof nodes included,
with ``finalize_from_scratch`` in ``util``, which resolves every record as
of its stamps with the reference resolver, not ``_Resolver``.

A proof node's goal is resolved on its first read, over a copy of the
bindings that its answer had.  So the proofs are also read only after the
search has moved on, and compared with the ones finalized from scratch at
their answers; and a lazy node is held to an eager one under equality,
``repr``, copies and pickles.  Count tests pin how often finalization
resolves a record as of its stamps, and how many compounds it enters.

CI runs the two random-program properties once more under the
``robustness`` profile of ``conftest.py``.
"""

from __future__ import annotations

import copy
import inspect
import io
import itertools
import pickle
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


def run_random_steps(text, raw_steps, tracing, query):
    """Load ``text``, then take each step: assert or retract a clause, or
    call ``query(solver, goals)`` with a fresh solver under depth limit 8,
    writing its trace if ``tracing``.  A query that raises a skolog error
    or makes more head matches than its budget is stopped there."""
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
                query(solver, parse_query(item))
            except (SkologError, _OverBudget):
                pass


@given(programs, steps, st.booleans())
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_answer_of_a_random_program_is_finalized_as_from_scratch(text, raw_steps, tracing):
    run_random_steps(text, raw_steps, tracing, lambda solver, goals: answers(solver, goals, limit=12))


def read_late(solver, goals, limit=None):
    """The solutions of ``goals``, all of the generator's when ``limit`` is
    None, else ``Solver.run``'s under ``max_solutions=limit``, each paired
    with the solution finalized from scratch at its answer.  Nothing reads
    a proof before the search has stopped."""
    expected, got = [], []
    solution = Solver._solution

    def finalize_twice(self, qvars):
        expected.append(finalize_from_scratch(self, qvars))
        return solution(self, qvars)

    with mock.patch.object(Solver, "_solution", finalize_twice):
        try:
            if limit is None:
                got.extend(solver.solutions(goals))
            else:
                solver.options.max_solutions = limit
                got = solver.run(goals).solutions
        except (SkologError, _OverBudget):
            del expected[len(got):]  # run's answers are lost with it; the generator's stay
    return list(zip(got, expected, strict=True))


@given(programs, steps, st.booleans(), st.none() | st.integers(1, 12))
@settings(max_examples=max(300, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_proof_read_after_the_search_is_finalized_as_at_its_answer(text, raw_steps, tracing, limit):
    # the generator is exhausted, or run has stopped at its last answer,
    # before any goal of a proof is read
    def query(solver, goals):
        for sol, expected in read_late(solver, goals, limit):
            assert sol == expected

    run_random_steps(text, raw_steps, tracing, query)


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


def test_all_splits_of_six_read_after_the_search_are_finalized_as_at_their_answers():
    pairs = read_late(Solver(_db(LISTS)), parse_query("app(X, Y, [1,2,3,4,5,6])."))
    assert len(pairs) == 7
    assert all(sol == expected for sol, expected in pairs)


def test_a_run_read_after_it_stops_is_finalized_as_at_its_answers():
    # a multi-goal query: the root's goal is built from its children's
    pairs = read_late(Solver(_db(LISTS)), parse_query("nrev([a,b,c], R), member(X, R)."), limit=2)
    assert len(pairs) == 2
    assert all(sol == expected for sol, expected in pairs)


def lazy_and_eager(query="nrev([a,b], R), member(X, R)."):
    """The first solution of ``query``, its goals not yet read, and the
    same solution finalized from scratch, whose nodes are eager."""
    solver, goals = Solver(_db(LISTS)), parse_query(query)
    [(sol, expected)] = read_late(solver, goals, limit=1)
    return sol, expected


def test_a_lazy_node_equals_and_shows_as_an_eager_one():
    sol, expected = lazy_and_eager()
    assert sol.proof == expected.proof
    sol, expected = lazy_and_eager()
    assert repr(sol) == repr(expected)
    assert "_raw" not in repr(sol)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_a_copy_of_a_lazy_node_equals_an_eager_one(duplicate):
    sol, expected = lazy_and_eager()
    copied = duplicate(sol.proof)
    assert vars(copied).keys() == vars(expected.proof).keys()
    assert copied == expected.proof
    assert sol.proof == expected.proof


def test_a_pickled_lazy_node_equals_an_eager_one():
    # builtins only, then clauses cited: a clause that has matched pickles
    # without its compiled head match and its text, which a loaded clause
    # builds again on first use
    for query, cited in [("X = f(Y), Y = [a], Z = g(X).", 0), ("nrev([a,b], R), member(X, R).", 7)]:
        sol, expected = lazy_and_eager(query)
        loaded = pickle.loads(pickle.dumps(sol))
        assert loaded == expected
        assert sol == expected
        clauses = [n.justification.clause for n in _nodes(loaded.proof) if hasattr(n.justification, "clause")]
        assert len(clauses) == cited
        assert all(vars(c).keys() == {"head", "body"} for c in clauses)


def _nodes(root):
    """The proof nodes under ``root``, ``root`` included."""
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        todo += node.children


def test_two_reads_of_a_lazy_goal_return_the_same_object():
    sol, _ = lazy_and_eager()
    nodes = [sol.proof, *sol.proof.children, *sol.proof.children[0].children]
    for node in nodes:
        assert node.goal is node.goal
    assert sol.proof.entry_goal is sol.proof.goal
    sol, _ = lazy_and_eager()
    assert sol.proof.entry_goal is sol.proof.goal  # the root's entry goal read first


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


def read_goals(solutions):
    for sol in solutions:
        todo = [sol.proof]
        while todo:
            node = todo.pop()
            node.goal
            todo.extend(node.children)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_all_splits_of_a_ground_list_walk_the_list_once(n):
    # during the search, answer k's bindings enter the k cells of X's
    # list, which hold variables: n(n + 1)/2 in all; the input list's n
    # cells are entered once, by the first record's entry walk, which
    # marks them ground; the 2n + 1 records resolved as of their stamps
    # enter 3n + 1 more.  No proof goal is resolved until it is read.
    # Reading every goal then enters answer k's k + 1 goals and the k
    # cells of X's list once more, for the resolver over the copy of the
    # bindings has a memo of its own: (n + 1)^2, which an eager proof
    # spent at the answers.
    goals = parse_query(f"append(X, Y, [{', '.join(f'e{i}' for i in range(n))}]).")
    cells = {id(t) for t in subterms(goals[0].args[2]) if type(t) is Struct}
    solver, out = Solver(_db(corpus_text("append.pl"))), []
    assert entered_compounds(lambda: out.extend(solver.solutions(goals)), cells) == [(n * n + 9 * n + 2) // 2, n]
    assert len(out) == n + 1
    assert entered_compounds(lambda: read_goals(out), cells) == [(n + 1) ** 2, 0]


@pytest.mark.parametrize("n", [10, 20, 40])
def test_nrev_enters_each_list_once_over_its_entry_walks(n):
    # nrev/n leaves (n + 1)(n + 2)/2 records: n + 1 of nrev/2 and
    # n(n + 1)/2 of app/3.  The entry walks, as of each record's stamps,
    # memoize every compound that met no binding at or after the stamp,
    # so the list that an app/3 call is given, built by the calls before
    # it, is entered once and reused by the records after: the search
    # enters the records' goals and n(n + 1) more.  Entry walks that
    # memoize nothing enter that list again at every record, which is
    # cubic (260, 1,620 and 11,640 here).  Reading every goal enters the
    # records' goals and n(n - 1)/2 list cells, each once.
    goals = parse_query(f"nrev([{', '.join(f'e{i}' for i in range(n))}], R).")
    solver, out = Solver(_db(LISTS)), []
    records = (n + 1) * (n + 2) // 2
    assert entered_compounds(lambda: out.extend(solver.solutions(goals)), set()) == [records + n * (n + 1), 0]
    assert len(out) == 1
    assert entered_compounds(lambda: read_goals(out), set()) == [records + n * (n - 1) // 2, 0]
