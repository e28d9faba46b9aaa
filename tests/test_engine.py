"""Resolution, backtracking, cut, negation-as-failure, builtins."""

import io
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skolog import (
    Atom,
    Clause,
    Database,
    EngineError,
    InstantiationError,
    Int,
    SolveOptions,
    Solver,
    Struct,
    Var,
    format_term,
    load_program,
    mklist,
    negate_fact,
    parse_program,
    parse_query,
    parse_term_text,
    solve,
)
import skolog.terms as skolog_terms
from skolog.corpus import corpus_text
from skolog.database import load_clauses
from skolog.engine import Store
from skolog.errors import SkologError
from skolog.parser import parse_clause_text
from skolog.terms import CUT, FreshVars, apply, rename_clause, signature, variables_in

from strategies import few_terms, head_matches, terms
from test_indexing import programs, queries
from util import QueuedOracle, generic_head_match, reference_unify, rename_then_unify, run_cli, variant_equal


def results(db, text, **kw):
    opts = SolveOptions(max_solutions=None, **{k: v for k, v in kw.items() if k != "oracle"})
    return solve(db, parse_query(text), opts, oracle=kw.get("oracle"))


def bindings_list(outcome, name):
    return [s.bindings[Var(name)] for s in outcome.solutions]


def fresh_db(text):
    db = Database()
    load_program(db, text)
    return db


def test_solution_order_follows_clause_order():
    out = results(fresh_db("p(a). p(b)."), "p(X).")
    assert out.status == "yes"
    assert bindings_list(out, "X") == [Atom("a"), Atom("b")]


def test_conjunction_left_to_right():
    db = fresh_db("p(a). p(b). q(b).")
    out = results(db, "p(X), q(X).")
    assert bindings_list(out, "X") == [Atom("b")]


def test_failure_is_no():
    out = results(fresh_db("p(a)."), "p(zz).")
    assert out.status == "no" and out.solutions == []


def test_bindings_restricted_to_query_variables():
    out = results(fresh_db("p(a, b)."), "p(X, Y).")
    (sol,) = out.solutions
    assert set(sol.bindings) == {Var("X"), Var("Y")}


def test_anonymous_variable_not_reported():
    out = results(fresh_db("p(a, b)."), "p(_, Y).")
    (sol,) = out.solutions
    assert set(sol.bindings) == {Var("Y")}


def test_recursive_program():
    db = fresh_db(
        "nat(zero). nat(s(N)) :- nat(N)."
    )
    out = solve(db, parse_query("nat(X)."), SolveOptions(max_solutions=3))
    xs = bindings_list(out, "X")
    assert xs[0] == Atom("zero")
    assert xs[1] == Struct("s", (Atom("zero"),))
    assert len(xs) == 3


# --- cut ---------------------------------------------------------------------

def test_cut_commits_to_first_solution():
    db = fresh_db("first(X) :- p(X), !. p(a). p(b).")
    out = results(db, "first(X).")
    assert bindings_list(out, "X") == [Atom("a")]


def test_cut_freezes_earlier_choice():
    # p(X), !, X = b finds only X = a, then the cut forbids retrying p
    db = fresh_db("p(a). p(b).")
    out = results(db, "p(X), !, X = b.")
    assert out.status == "no"


def test_cut_is_local_to_clause():
    db = fresh_db(
        "q(X) :- p(X), !. q(c). p(a). p(b). top(X) :- q(X). top(d)."
    )
    out = results(db, "top(X).")
    assert bindings_list(out, "X") == [Atom("a"), Atom("d")]


def test_cut_in_second_clause_only_cuts_after_entry():
    db = fresh_db("r(a). r(X) :- s(X), !. s(b). s(c).")
    out = results(db, "r(X).")
    assert bindings_list(out, "X") == [Atom("a"), Atom("b")]


# --- negation as failure -------------------------------------------------------

def test_not_truth_table():
    db = fresh_db("p(a).")
    assert results(db, "not(fail).").status == "yes"
    assert results(db, "not(true).").status == "no"
    assert results(db, "not(p(a)).").status == "no"
    assert results(db, "not(p(b)).").status == "yes"


def test_not_success_has_builtin_leaf_no_children():
    db = fresh_db("p(a).")
    out = results(db, "not(p(b)).")
    (sol,) = out.solutions
    node = sol.proof
    assert node.children == ()
    assert node.justification == "not"


def test_a_variable_body_goal_is_an_instantiation_error():
    # the reader rejects a variable as a goal, so build the clause by hand
    db = Database()
    db.assertz(Clause(head=Atom("p"), body=(Var("X"),)))
    with pytest.raises(InstantiationError, match="^goal is an unbound variable: "):
        Solver(db).run([Atom("p")])
    with pytest.raises(InstantiationError) as err:
        Solver(db).run([Atom("p")])
    assert str(err.value) == "goal is an unbound variable: _G1"


def test_an_integer_body_goal_is_an_engine_error():
    db = Database()
    db.assertz(Clause(head=Atom("p"), body=(Int(1),)))
    with pytest.raises(EngineError, match="^integer is not a callable goal: 1$"):
        Solver(db).run([Atom("p")])


@pytest.mark.parametrize(
    "goals, shown",
    [([Int(1)], "1"), ([Var("X")], "X"), ([Atom("fail"), Int(1)], "1")],
)
def test_a_non_callable_query_goal_is_named_as_a_term(goals, shown):
    # checked before the search: a goal that fails first does not hide it
    with pytest.raises(EngineError) as err:
        solve(Database(), goals)
    assert str(err.value) == f"query goal is not callable: {shown}"


def test_double_negation():
    db = fresh_db("p(a).")
    assert results(db, "not(not(p(a))).").status == "yes"
    assert results(db, "not(not(p(b))).").status == "no"


def test_cut_inside_not_is_confined():
    db = fresh_db("p(a). p(b). q :- not(inner). inner :- p(X), !, X = b.")
    # inner fails (cut froze X=a), so not(inner) succeeds; the inner cut
    # must not leak out and kill q's alternatives
    out = results(db, "q.")
    assert out.status == "yes"


def test_not_matches_two_clause_encoding():
    rng = random.Random(7)
    predicates = ["p", "q", "r"]
    consts = [Atom("a"), Atom("b"), Atom("c")]
    for _ in range(100):
        db = Database()
        for _ in range(rng.randint(0, 6)):
            head = Struct(rng.choice(predicates), (rng.choice(consts),))
            db.assertz(Clause(head=head))
        # notx(X) :- X, !, fail.   notx(X).   (built directly: the surface
        # grammar has no variable goals, the engine resolves them via theta)
        x = Var("MetaGoal")
        db.assertz(Clause(head=Struct("notx", (x,)), body=(x, CUT, Atom("fail"))))
        db.assertz(Clause(head=Struct("notx", (Var("Any"),))))
        goal = Struct(rng.choice(predicates), (rng.choice(consts),))
        native = solve(db, [Struct("not", (goal,))], SolveOptions())
        encoded = solve(db, [Struct("notx", (goal,))], SolveOptions())
        assert native.status == encoded.status, f"disagree on {goal}"


def test_not_on_unbound_variable_is_instantiation_error():
    db = fresh_db("p(a).")
    with pytest.raises(InstantiationError) as err:
        results(db, "not(X).")
    assert str(err.value) == "goal is an unbound variable: X"


# --- depth ---------------------------------------------------------------------

def test_left_recursion_hits_depth_limit():
    db = fresh_db("loop :- loop.")
    out = solve(db, parse_query("loop."), SolveOptions(depth_limit=100))
    assert out.status == "depth_exceeded"
    assert out.solutions == []


def test_depth_exceeded_not_reported_when_solution_exists():
    # the left-recursive clause is pruned, but the fact is still reachable
    db = fresh_db("p :- p. p.")
    out = solve(db, parse_query("p."), SolveOptions(depth_limit=50))
    assert out.status == "yes"


def test_depth_limit_allows_exactly_deep_enough():
    db = fresh_db("nat(zero). nat(s(N)) :- nat(N).")
    deep = "nat(s(s(s(zero))))."
    assert solve(db, parse_query(deep), SolveOptions(depth_limit=4)).status == "yes"
    assert solve(db, parse_query(deep), SolveOptions(depth_limit=3)).status == "depth_exceeded"


# --- builtins -------------------------------------------------------------------

def test_unify_builtin():
    db = Database()
    out = results(db, "X = f(a).")
    assert bindings_list(out, "X") == [Struct("f", (Atom("a"),))]
    assert results(db, "a = b.").status == "no"


def test_not_unify_builtin():
    db = Database()
    assert results(db, "a \\= b.").status == "yes"
    assert results(db, "a \\= a.").status == "no"
    # X \= a holds for some X and not for others: no answer is sound
    with pytest.raises(InstantiationError) as err:
        results(db, "X \\= a.")
    assert str(err.value) == "\\=/2 needs ground arguments: X \\= a"


def test_plus_modes():
    db = Database()
    assert bindings_list(results(db, "plus(9, L, 11)."), "L") == [Int(2)]
    assert bindings_list(results(db, "plus(2, 3, Z)."), "Z") == [Int(5)]
    assert bindings_list(results(db, "plus(X, 3, 5)."), "X") == [Int(2)]
    assert results(db, "plus(2, 2, 4).").status == "yes"
    assert results(db, "plus(2, 2, 5).").status == "no"


def test_plus_requires_two_integers():
    db = Database()
    with pytest.raises(InstantiationError):
        results(db, "plus(X, Y, 3).")


def test_plus_type_mismatch_fails_cleanly():
    db = Database()
    assert results(db, "plus(1, 2, a).").status == "no"


def test_write_builtin():
    db = fresh_db("greet :- write(hello).")
    sink = io.StringIO()
    solver = Solver(db, SolveOptions(), None, out=sink)
    outcome = solver.run(parse_query("greet."))
    assert outcome.status == "yes"
    assert sink.getvalue() == "hello"


def test_calling_integer_goal_is_error():
    db = fresh_db("p(X) :- q(X).")
    with pytest.raises(EngineError):
        solve(db, [Int(3)], SolveOptions())


def test_metacall_through_bound_variable():
    # a body variable bound to a goal by head unification is callable
    db = fresh_db("p(a).")
    x = Var("G")
    db.assertz(Clause(head=Struct("call1", (x,)), body=(x,)))
    out = solve(db, [Struct("call1", (Struct("p", (Var("Y"),)),))], SolveOptions())
    assert out.status == "yes"


def test_assert_retract_builtins_update_db():
    db = fresh_db("r(m).")
    out = results(db, "asserta(r(f)), assertz(r(z)), r(W).")
    assert bindings_list(out, "W") == [Atom("f"), Atom("m"), Atom("z")]
    out2 = results(db, "retract(r(f)), r(W).")
    assert bindings_list(out2, "W") == [Atom("m"), Atom("z")]


def test_retract_builtin_instantiates_pattern():
    db = fresh_db("q(a). q(b).")
    out = results(db, "retract(q(Z)).")
    assert bindings_list(out, "Z") == [Atom("a")]
    # X, bound before the call, matches as its value; only N is bound by
    # the retract, so no binding is overwritten
    db = fresh_db("q(a, 1). q(b, 2). q(b, 3).")
    (sol,) = results(db, "X = b, retract(q(X, N)).").solutions
    assert sol.bindings == {Var("X"): Atom("b"), Var("N"): Int(2)}
    assert [format_term(sc.clause.head) for sc in db.all_stored()] == ["q(a,1)", "q(b,3)"]


def test_retract_builtin_fails_when_no_match():
    db = fresh_db("q(a).")
    assert results(db, "retract(zz(1)).").status == "no"


def test_logical_snapshot_during_iteration():
    # clauses asserted while a predicate is being enumerated do not appear
    # in the already-running enumeration
    db = fresh_db("p(a). grow(X) :- p(X), assertz(p(next)).")
    out = results(db, "grow(X).")
    assert bindings_list(out, "X") == [Atom("a")]
    assert len(db.clauses(("p", 1))) == 2


def test_unknown_predicate_fails_with_warning():
    db = fresh_db("p(a).")
    diag = io.StringIO()
    solver = Solver(db, SolveOptions(), None, diag=diag)
    outcome = solver.run(parse_query("p(X), mystery(X)."))
    assert outcome.status == "no"
    assert "mystery/1" in diag.getvalue()
    assert diag.getvalue().count("mystery/1") == 1, "warned once, not per retry"


def test_max_solutions_limits_search():
    db = fresh_db("p(a). p(b). p(c).")
    out = solve(db, parse_query("p(X)."), SolveOptions(max_solutions=2))
    assert len(out.solutions) == 2


def test_max_solutions_below_one_is_rejected():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"max_solutions must be at least 1, not {n}"):
            SolveOptions(max_solutions=n)


def test_the_last_solution_wanted_asks_for_no_more():
    # with max_solutions=1 the search stops at the first answer, so the
    # second clause, which would put a question, is never tried
    db = fresh_db("p(a). p(X) :- ask_value(colour, sky, X).")
    orc = QueuedOracle([Atom("blue")])
    out = solve(db, parse_query("p(X)."), SolveOptions(max_solutions=1), oracle=orc)
    assert [s.bindings for s in out.solutions] == [{Var("X"): Atom("a")}] and orc.asked == []
    out = solve(db, parse_query("p(X)."), SolveOptions(max_solutions=2), oracle=orc)
    assert [s.bindings for s in out.solutions] == [{Var("X"): Atom("a")}, {Var("X"): Atom("blue")}]
    assert len(orc.asked) == 1


def test_determinism_same_run_twice():
    db_text = "p(a). p(b). q(X) :- p(X), not(r(X)). r(b)."
    o1 = results(fresh_db(db_text), "q(X).")
    o2 = results(fresh_db(db_text), "q(X).")
    assert o1.status == o2.status
    assert [s.bindings for s in o1.solutions] == [s.bindings for s in o2.solutions]


@pytest.mark.parametrize(
    "program, query, trace",
    [
        ("p(b). q(X) :- p(X), r(X).", "q(a).", "q(a)\nfail\tp(a)\nfail\tq(a)\n"),
        # a call that answered and then runs out of clauses fails too
        # (Byrd's FAIL port), shown as it was called
        ("p(a). p(b).", "p(X), X = c.", "p(X)\tX = a\np(X)\tX = b\nfail\tp(X)\n"),
    ],
    ids=["no-answer", "answers-then-fails"],
)
def test_live_trace_stream_shows_failures(program, query, trace):
    db = fresh_db(program)
    tr = io.StringIO()
    solver = Solver(db, SolveOptions(), None, trace_out=tr)
    solver.run(parse_query(query))
    assert tr.getvalue() == trace


def test_solutions_are_lazy():
    db = fresh_db("p(a). p(b).")
    solver = Solver(db, SolveOptions(), None)
    stream = solver.solutions(parse_query("p(X)."))
    first = next(stream)
    assert first.bindings[Var("X")] == Atom("a")


def test_streams_of_one_solver_answer_their_own_queries():
    # a stream resumed after other queries ran on its solver answers as on
    # a solver of its own, and the status it leaves is its own search's:
    # the cut-off query run in between does not make it depth_exceeded
    db = fresh_db(corpus_text("append.pl") + "loop :- loop.")
    first, second = "append(X, Y, [a,b,c]), append(P, Q, X).", "append(U, V, [q,r])."

    def alone(query):
        solver = Solver(db, SolveOptions(depth_limit=50))
        return list(solver.solutions(parse_query(query))), solver.exhausted_status()

    solver = Solver(db, SolveOptions(depth_limit=50))
    stream = solver.solutions(parse_query(first))
    got = [next(stream), next(stream)]
    other = solver.solutions(parse_query(second))
    got_other = [next(other), next(other)]
    assert solver.run(parse_query("loop.")).status == "depth_exceeded"
    got += stream
    assert (got, solver.exhausted_status()) == alone(first)
    assert len(got) == 10
    got_other += other
    assert (got_other, solver.exhausted_status()) == alone(second)


# Head matches a session may make before its query is stopped: the random
# programs can build searches that are exponential under the depth limit.
REDUCTION_BUDGET = 5_000


class _OverBudget(Exception):
    pass


def _interleaved(program, goals, schedule, tracing, shared):
    """Everything a user could see of two streams advanced in the order
    that ``schedule`` picks (False: the first), on one solver if
    ``shared``, else on a solver each over one database: each answer with
    its solver's ``cutoffs``, each end with its status, the output, and the
    database after.  A stream that ends, raises a skolog error or goes over the
    budget is dropped."""
    db = Database()
    load_clauses(db, program)
    out, diag, trace = io.StringIO(), io.StringIO(), io.StringIO()
    solvers = [Solver(db, SolveOptions(depth_limit=8), out=out, diag=diag, trace_out=trace if tracing else None)
               for _ in range(1 if shared else 2)]
    streams = [solvers[0].solutions(goals[0]), solvers[-1].solutions(goals[1])]
    reduce, made = Solver._reduce, iter(range(REDUCTION_BUDGET))

    def budgeted(self, call):
        if next(made, None) is None:
            raise _OverBudget
        return reduce(self, call)

    seen = []
    with mock.patch.object(Solver, "_reduce", budgeted):
        for pick in map(int, schedule):
            if streams[pick] is None:
                continue
            solver = solvers[min(pick, len(solvers) - 1)]
            try:
                seen.append((pick, next(streams[pick]), solver.cutoffs))
            except StopIteration:
                seen.append((pick, solver.exhausted_status()))
                streams[pick] = None
            except (SkologError, _OverBudget) as e:
                seen.append((pick, type(e).__name__, str(e)))
                streams[pick] = None
    stored = [(sc.id, sc.kind, sc.clause) for sc in db.all_stored()]
    return seen, out.getvalue(), diag.getvalue(), trace.getvalue(), stored


@given(programs, queries, queries, st.lists(st.booleans(), max_size=24), st.booleans())
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_interleaved_streams_answer_as_on_solvers_of_their_own(text, first, second, schedule, tracing):
    # parse once: both sessions must see the same variables, `_` ones included
    program, goals = parse_program(text), (parse_query(first), parse_query(second))
    shared = _interleaved(program, goals, schedule, tracing, shared=True)
    assert shared == _interleaved(program, goals, schedule, tracing, shared=False)


def test_engine_provable_matches_semantics_on_definite_program():
    text = "edge(a, b). edge(b, c). path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."
    db = fresh_db(text)
    from skolog import UniverseBound, herbrand_base, minimal_model

    clauses = parse_program(text)
    model = minimal_model(clauses, UniverseBound(0))
    for atom in sorted(herbrand_base(clauses, UniverseBound(0)), key=repr):
        provable = solve(db, [atom], SolveOptions(depth_limit=64)).status == "yes"
        assert provable == (atom in model), f"disagree on {atom}"


# --- sound answers under the depth limit ------------------------------------------

def test_not_fails_when_its_search_was_cut_off(tmp_path):
    # q's search never ends, so not(q) has no sound answer: the run must
    # say depth_exceeded, not yes
    f = tmp_path / "cutoff.pl"
    f.write_text("q :- q.\np :- not(q).\n")
    r = run_cli(["run", str(f), "--goal", "p.", "--depth", "50"])
    assert (r.code, r.out) == (3, "depth_exceeded\n")


def test_sound_yes_from_another_branch_survives_a_cut_off_not(tmp_path):
    f = tmp_path / "cutoff.pl"
    f.write_text("q :- q.\np :- not(q).\np.\n")
    r = run_cli(["run", str(f), "--goal", "p.", "--depth", "50"])
    assert (r.code, r.out) == (0, "yes\n")


def test_truncated_flag_is_public():
    db = fresh_db("q :- q. p :- not(q). r(a).")
    solver = Solver(db, SolveOptions(depth_limit=20), None)
    assert solver.run(parse_query("p.")).status == "depth_exceeded"
    assert solver.cutoffs == 1
    assert solver.run(parse_query("r(b).")).status == "no"
    assert solver.cutoffs == 0


def test_each_cut_off_not_counts_once():
    # each p clause calls not(q), whose one path reaches the limit once
    db = fresh_db("q :- q. p :- not(q). p :- not(q).")
    solver = Solver(db, SolveOptions(depth_limit=20), None)
    assert solver.run(parse_query("p.")).status == "depth_exceeded"
    assert solver.cutoffs == 2


def test_a_failing_not_drops_the_choicepoints_of_its_argument():
    # m(a, [a, a]) succeeds with an alternative left; were that alternative
    # kept, backtracking into it would let not/1 succeed: a second q
    db = fresh_db("m(X, [X|_]). m(X, [_|T]) :- m(X, T). q :- not(m(a, [a, a])). q.")
    out = solve(db, parse_query("q."), SolveOptions(max_solutions=None))
    assert len(out.solutions) == 1


def test_long_derivation_needs_no_recursion_headroom():
    # 2001 reductions and a proof chain as deep, at the interpreter's
    # default recursion limit
    db = fresh_db("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).")
    items = [Int(i) for i in range(2000)]
    goal = Struct("app", (mklist(items), mklist([Atom("x")]), Var("R")))
    (sol,) = solve(db, [goal], SolveOptions(max_solutions=1)).solutions
    expected = "[" + ",".join(str(i) for i in range(2000)) + ",x]"
    assert format_term(sol.bindings[Var("R")]) == expected
    node, depth = sol.proof, 1
    while node.children:
        (node,) = node.children
        depth += 1
    assert depth == 2001
    assert node.goal == parse_term_text("app([], [x], [x])")


def test_builtins_take_long_lists_at_the_default_recursion_limit():
    db = fresh_db("p(a).")
    long = mklist([Int(i) for i in range(2000)])
    goal = Struct("holds_negated", (Struct("p", (long,)),))
    assert solve(db, [goal], SolveOptions()).status == "no"
    db.assertz(Clause(head=Struct("s", (Struct("neg", (Atom("p"),)), long))), kind="s_fact")
    assert solve(db, [goal], SolveOptions()).status == "yes"
    db.assertz(Clause(head=Struct("q", (long, Var("T")))))
    (sol,) = solve(db, parse_query("retract(q(L, a))."), SolveOptions()).solutions
    assert format_term(sol.bindings[Var("L")]) == format_term(long)


# --- the binding store against the reference unifier ---------------------------

def _appended_then_undone(store, old):
    """The store's bindings begin with ``old``, the items it held before a
    unification, in the same order and with the same values (the dict's
    order is the binding order only if a unification appends), and
    ``undo`` to their count gives back exactly ``old``."""
    assert list(store.bindings.items())[:len(old)] == old
    store.undo(len(old))
    assert list(store.bindings.items()) == old


@given(terms(), terms())
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_store_unify_agrees_with_reference_unify(a, b):
    # b as it stands, sharing variables with a, and b renamed apart as a
    # clause head is
    renamed = rename_clause(Clause(head=b), FreshVars("_G", 1000)).head
    for other in (b, renamed):
        theta = reference_unify(a, other)
        store = Store()
        assert store.unify(a, other) == (theta is not None)
        if theta is not None:
            res = store.resolver()
            for v in variables_in((a, other)):
                assert res.resolve(v) == apply(theta, v), f"{v} in {a} = {other}"
        # on top of what that left, failed or not, the other pairing
        old = list(store.bindings.items())
        store.unify(other, renamed if other is b else b)
        _appended_then_undone(store, old)


# --- the head match against renaming the clause apart, then unifying ---------

_TOO_DEEP = "p(Y, " + "f(" * 32 + "Y" + ")" * 32 + ")"  # p/2 and 32 f/1 hold Y past the limit


def _head_match(match, goal, clause, before=()):
    """What ``match`` (``Store.unify_head`` or the reference) leaves: whether
    it matched, each call variable and body goal resolved, and the next
    fresh id.  ``before`` is unified first, so that the call holds bound
    variables.  The match must only append bindings, and undoing it must
    give back the store as it was."""
    store, fresh = Store(), FreshVars()
    for a, b in before:
        store.unify(a, b)
    old = list(store.bindings.items())
    body = match(store, goal, clause, fresh)
    left = None
    if body is not None:
        res = store.resolver()
        calls = [(v, res.resolve(v)) for v in variables_in((goal, *(t for pair in before for t in pair)))]
        left = (calls, [res.resolve(g) for g in body])
    _appended_then_undone(store, old)
    return left, fresh.next_id


@given(head_matches(), st.lists(st.tuples(few_terms, few_terms), max_size=2))
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_head_match_agrees_with_renaming_then_unifying(pair, before):
    # call and clause draw their variables from the same names, which stay
    # apart: a clause variable never stands for the call's namesake
    goal, clause = pair
    assert _head_match(Store.unify_head, goal, clause, before) == _head_match(rename_then_unify, goal, clause, before)


@pytest.mark.parametrize(
    "goal, head, apart",
    [
        # X is bound to the f(_G1) built for it; Y's second occurrence then
        # unifies _G1 with f(_G1)
        ("p(X, X)", "p(Y, f(Y))", "p(X, V)"),
        # Z is bound to W's _G1; W's second occurrence unifies f(Z) with it
        ("p(f(Z), Z)", "p(W, W)", "p(f(Z), V)"),
        # Y stands for g(X), so the f(g(X)) built for X holds X
        ("p(X, g(X))", "p(f(Y), Y)", "p(V, g(X))"),
        # as the first, but Y is nested too deep to compile: the clause is
        # renamed apart, and its failed unification gives the ids back
        pytest.param("p(X, X)", _TOO_DEEP, "p(X, V)", id="nested-past-the-limit"),
    ],
)
def test_head_match_runs_the_occurs_check(goal, head, apart):
    clause = Clause(parse_term_text(head))
    for match in (Store.unify_head, rename_then_unify):
        fresh = FreshVars()
        assert match(Store(), parse_term_text(goal), clause, fresh) is None
        assert fresh.next_id == 1  # a failed match uses up no ids
    assert (clause._match[0] is skolog_terms._rename_match) == (head is _TOO_DEEP)
    # with the call's two variables apart, the same head matches
    assert Store().unify_head(parse_term_text(apart), clause, FreshVars()) is not None


def test_head_match_walks_a_built_term_only_past_a_mapped_variable():
    # the walk takes app/3's last argument first: [H|R] is built for the
    # call's Z while no clause variable is mapped yet, so Z cannot occur in
    # it; X's [H|T] holds H, which stands for the call's a by then
    clause = parse_clause_text("app([H|T], L, [H|R]) :- app(T, L, R).")
    real = Store._occurs
    with mock.patch.object(Store, "_occurs", autospec=True, side_effect=real) as walk:
        assert Store().unify_head(parse_term_text("app([a], [b], Z)"), clause, FreshVars()) is not None
        assert walk.call_count == 0
        assert Store().unify_head(parse_term_text("app(X, Y, [a])"), clause, FreshVars()) is not None
        assert walk.call_count == 1


def test_head_match_binds_only_the_call_variables_it_builds_for():
    # H and R stand for the call's a and [b], L for the call's Y itself;
    # only X gets a term, [a|_G2], and only X is bound
    store = Store()
    goal = parse_term_text("app(X, Y, [a,b])")
    clause = parse_clause_text("app([H|T], L, [H|R]) :- app(T, L, R).")
    body = store.unify_head(goal, clause, FreshVars())
    assert list(store.bindings) == [Var("X")]
    assert store.bindings == {Var("X"): Struct(".", (Atom("a"), Var("_G2", 2)))}
    assert body == (Struct("app", (Var("_G2", 2), Var("Y"), mklist([Atom("b")]))),)


def test_every_split_binds_the_second_list_in_one_step():
    # the call's Y travels down app/3's recursion unbound, so no chain of
    # variables builds up: at each solution Y is bound to its suffix itself
    db = fresh_db("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).")
    items = [Atom(f"a{i}") for i in range(20)]
    solver = Solver(db, SolveOptions(max_solutions=None), None)
    query = [Struct("app", (Var("X"), Var("Y"), mklist(items)))]
    suffixes = [solver._store.bindings[Var("Y")] for _ in solver.solutions(query)]
    assert suffixes == [mklist(items[k:]) for k in range(21)]


def test_head_match_takes_the_equations_in_unifys_order():
    # the last argument first: Z stands for f(Y), so Y is bound to X
    goal, clause = parse_term_text("p(f(X), f(Y))"), Clause(parse_term_text("p(Z, Z)"))
    want = ([(Var("X"), Var("X")), (Var("Y"), Var("X"))], []), 2
    assert _head_match(Store.unify_head, goal, clause) == _head_match(rename_then_unify, goal, clause) == want


def test_head_match_keeps_the_renamed_answer_name():
    # p(A) against p(B) :- q(B): B stands for A, which stays unbound, and
    # B's id is used up.  q(f(C)) then builds f(_G2) for A, as renaming
    # q(f(C)) apart does; the answer to p(A) names it
    goal, clause = parse_term_text("p(A)"), parse_clause_text("p(B) :- q(B).")
    want = ([(Var("A"), Var("A"))], [Struct("q", (Var("A"),))]), 2
    assert _head_match(Store.unify_head, goal, clause) == _head_match(rename_then_unify, goal, clause) == want
    out = results(fresh_db("p(B) :- q(B). q(f(C))."), "p(A).")
    assert [format_term(t) for t in bindings_list(out, "A")] == ["f(_G2)"]


def test_a_clause_numbers_its_variables_on_its_first_head_match_only():
    db = fresh_db("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R). f(a). g(X) :- f(X).")
    stored = db.all_stored()
    assert [sc.clause._match for sc in stored] == [None] * 4  # loading prepares nothing
    with mock.patch.object(skolog_terms, "_prepare", wraps=skolog_terms._prepare) as prepare:
        assert solve(db, parse_query("app([a,b,c], [d], X).")).status == "yes"
        assert prepare.call_count == 2  # four tries of the two app/3 clauses
        first = [sc.clause._match for sc in stored[:2]]
        # each clause gets its shape's function, which numbers its
        # variables, and its own constants
        assert [m[0] for m in first] == [skolog_terms._SHAPES[skolog_terms._shape(sc.clause)[0]] for sc in stored[:2]]
        assert [m[1] for m in first] == [(Atom("[]"),), ()]
        # later matches, and retract/1's, reuse the preparation
        assert len(solve(db, parse_query("app(X, Y, [a])."), SolveOptions(max_solutions=None)).solutions) == 2
        # the rule's H and R are made for C, as _R1 and _R4; H meets a
        assert db.retract(parse_clause_text("app([a|T], [], C) :- app(T, [], R).")) == {
            Var("C"): Struct(".", (Atom("a"), Var("_R4", 4))),
            Var("R"): Var("_R4", 4),
        }
        assert prepare.call_count == 2
    assert all(sc.clause._match is match for sc, match in zip(stored, first))
    assert [sc.clause._match for sc in stored[2:]] == [None, None]  # never tried


def _raw_match(match, goal, clause, before=()):
    """What ``match`` adds to a store, unresolved: the body it returns,
    the bindings it makes in binding order, and the next fresh id."""
    store, fresh = Store(), FreshVars()
    for a, b in before:
        store.unify(a, b)
    mark = len(store.bindings)
    body = match(store, goal, clause, fresh)
    return body, list(store.bindings.items())[mark:], fresh.next_id


@given(head_matches(), st.lists(st.tuples(few_terms, few_terms), max_size=2))
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_compiled_head_match_agrees_with_the_generic_walk(pair, before):
    # the same bindings in the same order, the same terms built, the same
    # ids used, whether the head matches or not
    goal, clause = pair
    assert _raw_match(Store.unify_head, goal, clause, before) == _raw_match(generic_head_match, goal, clause, before)
    assert clause._match[0] is not skolog_terms._rename_match


def _nested(depth, leaf, name="f"):
    t = leaf
    for _ in range(depth):
        t = Struct(name, (t,))
    return t


def test_a_head_nested_10000_deep_matches_as_the_references_do():
    # the robustness generator's t(f(f(...X...))) and t(s(s(...z...)))
    a, z, Y = Atom("a"), Atom("z"), Var("Y")
    cases = {
        Clause(Struct("t", (_nested(10_000, Var("X")),))): [
            Y, _nested(1, a), _nested(2, Y), _nested(10_000, a), _nested(10_000, Y), _nested(9_999, a),
            _nested(10_001, a),
        ],
        Clause(Struct("t", (_nested(10_000, z, "s"),))): [
            Y, _nested(1, Y, "s"), _nested(10_000, z, "s"), _nested(10_000, a, "s"), _nested(5_000, Y, "s"),
            _nested(10_000, Y),
        ],
    }
    deep, ground = cases
    # the deep clause is renamed apart, so only renaming then unifying
    # binds what it binds; the ground one compiles
    raw_reference = {deep: rename_then_unify, ground: generic_head_match}
    for clause, args in cases.items():
        for arg in args:
            goal = Struct("t", (arg,))
            want = _head_match(rename_then_unify, goal, clause)
            assert _head_match(Store.unify_head, goal, clause) == want
            assert _raw_match(Store.unify_head, goal, clause) == _raw_match(raw_reference[clause], goal, clause)
    assert deep._match[0] is skolog_terms._rename_match  # too deep to compile
    assert ground._match[1] == ground.head.args  # one slot for the ground argument


@pytest.mark.parametrize("depth, compiled", [(31, True), (32, False)])
def test_a_variable_nested_past_the_limit_is_renamed_apart(depth, compiled):
    # t/1 and 31 f/1 hold X at the limit; one more f and the clause's
    # code would nest past it, so the clause is renamed apart and unified
    a, Y = Atom("a"), Var("Y")
    clause = Clause(Struct("t", (_nested(depth, Var("X")),)), (Struct("t", (Var("X"),)),))
    raw_reference = generic_head_match if compiled else rename_then_unify
    for arg in (Y, _nested(depth, a), _nested(depth, Y), _nested(depth - 1, a), _nested(3, Y)):
        goal = Struct("t", (arg,))
        assert _head_match(Store.unify_head, goal, clause) == _head_match(rename_then_unify, goal, clause)
        assert _raw_match(Store.unify_head, goal, clause) == _raw_match(raw_reference, goal, clause)
    assert (clause._match[0] is not skolog_terms._rename_match) == compiled


def test_an_atomic_slot_and_a_compound_slot_do_not_share_code():
    text = "p(a). q(a, f(a)). q(b, c)."
    db = fresh_db(text)
    for query in ("q(a, f(X)).", "q(b, X).", "q(X, Y).", "q(a, c).", "q(b, f(X)).", "q(X, f(a))."):
        want = _with_reference_match(lambda: results(fresh_db(text), query))
        assert _seen(results(db, query)) == _seen(want)
    assert bindings_list(results(db, "q(a, f(X))."), "X") == [Atom("a")]
    q1, q2 = (sc.clause._match for sc in db.all_stored()[1:])
    assert q1[0] is not q2[0]


def test_constant_slots_are_numbered_by_position():
    # one atom object twice, as an interned atom would be
    e1 = Atom("e1")
    facts = (Clause(Struct("emp", (e1, e1, Int(3)))), Clause(Struct("emp", (Atom("e2"), Atom("e3"), Int(4)))))

    def run(query):
        db = Database()
        load_clauses(db, facts)
        return db, results(db, query)

    for query in ("emp(X, Y, Z).", "emp(X, X, Z).", "emp(e2, Y, Z).", "emp(X, e3, 4).", "emp(e1, e1, Z)."):
        db, out = run(query)
        assert _seen(out) == _seen(_with_reference_match(lambda: run(query)[1]))
    db, out = run("emp(X, Y, Z).")
    assert [[format_term(t) for t in s.bindings.values()] for s in out.solutions] == [
        ["e1", "e1", "3"], ["e2", "e3", "4"]
    ]
    first, second = (sc.clause._match for sc in db.all_stored())
    assert first[0] is second[0]
    assert first[1] == (e1, e1, Int(3)) and second[1] == facts[1].head.args


def test_two_databases_of_2500_facts_compile_one_function():
    text = "".join(f"emp(e{i}, d{i % 7}, {1000 + i}).\n" for i in range(2500))
    with mock.patch.dict(skolog_terms._SHAPES, clear=True), \
            mock.patch.object(skolog_terms, "_compile", wraps=skolog_terms._compile) as compile_shape:
        for _ in range(2):
            db = fresh_db(text)
            assert len(results(db, "emp(E, D, S).").solutions) == 2500
            assert all(sc.clause._match is not None for sc in db.all_stored())
    assert compile_shape.call_count == 1


@pytest.mark.parametrize("name", ["a\nimport os", '"""', "__import__", "k[0]", "x) or (1"])
def test_program_text_never_becomes_source_text(name):
    # the name is the functor of the head, of a compound in it and of the
    # body goal, and an atom in it; calls that match and calls that do not
    atom, other, X, T = Atom(name), Atom(name + "_"), Var("X"), Var("T")
    clause = Clause(Struct(name, (atom, Struct(name, (X,)), mklist([atom], T))), (Struct(name, (X, T)),))
    goals = [
        Struct(name, (atom, Struct(name, (Atom("b"),)), mklist([atom, atom]))),
        Struct(name, (Var("A"), Var("B"), Var("C"))),
        Struct(name, (other, Var("B"), Var("C"))),
        Struct(name, (atom, Struct(name + "_", (Atom("b"),)), Var("C"))),
        Struct(name, (atom, Var("B"), mklist([other]))),
    ]
    with mock.patch.dict(skolog_terms._SHAPES, clear=True), \
            mock.patch.object(skolog_terms, "compile", create=True, wraps=compile) as compile_source:
        for goal in goals:
            assert _head_match(Store.unify_head, goal, clause) == _head_match(rename_then_unify, goal, clause)
    (source, *_), _ = compile_source.call_args
    assert compile_source.call_count == 1 and name not in source


def test_query_variables_from_an_earlier_answer_stay_apart():
    # an answer's unbound _G<n> variable, passed back in a query, must not
    # be taken for the variable the next run makes for a clause variable:
    # t(X, g(X)) makes X for W's g(X), then unifies it with f(_G1)
    db = fresh_db("p(f(X)). t(X, g(X)).")
    (first,) = solve(db, parse_query("p(A)."), SolveOptions()).solutions
    f_g1 = first.bindings[Var("A")]
    g1 = Var("_G1", 1)
    assert f_g1 == Struct("f", (g1,))
    goal = Struct("t", (f_g1, Var("W")))
    (sol,) = solve(db, [goal], SolveOptions()).solutions
    assert sol.bindings == {Var("W"): Struct("g", (f_g1,))}


# --- a clause whose head clashes with the call fails its first comparison ---

def _with_reference_match(run):
    """``run()`` with each tried clause renamed apart and unified with the
    call, instead of matched in place."""
    with mock.patch.object(Store, "unify_head", rename_then_unify):
        return run()


def _seen(out):
    return out.status, [(s.bindings, s.proof) for s in out.solutions]


def test_a_clause_that_fails_to_match_uses_no_ids(tmp_path):
    # p(b, X, f(Y)) clashes on its first argument and uses up no ids, so
    # the matching clause's variables are _G1 and _G2, and the f(W) built
    # for B holds _G2
    f = tmp_path / "p.pl"
    f.write_text("p(b, X, f(Y)).\np(a, Z, f(W)).\n")
    r = run_cli(["run", str(f), "--goal", "p(a, A, B)."])
    assert (r.code, r.out, r.err) == (0, "B = f(_G2)\n", "")


def test_a_clash_is_seen_through_a_binding_chain():
    db = fresh_db("p(b, f(Z)). p(a, f(W)).")
    out = results(db, "X = Y, Y = a, p(X, R).")
    assert bindings_list(out, "R") == [Struct("f", (Var("_G1", 1),))]
    assert _seen(out) == _seen(_with_reference_match(lambda: results(db, "X = Y, Y = a, p(X, R).")))
    # an argument that is still a variable skips nothing
    out = results(db, "p(X, R).")
    assert bindings_list(out, "X") == [Atom("b"), Atom("a")]
    assert bindings_list(out, "R") == [Struct("f", (Var("_G1", 1),)), Struct("f", (Var("_G2", 2),))]
    assert _seen(out) == _seen(_with_reference_match(lambda: results(db, "p(X, R).")))


@pytest.mark.parametrize(
    "arg, answer",
    [("1", "_G1"), ("'1'", "_G1"), ("f(a)", "_G1"), ("f(a, b)", "_G1"), ("[]", "_G1"), ("[a]", "_G3")],
)
def test_keys_that_only_look_alike_clash(arg, answer):
    # each clause is keyed by its first argument, so each call gets the
    # one clause with its key, and the g(X) that clause builds for R names
    # its X.  The reference run renames each clause apart before unifying.
    text = "q(1, g(X)). q('1', g(X)). q(f(a), g(X)). q(f(a, b), g(X)). q([], g(X)). q([H|T], g(X))."
    query = f"q({arg}, R)."
    want = _with_reference_match(lambda: results(fresh_db(text), query))
    db = fresh_db(text)
    assert len(db.clauses(("q", 2), (parse_term_text(arg), Var("R")))) == 1
    out = results(db, query)
    assert [format_term(t) for t in bindings_list(out, "R")] == [f"g({answer})"]
    assert _seen(out) == _seen(want)


def test_twins_renames_only_the_person_rule_that_matches():
    # the other person/6 rules differ from the call in their sixth argument
    # alone; the answer and its proof are those of renaming every rule
    query = "person(marsha, F, M, Mo, Y, family(X, marsha))."

    def run():
        oracle = QueuedOracle([Atom("smith")])
        return results(fresh_db(corpus_text("twins.pl")), query, oracle=oracle)

    out = run()
    assert bindings_list(out, "X") == [Atom("smith")]
    assert _seen(out) == _seen(_with_reference_match(run))
    # every rule has a variable first: the sixth argument picks the rule
    (goal,) = parse_query(query)
    assert len(fresh_db(corpus_text("twins.pl")).clauses(("person", 6), goal.args)) == 1


def test_app_tries_only_the_clause_its_first_argument_keys():
    # app([], L, L) is not tried against [a], and on backtracking the rule
    # is not tried against []: two head matches, one per call
    db = fresh_db("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).")
    with mock.patch.object(Store, "unify_head", autospec=True, side_effect=Store.unify_head) as match:
        out = results(db, "app([a], [b], Z).")
    assert [format_term(t) for t in bindings_list(out, "Z")] == ["[a,b]"]
    assert match.call_count == 2


# --- every negation issues constants that are fresh at that moment -----------

# sk_1 and sk_2 are the names negate_fact generates, so a write can take
# one of them before a negation needs it
_CONST_ARGS = ("a", "b", "1", "'1'", "f(a)", "[a]", "sk_1", "sk_2", "X", "Y")
_atoms = st.builds(
    lambda p, a, b: f"{p}({a}, {b})", st.sampled_from("pq"), st.sampled_from(_CONST_ARGS), st.sampled_from(_CONST_ARGS)
)
_clause_texts = st.tuples(_atoms, st.lists(_atoms, max_size=2)).map(
    lambda hb: f"{hb[0]} :- {', '.join(hb[1])}." if hb[1] else f"{hb[0]}."
)
_writes = st.one_of(
    st.tuples(st.sampled_from(("asserta", "assertz", "retract", "retract")), _clause_texts),
    st.tuples(st.just("negate"), _atoms.map(lambda a: a + ".")),
    st.tuples(st.just("clear_predicate"), st.sampled_from((("p", 2), ("q", 2), ("s", 3)))),
)


@given(st.lists(_clause_texts, max_size=8), st.lists(_writes, max_size=12))
# at least 200 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
def test_every_negation_issues_fresh_constants(program, writes):
    # fresh: in no stored clause just before the negation (a rescan of the
    # store, not constants_of), and issued by no earlier negation
    db = fresh_db("\n".join(program))
    ledger, issued = set(), set()
    for kind, item in writes:
        if kind == "negate":
            stored = signature(g for sc in db.all_stored() for g in (sc.clause.head, *sc.clause.body))[0]
            new = negate_fact(db, parse_clause_text(item), ledger=ledger).skolem_constants
            assert stored.isdisjoint(new) and issued.isdisjoint(new)
            issued.update(new)
        elif kind == "clear_predicate":
            db.clear_predicate(item)
        else:
            getattr(db, kind)(parse_clause_text(item))
