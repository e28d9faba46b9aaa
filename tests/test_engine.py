"""Resolution, backtracking, cut, negation-as-failure, builtins."""

import io
import random

import pytest
from hypothesis import given, settings

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
    parse_query,
    parse_term_text,
    solve,
)
from skolog.engine import Store
from skolog.terms import CUT, FreshVars, apply, rename_clause, unify, variables_in

from strategies import terms
from util import run_cli, variant_equal


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


def test_determinism_same_run_twice():
    db_text = "p(a). p(b). q(X) :- p(X), not(r(X)). r(b)."
    o1 = results(fresh_db(db_text), "q(X).")
    o2 = results(fresh_db(db_text), "q(X).")
    assert o1.status == o2.status
    assert [s.bindings for s in o1.solutions] == [s.bindings for s in o2.solutions]


def test_live_trace_stream_shows_failures():
    db = fresh_db("p(b). q(X) :- p(X), r(X).")
    tr = io.StringIO()
    solver = Solver(db, SolveOptions(), None, trace_out=tr)
    solver.run(parse_query("q(a)."))
    assert tr.getvalue() == "q(a)\nfail\tp(a)\nfail\tq(a)\n"


def test_solutions_are_lazy():
    db = fresh_db("p(a). p(b).")
    solver = Solver(db, SolveOptions(), None)
    stream = solver.solutions(parse_query("p(X)."))
    first = next(stream)
    assert first.bindings[Var("X")] == Atom("a")


def test_engine_provable_matches_semantics_on_definite_program():
    text = "edge(a, b). edge(b, c). path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."
    db = fresh_db(text)
    from skolog import UniverseBound, herbrand_base, minimal_model, parse_program

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
    assert solver.truncated
    assert solver.run(parse_query("r(b).")).status == "no"
    assert not solver.truncated


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


# --- the trailed store against the reference unifier ---------------------------

@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_store_unify_agrees_with_reference_unify(a, b):
    # b as it stands, sharing variables with a, and b renamed apart as a
    # clause head is, which lets the store skip first-occurrence checks
    mapping = {}
    renamed = rename_clause(Clause(head=b), FreshVars("_G", 1000), mapping)
    for other, fresh in ((b, None), (renamed, set(mapping.values()))):
        theta = unify(a, other)
        store = Store()
        assert store.unify(a, other, fresh) == (theta is not None)
        if theta is not None:
            res = store.resolver()
            for v in variables_in((a, other)):
                assert res.resolve(v) == apply(theta, v), f"{v} in {a} = {other}"


def test_query_variables_from_an_earlier_answer_stay_apart():
    # an answer's unbound _G<n> variable, passed back in a query, must not
    # be taken for the variable the next run renames a clause variable to
    db = fresh_db("p(f(X), X). t(X, X).")
    (first,) = solve(db, parse_query("p(A, B)."), SolveOptions()).solutions
    g1 = first.bindings[Var("B")]
    assert g1 == Var("_G1", 1)
    goal = Struct("t", (Struct("f", (g1,)), Var("W")))
    (sol,) = solve(db, [goal], SolveOptions()).solutions
    assert sol.bindings == {Var("W"): Struct("f", (g1,))}
