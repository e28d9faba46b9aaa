"""Clause store: ordering, retraction, snapshots."""

import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from skolog import Atom, Clause, Database, Struct, Var, constants_of, load_program, parse_query, solve
from skolog.database import KIND_DYNAMIC, KIND_S_FACT, KIND_STATIC
from skolog.negation import find_s_fact
from skolog.oracle import ask, ask_value
from skolog.parser import format_clause
from skolog.terms import FreshVars, Int, apply, compose, rename_clause, variables_in

from strategies import terms, variables
from util import reference_unify, variant_equal, variant_equal_seq


def p(c):
    return Struct("p", (Atom(c),))


def test_assertz_appends_asserta_prepends():
    db = Database()
    db.assertz(Clause(head=p("b")))
    db.assertz(Clause(head=p("c")))
    db.asserta(Clause(head=p("a")))
    heads = [sc.clause.head for sc in db.clauses(("p", 1))]
    assert heads == [p("a"), p("b"), p("c")]


def test_assert_is_assertz():
    # the assert/1 builtin appends, as assertz/1 does
    db = Database()
    load_program(db, "p(m).")
    solve(db, parse_query("assert(p(x)), assertz(p(y)), assert(p(z))."))
    heads = [sc.clause.head for sc in db.clauses(("p", 1))]
    assert heads == [p("m"), p("x"), p("y"), p("z")]


def test_stored_ids_unique_and_kind_recorded():
    db = Database()
    a = db.assertz(Clause(head=p("a")), kind=KIND_STATIC)
    b = db.assertz(Clause(head=p("b")))
    s = db.assertz(Clause(head=Struct("s", (Struct("neg", (Atom("p"),)), Atom("k")))), kind=KIND_S_FACT)
    assert len({a.id, b.id, s.id}) == 3
    assert a.kind == KIND_STATIC and b.kind == KIND_DYNAMIC and s.kind == KIND_S_FACT


def test_retract_removes_first_unifying_and_binds():
    db = Database()
    load_program(db, "q(a). q(b).")
    theta = db.retract(Clause(head=Struct("q", (Var("Z"),))))
    assert theta is not None
    assert theta[Var("Z")] == Atom("a")
    assert [sc.clause.head for sc in db.clauses(("q", 1))] == [Struct("q", (Atom("b"),))]


def test_retract_returns_only_the_pattern_variables():
    # the clause's X meets the pattern's a: no _R variable is bound for it
    db = Database()
    load_program(db, "p(X, f(X)).")
    theta = db.retract(Clause(head=Struct("p", (Atom("a"), Var("Y")))))
    assert theta == {Var("Y"): Struct("f", (Atom("a"),))}
    # a clause variable in a term built for a pattern variable is made,
    # named _R<n>
    load_program(db, "p(g(X), f(X)).")
    theta = db.retract(Clause(head=Struct("p", (Var("Z"), Var("Y")))))
    assert list(theta.items()) == [
        (Var("Z"), Struct("g", (Var("_R2", 2),))),
        (Var("Y"), Struct("f", (Var("_R2", 2),))),
    ]
    # W meets no clause variable of its own, so it stays unbound and out
    load_program(db, "p(A, A).")
    theta = db.retract(Clause(head=Struct("p", (Struct("f", (Var("W"),)), Var("Y")))))
    assert theta == {Var("Y"): Struct("f", (Var("W"),))}


def test_retract_no_match_returns_none():
    db = Database()
    load_program(db, "q(a).")
    assert db.retract(Clause(head=Struct("q", (Atom("zz"),)))) is None
    assert db.clause_count() == 1


def test_retract_matches_rule_bodies():
    db = Database()
    load_program(db, "p(X) :- q(X). p(a).")
    pattern = Clause(head=Struct("p", (Var("V"),)), body=(Struct("q", (Var("V"),)),))
    assert db.retract(pattern) is not None
    remaining = [sc.clause for sc in db.clauses(("p", 1))]
    assert remaining == [Clause(head=p("a"))]


def test_retract_rule_pattern_does_not_take_fact():
    db = Database()
    load_program(db, "p(a).")
    pattern = Clause(head=Struct("p", (Var("V"),)), body=(Struct("q", (Var("V"),)),))
    assert db.retract(pattern) is None


def test_clauses_returns_snapshot():
    db = Database()
    load_program(db, "p(a).")
    snap = db.clauses(("p", 1))
    db.assertz(Clause(head=p("b")))
    assert len(snap) == 1
    assert len(db.clauses(("p", 1))) == 2


def test_constants_of_collects_argument_constants():
    db = Database()
    load_program(db, "p(a, 3) :- q(f(b)). s(neg(p), k).")
    consts = constants_of(db)
    assert {Atom("a"), Int(3), Atom("b"), Atom("k"), Atom("p")} <= consts
    assert Atom("q") not in consts, "predicate and functor names are not data constants"
    assert Atom("s") not in consts
    assert Atom("f") not in consts


def test_load_program_preserves_textual_order():
    db = Database()
    load_program(db, "p(b).\np(a).\np(c).")
    heads = [sc.clause.head for sc in db.clauses(("p", 1))]
    assert heads == [p("b"), p("a"), p("c")]


def test_unknown_predicate_has_no_clauses():
    db = Database()
    assert db.clauses(("nothing", 3)) == ()


def test_stored_clause_is_variant_not_shared():
    db = Database()
    load_program(db, "r(X, X).")
    (sc,) = db.clauses(("r", 2))
    assert variant_equal(sc.clause.head, Struct("r", (Var("A"), Var("A"))))


# --- the argument indexes ------------------------------------------------

def _listed(db, ind, args):
    return [format_clause(sc.clause) for sc in db.clauses(ind, args)]


def test_index_keys_tell_atoms_integers_and_functors_apart():
    db = Database()
    load_program(db, "p(1). p('1'). p(f(a)). p(f(a, b)). p(g(a)). p([]). p([a]). p(a).")
    assert _listed(db, ("p", 1), (Int(1),)) == ["p(1)."]
    assert _listed(db, ("p", 1), (Atom("1"),)) == ["p('1')."]
    assert _listed(db, ("p", 1), (Struct("f", (Var("X"),)),)) == ["p(f(a))."]
    assert _listed(db, ("p", 1), (Struct("f", (Atom("b"), Atom("c"))),)) == ["p(f(a,b))."]
    assert _listed(db, ("p", 1), (Atom("[]"),)) == ["p([])."]
    assert _listed(db, ("p", 1), (Struct(".", (Var("H"), Var("T"))),)) == ["p([a])."]
    assert _listed(db, ("p", 1), (Atom("zz"),)) == []
    # an unbound first argument, or none given, sees every clause
    assert len(db.clauses(("p", 1), (Var("X"),))) == len(db.clauses(("p", 1))) == 8


def test_variable_first_clauses_keep_their_place_through_writes():
    db = Database()
    load_program(db, "p(a). p(X). p(b).")
    assert _listed(db, ("p", 1), (Atom("a"),)) == ["p(a).", "p(X)."]  # builds the index
    db.asserta(Clause(head=Struct("p", (Var("Y"),))))
    db.assertz(Clause(head=p("a")))
    db.asserta(Clause(head=p("a")))
    db.assertz(Clause(head=Struct("p", (Var("Z"),))))
    db.assertz(Clause(head=p("c")))
    assert _listed(db, ("p", 1), (Atom("a"),)) == ["p(a).", "p(Y).", "p(a).", "p(X).", "p(a).", "p(Z)."]
    assert _listed(db, ("p", 1), (Atom("b"),)) == ["p(Y).", "p(X).", "p(b).", "p(Z)."]
    assert _listed(db, ("p", 1), (Atom("c"),)) == ["p(Y).", "p(X).", "p(Z).", "p(c)."]
    assert _listed(db, ("p", 1), (Atom("new"),)) == ["p(Y).", "p(X).", "p(Z)."]


def test_a_clause_is_listed_by_its_own_argument():
    # a variable elsewhere in the clause does not put it on every list;
    # only a variable in the indexed position does
    db = Database()
    load_program(db, "p(f(X), X). p(a, b). p(g, c) :- q(Y). p(Z, d).")
    assert _listed(db, ("p", 2), (Atom("a"), Var("Y"))) == ["p(a,b).", "p(Z,d)."]
    assert _listed(db, ("p", 2), (Atom("zz"), Var("Y"))) == ["p(Z,d)."]
    assert _listed(db, ("p", 2), (Struct("f", (Var("V"),)), Var("Y"))) == ["p(f(X),X).", "p(Z,d)."]


def test_retracting_a_variable_first_clause_leaves_every_list():
    db = Database()
    load_program(db, "p(a). p(X) :- q(X). p(b).")
    assert len(db.clauses(("p", 1), (Atom("a"),))) == 2
    pattern = Clause(head=Struct("p", (Var("V"),)), body=(Struct("q", (Var("V"),)),))
    assert db.retract(pattern) is not None
    assert _listed(db, ("p", 1), (Atom("a"),)) == ["p(a)."]
    assert _listed(db, ("p", 1), (Atom("b"),)) == ["p(b)."]
    assert _listed(db, ("p", 1), (Atom("zz"),)) == []
    assert db.retract(Clause(head=p("b"))) == {}
    assert _listed(db, ("p", 1), (Atom("b"),)) == []


def test_clear_predicate_empties_an_index():
    db = Database()
    load_program(db, "p(a). p(X).")
    assert len(db.clauses(("p", 1), (Atom("a"),))) == 2
    assert db.clear_predicate(("p", 1)) == 2
    assert db.clauses(("p", 1), (Atom("a"),)) == ()
    db.assertz(Clause(head=p("b")))
    assert db.clauses(("p", 1), (Atom("a"),)) == ()
    assert _listed(db, ("p", 1), (Atom("b"),)) == ["p(b)."]


def test_an_index_miss_fails_without_the_unknown_predicate_warning():
    db = Database()
    load_program(db, "p(a).")
    diag, live = io.StringIO(), io.StringIO()
    assert solve(db, parse_query("p(b)."), diag=diag, trace_out=live).status == "no"
    assert diag.getvalue() == ""
    assert live.getvalue() == "fail\tp(b)\n"
    assert solve(db, parse_query("zz(b)."), diag=diag).status == "no"
    assert diag.getvalue() == "warning: unknown predicate zz/1\n"


def _emps():
    db = Database()
    load_program(db, "".join(f"emp(e{i}, d{i % 40}, {1000 + i}).\n" for i in range(5000)))
    return db


def test_a_bound_first_argument_gets_one_candidate_among_thousands():
    db = _emps()
    assert len(db.clauses(("emp", 3), (Atom("e4999"), Var("D"), Var("S")))) == 1
    assert len(db.clauses(("emp", 3), (Atom("e0"), Var("D"), Var("S")))) == 1
    assert len(db.clauses(("emp", 3), (Var("E"), Var("D"), Var("S")))) == 5000


def test_a_bound_second_argument_gets_exactly_its_key_s_clauses():
    db = _emps()
    roster = [format_clause(sc.clause) for sc in db.clauses(("emp", 3), (Var("E"), Atom("d7"), Var("S")))]
    assert roster == [f"emp(e{i},d7,{1000 + i})." for i in range(7, 5000, 40)]
    out = solve(db, parse_query("emp(E, d7, S)."))
    assert len(out.solutions) == 125


def test_a_call_binding_two_arguments_gets_the_shorter_list():
    db = _emps()
    assert _listed(db, ("emp", 3), (Var("E"), Atom("d7"), Int(1047))) == ["emp(e47,d7,1047)."]
    assert _listed(db, ("emp", 3), (Atom("e47"), Atom("d7"), Var("S"))) == ["emp(e47,d7,1047)."]
    # the lists are not intersected: the shorter one may hold no match
    assert _listed(db, ("emp", 3), (Var("E"), Atom("d7"), Int(1048))) == ["emp(e48,d8,1048)."]
    # a tie goes to the leftmost position
    db = Database()
    load_program(db, "p(a, x). p(b, y).")
    assert _listed(db, ("p", 2), (Atom("a"), Atom("y"))) == ["p(a,x)."]
    assert _listed(db, ("p", 2), (Atom("b"), Atom("x"))) == ["p(b,y)."]


def _candidates(call):
    """What ``call()`` returns, and the length of every snapshot that
    ``Database.clauses`` handed out during it."""
    seen = []
    full = Database.clauses

    def spy(self, ind, args=()):
        out = full(self, ind, args)
        seen.append(len(out))
        return out

    with mock.patch.object(Database, "clauses", spy):
        return call(), seen


def test_an_ask_sees_only_its_subject_s_known_facts():
    db = Database()
    for i in range(300):
        for attr in ("hair", "eyes", "height"):
            db.asserta(Clause(head=Struct("known", (Atom("yes"), Atom(attr), Atom(f"s{i}"), Atom(f"v{i}")))))
    res, seen = _candidates(lambda: ask(db, "eyes", "s17", Atom("v17"), None))
    assert (res.succeeded, res.source, seen) == (True, "memo", [3])
    res, seen = _candidates(lambda: ask_value(db, "hair", "s250", None))
    assert (res.value, res.source, seen) == (Atom("v250"), "memo", [3])


@pytest.mark.parametrize("n", [100, 5000])
def test_a_call_on_the_last_of_n_facts_gets_one_candidate(n):
    # clause selection does not grow with the predicate when the first
    # argument is bound
    db = Database()
    load_program(db, "".join(f"f(k{i}, {i}).\n" for i in range(n)))
    out, seen = _candidates(lambda: solve(db, parse_query(f"f(k{n - 1}, V).")))
    assert [s.bindings for s in out.solutions] == [{Var("V"): Int(n - 1)}]
    assert seen == [1]


def test_a_holds_negated_probe_sees_one_s_fact_among_a_thousand():
    db = Database()
    load_program(db, "".join(f"s(neg(likes), a{i}, b{i}).\n" for i in range(1000)))
    goal = Struct("likes", (Atom("a617"), Atom("b617")))
    sc, seen = _candidates(lambda: find_s_fact(db, goal))
    assert (format_clause(sc.clause), seen) == ("s(neg(likes),a617,b617).", [1])
    assert find_s_fact(db, Struct("likes", (Atom("a617"), Atom("b618")))) is None


# --- retract against a reference built from the dict-based unifier ----------

def _reference_retract(clauses, pattern):
    """Index of the clause retract/1 removes, and its unifier: each
    candidate renamed apart, then its head and body pairs unified in turn
    by ``reference_unify``, the unifiers composed."""
    fresh = FreshVars("_R")
    for i, c in enumerate(clauses):
        if len(c.body) != len(pattern.body):
            continue
        candidate = rename_clause(c, fresh)
        theta = {}
        for a, b in zip((pattern.head, *pattern.body), (candidate.head, *candidate.body)):
            step = reference_unify(apply(theta, a), apply(theta, b))
            if step is None:
                break
            theta = compose(theta, step)
        else:
            return i, theta
    return None, None


# every head is p/2 and every body goal q/1, which keeps matches common; the
# variables come from a few names, so clauses repeat them and patterns share them
_args = terms(max_depth=2)
_heads = st.builds(lambda a, b: Struct("p", (a, b)), _args, _args)
_bodies = st.lists(st.builds(lambda a: Struct("q", (a,)), _args), max_size=2).map(tuple)
_clauses = st.builds(Clause, _heads, _bodies)


@given(st.lists(_clauses, min_size=1, max_size=6), st.data())
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_retract_agrees_with_reference(clauses, data):
    # half the patterns are a stored clause with some arguments made
    # variables, so that most of those match
    if data.draw(st.booleans()):
        pattern = data.draw(st.builds(Clause, _heads, _bodies))
    else:
        c = data.draw(st.sampled_from(clauses))
        head = Struct("p", tuple(data.draw(variables | st.just(a)) for a in c.head.args))
        pattern = Clause(head, c.body)
    db = Database()
    for c in clauses:
        db.assertz(c)
    want, ref_theta = _reference_retract(clauses, pattern)
    theta = db.retract(pattern)
    assert (theta is None) == (want is None)
    kept = clauses if want is None else clauses[:want] + clauses[want + 1:]
    assert [sc.clause for sc in db.clauses(("p", 2))] == kept
    if theta is not None:
        # the pattern's own variables only, in first-occurrence order, and
        # only those bound
        assert list(theta) == [v for v in variables_in((pattern.head, *pattern.body)) if v in theta]
        assert all(t != v for v, t in theta.items())
        assert variant_equal_seq(
            [apply(theta, t) for t in (pattern.head, *pattern.body)],
            [apply(ref_theta, t) for t in (pattern.head, *pattern.body)],
        )
