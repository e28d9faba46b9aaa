"""Terms, substitutions, and unification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolog import Atom, Clause, Int, Struct, Var, mklist, unify
from skolog.terms import (
    FreshVars,
    apply,
    compose,
    indicator_of,
    is_ground,
    occurs,
    rename_clause,
    variables_of,
)

from strategies import ground_terms, terms, variables
from util import variant_equal


def test_struct_requires_args():
    with pytest.raises(ValueError):
        Struct("f", ())


def test_apply_walks_nested_terms():
    theta = {Var("X"): Atom("a")}
    t = Struct("f", (Var("X"), Struct("g", (Var("X"), Var("Y")))))
    assert apply(theta, t) == Struct("f", (Atom("a"), Struct("g", (Atom("a"), Var("Y")))))


def test_apply_var_chain_is_single_step():
    # substitutions are kept idempotent, so one lookup suffices
    theta = {Var("X"): Atom("a")}
    assert apply(theta, Var("X")) == Atom("a")
    assert apply(theta, Var("Z")) == Var("Z")


def test_compose_applies_second_to_first():
    s1 = {Var("X"): Struct("f", (Var("Y"),))}
    s2 = {Var("Y"): Atom("b")}
    c = compose(s1, s2)
    assert c[Var("X")] == Struct("f", (Atom("b"),))
    assert c[Var("Y")] == Atom("b")


def test_compose_drops_identity_bindings():
    s1 = {Var("X"): Var("Y")}
    s2 = {Var("Y"): Var("X")}
    assert Var("X") not in compose(s1, s2)


def test_variables_of_first_occurrence_order():
    t = Struct("f", (Var("B"), Struct("g", (Var("A"), Var("B"))), Var("C")))
    assert variables_of(t) == [Var("B"), Var("A"), Var("C")]


def test_mklist():
    assert mklist([Atom("a"), Atom("b")]) == Struct(
        ".", (Atom("a"), Struct(".", (Atom("b"), Atom("[]"))))
    )
    assert mklist([]) == Atom("[]")


def test_indicator_of():
    assert indicator_of(Atom("go")) == ("go", 0)
    assert indicator_of(Struct("p", (Atom("a"), Atom("b")))) == ("p", 2)


# --- unification -----------------------------------------------------------

def test_unify_shared_variable_instantiation():
    # plus(9, Length, Finish) against plus(Start, Length2, 11)
    a = Struct("plus", (Int(9), Var("Length"), Var("Finish")))
    b = Struct("plus", (Var("Start"), Var("Length2"), Int(11)))
    theta = unify(a, b)
    assert theta is not None
    assert apply(theta, a) == apply(theta, b)
    assert theta[Var("Start")] == Int(9)
    assert theta[Var("Finish")] == Int(11)


def test_unify_occurs_check():
    x = Var("X")
    assert unify(x, Struct("f", (x,))) is None
    assert unify(Struct("f", (x,)), x) is None


def test_unify_clash():
    assert unify(Atom("a"), Atom("b")) is None
    assert unify(Struct("f", (Atom("a"),)), Struct("g", (Atom("a"),))) is None
    assert unify(Struct("f", (Atom("a"),)), Struct("f", (Atom("a"), Atom("b")))) is None
    assert unify(Int(1), Atom("a")) is None


def test_unify_var_var():
    theta = unify(Var("X"), Var("Y"))
    assert theta is not None
    assert apply(theta, Var("X")) == apply(theta, Var("Y"))


@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_unify_produces_unifier(a, b):
    theta = unify(a, b)
    if theta is not None:
        assert apply(theta, a) == apply(theta, b)


@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_unify_idempotent(a, b):
    theta = unify(a, b)
    if theta is not None:
        for v, t in theta.items():
            assert apply(theta, t) == t, "binding values are fully substituted"
            assert not occurs(v, t)


@given(terms())
@settings(max_examples=200, deadline=None)
def test_unify_reflexive(t):
    theta = unify(t, t)
    assert theta == {}


@given(ground_terms, ground_terms)
@settings(max_examples=200, deadline=None)
def test_ground_unify_is_equality(a, b):
    assert (unify(a, b) is not None) == (a == b)


@given(terms())
@settings(max_examples=200, deadline=None)
def test_ground_terms_have_no_variables(t):
    assert is_ground(t) == (len(variables_of(t)) == 0)


def test_rename_clause_fresh_and_structure():
    c = Clause(
        head=Struct("p", (Var("X"), Var("Y"))),
        body=(Struct("q", (Var("X"),)), Struct("r", (Var("Y"), Var("X")))),
    )
    fresh = FreshVars("_T")
    r1 = rename_clause(c, fresh)
    r2 = rename_clause(c, fresh)
    assert variant_equal(r1, c)
    assert variant_equal(r2, c)
    v1 = set(variables_of(r1.head)) | {v for g in r1.body for v in variables_of(g)}
    v2 = set(variables_of(r2.head)) | {v for g in r2.body for v in variables_of(g)}
    assert not (v1 & v2), "two renames share no variables"


def test_rename_ground_clause_is_identity():
    c = Clause(head=Struct("p", (Atom("a"),)))
    assert rename_clause(c, FreshVars("_T")) is c
