"""Terms, substitutions, and unification."""

import sys

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

from strategies import VAR_NAMES, constants, ground_terms, terms, variables
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


# --- value semantics: equality and hashing follow the structure -------------

def _copy(t):
    """``t`` built again from new objects, without recursion."""
    done = []  # finished copies, the last finished on top
    todo = [t]  # a term to copy, or an int n: make a compound of the n copies on top
    while todo:
        x = todo.pop()
        if type(x) is int:
            args = tuple(done[-x:])
            del done[-x:]
            done.append(Struct(done.pop(), args))
        elif type(x) is Struct:
            todo += [len(x.args), *reversed(x.args)]
            done.append(str(x.name))
        elif type(x) is Var:
            done.append(Var(x.name, x.id))
        elif type(x) is Atom:
            done.append(Atom(x.name))
        else:
            done.append(Int(x.value))
    return done[0]


def _key(t):
    """A flat tuple of ``t``'s preorder, each compound with its arity: two
    terms have the same structure exactly when their keys are equal."""
    out = []
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is Struct:
            out.append(("struct", x.name, len(x.args)))
            todo.extend(reversed(x.args))
        elif type(x) is Var:
            out.append(("var", x.name, x.id))
        elif type(x) is Atom:
            out.append(("atom", x.name))
        else:
            out.append(("int", x.value))
    return tuple(out)


# the variables of strategies.terms(), renamed apart by their ids now and then
renamed_terms = terms(leaves=constants | st.builds(Var, st.sampled_from(VAR_NAMES), st.integers(0, 2)))


@given(renamed_terms, renamed_terms)
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_equality_and_hash_follow_the_structure(a, b):
    a2, b2 = _copy(a), _copy(b)
    assert a2 is not a and a2 == a and not a2 != a and hash(a2) == hash(a)
    same = _key(a) == _key(b)
    assert (a == b) == (a2 == b) == (a == b2) == (b2 == a) == same
    assert (a != b) == (not same)
    # a shared argument, compared first, decides nothing about the others
    assert (Struct("f", (b, a)) == Struct("f", (a, a))) == same
    if same:
        assert hash(a) == hash(b2)
    assert a2 in {a} and b2 in {a, b} and (a2 in {b}) == same
    table = {a: "a", b: "b"}
    assert len(table) == (1 if same else 2)
    assert table[a2] == table[a] and table[b2] == "b"


def test_a_variable_equals_only_a_variable():
    assert Var("p", 2) != ("p", 2) and not Var("p", 2) == ("p", 2)
    assert ("p", 2) != Var("p", 2) and not ("p", 2) == Var("p", 2)
    assert len({("p", 2): 0, Var("p", 2): 1}) == 2
    assert Var("a") != Atom("a") and Atom("a") != Var("a")
    assert Var("X", 1) != Var("X", 2) and not Var("X", 1) == Var("X", 2)
    assert Var("X") == Var("X", 0)


def test_term_repr_is_unchanged():
    assert repr(Var("X")) == "Var(name='X', id=0)"
    assert repr(Struct("f", (Var("_G3", 3), Atom("a"), Int(1)))) == (
        "Struct(name='f', args=(Var(name='_G3', id=3), Atom(name='a'), Int(value=1)))"
    )


def test_a_variable_is_read_only():
    v = Var("X")
    with pytest.raises(AttributeError):
        v.name = "Y"
    with pytest.raises(AttributeError):
        v.id = 1
    assert (v.name, v.id) == ("X", 0)


def _deep(n, leaf):
    t = leaf
    for _ in range(n):
        t = Struct("s", (t,))
    return t


def test_deep_terms_compare_and_hash_at_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for leaf in (Atom("z"), Var("X")):
            a, b = _deep(10_000, leaf), _deep(10_000, _copy(leaf))
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1
        assert _deep(10_000, Atom("z")) != _deep(10_000, Atom("y"))
        assert _deep(10_000, Atom("z")) != _deep(9_999, Atom("z"))
    finally:
        sys.setrecursionlimit(limit)
