"""Terms, substitutions, and unification."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolog import Atom, Clause, Int, Struct, Var, mklist, unify
from skolog.terms import (
    FreshVars,
    Store,
    apply,
    compose,
    indicator_of,
    is_ground,
    rename_clause,
    subterms,
    variables_of,
)

from strategies import VAR_NAMES, constants, few_terms, ground_terms, terms, variables
from test_demos import SRC
from util import ReferenceResolver, occurs, reference_unify, variant_equal


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


@given(terms(), terms())
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_unify_returns_the_reference_unifier(a, b):
    # the same bindings in the same order, for b as it stands, sharing
    # variables with a, and for b renamed apart as a clause head is
    renamed = rename_clause(Clause(head=b), FreshVars("_G", 1000)).head
    for other in (b, renamed):
        theta, want = unify(a, other), reference_unify(a, other)
        assert (theta is None) == (want is None)
        if theta is not None:
            assert list(theta.items()) == list(want.items())


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
    assert a2 == a and not a2 != a and hash(a2) == hash(a)
    # a copy is new objects but for its atoms: equal atoms are one object
    for x, x2 in zip(subterms(a), subterms(a2)):
        assert (x2 is x) == (type(x) is Atom)
    same = _key(a) == _key(b)
    if type(a) is Atom:
        assert (a is b) == same
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


def test_a_ground_mark_changes_no_value():
    t = Struct("f", (Atom("a"), Struct("g", (Int(1),))))
    marked, plain = _copy(t), _copy(t)
    assert Store().resolver().resolve(marked) is marked
    assert marked._ground and marked.args[1]._ground and not plain._ground
    assert [f.name for f in fields(Struct)] == ["name", "args"]
    assert marked == plain and not marked != plain and hash(marked) == hash(plain)
    assert repr(marked) == repr(plain) == (
        "Struct(name='f', args=(Atom(name='a'), Struct(name='g', args=(Int(value=1),))))"
    )
    assert {marked: "m"}[plain] == "m"
    for field in ("name", "args"):
        with pytest.raises(FrozenInstanceError):
            setattr(marked, field, Atom("b"))
    assert marked == plain


def test_a_variable_is_read_only():
    v = Var("X")
    with pytest.raises(AttributeError):
        v.name = "Y"
    with pytest.raises(AttributeError):
        v.id = 1
    assert (v.name, v.id) == ("X", 0)


def test_an_atom_is_read_only():
    a = Atom("a")
    with pytest.raises(AttributeError):
        a.name = "b"
    with pytest.raises(AttributeError):
        del a.name
    with pytest.raises(AttributeError):
        a.other = 1
    assert a.name == "a" and Atom("a") is a and repr(a) == "Atom(name='a')"


def _child(code, seed="0", stdin=b""):
    """Run ``code`` in a new interpreter on this checkout's package, under
    ``PYTHONHASHSEED=seed``, and return its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
    return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          env=env, check=True, timeout=60).stdout


def _pickled_in_a_child(t):
    """``t`` built from its ``repr`` and pickled by another process."""
    code = f"import pickle, sys; from skolog import Atom, Struct; sys.stdout.buffer.write(pickle.dumps({t!r}))"
    return pickle.loads(_child(code))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)),
                                       _pickled_in_a_child],
                         ids=["copy", "deepcopy", "pickle", "pickle-across-processes"])
def test_a_copied_atom_is_the_interned_one(duplicate):
    for a in (Atom("a"), Atom("[]"), Atom("sk_17"), Atom("an atom never read before")):
        assert duplicate(a) is a
    assert duplicate(Struct("f", (Atom("a"),))).args[0] is Atom("a")


def test_a_pickled_compound_hashes_as_a_new_twin_in_another_process():
    # the first child hashes the term before pickling it; the second loads
    # it under another hash seed and looks it up among fresh twins
    made = _child(
        "import pickle, sys; from skolog import Atom, Struct\n"
        "t = Struct('f', (Atom('a'), Struct('g', (Atom('b'),))))\n"
        "hash(t)\n"
        "sys.stdout.buffer.write(pickle.dumps(t))\n",
        seed="1",
    )
    found = _child(
        "import pickle, sys; from skolog import Atom, Struct\n"
        "t = pickle.loads(sys.stdin.buffer.read())\n"
        "twin = Struct('f', (Atom('a'), Struct('g', (Atom('b'),))))\n"
        "print(t == twin, t in {twin}, t.args[1] in {twin.args[1]}, hash(t) == hash(twin))\n",
        seed="2", stdin=made,
    )
    assert found.split() == [b"True"] * 4


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_variable_keeps_its_name_and_id(duplicate):
    v = Var("_G3", 3)
    assert repr(duplicate(v)) == "Var(name='_G3', id=3)"
    assert duplicate(Struct("f", (v, Atom("a")))) == Struct("f", (v, Atom("a")))


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


# --- the resolver against the reference resolver -----------------------------

@given(st.lists(few_terms, min_size=1, max_size=4), st.data())
# at least 300 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_the_resolver_returns_the_reference_resolution(pieces, data):
    # a pool whose later terms share earlier ones as subterms, resolved
    # again and again, under bindings that grow, shrink by undo, and grow
    # again; the ground marks a walk leaves stay on the terms throughout
    pool = list(pieces)
    pick = lambda: pool[data.draw(st.integers(0, len(pool) - 1))]
    for _ in range(data.draw(st.integers(0, 4))):
        pool.append(Struct("h", (pick(), pick())))
    store = Store()
    for _ in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(0, 4))):
            mark = len(store.bindings)
            if not store.unify(pick(), pick()):
                store.undo(mark)
        res, plain, ref = store.resolver(history=True), store.resolver(), ReferenceResolver(store.bindings)
        for _ in range(data.draw(st.integers(1, 6))):
            t = pick()
            stamp = data.draw(st.none() | st.integers(0, len(store.bindings)))
            later, expected_later = {}, {}
            got = res.resolve(t, stamp, later)
            assert got == ref.resolve(t, stamp, expected_later)
            assert list(later) == list(expected_later)
            if stamp is None:
                assert plain.resolve(t) == got
            marked = [x for u in (got, *pool, *store.bindings.values()) for x in subterms(u)
                      if type(x) is Struct and x._ground]
            assert all(map(is_ground, marked))
        store.undo(data.draw(st.integers(0, len(store.bindings))))
