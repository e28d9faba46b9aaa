"""Herbrand constructions, T_P, minimal models, model checking."""

import ast
import inspect
import itertools
import random

import pytest

from skolog import (
    Atom,
    Int,
    NotDefiniteError,
    Struct,
    UniverseBound,
    herbrand_base,
    herbrand_universe,
    is_complete,
    is_correct,
    is_model,
    minimal_model,
    minimal_model_with_steps,
    parse_program,
    tp,
)
from skolog import engine, semantics
from skolog.semantics import check_definite, ground_instances, is_function_free
from skolog.terms import BUILTIN_INDICATORS


def prog(text):
    return parse_program(text)


def test_universe_constants_only():
    u = herbrand_universe(prog("p(a). q(b, 3)."), UniverseBound(0))
    assert u == {Atom("a"), Atom("b"), Int(3)}


def test_universe_default_constant_when_none():
    u = herbrand_universe(prog("p(X) :- q(X)."), UniverseBound(0))
    assert u == {Atom("c0")}, "a constant is invented for an all-variable program"


def test_universe_functor_depth():
    clauses = prog("p(a). p(f(X)) :- p(X).")
    u0 = herbrand_universe(clauses, UniverseBound(0))
    u1 = herbrand_universe(clauses, UniverseBound(1))
    u2 = herbrand_universe(clauses, UniverseBound(2))
    assert u0 == {Atom("a")}
    assert u1 == {Atom("a"), Struct("f", (Atom("a"),))}
    assert Struct("f", (Struct("f", (Atom("a"),)),)) in u2
    assert len(u2) == 3


def test_base_is_predicates_times_universe():
    clauses = prog("p(a). q(a, b). r.")
    base = herbrand_base(clauses, UniverseBound(0))
    # constants a, b; p/1 gives 2 atoms, q/2 gives 4, r/0 gives 1
    assert len(base) == 7
    assert Atom("r") in base
    assert Struct("q", (Atom("b"), Atom("b"))) in base


def test_ground_instances_of_rule():
    clauses = prog("p(X) :- q(X). q(a). q(b).")
    gi = ground_instances(clauses, UniverseBound(0))
    heads = [h for h, _ in gi]
    assert Struct("p", (Atom("a"),)) in heads
    assert Struct("p", (Atom("b"),)) in heads


def test_tp_single_step():
    clauses = prog("q(a). p(X) :- q(X).")
    step0 = tp(clauses, set(), UniverseBound(0))
    assert step0 == {Struct("q", (Atom("a"),))}
    step1 = tp(clauses, step0, UniverseBound(0))
    assert step1 == {Struct("q", (Atom("a"),)), Struct("p", (Atom("a"),))}


def test_minimal_model_one_rule_program():
    clauses = prog("q(a). p(X) :- q(X).")
    model = minimal_model(clauses, UniverseBound(0))
    assert model == {Struct("q", (Atom("a"),)), Struct("p", (Atom("a"),))}


def test_minimal_model_transitive_closure():
    clauses = prog(
        "edge(a, b). edge(b, c)."
        " path(X, Y) :- edge(X, Y)."
        " path(X, Z) :- edge(X, Y), path(Y, Z)."
    )
    model = minimal_model(clauses, UniverseBound(0))
    assert Struct("path", (Atom("a"), Atom("c"))) in model
    assert Struct("path", (Atom("c"), Atom("a"))) not in model


def test_fixpoint_steps_bounded_by_base():
    clauses = prog("q(a). p(X) :- q(X). r(X) :- p(X).")
    model, steps = minimal_model_with_steps(clauses, UniverseBound(0))
    base = herbrand_base(clauses, UniverseBound(0))
    assert steps <= len(base) + 1
    assert model <= base


def test_empty_program_empty_model():
    assert minimal_model([], UniverseBound(0)) == set()


def test_is_model_family():
    clauses = prog("q(a). r(b). p(X) :- q(X).")
    m = minimal_model(clauses, UniverseBound(0))
    base = herbrand_base(clauses, UniverseBound(0))
    assert is_model(clauses, m, UniverseBound(0))
    assert is_model(clauses, base, UniverseBound(0)), "the whole base is always a model"
    assert not is_model(clauses, set(), UniverseBound(0)), "misses the fact q(a)"
    assert is_correct(clauses, m) and is_complete(clauses, m)
    assert is_correct(clauses, set()) and not is_complete(clauses, set())
    assert not is_correct(clauses, base), "the base over-claims"


def test_minimal_model_is_least():
    # enumerate all interpretations; the minimal model must be exactly the
    # intersection of the models
    clauses = prog("q(a). q(b). p(X) :- q(X). r(a) :- p(a), q(a).")
    base = sorted(herbrand_base(clauses, UniverseBound(0)), key=repr)
    assert len(base) <= 12
    models = []
    for bits in itertools.product([0, 1], repeat=len(base)):
        interp = {a for a, bit in zip(base, bits) if bit}
        if is_model(clauses, interp, UniverseBound(0)):
            models.append(interp)
    intersection = set.intersection(*models)
    assert minimal_model(clauses, UniverseBound(0)) == intersection


def test_tp_monotone_property():
    rng = random.Random(11)
    clauses = prog(
        "p(a). q(X) :- p(X). r(X) :- q(X), p(X). p(b) :- r(a)."
    )
    base = sorted(herbrand_base(clauses, UniverseBound(0)), key=repr)
    bound = UniverseBound(0)
    for _ in range(50):
        i = {a for a in base if rng.random() < 0.4}
        extra = {a for a in base if rng.random() < 0.3}
        j = i | extra
        assert tp(clauses, i, bound) <= tp(clauses, j, bound)


def test_check_definite_rejects_builtins():
    for bad in ["p(X) :- not(q(X)).", "p(X) :- q(X), !.", "p :- assertz(q(a)).", "p :- X = a."]:
        with pytest.raises(NotDefiniteError):
            check_definite(prog(bad))
    check_definite(prog("p(X) :- q(X)."))  # fine


def test_minimal_model_rejects_non_definite():
    with pytest.raises(NotDefiniteError):
        minimal_model(prog("p :- not(q)."), UniverseBound(0))


def test_is_function_free():
    assert is_function_free(prog("p(a). q(X) :- p(X)."))
    assert not is_function_free(prog("p(f(a))."))
    assert not is_function_free(prog("p(a) :- q(f(X))."))


def test_function_free_model_exact_at_bound_zero():
    clauses = prog("num(z). num(o). next(z, o).")
    m0 = minimal_model(clauses, UniverseBound(0))
    m3 = minimal_model(clauses, UniverseBound(3))
    assert m0 == m3, "bound does not matter without functors"


def test_universe_bound_validation():
    with pytest.raises(ValueError):
        UniverseBound(-1)


def test_builtin_names_match_the_engine_and_keep_semantics_independent():
    assert frozenset(engine._BUILTINS) == BUILTIN_INDICATORS
    imported = {
        node.module
        for node in ast.walk(ast.parse(inspect.getsource(semantics)))
        if isinstance(node, ast.ImportFrom)
    }
    assert "engine" not in imported
