"""Herbrand constructions, T_P, minimal models, model checking."""

import ast
import inspect
import itertools
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

from skolog import (
    Atom,
    Clause,
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
from skolog.terms import Var
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
    gi = ground_instances(clauses, herbrand_universe(clauses, UniverseBound(0)))
    heads = [h for h, _ in gi]
    assert Struct("p", (Atom("a"),)) in heads
    assert Struct("p", (Atom("b"),)) in heads


def test_a_clause_with_no_instance_in_the_base_is_skipped_at_once():
    # t(f(f(...X...))) 10,000 deep matches no term of a depth-1 universe;
    # building and rejecting one head per universe term took seconds
    deep = Var("X")
    for _ in range(10_000):
        deep = Struct("f", (deep,))
    clauses = prog(" ".join(f"c(k{i})." for i in range(84))) + [Clause(Struct("t", (deep,)))]
    terms = herbrand_universe(clauses, UniverseBound(1))
    assert len(terms) == 168
    start = time.perf_counter()
    assert ground_instances(clauses[-1:], terms) == []
    assert time.perf_counter() - start < 0.5


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
    imports = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(semantics)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert "engine" not in {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    names = {alias.name for node in imports for alias in node.names}
    assert not {"Store", "unify"} & names, "the fixpoint matches with a matcher of its own"


# --- semi-naive evaluation against the naive iteration ---------------------------

def naive_model_with_steps(clauses, bound):
    """T_P iterated from the empty set until it repeats, every round over
    every ground instance: the textbook least fixpoint."""
    model, steps = set(), 0
    while True:
        nxt = tp(clauses, model, bound)
        steps += 1
        if nxt == model:
            return model, steps
        model = nxt


VARIABLES = [Var("X"), Var("Y"), Var("Z"), Var("W")]
PREDICATES = (("p", 1), ("q", 2), ("u", 3), ("r", 0), ("s", 0), ("t", 1))


@st.composite
def small_programs(draw):
    """(clauses, bound) with a universe of at most eight terms, so that the
    naive iteration stays cheap.  The constants are a subset of a and b
    (none gives a constant-free program over the stand-in c0); f/1 may
    appear at every bound, g/2 only up to bound 1.  Clauses have up to
    three body goals over predicates of arity 0 to 3 and use X, Y, Z and W
    freely, so facts that are not ground, head variables that no body goal
    binds, variables repeated in one goal, and a variable that one goal
    binds and a later goal checks (as in same-generation) all come up."""
    bound = draw(st.integers(0, 2))
    constants = draw(st.lists(st.sampled_from((Atom("a"), Atom("b"))), unique=True, max_size=2))
    functors = ("f", "g") if bound <= 1 else ("f",)

    def arg(depth=0):
        # a leaf eight times in ten: deeper programs mostly derive nothing
        if depth == 2 or draw(st.integers(0, 9)) < 8:
            return draw(st.sampled_from(constants + VARIABLES))
        name = draw(st.sampled_from(functors))
        return Struct(name, tuple(arg(depth + 1) for _ in range(1 if name == "f" else 2)))

    def goal():
        name, arity = draw(st.sampled_from(PREDICATES))
        return Struct(name, tuple(arg() for _ in range(arity))) if arity else Atom(name)

    def clause():
        return Clause(goal(), tuple(goal() for _ in range(draw(st.integers(0, 3)))))

    return [clause() for _ in range(draw(st.integers(1, 7)))], UniverseBound(bound)


@given(small_programs())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_semi_naive_equals_the_naive_iteration(program):
    clauses, bound = program
    model, steps = naive_model_with_steps(clauses, bound)
    target(float(steps))  # steer towards programs that take many rounds
    assert minimal_model_with_steps(clauses, bound) == (model, steps)


def _parents(rng, k):
    """Node i > 0 of a k-node tree hangs below one of the three before it."""
    return {i: rng.randrange(max(0, i - 3), i) for i in range(1, k)}


def closure_program(seed, k=7):
    """Transitive closure over a seeded tree with one shortcut edge, which
    makes it a DAG that is not a tree."""
    rng = random.Random(seed)
    edges = {(p, c) for c, p in _parents(rng, k).items()}
    edges.add(tuple(sorted(rng.sample(range(k), 2))))
    return "".join(f"edge(n{x}, n{y}). " for x, y in sorted(edges)) + (
        "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y)."
    )


def same_generation_program(seed, k=6):
    """Same generation over a seeded tree: a 4-variable rule whose first
    goal binds X and whose third checks YP, bound by the second."""
    rng = random.Random(seed)
    nodes = "".join(f"node(n{i}). " for i in range(k))
    parents = "".join(f"par(n{c}, n{p}). " for c, p in sorted(_parents(rng, k).items()))
    return nodes + parents + "sg(X, X) :- node(X). sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP)."


def test_semi_naive_on_hand_programs():
    # cases the property above draws only now and then: non-ground facts
    # over c0 and over a constant that only a rule names, repeated
    # variables, a head-only variable, a body goal whose facts come a round
    # after the goal before it, functors of one arity and two names, and
    # the benchmark's transitive-closure and same-generation rules
    for text, bound in [
        ("p(X).", 0),
        ("p(X). q(c) :- p(c).", 0),
        ("p(X, X). q(Y) :- p(Y, Y). r(X, Y) :- q(X).", 1),
        ("q(a, b). q(b, b). p(X) :- q(X, X).", 0),
        ("p(a). r :- p(a). q(X, X) :- p(X), r.", 0),
        ("p(f(a)). q(X) :- p(g(X)).", 1),
        ("n(z). n(s(X)) :- n(X). add(z, Y, Y) :- n(Y). add(s(X), Y, s(Z)) :- add(X, Y, Z).", 2),
        ("e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).", 0),
        # two ground arguments of a non-ground goal, each clashing in turn
        ("e(a, b, c). e(x, b, d). e(a, y, d). e(a, z, d). r(Z) :- e(a, b, Z).", 0),
        # a compound pattern whose variable a later goal reuses
        ("p(f(a)). p(f(c)). p(b). q(a, b). q(b, c). q(c, a). r(Y) :- p(f(X)), q(X, Y).", 1),
        # a head-only variable beside a body-bound one
        ("p(a). p(b). q(c). s(X, Y) :- p(X). t(Y, X, Y) :- q(X).", 0),
        *((graph, 0) for seed in (1, 2, 3) for graph in (closure_program(seed), same_generation_program(seed))),
    ]:
        clauses = prog(text)
        assert minimal_model_with_steps(clauses, UniverseBound(bound)) == naive_model_with_steps(
            clauses, UniverseBound(bound)
        ), text

