"""Model-theoretic meaning of definite programs, independent of the solver.

A definite program (facts and rules only: no cut, no negation, no
builtins) means exactly its minimal Herbrand model: the intersection of
all Herbrand interpretations that satisfy every clause.  That model is
computed here as the least fixpoint of the immediate-consequence operator
T_P from the empty interpretation.  Because none of this shares code with
goal resolution, it doubles as an oracle for the solver: on function-free
definite programs the provable ground atoms must equal the minimal model.

Programs with compound terms have an infinite Herbrand universe; a depth
bound keeps things finite, making the results approximations at that
depth.  ``is_function_free`` tells the two cases apart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotDefiniteError
from .terms import (
    BUILTIN_INDICATORS,
    Atom,
    Clause,
    Struct,
    Term,
    apply,
    goal_constants,
    goal_functors,
    indicator_of,
    variables_in,
)

Interpretation = set  # of ground atoms (Term)


@dataclass(frozen=True)
class UniverseBound:
    """Term-depth cap for ground term construction: depth 0 means
    constants only, depth k allows k nested functor applications."""

    depth: int = 0

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("universe depth must be >= 0")


def check_definite(clauses: Iterable[Clause]) -> None:
    """Reject clauses whose bodies use cut, negation, or any builtin."""
    for c in clauses:
        for g in c.body:
            ind = indicator_of(g)
            if ind in BUILTIN_INDICATORS:
                raise NotDefiniteError(
                    f"not a definite program: body uses {ind[0]}/{ind[1]}"
                )


def _goals(clauses: Iterable[Clause]) -> Iterator[Term]:
    """Every clause's head, then its body goals."""
    for c in clauses:
        yield c.head
        yield from c.body


def is_function_free(clauses: Iterable[Clause]) -> bool:
    return not goal_functors(_goals(clauses))


def herbrand_universe(clauses: list[Clause], bound=UniverseBound()) -> set[Term]:
    """Ground terms over the program's constants and functors up to the
    depth bound.  A program with no constants gets the stand-in ``c0``."""
    constants = goal_constants(_goals(clauses)) or {Atom("c0")}
    functors = goal_functors(_goals(clauses))
    universe: set[Term] = set(constants)
    for _ in range(bound.depth):
        layer: set[Term] = set()
        for name, arity in sorted(functors):
            for args in itertools.product(sorted(universe, key=repr), repeat=arity):
                layer.add(Struct(name, args))
        universe |= layer
    return universe


def herbrand_base(clauses: list[Clause], bound=UniverseBound()) -> set[Term]:
    """Every predicate of the program applied to universe terms."""
    universe = sorted(herbrand_universe(clauses, bound), key=repr)
    base: set[Term] = set()
    for name, arity in sorted({indicator_of(g) for g in _goals(clauses)}):
        if arity == 0:
            base.add(Atom(name))
        else:
            for args in itertools.product(universe, repeat=arity):
                base.add(Struct(name, args))
    return base


def ground_instances(clauses: list[Clause], bound=UniverseBound()):
    """All (head, body) ground instances of the program's clauses whose
    head stays inside the depth-bounded base.  A head's predicate is the
    program's own, so it is in the base when its arguments are in the
    universe; the base itself, a power of the universe, is never built."""
    terms = herbrand_universe(clauses, bound)
    universe = sorted(terms, key=repr)

    def in_base(head: Term) -> bool:
        return all(a in terms for a in getattr(head, "args", ()))

    out: list[tuple[Term, tuple[Term, ...]]] = []
    for c in clauses:
        vs = variables_in((c.head,) + c.body)
        if not vs:
            if in_base(c.head):
                out.append((c.head, c.body))
            continue
        for values in itertools.product(universe, repeat=len(vs)):
            theta = dict(zip(vs, values))
            head = apply(theta, c.head)
            if not in_base(head):
                continue
            out.append((head, tuple(apply(theta, b) for b in c.body)))
    return out


def tp(clauses: list[Clause], interpretation: Interpretation, bound=UniverseBound()) -> Interpretation:
    """Immediate consequences: heads of ground instances whose bodies are
    already in the interpretation."""
    check_definite(clauses)
    out: Interpretation = set()
    for head, body in ground_instances(clauses, bound):
        if all(b in interpretation for b in body):
            out.add(head)
    return out


def minimal_model_with_steps(clauses: list[Clause], bound=UniverseBound()):
    """(least fixpoint of T_P from the empty set, iterations used)."""
    check_definite(clauses)
    grounded = ground_instances(clauses, bound)
    current: Interpretation = set()
    steps = 0
    while True:
        nxt = {head for head, body in grounded if all(b in current for b in body)}
        steps += 1
        if nxt == current:
            return current, steps
        current = nxt


def minimal_model(clauses: list[Clause], bound=UniverseBound()) -> Interpretation:
    return minimal_model_with_steps(clauses, bound)[0]


def is_model(clauses: list[Clause], interpretation: Interpretation, bound=UniverseBound()) -> bool:
    """Does the interpretation satisfy every ground clause instance?"""
    check_definite(clauses)
    for head, body in ground_instances(clauses, bound):
        if all(b in interpretation for b in body) and head not in interpretation:
            return False
    return True


def is_correct(clauses: list[Clause], atoms: Interpretation, bound=UniverseBound()) -> bool:
    """Everything in ``atoms`` is true in the minimal model."""
    return set(atoms) <= minimal_model(clauses, bound)


def is_complete(clauses: list[Clause], atoms: Interpretation, bound=UniverseBound()) -> bool:
    """Everything true in the minimal model is in ``atoms``."""
    return minimal_model(clauses, bound) <= set(atoms)
