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

``tp``, ``is_model`` and ``ground_instances`` are the textbook reference:
every clause over every tuple of universe terms.  ``minimal_model`` gets
the same fixpoint, in the same number of steps, by semi-naive evaluation:
rule bodies are matched, one way, against the atoms derived so far, and
the universe is enumerated only for variables that no body goal binds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import NotDefiniteError
from .terms import (
    BUILTIN_INDICATORS,
    Atom,
    Clause,
    Struct,
    Subst,
    Term,
    Var,
    apply,
    goal_constants,
    goal_functors,
    indicator_of,
    is_ground,
    variables_in,
    variables_of,
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


def _in_base(head: Term, terms: set[Term]) -> bool:
    """A head's predicate is the program's own, so it is in the base when
    its arguments are in the universe; the base itself, a power of the
    universe, is never built."""
    return all(a in terms for a in getattr(head, "args", ()))


def ground_instances(clauses: list[Clause], terms: set[Term]):
    """All (head, body) ground instances of ``clauses``, their variables
    ranging over the universe ``terms``, whose head stays inside the
    depth-bounded base."""
    universe = sorted(terms, key=repr)
    out: list[tuple[Term, tuple[Term, ...]]] = []
    for c in clauses:
        vs = variables_in((c.head,) + c.body)
        for values in itertools.product(universe, repeat=len(vs)):
            theta = dict(zip(vs, values))
            head = apply(theta, c.head)
            if not _in_base(head, terms):
                continue
            out.append((head, tuple(apply(theta, b) for b in c.body)))
    return out


def tp(clauses: list[Clause], interpretation: Interpretation, bound=UniverseBound()) -> Interpretation:
    """Immediate consequences: heads of ground instances whose bodies are
    already in the interpretation."""
    check_definite(clauses)
    return {
        head
        for head, body in ground_instances(clauses, herbrand_universe(clauses, bound))
        if all(b in interpretation for b in body)
    }


def _match(pattern: Term, fact: Term, theta: Subst) -> Optional[Subst]:
    """``theta`` extended so that it maps ``pattern`` onto the ground
    ``fact``, or None: one-way matching, which binds only the pattern's
    variables and so needs no occurs check."""
    theta = dict(theta)
    todo = [(pattern, fact)]
    while todo:
        p, t = todo.pop()
        if type(p) is Var:
            seen = theta.setdefault(p, t)
            if seen is not t and seen != t:
                return None
        elif type(p) is Struct:
            if type(t) is not Struct or p.name != t.name or len(p.args) != len(t.args):
                return None
            todo.extend(zip(p.args, t.args))
        elif p != t:
            return None
    return theta


class _Facts:
    """Ground atoms, found by predicate indicator or by the value at one
    argument position, so that a join looks up what its bound arguments
    allow instead of scanning the predicate."""

    def __init__(self, atoms: Iterable[Term] = ()):
        self.atoms: Interpretation = set()
        # indicator, or (indicator, position, value) -> atoms
        self.index: dict = {}
        self.add(atoms)

    def add(self, atoms: Iterable[Term]) -> None:
        for a in atoms:
            ind = indicator_of(a)
            self.atoms.add(a)
            self.index.setdefault(ind, []).append(a)
            for i, x in enumerate(getattr(a, "args", ())):
                self.index.setdefault((ind, i, x), []).append(a)

    def matches(self, goal: Term, theta: Subst) -> Iterator[Subst]:
        """``theta`` extended to map ``goal`` onto each atom it matches."""
        goal = apply(theta, goal)
        if is_ground(goal):
            if goal in self.atoms:
                yield theta
            return
        ind = indicator_of(goal)
        candidates = self.index.get(ind, ())
        for i, x in enumerate(goal.args):
            if is_ground(x):
                found = self.index.get((ind, i, x), ())
                if len(found) < len(candidates):
                    candidates = found
        for atom in candidates:
            extended = _match(goal, atom, theta)
            if extended is not None:
                yield extended


def _consequences(rule: Clause, known: _Facts, new: _Facts, universe: list[Term], terms: set[Term]):
    """Heads of the rule's ground instances whose body lies in ``known``
    with at least one goal in ``new``: each goal in turn is the pivot
    that reads ``new``, the others read ``known``, left to right.  Head
    variables that no body goal binds range over the universe."""
    bound_by_body = set(variables_in(rule.body))
    free = [v for v in variables_of(rule.head) if v not in bound_by_body]
    for pivot, goal in enumerate(rule.body):
        if indicator_of(goal) not in new.index:
            continue
        thetas: list[Subst] = [{}]
        for i, g in enumerate(rule.body):
            facts = new if i == pivot else known
            thetas = [m for theta in thetas for m in facts.matches(g, theta)]
            if not thetas:
                break
        for theta in thetas:
            for values in itertools.product(universe, repeat=len(free)):
                head = apply({**theta, **dict(zip(free, values))}, rule.head)
                if _in_base(head, terms):
                    yield head


def minimal_model_with_steps(clauses: list[Clause], bound=UniverseBound()):
    """(least fixpoint of T_P from the empty set, iterations used), by
    semi-naive evaluation (Bancilhon & Ramakrishnan 1986).  Round 1 is
    T_P of the empty set, the heads of the facts' ground instances.  Each
    later round adds only the heads that need some atom the round before
    it added: an instance whose body lay wholly in older atoms fired
    already.  The step count is the naive iteration's, the final round
    (the one that adds nothing) included."""
    check_definite(clauses)
    terms = herbrand_universe(clauses, bound)
    universe = sorted(terms, key=repr)
    rules = [c for c in clauses if c.body]
    added = {head for head, _ in ground_instances([c for c in clauses if not c.body], terms)}
    known = _Facts()
    steps = 1
    while added:
        known.add(added)
        new = _Facts(added)
        added = {
            head
            for rule in rules
            for head in _consequences(rule, known, new, universe, terms)
            if head not in known.atoms
        }
        steps += 1
    return known.atoms, steps


def minimal_model(clauses: list[Clause], bound=UniverseBound()) -> Interpretation:
    return minimal_model_with_steps(clauses, bound)[0]


def is_model(clauses: list[Clause], interpretation: Interpretation, bound=UniverseBound()) -> bool:
    """Does the interpretation satisfy every ground clause instance?"""
    check_definite(clauses)
    for head, body in ground_instances(clauses, herbrand_universe(clauses, bound)):
        if all(b in interpretation for b in body) and head not in interpretation:
            return False
    return True


def is_correct(clauses: list[Clause], atoms: Interpretation, bound=UniverseBound()) -> bool:
    """Everything in ``atoms`` is true in the minimal model."""
    return set(atoms) <= minimal_model(clauses, bound)


def is_complete(clauses: list[Clause], atoms: Interpretation, bound=UniverseBound()) -> bool:
    """Everything true in the minimal model is in ``atoms``."""
    return minimal_model(clauses, bound) <= set(atoms)
