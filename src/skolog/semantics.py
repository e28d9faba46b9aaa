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
the same fixpoint, in the same number of steps, by semi-naive evaluation
over rule plans compiled once per call.  A plan numbers its rule's
variables and ground arguments into the slots of an environment list
and turns each body goal into steps over a derived atom's argument
tuple: compare with a constant or a variable bound earlier, bind a
variable met for the first time, or match a non-ground compound one way.
Derived atoms are kept as argument tuples per predicate, indexed by the
value at each position that a goal looks up, and become terms only in
the model returned.  The universe is enumerated only for variables that
no body goal binds.
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
    Term,
    Var,
    apply,
    indicator_of,
    is_ground,
    signature,
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
    return not signature(_goals(clauses))[1]


def herbrand_universe(clauses: list[Clause], bound=UniverseBound()) -> set[Term]:
    """Ground terms over the program's constants and functors up to the
    depth bound.  A program with no constants gets the stand-in ``c0``."""
    constants, functors = signature(_goals(clauses))
    constants = constants or {Atom("c0")}
    universe: set[Term] = set(constants)
    for _ in range(bound.depth):
        layer: set[Term] = set()
        for name, arity in functors:
            for args in itertools.product(universe, repeat=arity):
                layer.add(Struct(name, args))
        universe |= layer
    return universe


def herbrand_base(clauses: list[Clause], bound=UniverseBound()) -> set[Term]:
    """Every predicate of the program applied to universe terms."""
    universe = herbrand_universe(clauses, bound)
    base: set[Term] = set()
    for name, arity in {indicator_of(g) for g in _goals(clauses)}:
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
        slots = {v: i for i, v in enumerate(vs)}
        # a head argument that matches no universe term leaves no instance
        # in the base: skip the clause before building any
        if vs and not all(
            type(a) is Var or any(_match(a, t, slots, [None] * len(vs)) for t in universe)
            for a in getattr(c.head, "args", ())
        ):
            continue
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


def _match(pattern: Term, fact: Term, slots: dict, env: list) -> bool:
    """Match the non-ground ``pattern`` one way onto the ground ``fact``,
    binding the pattern's unbound variables in ``env`` at their ``slots``:
    one-way matching needs no occurs check."""
    todo = [(pattern, fact)]
    while todo:
        p, t = todo.pop()
        if type(p) is Var:
            seen = env[slots[p]]
            if seen is None:
                env[slots[p]] = t
            elif seen != t:
                return False
        elif type(p) is Struct:
            if type(t) is not Struct or p.name != t.name or len(p.args) != len(t.args):
                return False
            todo.extend(zip(p.args, t.args))
        elif p != t:
            return False
    return True


class _Relation:
    """The ground argument tuples of one predicate, as a set and, at each
    argument position that some goal looks up, by their value there: a
    goal reads the shortest list that its bound arguments allow instead
    of scanning them all."""

    __slots__ = ("rows", "index")

    def __init__(self, columns: Iterable[int]):
        self.rows: set[tuple] = set()
        self.index: dict[int, dict] = {p: {} for p in columns}

    def add(self, rows: set) -> None:
        self.rows |= rows  # a set merges with its stored hashes
        for p, column in self.index.items():
            for row in rows:
                column.setdefault(row[p], []).append(row)


class _Goal:
    """One body goal as steps over a fact's argument tuple, for the
    environment its rule reaches it with.  ``known`` compares a position
    with a ground constant or a variable that an earlier goal bound (each
    held in a slot), ``same`` compares a position with an earlier one that
    the same variable took, ``binds`` binds a variable met for the first
    time, and ``patterns`` matches a non-ground compound one way.  The
    goal's variables are added to ``bound``."""

    __slots__ = ("indicator", "known", "same", "binds", "patterns", "full")

    def __init__(self, goal: Term, slot, bound: set):
        self.indicator = indicator_of(goal)
        self.known, self.same, self.binds, self.patterns = [], [], [], []
        first: dict = {}  # variable -> the position that binds it
        inner: list = []  # the variables of the patterns
        args = getattr(goal, "args", ())
        for p, x in enumerate(args):
            if type(x) is Var and x not in bound:
                if x in first:
                    self.same.append((p, first[x]))
                else:
                    first[x] = p
                    self.binds.append((p, slot(x)))
            elif type(x) is not Struct or is_ground(x):
                self.known.append((p, slot(x)))
            else:
                self.patterns.append((p, x))
                inner += variables_of(x)
        for v in inner:
            slot(v)
        bound.update(first, inner)
        # every argument known: a lookup of the whole tuple
        self.full = [s for _, s in self.known] if len(self.known) == len(args) else None

    def extend(self, rel: _Relation, envs: list, slots: dict) -> list:
        """Each environment of ``envs`` extended by each row of ``rel``
        that the goal matches under it; one that gains no binding is
        passed on, not copied."""
        if self.full is not None:
            return [env for env in envs if tuple(map(env.__getitem__, self.full)) in rel.rows]
        out = []
        known, same, binds, patterns = self.known, self.same, self.binds, self.patterns
        for env in envs:
            rows, at = rel.rows, None
            for p, s in known:
                found = rel.index[p].get(env[s], ())
                if len(found) < len(rows):
                    rows, at = found, p
            for row in rows:
                for p, s in known:
                    if p != at and row[p] != env[s]:
                        break
                else:
                    for p, q in same:
                        if row[p] != row[q]:
                            break
                    else:
                        ext = env.copy()
                        for p, s in binds:
                            ext[s] = row[p]
                        if not patterns or all(_match(x, row[p], slots, ext) for p, x in patterns):
                            out.append(ext)
        return out


class _Rule:
    """A rule compiled once for the rounds of one fixpoint: its variables
    and ground arguments numbered into the slots of an environment list,
    each body goal a ``_Goal``, and its head the slots that make the
    derived argument tuple.  A compound head argument is built from the
    slots and kept only if it lies in the universe; a head variable that
    no body goal binds ranges over the universe."""

    def __init__(self, rule: Clause):
        slots: dict = {}  # variable or ground argument -> slot

        def slot(x):
            return slots.setdefault(x, len(slots))

        bound: set = set()
        self.goals = [_Goal(g, slot, bound) for g in rule.body]
        self.indicator = indicator_of(rule.head)
        args = getattr(rule.head, "args", ())
        self.head = [slot(x) for x in args]
        # compound arguments, built in place of the slot of their own
        self.compounds = [(p, x) for p, x in enumerate(args) if type(x) is Struct]
        variables = variables_of(rule.head)
        self.free = [slot(v) for v in variables if v not in bound]
        self.vars = [(v, slots[v]) for v in variables]
        self.slots = slots
        self.env = [None if type(x) is Var else x for x in slots]

    def consequences(self, known: dict, new: dict, universe: list, terms: set) -> set:
        """Argument tuples of the heads of the rule's ground instances whose
        body lies in ``known`` with at least one goal in ``new``: each goal
        in turn is the pivot that reads ``new``, the others read ``known``,
        left to right."""
        out: set = set()
        for pivot, goal in enumerate(self.goals):
            if goal.indicator not in new:
                continue
            envs = [self.env]
            for i, g in enumerate(self.goals):
                rel = (new if i == pivot else known).get(g.indicator)
                envs = g.extend(rel, envs, self.slots) if rel else []
                if not envs:
                    break
            if self.free:
                envs = [
                    self._with_free(env, values)
                    for env in envs
                    for values in itertools.product(universe, repeat=len(self.free))
                ]
            for env in envs:
                row = self._head(env, terms)
                if row is not None:
                    out.add(row)
        return out

    def _with_free(self, env: list, values: tuple) -> list:
        env = env.copy()
        for s, x in zip(self.free, values):
            env[s] = x
        return env

    def _head(self, env: list, terms: set) -> Optional[tuple]:
        if not self.compounds:
            return tuple(map(env.__getitem__, self.head))
        row = list(map(env.__getitem__, self.head))
        theta = {v: env[s] for v, s in self.vars}
        for p, x in self.compounds:
            row[p] = apply(theta, x)
            if row[p] not in terms:
                return None
        return tuple(row)


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
    universe = list(terms)
    rules = [_Rule(c) for c in clauses if c.body]
    columns: dict = {}  # indicator -> the positions that some goal looks up
    for g in (g for rule in rules for g in rule.goals if g.full is None):
        columns.setdefault(g.indicator, set()).update(p for p, _ in g.known)
    added: dict = {}  # indicator -> argument tuples new this round
    for head, _ in ground_instances([c for c in clauses if not c.body], terms):
        added.setdefault(indicator_of(head), set()).add(getattr(head, "args", ()))
    known: dict = {}  # indicator -> _Relation
    steps = 1
    while added:
        new: dict = {}
        for ind, rows in added.items():
            for relations in (known, new):
                if ind not in relations:
                    relations[ind] = _Relation(columns.get(ind, ()))
                relations[ind].add(rows)
        added = {}
        for rule in rules:
            rows = rule.consequences(known, new, universe, terms)
            if rule.indicator in known:
                rows -= known[rule.indicator].rows
            if rows:
                added.setdefault(rule.indicator, set()).update(rows)
        steps += 1
    model = {
        Struct(name, row) if row else Atom(name)
        for (name, _), rel in known.items()
        for row in rel.rows
    }
    return model, steps


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
