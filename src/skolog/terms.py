"""Terms, substitutions, and unification with the occurs check.

The term language has four shapes: variables, atoms (symbolic constants),
integers, and compound terms.  A substitution is a plain dict from ``Var``
to ``Term``, kept idempotent by construction: no key variable ever occurs
in a value term, so applying a substitution twice equals applying it once.
``unify`` here is the pure reference; the engine binds variables in a
trailed store of its own and is tested to agree with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import is_
from typing import Iterable, Optional, Union


@dataclass(frozen=True)
class Var:
    """A logic variable.

    ``id`` separates same-named variables made by renaming; variables
    written in source text parse with id 0 (anonymous ``_`` gets a fresh
    negative id per occurrence).
    """

    name: str
    id: int = 0


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Int:
    value: int


@dataclass(frozen=True)
class Struct:
    name: str
    args: tuple["Term", ...]

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValueError("compound term needs at least one argument")


Term = Union[Var, Atom, Int, Struct]
Subst = dict  # Var -> Term

NIL = Atom("[]")
TRUE = Atom("true")
FAIL = Atom("fail")
CUT = Atom("!")


@dataclass(frozen=True)
class Clause:
    """One program clause: ``head.`` or ``head :- body.``

    ``span`` is the source position (line, col, end_line, end_col) when the
    clause came from text; clauses built at runtime carry ``None``.  Spans
    are ignored by equality so a reparsed clause compares equal.
    """

    head: Term
    body: tuple[Term, ...] = ()
    span: Optional[tuple[int, int, int, int]] = field(default=None, compare=False)


def mklist(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for x in reversed(list(items)):
        out = Struct(".", (x, out))
    return out


# Term walkers keep a stack of their own instead of recursing: a list of n
# elements nests n deep.

def is_ground(t: Term) -> bool:
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is Var:
            return False
        if type(x) is Struct:
            todo.extend(x.args)
    return True


def occurs(v: Var, t: Term) -> bool:
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is Struct:
            todo.extend(x.args)
        elif x == v:
            return True
    return False


def variables_of(t: Term) -> list[Var]:
    """Variables of ``t`` in first-occurrence order, left to right."""
    out: dict[Var, None] = {}
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is Struct:
            todo.extend(reversed(x.args))
        elif type(x) is Var:
            out[x] = None
    return list(out)


def variables_in(terms: Iterable[Term]) -> list[Var]:
    out: list[Var] = []
    seen: set[Var] = set()
    for t in terms:
        for v in variables_of(t):
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


def apply(theta: Subst, t: Term) -> Term:
    """Apply a substitution.  One lookup step suffices: idempotence means
    value terms never mention key variables."""
    return _rebuild(t, theta.get) if theta else t


def _rebuild(t: Term, replace) -> Term:
    """``t`` with each variable ``v`` replaced by ``replace(v)`` where that
    is not None, ``replace`` called in left-to-right order.  Compounds left
    unchanged are reused (same object)."""
    if type(t) is not Struct:
        return (replace(t) or t) if type(t) is Var else t
    frames: list[tuple[Struct, list]] = []  # compounds left to finish
    done: list = []  # the new arguments of ``t`` so far
    while True:
        args = t.args
        for a in args[len(done):]:
            if type(a) is Struct:
                frames.append((t, done))
                t, done = a, []
                break
            done.append((replace(a) or a) if type(a) is Var else a)
        else:
            t = t if all(map(is_, done, args)) else Struct(t.name, tuple(done))
            if not frames:
                return t
            parent, done = frames.pop()
            done.append(t)
            t = parent


def compose(s1: Subst, s2: Subst) -> Subst:
    """Substitution with apply(compose(s1, s2), t) == apply(s2, apply(s1, t)).

    Identity bindings produced by the composition are dropped, keeping the
    result idempotent for the chains the resolution loop builds.
    """
    out: Subst = {}
    for x, t in s1.items():
        t2 = apply(s2, t)
        if t2 != x:
            out[x] = t2
    for y, t in s2.items():
        if y not in s1:
            out[y] = t
    return out


def restrict(theta: Subst, variables: Iterable[Var]) -> Subst:
    """Keys limited to ``variables``, preserving the given order."""
    return {v: theta[v] for v in variables if v in theta}


def unify(t1: Term, t2: Term) -> Optional[Subst]:
    """Most general unifier of ``t1`` and ``t2``, or None.

    Works through a stack of equations.  Each variable binding is pushed
    eagerly into both the remaining equations and the accumulated
    substitution, so the result is idempotent.  The occurs check is always
    on: unify(X, f(X)) is None.
    """
    theta: Subst = {}
    stack: list[tuple[Term, Term]] = [(t1, t2)]

    def bind(v: Var, value: Term) -> None:
        one = {v: value}
        for i, (a, b) in enumerate(stack):
            stack[i] = (apply(one, a), apply(one, b))
        for k in list(theta):
            theta[k] = apply(one, theta[k])
        theta[v] = value

    while stack:
        x, y = stack.pop()
        if isinstance(x, (Var, Atom, Int)) and x == y:
            continue
        if isinstance(x, Var) and not occurs(x, y):
            bind(x, y)
            continue
        if isinstance(y, Var) and not occurs(y, x):
            bind(y, x)
            continue
        if (
            isinstance(x, Struct)
            and isinstance(y, Struct)
            and x.name == y.name
            and len(x.args) == len(y.args)
        ):
            stack.extend(zip(x.args, y.args))
            continue
        return None
    return theta


def unify_all(pairs: Iterable[tuple[Term, Term]]) -> Optional[Subst]:
    """Unify a sequence of term pairs under one accumulated substitution."""
    theta: Subst = {}
    for a, b in pairs:
        s = unify(apply(theta, a), apply(theta, b))
        if s is None:
            return None
        theta = compose(theta, s)
    return theta


class FreshVars:
    """Issues variables whose ids have not been used before in this source.

    The resolution loop creates one per top-level query, so renamed
    variables print as _G1, _G2, ... restarting at each query.
    """

    def __init__(self, prefix: str = "_G", start: int = 1):
        self._prefix = prefix
        self.next_id = start  # the id of the next variable issued

    def new(self) -> Var:
        n = self.next_id
        self.next_id += 1
        return Var(f"{self._prefix}{n}", n)


_ANON_IDS = itertools.count(-1, -1)


def anonymous_var() -> Var:
    """A distinct variable for each ``_`` written in source text."""
    return Var("_", next(_ANON_IDS))


class _Renaming(dict):
    """Old variable -> fresh variable, issued on first lookup by ``new``."""

    __slots__ = ("new",)

    def __missing__(self, v: Var) -> Var:
        w = self[v] = self.new()
        return w


def rename_clause(c: Clause, fresh: FreshVars, mapping: Optional[Subst] = None) -> Clause:
    """Variant of ``c`` with every variable replaced by a fresh one.

    A ground clause is returned unchanged (same object).  Fresh variables
    are issued in first-occurrence order, head first.  ``mapping``, when
    given, receives the renaming: each old variable to its fresh one.
    """
    renaming = _Renaming()
    renaming.new = fresh.new
    replace = renaming.__getitem__
    head = _rebuild(c.head, replace)
    body = tuple([_rebuild(g, replace) for g in c.body]) if c.body else ()
    if not renaming:
        return c
    if mapping is not None:
        mapping.update(renaming)
    return Clause(head=head, body=body, span=c.span)


# Predicates the engine implements itself.  A definite program uses none of
# them; the engine's dispatch table has exactly these keys.
BUILTIN_INDICATORS = frozenset(
    {
        ("!", 0), ("not", 1), ("true", 0), ("fail", 0), ("=", 2), ("\\=", 2),
        ("plus", 3), ("write", 1), ("ask", 3), ("ask_value", 3), ("asserta", 1),
        ("assertz", 1), ("assert", 1), ("retract", 1), ("holds_negated", 1),
    }
)


def indicator_of(t: Term) -> tuple[str, int]:
    """Predicate indicator (name, arity) of a callable term."""
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Struct):
        return (t.name, len(t.args))
    raise ValueError(f"not a callable term: {t!r}")


def goal_constants(goal: Term) -> set[Term]:
    """Atoms and integers in argument positions of one head or body term.

    The predicate symbol itself is not a data constant; functor names of
    nested compounds are not either.
    """
    out: set[Term] = set()
    todo = list(goal.args) if type(goal) is Struct else []
    while todo:
        x = todo.pop()
        if type(x) is Struct:
            todo.extend(x.args)
        elif type(x) is not Var:
            out.add(x)
    return out


def goal_functors(goal: Term) -> set[tuple[str, int]]:
    """Functor/arity pairs of compounds in argument positions of a goal."""
    out: set[tuple[str, int]] = set()
    todo = list(goal.args) if type(goal) is Struct else []
    while todo:
        x = todo.pop()
        if type(x) is Struct:
            out.add((x.name, len(x.args)))
            todo.extend(x.args)
    return out
