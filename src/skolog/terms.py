"""Terms, substitutions, and unification with the occurs check.

The term language has four shapes: variables, atoms (symbolic constants),
integers, and compound terms.  A substitution is a plain dict from ``Var``
to ``Term``, kept idempotent by construction: no key variable ever occurs
in a value term, so applying a substitution twice equals applying it once.

There is one unifier, ``Store.unify``, over one dict of bindings with a
trail that backtracking pops; ``unify`` reads a ``Store``'s bindings back
as a substitution.  There is one head match, ``Store.unify_head``, by
which resolution and retract/1 match a stored clause without renaming it
whole.  Both are tested against a dict-based reference unifier kept with
the tests.  ``rename_clause`` and ``compose`` serve those tests and the
benchmark's tracer, which wraps them by name.

Terms are values, equal and hashing equal when their shapes are equal.
``Var`` hashes in C, as every binding lookup hashes one; a ``Struct``
hashes once, and hashes and compares without recursion, at any depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import is_, itemgetter
from typing import Iterable, Iterator, Optional, Union


class Var(tuple):
    """A logic variable, the tuple ``(name, id)``; it equals no plain tuple.
    ``id`` separates same-named variables made by renaming; variables
    written in source text parse with id 0 (anonymous ``_`` gets a fresh
    negative id per occurrence)."""

    __slots__ = ()

    def __new__(cls, name: str, id: int = 0):
        return tuple.__new__(cls, (name, id))

    name = property(itemgetter(0))
    id = property(itemgetter(1))
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is Var and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not Var or tuple.__ne__(self, other)

    def __repr__(self):
        return f"Var(name={self[0]!r}, id={self[1]!r})"


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Int:
    value: int


@dataclass(frozen=True, eq=False)
class Struct:
    name: str
    args: tuple["Term", ...]
    _hash = None  # not a field: the first ``hash`` sets it on the instance

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValueError("compound term needs at least one argument")

    def __hash__(self):
        # inner compounds first: ``hash((name, args))`` then finds theirs cached
        todo = [self]
        while self._hash is None:
            t = todo[-1]
            inner = [a for a in t.args if type(a) is Struct and a._hash is None]
            if inner:
                todo += inner
            else:
                object.__setattr__(t, "_hash", hash((t.name, t.args)))
                todo.pop()
        return self._hash

    def __eq__(self, other):
        if type(other) is not Struct:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not Struct:
                if a != b:
                    return False
            elif type(b) is not Struct or a.name != b.name or len(a.args) != len(b.args):
                return False
            else:
                todo += zip(a.args, b.args)
        return True


Term = Union[Var, Atom, Int, Struct]
Subst = dict  # Var -> Term

NIL = Atom("[]")
TRUE = Atom("true")
FAIL = Atom("fail")
CUT = Atom("!")


@dataclass(frozen=True)
class Clause:
    """One program clause: ``head.`` or ``head :- body.``"""

    head: Term
    body: tuple[Term, ...] = ()
    _order = None  # not a field: the first ``Store.unify_head`` sets it on the instance


def mklist(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for x in reversed(list(items)):
        out = Struct(".", (x, out))
    return out


# ``subterms`` is the one read-only walk but for ``is_ground``, which
# building an argument index asks of every clause; the walkers that rebuild
# terms (``_rebuild``, ``_Resolver``) and the store's occurs check, which
# reads through bindings, keep stacks of their own.  None recurses: a list
# of n elements nests n deep.

def subterms(t: Term) -> Iterator[Term]:
    """``t`` and every term inside it, in left-to-right preorder."""
    todo = [t]
    while todo:
        x = todo.pop()
        yield x
        if type(x) is Struct:
            todo.extend(reversed(x.args))


def is_ground(t: Term) -> bool:
    """Whether ``t`` holds no variable; a walk of its own is about twice
    as fast as one over ``subterms``."""
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is Struct:
            todo.extend(x.args)
        elif type(x) is Var:
            return False
    return True


def variables_of(t: Term) -> list[Var]:
    """Variables of ``t`` in first-occurrence order, left to right."""
    return variables_in((t,))


def variables_in(terms: Iterable[Term]) -> list[Var]:
    """Variables of ``terms`` in first-occurrence order, left to right."""
    return list(dict.fromkeys(x for t in terms for x in subterms(t) if type(x) is Var))


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


class Store:
    """Variable bindings with a trail, and the one unifier.

    ``Store.unify`` takes its equations from a stack and binds a variable
    of ``a``'s side to ``b``'s side.  It is tested to bind what a dict-based
    reference unifier binds, in the same order.  A failed unification may
    leave bindings behind; ``undo`` to a mark removes them.
    """

    def __init__(self):
        self.bindings: dict[Var, Term] = {}
        self.trail: list[Var] = []

    def deref(self, t: Term) -> Term:
        get = self.bindings.get
        while type(t) is Var and (value := get(t)) is not None:
            t = value
        return t

    def bind(self, v: Var, t: Term) -> None:
        self.bindings[v] = t
        self.trail.append(v)

    def undo(self, mark: int) -> None:
        trail, bindings = self.trail, self.bindings
        while len(trail) > mark:
            del bindings[trail.pop()]

    def resolver(self, history: bool = False) -> "_Resolver":
        """Reads terms under the current bindings; with ``history``, also
        as of an earlier trail length."""
        pos = {v: i for i, v in enumerate(self.trail)} if history else None
        return _Resolver(self.bindings, pos)

    def unify(self, a: Term, b: Term) -> bool:
        """Unify ``a`` with ``b``, the occurs check always on."""
        bindings, trail = self.bindings, self.trail
        get = bindings.get
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            while type(x) is Var and (value := get(x)) is not None:
                x = value
            while type(y) is Var and (value := get(y)) is not None:
                y = value
            if x is y:
                continue
            if type(x) is Var:
                if type(y) is Var and x == y:
                    continue
                v, t = x, y
            elif type(y) is Var:
                v, t = y, x
            elif type(x) is Struct:
                if type(y) is not Struct or x.name != y.name or len(x.args) != len(y.args):
                    return False
                stack.extend(zip(x.args, y.args))
                continue
            elif x == y:
                continue
            else:
                return False
            if type(t) is Struct and self._occurs(v, t):
                return False
            bindings[v] = t
            trail.append(v)
        return True

    def unify_head(self, goal: Term, clause: Clause, fresh: "FreshVars") -> Optional[tuple]:
        """Unify the head of ``clause`` renamed apart with ``goal``, and
        return the body renamed the same way; None if the head does not match.

        The clause is not renamed whole (the WAM's get/unify instructions:
        Warren 1983).  The walk takes ``unify``'s equations in its order.
        A clause variable's first occurrence stands for the call's subterm
        there, an unbound variable included (get_variable).  A variable of
        ``fresh`` is made for it only where a clause term is built for an
        unbound variable of the call; a later occurrence unifies as
        ``unify`` does, the clause's side first.  The clause's variables
        are numbered in first-occurrence order, head first, on its first
        match, and the numbering is kept on the clause, so loading a
        program numbers nothing.  ``fresh`` advances by their count only
        on a match, so each variable made gets the id that ``rename_clause``
        would have given it, and a head that fails uses up no id.
        """
        order = clause._order
        if order is None:
            order = {v: i for i, v in enumerate(variables_in((clause.head, *clause.body)))}
            object.__setattr__(clause, "_order", order)
        base = fresh.next_id
        env = _Renaming()  # clause variable -> call subterm or made variable
        env.new = lambda v: fresh.var(base + order[v])
        build = env.__getitem__
        bindings, trail = self.bindings, self.trail
        get = bindings.get
        stack = [(goal, clause.head)]
        while stack:
            x, y = stack.pop()
            while type(x) is Var and (value := get(x)) is not None:
                x = value
            if type(y) is Var:
                t = env.get(y)
                if t is None:
                    env[y] = x
                elif not self.unify(t, x):
                    return None
            elif type(x) is Var:
                mapped = len(env)  # ``x`` can be in ``t`` only through a variable mapped now
                t = _rebuild(y, build)
                if mapped and type(t) is Struct and self._occurs(x, t):
                    return None
                bindings[x] = t
                trail.append(x)
            elif type(y) is Struct:
                if type(x) is not Struct or x.name != y.name or len(x.args) != len(y.args):
                    return None
                stack.extend(zip(x.args, y.args))
            elif x != y:
                return None
        fresh.next_id += len(order)
        return tuple([_rebuild(g, build) for g in clause.body]) if order else clause.body

    def _occurs(self, v: Var, t: Term) -> bool:
        """Does ``v`` occur in ``t``, read through the bindings?"""
        get = self.bindings.get
        todo = [t]
        while todo:
            u = todo.pop()
            while type(u) is Var and (value := get(u)) is not None:
                u = value
            if type(u) is Struct:
                todo.extend(u.args)
            elif type(u) is Var and u == v:
                return True
        return False


def unify(t1: Term, t2: Term) -> Optional[Subst]:
    """Most general unifier of ``t1`` and ``t2``, or None: each variable
    that ``Store.unify`` binds, in binding order, mapped to its resolved
    value.  The occurs check is always on: unify(X, f(X)) is None."""
    store = Store()
    if not store.unify(t1, t2):
        return None
    res = store.resolver()
    return {v: res.resolve(v) for v in store.trail}


class _Resolver:
    """Terms under a fixed set of bindings.

    Resolving a term with every binding applied memoizes each compound by
    ``id``, with the latest trail position among the bindings it used.
    Given ``pos`` (variable -> trail position), a term can be resolved as
    of an earlier trail length too: a memoized compound whose latest
    position lies below that length is reused whole.  The bindings must
    not change meanwhile, and the terms resolved must stay alive.
    """

    def __init__(self, bindings: dict, pos: Optional[dict] = None):
        self.bindings, self.pos = bindings, pos
        self.memo: dict[int, tuple[Term, int]] = {}

    def resolve(self, t: Term, stamp: Optional[int] = None, later: Optional[dict] = None) -> Term:
        """``t`` under the bindings made before trail length ``stamp``, or
        under all when it is None.  ``later``, when given, receives the
        variables of the result that were bound later, in first-occurrence
        order, as keys."""
        memo, bindings, pos = self.memo, self.bindings, self.pos
        final = stamp is None
        # [compound, its resolved args so far, their latest position,
        #  latest position of the bindings that led to the compound]
        frames: list[list] = []
        x = t
        while True:
            latest = -1
            while type(x) is Var and (value := bindings.get(x)) is not None:
                p = pos[x] if pos is not None else -1
                if not final and p >= stamp:
                    if later is not None:
                        later[x] = None
                    break
                latest = max(latest, p)
                x = value
            if type(x) is Struct:
                hit = memo.get(id(x))
                if hit is None or not (final or hit[1] < stamp):
                    frames.append([x, [], -1, latest])
                    x = x.args[0]
                    continue
                x, latest = hit[0], max(latest, hit[1])
            while frames:  # up, finishing what is complete
                frame = frames[-1]
                f, done = frame[0], frame[1]
                done.append(x)
                if latest > frame[2]:
                    frame[2] = latest
                if len(done) < len(f.args):
                    x = f.args[len(done)]
                    break
                frames.pop()
                x = f if all(map(is_, done, f.args)) else Struct(f.name, tuple(done))
                if final:
                    memo[id(f)] = (x, frame[2])
                latest = max(frame[2], frame[3])
            else:
                return x


class FreshVars:
    """Issues variables whose ids have not been used before in this source.

    The resolution loop creates one per top-level query, so the variables
    that clause matching makes print as _G1, _G2, ... restarting at each
    query; a clause uses up one id per variable each time its head matches.
    """

    def __init__(self, prefix: str = "_G", start: int = 1):
        self._prefix = prefix
        self.next_id = start  # the id of the next variable issued

    def var(self, n: int) -> Var:
        """The variable of this source with id ``n``."""
        return Var(f"{self._prefix}{n}", n)

    def new(self) -> Var:
        n = self.next_id
        self.next_id += 1
        return self.var(n)


_ANON_IDS = itertools.count(-1, -1)


def anonymous_var() -> Var:
    """A distinct variable for each ``_`` written in source text."""
    return Var("_", next(_ANON_IDS))


class _Renaming(dict):
    """Old variable -> new term, made on first lookup by ``new``."""

    __slots__ = ("new",)

    def __missing__(self, v: Var) -> Term:
        w = self[v] = self.new(v)
        return w


def rename_clause(c: Clause, fresh: FreshVars) -> Clause:
    """Variant of ``c`` with every variable replaced by a fresh one.

    A ground clause is returned unchanged (same object).  Fresh variables
    are issued in first-occurrence order, head first.
    """
    renaming = _Renaming()
    renaming.new = lambda v: fresh.new()
    replace = renaming.__getitem__
    head = _rebuild(c.head, replace)
    body = tuple([_rebuild(g, replace) for g in c.body]) if c.body else ()
    if not renaming:
        return c
    return Clause(head=head, body=body)


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


def goal_constants(goals: Iterable[Term]) -> set[Term]:
    """Atoms and integers in argument positions of heads and body goals.

    A predicate symbol is not a data constant; functor names of nested
    compounds are not either.
    """
    inner = (x for g in goals for x in itertools.islice(subterms(g), 1, None))
    return {x for x in inner if type(x) is Atom or type(x) is Int}


def goal_functors(goals: Iterable[Term]) -> set[tuple[str, int]]:
    """Functor/arity pairs of compounds in argument positions of heads and
    body goals."""
    inner = (x for g in goals for x in itertools.islice(subterms(g), 1, None))
    return {(x.name, len(x.args)) for x in inner if type(x) is Struct}
