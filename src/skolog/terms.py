"""Terms, substitutions, and unification with the occurs check.

The term language has four shapes: variables, atoms (symbolic constants),
integers, and compound terms.  A substitution is a plain dict from ``Var``
to ``Term``, kept idempotent by construction: no key variable ever occurs
in a value term, so applying a substitution twice equals applying it once.

There is one unifier, ``Store.unify``, over one dict of bindings in
binding order, which backtracking pops; ``unify`` reads a ``Store``'s
bindings back as a substitution.  There is one head match,
``Store.unify_head``, by which resolution and retract/1 match a stored
clause without renaming it whole.  On a clause's first try it gets a
Python function generated for the clause's shape (the WAM's get
instructions: Warren 1983), shared by every clause of that shape in the
process, and the clause's own constants; a clause too big to compile
is renamed apart with ``rename_clause`` and its head unified with the
goal (Robinson 1965).  The unifier and the head match are tested against
a dict-based reference unifier kept with the tests.  ``compose`` serves
those tests and the benchmark's tracer, which wraps it by name.

Terms are values, equal and hashing equal when their shapes are equal.
Atoms are interned (the WAM's atom table: Aït-Kaci 1991): ``Atom(name)``
returns the one object that a process-wide table holds for ``name``, so
an atom's equality and hash are identity, in C, and copies and pickles
give back the table's object.  The table never shrinks.  ``Var`` hashes
in C, as every binding lookup hashes one; a ``Struct`` hashes once, and
hashes and compares without recursion, at any depth.  Atom hashes differ
from process to process, so a pickled ``Struct`` leaves its cached hash
behind.
A ``Struct`` is also resolved whole once it is known to be ground: the
first resolver walk that meets no variable in it marks it, so an input
term is walked once in its lifetime, not once per answer.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from operator import is_, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union


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

    def __getnewargs__(self):  # copies and pickles call ``__new__`` with these
        return tuple(self)


class Atom:
    """A symbolic constant, one object per name (see the module docstring);
    it has no ``__eq__`` or ``__hash__`` of its own."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        atom = _ATOMS.get(name)
        if atom is None:
            atom = object.__new__(cls)
            object.__setattr__(atom, "name", name)
            atom = _ATOMS.setdefault(name, atom)
        return atom

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}: an atom is read-only")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}: an atom is read-only")

    def __repr__(self):
        return f"Atom(name={self.name!r})"

    def __reduce__(self):  # copies and pickles give back the table's object
        return (Atom, (self.name,))


_ATOMS: dict[str, Atom] = {}  # name -> its atom, for the whole process; it never shrinks


@dataclass(frozen=True)
class Int:
    value: int


@dataclass(frozen=True, eq=False)
class Struct:
    name: str
    args: tuple["Term", ...]
    _hash = None  # not a field: the first ``hash`` sets it on the instance
    _ground = False  # not a field: ``_Resolver`` sets it on a compound it finds has no variable

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValueError("compound term needs at least one argument")

    def __getstate__(self):  # a loaded compound hashes again, under its own process's atoms
        state = dict(vars(self))
        state.pop("_hash", None)
        return state

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
    _match = None  # not a field: the first ``Store.unify_head`` sets it on the instance
    _text = None  # not a field either: the first ``parser.format_clause`` sets it

    def __getstate__(self):  # a compiled match does not pickle: both are rebuilt on first use
        return {"head": self.head, "body": self.body}


def mklist(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for x in reversed(list(items)):
        out = Struct(".", (x, out))
    return out


# ``subterms`` is the one read-only walk but for two with walks of their
# own: ``is_ground``, which the builtins call on the solver's path to check
# their arguments, and ``signature``, which every fixpoint call and every
# negation's freshness scan reads.  The walkers that rebuild terms
# (``_rebuild``, ``_Resolver``) and the store's occurs check, which reads
# through bindings, keep stacks of their own.  None recurses: a list of n
# elements nests n deep.

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
    """Variable bindings in binding order, and the one unifier.

    A key is added only for a variable that ``deref`` found unbound, and
    only ``undo`` removes keys, newest first.  So the dict's order is the
    binding order, and a binding count marks a point in it: its trail.

    ``Store.unify`` takes its equations from a stack and binds a variable
    of ``a``'s side to ``b``'s side.  It is tested to bind what a dict-based
    reference unifier binds, in the same order.  A failed unification may
    leave bindings behind; ``undo`` to a mark removes them.
    """

    def __init__(self):
        self.bindings: dict[Var, Term] = {}

    def deref(self, t: Term) -> Term:
        get = self.bindings.get
        while type(t) is Var and (value := get(t)) is not None:
            t = value
        return t

    def undo(self, mark: int) -> None:
        bindings = self.bindings
        while len(bindings) > mark:
            bindings.popitem()

    def resolver(self, history: bool = False) -> "_Resolver":
        """Reads terms under the current bindings; with ``history``, also
        as of an earlier binding count."""
        pos = {v: i for i, v in enumerate(self.bindings)} if history else None
        return _Resolver(self.bindings, pos)

    def snapshot(self) -> "_Resolver":
        """Reads terms under a copy of the current bindings, as they
        resolve now, after the store has moved on too."""
        return _Resolver(dict(self.bindings))

    def unify(self, a: Term, b: Term) -> bool:
        """Unify ``a`` with ``b``, the occurs check always on."""
        bindings = self.bindings
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
        return True

    def unify_head(self, goal: Term, clause: Clause, fresh: "FreshVars") -> Optional[tuple]:
        """Unify the head of ``clause`` renamed apart with ``goal``, and
        return the body renamed the same way; None if the head does not match.

        The clause is not renamed whole (the WAM's get/unify instructions:
        Warren 1983).  The match takes ``unify``'s equations in its order,
        the last argument first.  A clause variable's first occurrence
        stands for the call's subterm there, an unbound variable included
        (get_variable).  A variable of ``fresh`` is made for it only where
        a clause term is built for an unbound variable of the call, and the
        built term is searched for that variable only when it holds a
        clause variable mapped earlier; a later occurrence unifies as
        ``unify`` does, the clause's side first.  The clause's variables
        are numbered in first-occurrence order, head first, and ``fresh``
        advances by their count only on a match, so each variable made
        gets the id that ``rename_clause`` would have given it, and a head
        that fails uses up no id.

        On its first try a clause gets the match function of its shape
        (see ``_prepare``) and keeps it, so loading a program prepares
        nothing.  A clause too big to compile is renamed whole instead.
        """
        match = clause._match
        if match is None:
            match = _prepare(clause)
        return match[0](self, goal, fresh, match[1])

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
    return {v: res.resolve(v) for v in store.bindings}


class _Resolver:
    """Terms under a fixed set of bindings.

    Resolving a term with every binding applied memoizes each compound by
    ``id``, with the latest position among the bindings it used, a
    binding's position being its place in the store's binding order.
    Given ``pos`` (variable -> position), a term can be resolved as of an
    earlier binding count too: a memoized compound whose latest
    position lies below that count is reused whole, and a compound whose
    walk meets no binding at or after that count is memoized, since it
    resolves to the same term under all the bindings.  The bindings must
    not change meanwhile, and the terms resolved must stay alive.

    A compound whose walk meets no variable, bound or not, is marked
    ``_ground`` instead of memoized.  Terms are immutable, so the mark
    holds under any bindings: every later walk, of any resolver, takes
    such a compound whole without entering it.

    The memo is keyed by ``id``, and an id names a term only while the
    term is alive.  A resolver over a ``Store.snapshot`` outlives the
    store's bindings, so the terms that its memo keys must stay alive, or
    a later term could take a freed one's id and hit its entry.  The copy
    keeps every binding's value alive, and each reader keeps the term it
    resolves.  Every term that a walk meets lies in one of those, so it
    was alive when the copy was taken, as was every term the memo keys:
    a memo key that a dropped reader freed names no term met later.
    """

    def __init__(self, bindings: dict, pos: Optional[dict] = None):
        self.bindings, self.pos = bindings, pos
        self.memo: dict[int, tuple[Term, int]] = {}

    def resolve(self, t: Term, stamp: Optional[int] = None, later: Optional[dict] = None) -> Term:
        """``t`` under the bindings made before binding count ``stamp``, or
        under all when it is None.  ``later``, when given, receives the
        variables of the result that were bound later, in first-occurrence
        order, as keys."""
        memo, bindings, pos = self.memo, self.bindings, self.pos
        final = stamp is None
        # [compound, its resolved args so far, their latest position,
        #  latest position of the bindings that led to the compound];
        # a latest position of -2: no variable met; -1: only variables
        # unbound, or read without ``pos``
        frames: list[list] = []
        x = t
        while True:
            latest = -1 if type(x) is Var else -2
            while type(x) is Var and (value := bindings.get(x)) is not None:
                p = pos[x] if pos is not None else -1
                if not final and p >= stamp:
                    if later is not None:
                        later[x] = None
                    latest = p  # at or after the stamp: no compound around it is memoized
                    break
                if p > latest:
                    latest = p
                x = value
            if type(x) is Struct and not x._ground:
                hit = memo.get(id(x))
                if hit is None or not (final or hit[1] < stamp):
                    frames.append([x, [], -2, latest])
                    x = x.args[0]
                    continue
                x = hit[0]
                if hit[1] > latest:
                    latest = hit[1]
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
                if frame[2] == -2:
                    object.__setattr__(f, "_ground", True)
                    x = f
                else:
                    x = f if all(map(is_, done, f.args)) else Struct(f.name, tuple(done))
                    if final or frame[2] < stamp:
                        memo[id(f)] = (x, frame[2])
                latest = frame[3] if frame[3] > frame[2] else frame[2]
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


def rename_clause(c: Clause, fresh: FreshVars) -> Clause:
    """Variant of ``c`` with every variable replaced by a fresh one.

    A ground clause is returned unchanged (same object).  Fresh variables
    are issued in first-occurrence order, head first.
    """
    renaming = collections.defaultdict(fresh.new)
    replace = renaming.__getitem__
    head = _rebuild(c.head, replace)
    body = tuple([_rebuild(g, replace) for g in c.body]) if c.body else ()
    if not renaming:
        return c
    return Clause(head=head, body=body)


# --- the head match, compiled once per clause shape --------------------------
#
# A clause's shape is the clause with each maximal ground subterm replaced
# by a constant slot and each variable by its first-occurrence number; the
# head itself is never a slot.  Its key is a flat tuple, in preorder, head
# first: a variable's number, a slot's kind, or a non-ground compound's
# name followed by minus its arity (``hash`` of a nested tuple recurses).
# The constants fill the slots in the same order.  Every clause of a shape,
# in any database, shares one generated function.

_ATOM, _INT, _GROUND = object(), object(), object()  # the kinds of slot
_ATOMIC = {Atom: _ATOM, Int: _INT}
# A clause that nests a variable deeper than this, or whose key is longer,
# is renamed apart and unified instead: the code generated for a shape
# grows with its size times its depth, and Python cannot compile code
# nested 100 deep.
_MAX_NESTING, _MAX_KEY = 32, 512
# Shape key -> match function, for the whole process: a table per database
# would compile again for every program loaded.  A function depends on its
# key alone, so sharing it changes no answer; nothing is ever removed.
_SHAPES: dict[tuple, Callable] = {}


def _prepare(clause: Clause) -> tuple:
    """The match function of ``clause``'s shape and its constants, kept on
    the clause; ``_rename_match`` and the clause for a clause too big to
    compile."""
    shape = _shape(clause)
    if shape is None:
        match = (_rename_match, clause)
    else:
        key, constants = shape
        code = _SHAPES.get(key)
        if code is None:
            code = _SHAPES[key] = _compile(key)
        match = (code, constants)
    object.__setattr__(clause, "_match", match)
    return match


def _shape(clause: Clause) -> Optional[tuple[tuple, tuple]]:
    """``clause``'s shape key and constants in one linear pass, or None for
    a clause too big to compile (see ``_MAX_KEY``).  A fact whose arguments
    are all atomic takes its key and constants from its head."""
    head = clause.head
    if not clause.body and type(head) is Struct and len(head.args) < _MAX_KEY - 1:
        kinds = [_ATOMIC.get(type(a)) for a in head.args]
        if None not in kinds:
            return (head.name, -len(kinds), *kinds), head.args
    key: list = []
    constants: list = []
    numbers: dict[Var, int] = {}
    for t in (head, *clause.body):
        frames: list[list] = []  # [compound, next argument, key and constants lengths, holds a variable]
        while True:
            if type(t) is Struct:
                frames.append([t, 0, len(key), len(constants), t is head and not frames])
                key += (t.name, -len(t.args))
            elif type(t) is Var:
                if len(frames) > _MAX_NESTING:
                    return None
                key.append(numbers.setdefault(t, len(numbers)))
                if frames:
                    frames[-1][4] = True
            else:
                key.append(_ATOMIC[type(t)])
                constants.append(t)
            while frames:  # the next argument, closing the compounds it leaves
                frame = frames[-1]
                if frame[1] < len(frame[0].args):
                    t = frame[0].args[frame[1]]
                    frame[1] += 1
                    break
                frames.pop()
                if frame[4]:
                    if frames:
                        frames[-1][4] = True
                else:  # ground: one slot
                    del key[frame[2]:], constants[frame[3]:]
                    key.append(_GROUND)
                    constants.append(frame[0])
            else:
                break
    return (tuple(key), tuple(constants)) if len(key) <= _MAX_KEY else None


def _compile(key: tuple) -> Callable:
    """The match function of a shape: ``Store.unify_head`` for every clause
    of the shape, called with the clause's constants as ``k``.

    Each argument of a compound in the head is matched in the order
    ``Store.unify`` takes it: a variable's first occurrence names the call's
    term, a later one unifies; a slot binds the call's variable or compares;
    a compound reads the call's compound or builds itself for the call's
    variable.  Functor names are arguments of the generated code, never
    text in it; its locals are numbered (``v<n>`` for variable n).
    """
    pos, slots = 0, itertools.count()

    def term():  # ("v", n) | ("k", kind, slot) | ("f", name, args), from key[pos]
        nonlocal pos
        token = key[pos]
        pos += 1
        if type(token) is str:
            pos += 1
            return ("f", token, [term() for _ in range(-key[pos - 1])])
        return ("v", token) if type(token) is int else ("k", token, next(slots))

    terms = []
    while pos < len(key):
        terms.append(term())
    names: dict[str, int] = {}
    temps = itertools.count()
    mapped: set[int] = set()  # the variables that have a local
    lines = []

    def variables(t) -> set[int]:
        if t[0] == "f":
            return set().union(*map(variables, t[2]))
        return {t[1]} if t[0] == "v" else set()

    def build(t) -> str:
        if t[0] != "f":
            return f"v{t[1]}" if t[0] == "v" else f"k{t[2]}"
        n = names.setdefault(t[1], len(names))
        return f"Struct(n{n}, ({''.join(build(a) + ', ' for a in t[2])}))"

    def match(t, src: str, at: str) -> None:
        if t[0] == "v":
            v = f"v{t[1]}"
            if t[1] in mapped:
                lines.append(f"{at}if not store.unify({v}, {src}): return None")
                return
            mapped.add(t[1])
            lines.append(f"{at}while type({v}) is Var and (t := get({v})) is not None: {v} = t")
            return
        lines.append(f"{at}x = {src}")
        lines.append(f"{at}while type(x) is Var and (t := get(x)) is not None: x = t")
        if t[0] == "k":
            k = f"k{t[2]}"
            lines.append(f"{at}if type(x) is Var: bindings[x] = {k}")
            lines.append(f"{at}elif " + {
                _ATOM: f"x is not {k}",
                _INT: f"type(x) is not Int or x.value != {k}.value",
                _GROUND: f"not store.unify(x, {k})",
            }[t[1]] + ": return None")
            return
        inner = variables(t)
        lines.append(f"{at}if type(x) is Var:")
        lines.extend(f"{at} v{n} = fresh.var(base + {n})" for n in sorted(inner - mapped))
        if inner & mapped:  # the call's variable can be in the term only through these
            lines.append(f"{at} t = {build(t)}")
            lines.append(f"{at} if store._occurs(x, t): return None")
            lines.append(f"{at} bindings[x] = t")
        else:
            lines.append(f"{at} bindings[x] = {build(t)}")
        args = t[2]
        n = names.setdefault(t[1], len(names))
        lines.append(f"{at}elif type(x) is Struct and x.name == n{n} and len(x.args) == {len(args)}:")
        seen, targets = set(mapped), [""] * len(args)
        for i in reversed(range(len(args))):  # a first occurrence is read straight into its local
            a = args[i]
            targets[i] = f"v{a[1]}" if a[0] == "v" and a[1] not in seen else f"a{next(temps)}"
            seen |= variables(a)
        lines.append(f"{at} {''.join(x + ', ' for x in targets)}= x.args")
        for i in reversed(range(len(args))):
            match(args[i], targets[i], at + " ")
        lines.append(f"{at}else: return None")

    head, *body = terms
    count = len(set().union(*map(variables, terms)))
    match(head, "goal", "  ")
    if count:
        lines.append(f"  fresh.next_id = base + {count}")
    lines.extend(f"  v{n} = fresh.var(base + {n})" for n in range(count) if n not in mapped)
    lines.append(f"  return ({''.join(build(g) + ', ' for g in body)})")
    prologue = ["  bindings = store.bindings", "  get = bindings.get"]
    if count:
        prologue.append("  base = fresh.next_id")
    if next(slots):
        prologue.append(f"  {''.join(f'k{i}, ' for i in range(next(slots) - 1))}= k")
    source = "\n".join([
        f"def make(Var, Struct, Int, {''.join(f'n{i}, ' for i in range(len(names)))}):",
        " def match(store, goal, fresh, k):",
        *prologue,
        *lines,
        " return match",
    ])
    scope: dict = {}
    exec(compile(source, "<head match>", "exec"), scope)
    return scope["make"](Var, Struct, Int, *names)


def _rename_match(store: Store, goal: Term, fresh: FreshVars, clause: Clause) -> Optional[tuple]:
    """``Store.unify_head`` for a clause too big to compile: rename it
    apart, then unify its head with ``goal``, the clause's side first."""
    base = fresh.next_id
    renamed = rename_clause(clause, fresh)
    if store.unify(renamed.head, goal):
        return renamed.body
    fresh.next_id = base
    return None


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


def signature(goals: Iterable[Term]) -> tuple[set[Term], set[tuple[str, int]]]:
    """The atoms and integers, and the functor/arity pairs of compounds, in
    argument positions of heads and body goals, from one walk.

    A predicate symbol is neither; the functor of a nested compound is not
    a data constant.
    """
    constants: set[Term] = set()
    functors: set[tuple[str, int]] = set()
    for g in goals:
        todo = list(g.args) if type(g) is Struct else []
        while todo:
            x = todo.pop()
            if type(x) is Struct:
                functors.add((x.name, len(x.args)))
                todo.extend(x.args)
            elif type(x) is Atom or type(x) is Int:
                constants.add(x)
    return constants, functors
