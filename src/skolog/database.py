"""Ordered clause store with runtime assertion and retraction.

Clauses live in per-predicate lists; query resolution tries them in list
order.  ``clauses`` hands out an immutable snapshot, so an in-flight
solve keeps the view it started with even while asserta/assertz/retract
rearrange the lists (logical update view).

A call skips the clauses that an index on one of its bound arguments
rules out (first-argument indexing, Warren 1983, on every argument
position).  The first call that binds a position builds that position's
index, and every later write keeps it up to date (demand-driven indexing:
Santos Costa, Sagonas & Lopes, ICLP 2007).  A call that binds several
positions gets the shortest of their lists, the leftmost on a tie.  A
clause is keyed by its own argument at the position: it goes on that
key's list only, or on every list when its argument there is a variable.
So every list keeps stored order and holds every clause that can match,
and whichever list a call gets, it tries the same matching clauses.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from .parser import parse_program
from .terms import (
    Atom,
    Clause,
    FreshVars,
    Int,
    Store,
    Subst,
    Struct,
    Term,
    indicator_of,
    signature,
    variables_in,
)

PredIndicator = tuple[str, int]

# Provenance of a stored clause, by the name that HOW and JSON give it.
KIND_STATIC = "clause"  # consulted from program text
KIND_DYNAMIC = "asserted_fact"  # asserted, or acquired by ask, at run time
KIND_S_FACT = "s_fact"  # added by the fact-negation transform


@dataclass(frozen=True)
class StoredClause:
    id: int
    kind: str
    clause: Clause


def _key(t: Optional[Term]) -> object:
    """An argument's index key: an atom's name, an integer's value, a
    compound's (name, arity); None for a variable (or no argument)."""
    if type(t) is Atom:
        return t.name
    if type(t) is Int:
        return t.value
    if type(t) is Struct:
        return (t.name, len(t.args))
    return None


def _lists(index: tuple[dict, list], pos: int, c: Clause) -> tuple[list, ...]:
    """The lists of one argument position's index that hold ``c``, or are
    to hold it: a new key gets its list here."""
    keyed, common = index
    key = _key(c.head.args[pos])
    if key is None:
        return (common, *keyed.values())
    items = keyed.get(key)
    if items is None:
        items = keyed[key] = common.copy()
    return (items,)


def _drop(items: list, sc: StoredClause) -> None:
    del items[next(i for i, x in enumerate(items) if x is sc)]


class Database:
    def __init__(self):
        self._preds: dict[PredIndicator, list[StoredClause]] = {}
        # argument indexes, built on demand: per predicate and argument
        # position, the candidate list of each key a clause has there, and
        # the list of the clauses that every key's list holds
        self._index: defaultdict[PredIndicator, dict[int, tuple[dict, list]]] = defaultdict(dict)
        self._next_id = 1
        self._fresh = FreshVars(prefix="_R")

    def _index_lists(self, ind: PredIndicator, sc: StoredClause) -> list[list]:
        """The lists of every built index of the predicate that hold ``sc``,
        or are to hold it."""
        return [
            items
            for pos, index in self._index.get(ind, {}).items()
            for items in _lists(index, pos, sc.clause)
        ]

    def _add(self, clause: Clause, kind: str, front: bool) -> StoredClause:
        """Store ``clause`` under the next id, first or last in its
        predicate's list and in every built index list that holds it."""
        sc = StoredClause(self._next_id, kind, clause)
        self._next_id += 1
        ind = indicator_of(clause.head)
        lists = [self._preds.setdefault(ind, [])]
        if ind in self._index:
            lists += self._index_lists(ind, sc)
        for items in lists:
            items.insert(0 if front else len(items), sc)
        return sc

    def asserta(self, clause: Clause) -> StoredClause:
        return self._add(clause, KIND_DYNAMIC, front=True)

    def assertz(self, clause: Clause, kind: str = KIND_DYNAMIC) -> StoredClause:
        return self._add(clause, kind, front=False)

    def retract(self, pattern: Clause) -> Optional[Subst]:
        """Remove the first clause whose head AND body unify with the
        pattern, and return the bindings of the pattern's own variables in
        first-occurrence order, each resolved.  A bare fact pattern only
        matches clauses with an empty body.  The head is matched as a call
        matches it (``Store.unify_head``), making an ``_R<n>`` variable for
        a clause variable only where the match needs one; the pattern's
        body goals then unify, in order, with the body built under it."""
        ind, head = indicator_of(pattern.head), pattern.head
        store = Store()
        for sc in self.clauses(ind, head.args if type(head) is Struct else ()):
            if len(sc.clause.body) != len(pattern.body):
                continue
            body = store.unify_head(head, sc.clause, self._fresh)
            if body is not None and all(map(store.unify, pattern.body, body)):
                for items in (self._preds[ind], *self._index_lists(ind, sc)):
                    _drop(items, sc)
                res = store.resolver()
                return {v: res.resolve(v) for v in variables_in((head, *pattern.body)) if v in store.bindings}
            store.undo(0)
        return None

    def clauses(self, ind: PredIndicator, args: Iterable[Optional[Term]] = ()) -> tuple[StoredClause, ...]:
        """Snapshot of a predicate's clauses in resolution order.  Given a
        call's dereferenced arguments ``args``, only those that the index
        of one bound position keeps for its key: every clause that can
        match (see the module docstring).  Of the bound positions' lists
        it takes the shortest, the leftmost on a tie.

        ``args`` is read lazily and only as far as needed: reading stops
        at a list of at most one clause.
        """
        best = None
        for pos, arg in enumerate(args):
            key = _key(arg)
            if key is None:
                continue
            positions = self._index[ind]
            index = positions.get(pos)
            if index is None:
                index = positions[pos] = ({}, [])
                for sc in self._preds.get(ind, ()):
                    for items in _lists(index, pos, sc.clause):
                        items.append(sc)
            keyed, common = index
            items = keyed.get(key, common)
            if best is None or len(items) < len(best):
                best = items
                if len(best) <= 1:
                    break
        return tuple(self._preds.get(ind, ()) if best is None else best)

    def defines(self, ind: PredIndicator) -> bool:
        """Whether the predicate has any clause."""
        return bool(self._preds.get(ind))

    def predicates(self) -> list[PredIndicator]:
        return [ind for ind, bucket in self._preds.items() if bucket]

    def all_stored(self) -> list[StoredClause]:
        out: list[StoredClause] = []
        for ind in self.predicates():
            out.extend(self._preds[ind])
        return out

    def clear_predicate(self, ind: PredIndicator) -> int:
        bucket = self._preds.get(ind, [])
        self._preds[ind] = []
        self._index.pop(ind, None)
        return len(bucket)

    def clause_count(self) -> int:
        return sum(len(b) for b in self._preds.values())

    def __repr__(self) -> str:
        return f"<Database {self.clause_count()} clauses, {len(self.predicates())} predicates>"


def constants_of(db: Database) -> set[Term]:
    """Every atom and integer in an argument position of any stored clause.

    Predicate and functor names do not count; known/4 facts and s-facts do.
    Each call scans every stored clause.
    """
    return signature(g for sc in db.all_stored() for g in (sc.clause.head, *sc.clause.body))[0]


def load_program(db: Database, text: str) -> list[StoredClause]:
    """Parse program text and append its clauses in source order."""
    return load_clauses(db, parse_program(text))


def load_clauses(db: Database, clauses: Iterable[Clause]) -> list[StoredClause]:
    return [db.assertz(c, kind=KIND_STATIC) for c in clauses]
