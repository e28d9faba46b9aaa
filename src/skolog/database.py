"""Ordered clause store with runtime assertion and retraction.

Clauses live in per-predicate lists; query resolution tries them in list
order.  ``clauses`` hands out an immutable snapshot, so an in-flight
solve keeps the view it started with even while asserta/assertz/retract
rearrange the lists (logical update view).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .parser import parse_program
from .terms import (
    Clause,
    FreshVars,
    Store,
    Subst,
    Term,
    goal_constants,
    indicator_of,
    rename_clause,
)

PredIndicator = tuple[str, int]

KNOWN = ("known", 4)

# Provenance of a stored clause; proof nodes cite it.
KIND_STATIC = "static"      # consulted from program text
KIND_DYNAMIC = "dynamic"    # asserted at runtime
KIND_S_FACT = "s_fact"      # added by the fact-negation transform


@dataclass(frozen=True)
class StoredClause:
    id: int
    kind: str
    clause: Clause


class Database:
    def __init__(self):
        self._preds: dict[PredIndicator, list[StoredClause]] = {}
        self._next_id = 1
        self._fresh = FreshVars(prefix="_R")

    def _store(self, clause: Clause, kind: str) -> StoredClause:
        sc = StoredClause(self._next_id, kind, clause)
        self._next_id += 1
        return sc

    def asserta(self, clause: Clause, kind: str = KIND_DYNAMIC) -> StoredClause:
        sc = self._store(clause, kind)
        self._preds.setdefault(indicator_of(clause.head), []).insert(0, sc)
        return sc

    def assertz(self, clause: Clause, kind: str = KIND_DYNAMIC) -> StoredClause:
        sc = self._store(clause, kind)
        self._preds.setdefault(indicator_of(clause.head), []).append(sc)
        return sc

    # assert/1 is assertz; "assert" itself is a Python keyword.
    assert_ = assertz

    def retract(self, pattern: Clause) -> Optional[Subst]:
        """Remove the first clause whose head AND body unify with the
        pattern, and return the unifier: each variable it binds, of the
        pattern or of the clause renamed apart, to its resolved value.  A
        bare fact pattern only matches clauses with an empty body."""
        bucket = self._preds.get(indicator_of(pattern.head), [])
        store = Store()
        for i, sc in enumerate(bucket):
            if len(sc.clause.body) != len(pattern.body):
                continue
            candidate = rename_clause(sc.clause, self._fresh)
            pairs = zip((pattern.head, *pattern.body), (candidate.head, *candidate.body))
            if all(store.unify(a, b) for a, b in pairs):
                del bucket[i]
                res = store.resolver()
                return {v: res.resolve(v) for v in store.trail}
            store.undo(0)
        return None

    def clauses(self, ind: PredIndicator) -> tuple[StoredClause, ...]:
        """Snapshot of a predicate's clauses in resolution order."""
        return tuple(self._preds.get(ind, ()))

    def predicates(self) -> list[PredIndicator]:
        return [ind for ind, bucket in self._preds.items() if bucket]

    def all_stored(self) -> list[StoredClause]:
        out: list[StoredClause] = []
        for ind in self.predicates():
            out.extend(self._preds[ind])
        return out

    def clear_predicate(self, ind: PredIndicator) -> int:
        bucket = self._preds.get(ind, [])
        n = len(bucket)
        self._preds[ind] = []
        return n

    def clause_count(self) -> int:
        return sum(len(b) for b in self._preds.values())

    def copy(self) -> "Database":
        out = Database()
        out._preds = {ind: list(bucket) for ind, bucket in self._preds.items()}
        out._next_id = self._next_id
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._content() == other._content()

    def _content(self) -> dict:
        return {
            ind: [(sc.kind, sc.clause) for sc in bucket]
            for ind, bucket in self._preds.items()
            if bucket
        }

    def __repr__(self) -> str:
        return f"<Database {self.clause_count()} clauses, {len(self.predicates())} predicates>"


def constants_of(db: Database) -> set[Term]:
    """Every atom and integer in an argument position of any stored clause.

    Predicate and functor names do not count; known/4 facts and s-facts do.
    """
    return goal_constants(g for sc in db.all_stored() for g in (sc.clause.head, *sc.clause.body))


def load_program(db: Database, text: str, kind: str = KIND_STATIC) -> list[StoredClause]:
    """Parse program text and append its clauses in source order."""
    return [db.assertz(c, kind=kind) for c in parse_program(text)]


def load_clauses(db: Database, clauses: Iterable[Clause], kind: str = KIND_STATIC) -> list[StoredClause]:
    return [db.assertz(c, kind=kind) for c in clauses]
