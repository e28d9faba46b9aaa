"""Negating facts by storing them, not by failing to prove them.

not/1 can say no, but it cannot justify the no: a failed search leaves no
proof.  The transform here makes falsehood a positive citizen.  To negate
a fact ``p(x1..xn, t1..tm)`` (universally quantified variables xi, ground
terms tj), read it as the existential claim "some instances are invalid",
instantiate each variable with a constant naming an arbitrary witness,
and store

    s(neg(p), c1..cn, t1..tm)

with the original argument positions preserved.  The witness constants
must be fresh: a constant already in the database (or already issued this
session) would smuggle in knowledge about a known individual.  The oracle
may propose a name; proposals that fail the freshness check are refused
with a ``constant_occurs_in_kb`` note and re-asked up to three times, then
a generated ``sk_<k>`` is used instead.

Queries reach the stored negatives only through the ``holds_negated/1``
builtin, which ``find_s_fact`` implements; there is no automatic bridge
between p and s(neg(p), ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TextIO

from .database import Database, StoredClause, constants_of, KIND_S_FACT
from .errors import InstantiationError, NotAFactError
from .oracle import NO, Oracle, Question, consult
from .parser import format_term
from .terms import (
    Atom,
    Clause,
    Store,
    Struct,
    Subst,
    Term,
    apply,
    indicator_of,
    is_ground,
    variables_of,
)

# Oracle proposals allowed before falling back to a generated constant:
# the first ask plus up to three re-asks after freshness failures.
_MAX_PROPOSALS = 4


# Constants issued this session, so two negations never share a witness
# even before the first one is stored.
FreshnessLedger = set


@dataclass(frozen=True)
class NegatedFact:
    skolem_constants: tuple[Atom, ...]
    retained_terms: tuple[Term, ...]
    stored: Term
    stored_clause: StoredClause


def fresh_constant(db: Database, candidate: Optional[Atom], ledger: FreshnessLedger) -> Atom:
    """The candidate if it is fresh, else the next free generated sk_<k>.

    Fresh means: not a constant of the database and not issued before.
    The returned atom is recorded in the ledger.
    """
    return _fresh_constant(constants_of(db), candidate, ledger)


def _fresh_constant(db_constants: set, candidate: Optional[Atom], ledger: FreshnessLedger) -> Atom:
    c = candidate
    if not isinstance(c, Atom) or c in db_constants or c in ledger:
        k = 1
        while (c := Atom(f"sk_{k}")) in db_constants or c in ledger:
            k += 1
    ledger.add(c)
    return c


def _obtain_constant(
    db_constants: set,
    predicate: str,
    oracle: Optional[Oracle],
    ledger: FreshnessLedger,
    diag: Optional[TextIO],
    why_supplier: Optional[Callable],
) -> Atom:
    if oracle is not None:
        question = Question("skolem", predicate, None)
        for _ in range(_MAX_PROPOSALS):
            reply = consult(oracle, question, why_supplier)
            if reply == NO:
                break
            if isinstance(reply, Atom):
                if reply not in db_constants and reply not in ledger:
                    ledger.add(reply)
                    return reply
                if diag is not None:
                    diag.write(f"constant_occurs_in_kb: {format_term(reply)} is not fresh\n")
                continue
            if diag is not None:
                diag.write("skolem constant must be a new atom\n")
    return _fresh_constant(db_constants, None, ledger)


def negate_fact(
    db: Database,
    fact: Clause,
    oracle: Optional[Oracle] = None,
    ledger: Optional[FreshnessLedger] = None,
    diag: Optional[TextIO] = None,
    why_supplier: Optional[Callable] = None,
) -> NegatedFact:
    """Add the stored negative of ``fact`` to the database.

    Adds exactly one clause and modifies none; the source predicate's own
    clauses are untouched.  Raises NotAFactError for a clause with a body.
    """
    if fact.body:
        raise NotAFactError(f"cannot negate a rule: {format_term(fact.head)} has a body")
    head = fact.head
    name, _ = indicator_of(head)
    args = head.args if hasattr(head, "args") else ()
    if ledger is None:
        ledger = FreshnessLedger()

    # nothing is stored until the s-fact is, so the database's constants
    # stay as read here for the whole call
    db_constants = constants_of(db)
    mapping: Subst = {}
    constants: list[Atom] = []
    for v in variables_of(head):
        c = _obtain_constant(db_constants, name, oracle, ledger, diag, why_supplier)
        mapping[v] = c
        constants.append(c)

    skolemized = tuple(apply(mapping, a) for a in args)
    stored = s_term(name, skolemized)
    sc = db.assertz(Clause(head=stored), kind=KIND_S_FACT)
    retained = tuple(a for a in args if is_ground(a))
    return NegatedFact(
        skolem_constants=tuple(constants),
        retained_terms=retained,
        stored=stored,
        stored_clause=sc,
    )


def s_term(predicate: str, args: tuple[Term, ...]) -> Term:
    """The stored form s(neg(p), args...) for predicate name p."""
    return Struct("s", (Struct("neg", (Atom(predicate),)),) + args)


def find_s_fact(db: Database, goal: Term) -> Optional[StoredClause]:
    """The first stored s-fact matching ``goal`` read negatively, or None:
    the ``holds_negated/1`` builtin, whose argument must be ground.

    For a goal p(a1..ak) the probe is s(neg(p), a1..ak); only empty-body
    s/(k+1) clauses are considered.
    """
    if not isinstance(goal, (Atom, Struct)):
        raise InstantiationError(f"holds_negated/1 needs a callable argument: holds_negated({format_term(goal)})")
    if not is_ground(goal):
        raise InstantiationError(f"holds_negated/1 needs a ground argument: holds_negated({format_term(goal)})")
    name, arity = indicator_of(goal)
    args = goal.args if hasattr(goal, "args") else ()
    probe = s_term(name, tuple(args))
    for sc in db.clauses(("s", arity + 1), probe.args):
        if sc.clause.body:
            continue
        if Store().unify(probe, sc.clause.head):
            return sc
    return None
