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
a generated ``sk_<k>`` is used instead.  Only ``negate_fact`` picks a
witness: the package exports no freshness test of its own, and tests
queue an oracle's proposals with the queued oracle of ``tests/util.py``.

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


def _witness(
    db_constants: set,
    predicate: str,
    oracle: Optional[Oracle],
    ledger: FreshnessLedger,
    diag: Optional[TextIO],
    why_supplier: Optional[Callable],
) -> Atom:
    """A fresh constant for one variable of a negated ``predicate`` fact,
    recorded in the ledger.  Fresh means: not a constant of the database
    and not issued before.  The oracle, if any, proposes up to
    _MAX_PROPOSALS names (``no`` stops it); then the smallest free sk_<k>
    is taken."""
    question = Question("skolem", predicate, None)
    proposals = _MAX_PROPOSALS if oracle is not None else 0
    k = 0
    while True:
        if proposals:
            proposals -= 1
            c = consult(oracle, question, why_supplier)
            if c == NO:
                proposals = 0
                continue
            if not isinstance(c, Atom):
                if diag is not None:
                    diag.write("skolem constant must be a new atom\n")
                continue
        else:
            k += 1
            c = Atom(f"sk_{k}")
        if c not in db_constants and c not in ledger:
            ledger.add(c)
            return c
        if not k and diag is not None:  # a proposal, refused
            diag.write(f"constant_occurs_in_kb: {format_term(c)} is not fresh\n")


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
    if ledger is None:
        ledger = FreshnessLedger()

    # nothing is stored until the s-fact is, so the database's constants
    # stay as read here for the whole call
    db_constants = constants_of(db)
    mapping: Subst = {
        v: _witness(db_constants, name, oracle, ledger, diag, why_supplier) for v in variables_of(head)
    }
    stored = s_term(apply(mapping, head))
    sc = db.assertz(Clause(head=stored), kind=KIND_S_FACT)
    return NegatedFact(
        skolem_constants=tuple(mapping.values()),
        retained_terms=tuple(a for a in getattr(head, "args", ()) if is_ground(a)),
        stored=stored,
        stored_clause=sc,
    )


def s_term(goal: Term) -> Struct:
    """The stored form s(neg(p), a1..ak) of the callable p(a1..ak)."""
    return Struct("s", (Struct("neg", (Atom(goal.name),)),) + getattr(goal, "args", ()))


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
    probe = s_term(goal)
    for sc in db.clauses(("s", len(probe.args)), probe.args):
        if sc.clause.body:
            continue
        if Store().unify(probe, sc.clause.head):
            return sc
    return None
