"""Fact negation by skolemization: freshness, stored form, the query bridge."""

import io
import random

import pytest

from skolog import (
    Atom,
    Clause,
    Database,
    FreshnessLedger,
    InstantiationError,
    Int,
    InteractiveOracle,
    NotAFactError,
    QueuedOracle,
    SolveOptions,
    Struct,
    Var,
    constants_of,
    format_term,
    fresh_constant,
    load_program,
    negate_fact,
    parse_clause_text,
    parse_query,
    parse_term_text,
    solve,
)
from skolog.database import KIND_S_FACT
from skolog.negation import find_s_fact
from skolog.oracle import NO, value_answer


def test_fresh_constant_accepts_fresh_candidate():
    db = Database()
    load_program(db, "likes(X, apple).")
    ledger = FreshnessLedger()
    c = fresh_constant(db, Atom("stranger"), ledger)
    assert c == Atom("stranger")
    assert Atom("stranger") in ledger


def test_fresh_constant_rejects_db_constant():
    db = Database()
    load_program(db, "person(marsha, father1, mother1, month1, year1).")
    assert fresh_constant(db, Atom("marsha"), FreshnessLedger()) == Atom("sk_1")


def test_fresh_constant_none_candidate_gensyms():
    assert fresh_constant(Database(), None, FreshnessLedger()) == Atom("sk_1")


def test_fresh_constant_smallest_free_index():
    db = Database()
    load_program(db, "p(sk_1). p(sk_3).")
    ledger = FreshnessLedger()
    assert fresh_constant(db, None, ledger) == Atom("sk_2")
    assert fresh_constant(db, None, ledger) == Atom("sk_4")


def test_fresh_constant_never_repeats_within_session():
    db = Database()
    ledger = FreshnessLedger()
    a = fresh_constant(db, None, ledger)
    b = fresh_constant(db, None, ledger)
    assert a != b


def test_negate_ground_fact_keeps_terms():
    db = Database()
    load_program(db, "likes(jack, apple).")
    nf = negate_fact(db, parse_clause_text("likes(jack, apple)."))
    assert nf.stored == parse_term_text("s(neg(likes), jack, apple)")
    assert nf.skolem_constants == ()
    assert nf.retained_terms == (Atom("jack"), Atom("apple"))
    assert nf.stored_clause.kind == KIND_S_FACT


def test_negate_with_variable_uses_oracle_proposal():
    db = Database()
    load_program(db, "likes(X, apple).")
    orc = QueuedOracle([value_answer(Atom("stranger"))])
    nf = negate_fact(db, parse_clause_text("likes(X, apple)."), oracle=orc)
    assert nf.stored == parse_term_text("s(neg(likes), stranger, apple)")
    assert nf.skolem_constants == (Atom("stranger"),)


def test_negate_reads_the_database_constants_once(monkeypatch):
    import skolog.negation

    db = Database()
    load_program(db, "takes(ann, logic).")
    calls = []
    real = skolog.negation.constants_of
    monkeypatch.setattr(skolog.negation, "constants_of", lambda d: calls.append(d) or real(d))
    orc = QueuedOracle([value_answer(Atom(c)) for c in ("ann", "zed", "yan")])
    nf = negate_fact(db, parse_clause_text("takes(X, Y)."), oracle=orc, diag=io.StringIO())
    assert nf.skolem_constants == (Atom("zed"), Atom("yan"))
    assert len(calls) == 1


def test_negate_rejected_proposal_reprompts_then_accepts():
    db = Database()
    load_program(db, "likes(X, apple).")
    diag = io.StringIO()
    orc = QueuedOracle([value_answer(Atom("apple")), value_answer(Atom("sk_9"))])
    nf = negate_fact(db, parse_clause_text("likes(X, apple)."), oracle=orc, diag=diag)
    assert nf.skolem_constants == (Atom("sk_9"),)
    assert "constant_occurs_in_kb" in diag.getvalue()
    assert "apple" in diag.getvalue()


def test_negate_non_atom_proposals_are_refused():
    db = Database()
    diag = io.StringIO()
    proposals = [parse_term_text("f(x)"), Int(3), Atom("w")]
    orc = QueuedOracle([value_answer(t) for t in proposals])
    nf = negate_fact(db, parse_clause_text("q(X)."), oracle=orc, diag=diag)
    assert diag.getvalue() == "skolem constant must be a new atom\n" * 2
    assert format_term(nf.stored) == "s(neg(q),w)"


def test_a_proposed_yes_is_checked_for_freshness_like_any_atom():
    # yes typed at the prompt is a proposed name like any other
    db = Database()
    load_program(db, "said(yes).")
    diag = io.StringIO()
    orc = InteractiveOracle(io.StringIO("yes.\nno.\n"), io.StringIO())
    nf = negate_fact(db, parse_clause_text("likes(X, apple)."), oracle=orc, diag=diag)
    assert diag.getvalue() == "constant_occurs_in_kb: yes is not fresh\n"
    assert nf.skolem_constants == (Atom("sk_1"),)
    orc = InteractiveOracle(io.StringIO("yes.\n"), io.StringIO())
    nf = negate_fact(Database(), parse_clause_text("likes(X, apple)."), oracle=orc)
    assert nf.skolem_constants == (Atom("yes"),)


def test_negate_exhausted_proposals_fall_back_to_gensym():
    db = Database()
    load_program(db, "likes(X, apple).")
    bad = value_answer(Atom("apple"))
    orc = QueuedOracle([bad, bad, bad, bad])
    nf = negate_fact(db, parse_clause_text("likes(X, apple)."), oracle=orc, diag=io.StringIO())
    assert nf.skolem_constants == (Atom("sk_1"),)
    assert orc.queue == [], "all four proposals were consumed"


def test_negate_oracle_refusal_goes_straight_to_gensym():
    db = Database()
    load_program(db, "likes(X, apple).")
    orc = QueuedOracle([NO])
    nf = negate_fact(db, parse_clause_text("likes(X, apple)."), oracle=orc)
    assert nf.skolem_constants == (Atom("sk_1"),)


def test_negate_without_oracle_gensyms():
    db = Database()
    load_program(db, "p(X, Y).")
    nf = negate_fact(db, parse_clause_text("p(X, Y)."))
    assert nf.stored == parse_term_text("s(neg(p), sk_1, sk_2)")


def test_negate_repeated_variable_gets_one_constant():
    db = Database()
    nf = negate_fact(db, parse_clause_text("eq(X, X)."))
    assert nf.stored == parse_term_text("s(neg(eq), sk_1, sk_1)")
    assert nf.skolem_constants == (Atom("sk_1"),)


def test_negate_variable_inside_structure():
    db = Database()
    nf = negate_fact(db, parse_clause_text("p(f(X), a)."))
    assert nf.stored == parse_term_text("s(neg(p), f(sk_1), a)")


def test_negate_rule_is_rejected():
    db = Database()
    with pytest.raises(NotAFactError):
        negate_fact(db, parse_clause_text("p(X) :- q(X)."))


def test_negate_zero_arity_fact():
    db = Database()
    nf = negate_fact(db, parse_clause_text("raining."))
    assert nf.stored == parse_term_text("s(neg(raining))")


def test_two_negations_never_share_witnesses():
    db = Database()
    ledger = FreshnessLedger()
    nf1 = negate_fact(db, parse_clause_text("p(X)."), ledger=ledger)
    nf2 = negate_fact(db, parse_clause_text("q(X)."), ledger=ledger)
    assert set(nf1.skolem_constants).isdisjoint(nf2.skolem_constants)


def test_second_negation_sees_first_skolem_in_db():
    # even with separate ledgers, the stored s-fact makes sk_1 a db constant
    db = Database()
    negate_fact(db, parse_clause_text("p(X)."), ledger=FreshnessLedger())
    nf2 = negate_fact(db, parse_clause_text("q(X)."), ledger=FreshnessLedger())
    assert nf2.skolem_constants == (Atom("sk_2"),)


def test_negation_reads_the_constants_the_store_holds_now():
    # a constant asserted between two negations is skipped; once retracted,
    # it is fresh again for a negation that has not issued it
    db = Database()
    ledger = FreshnessLedger()
    assert negate_fact(db, parse_clause_text("p(X)."), ledger=ledger).skolem_constants == (Atom("sk_1"),)
    db.assertz(parse_clause_text("q(sk_2)."))
    assert negate_fact(db, parse_clause_text("p(X)."), ledger=ledger).skolem_constants == (Atom("sk_3"),)
    assert db.retract(parse_clause_text("q(sk_2).")) == {}
    nf = negate_fact(db, parse_clause_text("r(X)."), ledger=FreshnessLedger())
    assert nf.skolem_constants == (Atom("sk_2"),)


def test_holds_negated_requires_ground_goal():
    db = Database()
    negate_fact(db, parse_clause_text("p(X)."))
    assert find_s_fact(db, parse_term_text("p(sk_1)")) is not None
    with pytest.raises(InstantiationError):
        find_s_fact(db, parse_term_text("p(Y)"))
    assert find_s_fact(db, parse_term_text("p(other)")) is None


def test_holds_negated_via_engine_with_proof():
    db = Database()
    load_program(db, "q(b).")
    negate_fact(db, parse_clause_text("p(X)."))
    out = solve(db, parse_query("holds_negated(p(sk_1))."), SolveOptions())
    assert out.status == "yes"
    (sol,) = out.solutions
    assert sol.proof.justification.kind == KIND_S_FACT
    assert out.solutions[0].proof is not None


def test_holds_negated_ignores_s_rules():
    db = Database()
    load_program(db, "s(neg(p), a) :- r.")
    assert solve(db, parse_query("holds_negated(p(a))."), SolveOptions()).status == "no"


def test_engine_not_does_not_see_s_facts():
    # no automatic bridge: not(p(c)) keeps negation-as-failure semantics
    db = Database()
    load_program(db, "p(a).")
    negate_fact(db, parse_clause_text("p(X)."))
    assert solve(db, parse_query("not(p(sk_1))."), SolveOptions()).status == "yes"
    assert solve(db, parse_query("p(sk_1)."), SolveOptions()).status == "no"


def _random_program(rng):
    preds = ["p", "q", "r"]
    consts = ["a", "b", "c", "d"]
    lines = []
    for _ in range(rng.randint(1, 5)):
        pred = rng.choice(preds)
        arity = rng.randint(1, 3)
        args = ", ".join(rng.choice(consts) for _ in range(arity))
        lines.append(f"{pred}({args}).")
    return "\n".join(lines)


def test_negation_freshness_and_conservativity_property():
    rng = random.Random(42)
    for _ in range(60):
        db = Database()
        load_program(db, _random_program(rng))
        before = constants_of(db)
        count_before = db.clause_count()
        arity = rng.randint(1, 3)
        n_vars = rng.randint(1, arity)
        args = [Var(f"V{i}") if i < n_vars else Atom(rng.choice("ab")) for i in range(arity)]
        fact = Clause(head=Struct("p", tuple(args)))
        nf = negate_fact(db, fact)
        for c in nf.skolem_constants:
            assert c not in before, "issued constant was fresh at issue time"
        assert db.clause_count() == count_before + 1
        assert len(nf.stored.args) == arity + 1, "arity n+m+1 including neg(p)"
