"""The ask/known protocol: prompts, memoization, scripts, WHY."""

import io

import pytest

from skolog import (
    Atom,
    Database,
    EngineError,
    InteractiveOracle,
    Question,
    QueuedOracle,
    ScriptedOracle,
    SolveOptions,
    Solver,
    Struct,
    UnansweredQuestionError,
    Var,
    format_term,
    load_program,
    parse_query,
    prompt_for,
    reset_known,
    solve,
)
from skolog.errors import OracleScriptError
from skolog.oracle import NO, YES, NO_VALUE, UserSaidJust, ask, ask_value, value_answer
from skolog.terms import is_ground

from util import stored_clauses


def known_facts(db):
    return [sc.clause.head for sc in db.clauses(("known", 4))]


def test_prompt_formats_are_exact():
    assert prompt_for(Question("likes", "peter", Atom("icecream"))) == (
        "likes of person peter is icecream ?"
    )
    assert prompt_for(Question("country", "marsha", None)) == (
        "country of person marsha is ?"
    )


def test_ask_fresh_yes_stores_and_succeeds():
    db = Database()
    orc = QueuedOracle([YES])
    res = ask(db, "country", "marsha", Atom("egypt"), orc)
    assert res.succeeded and res.source == "fresh"
    assert known_facts(db) == [
        Struct("known", (Atom("yes"), Atom("country"), Atom("marsha"), Atom("egypt")))
    ]


def test_ask_memo_hit_no_oracle_contact():
    db = Database()
    orc = QueuedOracle([YES])
    ask(db, "country", "marsha", Atom("egypt"), orc)
    res = ask(db, "country", "marsha", Atom("egypt"), orc)
    assert res.succeeded and res.source == "memo"
    assert len(orc.asked) == 1
    assert len(known_facts(db)) == 1


def test_ask_stored_no_fails_without_contact():
    db = Database()
    ask(db, "country", "marsha", Atom("egypt"), QueuedOracle([NO]))
    orc = QueuedOracle([])
    res = ask(db, "country", "marsha", Atom("egypt"), orc)
    assert not res.succeeded and res.source == "memo"
    assert orc.asked == []


def test_ask_result_cites_the_memo_fact_or_the_users_answer():
    db = Database()
    q = Question("country", "marsha", Atom("egypt"))
    fresh = ask(db, "country", "marsha", Atom("egypt"), QueuedOracle([YES]))
    assert fresh.just == UserSaidJust(q, YES)
    memo = ask(db, "country", "marsha", Atom("egypt"), QueuedOracle([]))
    assert memo.just is db.clauses(("known", 4))[0]
    v = value_answer(Atom("egypt"))
    fresh = ask_value(db, "home", "marsha", QueuedOracle([v]))
    assert fresh.just == UserSaidJust(Question("home", "marsha"), v)
    memo = ask_value(db, "home", "marsha", QueuedOracle([]))
    assert memo.just is db.clauses(("known", 4))[0] and memo.value == Atom("egypt")


def test_ask_distinct_values_are_distinct_questions():
    db = Database()
    orc = QueuedOracle([NO, YES])
    assert not ask(db, "country", "marsha", Atom("france"), orc).succeeded
    assert ask(db, "country", "marsha", Atom("egypt"), orc).succeeded
    assert len(known_facts(db)) == 2


def test_new_known_facts_go_to_the_front():
    db = Database()
    ask(db, "a1", "p", Atom("v1"), QueuedOracle([YES]))
    ask(db, "a2", "p", Atom("v2"), QueuedOracle([YES]))
    heads = known_facts(db)
    assert heads[0].args[1] == Atom("a2"), "most recent answer first"


def test_ask_value_binds_and_stores_yes():
    db = Database()
    res = ask_value(db, "country", "marsha", QueuedOracle([value_answer(Atom("egypt"))]))
    assert res.succeeded and res.value == Atom("egypt")
    assert known_facts(db) == [
        Struct("known", (Atom("yes"), Atom("country"), Atom("marsha"), Atom("egypt")))
    ]


def test_ask_value_memo_returns_first_in_db_order():
    db = Database()
    load_program(
        db,
        "known(yes, country, marsha, egypt). known(yes, country, marsha, spain).",
    )
    res = ask_value(db, "country", "marsha", QueuedOracle([]))
    assert res.succeeded and res.value == Atom("egypt")


def test_ask_value_refusal_stores_no_value_marker():
    db = Database()
    orc = QueuedOracle([NO])
    res = ask_value(db, "country", "marsha", orc)
    assert not res.succeeded
    assert known_facts(db) == [
        Struct("known", (Atom("no"), Atom("country"), Atom("marsha"), NO_VALUE))
    ]
    # and the refusal is remembered
    orc2 = QueuedOracle([value_answer(Atom("x"))])
    res2 = ask_value(db, "country", "marsha", orc2)
    assert not res2.succeeded and orc2.asked == []


def test_reset_known_clears_only_known():
    db = Database()
    load_program(db, "person(marsha).")
    ask(db, "country", "marsha", Atom("egypt"), QueuedOracle([YES]))
    reset_known(db)
    assert known_facts(db) == []
    assert len(db.clauses(("person", 1))) == 1
    # oracle is consulted again after a reset
    orc = QueuedOracle([YES])
    ask(db, "country", "marsha", Atom("egypt"), orc)
    assert len(orc.asked) == 1


def test_reset_known_on_clean_db_is_identity():
    db = Database()
    load_program(db, "p(a).")
    before = stored_clauses(db)
    reset_known(db)
    assert stored_clauses(db) == before


X = Var("X")


@pytest.mark.parametrize("reply", [X, Struct("f", (X,))], ids=["var", "compound"])
def test_a_reply_that_is_not_ground_is_refused_before_anything_is_stored(reply):
    db = Database()
    with pytest.raises(EngineError) as e:
        ask_value(db, "color", "bob", QueuedOracle([value_answer(reply)]))
    assert str(e.value) == f'reply {format_term(reply)} to "color of person bob is ?" is not ground'
    with pytest.raises(EngineError) as e:
        ask(db, "color", "bob", Atom("red"), QueuedOracle([value_answer(reply)]))
    assert str(e.value) == f'reply {format_term(reply)} to "color of person bob is red ?" is not ground'
    assert known_facts(db) == []


@pytest.mark.parametrize("stored", ["X", "f(X)"])
def test_a_known_fact_with_a_variable_is_not_a_memo_answer(stored):
    db = Database()
    load_program(db, f"known(yes, color, bob, {stored}). known(X, color, bob, red).")
    orc = QueuedOracle([value_answer(Atom("blue")), YES])
    res = ask_value(db, "color", "bob", orc)
    assert res.source == "fresh" and res.value == Atom("blue") and is_ground(res.value)
    res = ask(db, "color", "bob", Atom("red"), orc)
    assert res.source == "fresh" and res.succeeded
    assert len(orc.asked) == 2


def test_a_known_fact_with_a_variable_leaks_nothing_into_an_answer():
    db = Database()
    load_program(db, "known(yes, color, bob, X).")
    out = solve(db, parse_query("ask_value(color, bob, V), X = red."), oracle=QueuedOracle([value_answer(Atom("blue"))]))
    assert out.solutions[0].bindings == {Var("V"): Atom("blue"), Var("X"): Atom("red")}


def test_a_quoted_no_refuses_a_value():
    db = Database()
    res = ask_value(db, "country", "marsha", InteractiveOracle(io.StringIO("'no'.\n"), io.StringIO()))
    assert not res.succeeded
    assert known_facts(db) == [Struct("known", (NO, Atom("country"), Atom("marsha"), NO_VALUE))]


# --- scripted oracle -------------------------------------------------------------

def test_scripted_oracle_matches_in_order():
    orc = ScriptedOracle(
        "# comment\n"
        "ask likes peter icecream -> yes\n"
        "askv country marsha -> egypt\n"
    )
    a1 = orc.answer(Question("likes", "peter", Atom("icecream")), None)
    assert a1 == YES
    a2 = orc.answer(Question("country", "marsha", None), None)
    assert a2 == value_answer(Atom("egypt"))


def test_scripted_oracle_entry_consumed_once():
    orc = ScriptedOracle("ask a p v -> yes\n")
    orc.answer(Question("a", "p", Atom("v")), None)
    with pytest.raises(UnansweredQuestionError):
        orc.answer(Question("a", "p", Atom("v")), None)


def test_scripted_oracle_unmatched_names_the_prompt():
    orc = ScriptedOracle("ask a p v -> yes\n")
    with pytest.raises(UnansweredQuestionError) as e:
        orc.answer(Question("other", "p", Atom("v")), None)
    assert "other of person p is v ?" in str(e.value)


def test_scripted_oracle_skips_used_entries_and_the_other_kind():
    orc = ScriptedOracle("askv a p -> x\nask a p v -> no\nask a p v -> yes\n")
    assert orc.answer(Question("a", "p", Atom("v")), None) == NO
    assert orc.answer(Question("a", "p", Atom("v")), None) == YES
    assert orc.answer(Question("a", "p", None), None) == value_answer(Atom("x"))
    # a compound value must equal the entry's, argument for argument
    orc = ScriptedOracle("ask colour sky f(a) -> yes\n")
    with pytest.raises(UnansweredQuestionError):
        orc.answer(Question("colour", "sky", Struct("f", (Atom("b"),))), None)
    assert orc.answer(Question("colour", "sky", Struct("f", (Atom("a"),))), None) == YES


def test_queued_oracle_with_no_answer_left_names_the_prompt():
    orc = QueuedOracle([])
    with pytest.raises(UnansweredQuestionError) as e:
        orc.answer(Question("a", "p", Atom("v")), None)
    assert str(e.value) == "no answer queued for: a of person p is v ?"
    assert orc.asked == [Question("a", "p", Atom("v"))]


def test_scripted_oracle_refusing_value():
    orc = ScriptedOracle("askv country marsha -> no\n")
    assert orc.answer(Question("country", "marsha", None), None) == NO


def test_script_parse_error_diagnostics():
    with pytest.raises(OracleScriptError):
        ScriptedOracle("ask too few -> yes\n")
    with pytest.raises(OracleScriptError):
        ScriptedOracle("nonsense line\n")
    with pytest.raises(OracleScriptError):
        ScriptedOracle("ask a p v -> maybe\n")


@pytest.mark.parametrize("script, message", [
    ("-> yes\n", "empty question"),
    ("askv a -> b\n", "askv needs attribute, subject"),
    ("tell a b -> c\n", "unknown entry kind 'tell'"),
], ids=["empty", "askv-arity", "kind"])
def test_script_error_names_the_line(script, message):
    with pytest.raises(OracleScriptError) as e:
        ScriptedOracle(script)
    assert str(e.value) == f"script line 1: {message}"


@pytest.mark.parametrize(
    "script", ["# values\naskv a t -> \u00b2\n", "# values\nask a t \u00b2 -> yes\n"]
)
def test_script_value_parse_error_names_the_script_line(script):
    with pytest.raises(OracleScriptError) as e:
        ScriptedOracle(script)
    assert str(e.value) == "script line 2: 1:1: illegal character '\u00b2' (expected token)"


# --- interactive oracle -----------------------------------------------------------

def test_interactive_oracle_parses_answers():
    stdin = io.StringIO("yes.\nno\negypt.\nf(x).\n")
    out = io.StringIO()
    orc = InteractiveOracle(stdin, out)
    q_yn = Question("a", "p", Atom("v"))
    q_val = Question("a", "p", None)
    assert orc.answer(q_yn, None) == YES
    assert orc.answer(q_yn, None) == NO
    assert orc.answer(q_val, None) == value_answer(Atom("egypt"))
    assert orc.answer(q_val, None) == value_answer(Struct("f", (Atom("x"),)))
    assert out.getvalue().count("a of person p is") == 4


def test_interactive_oracle_reprompts_on_noise():
    stdin = io.StringIO("???\n²\nyes.\n")
    out = io.StringIO()
    orc = InteractiveOracle(stdin, out)
    assert orc.answer(Question("a", "p", Atom("v")), None) == YES
    assert out.getvalue().count("a of person p is v ?") == 3


def test_interactive_oracle_reprompts_on_a_blank_reply():
    # an empty line and a lone period say nothing; the question is put again
    stdin = io.StringIO("\n  .\nyes.\n")
    out = io.StringIO()
    orc = InteractiveOracle(stdin, out)
    assert orc.answer(Question("a", "p", Atom("v")), None) == YES
    assert out.getvalue() == "a of person p is v ?\n" * 3


def test_interactive_oracle_eof_raises():
    orc = InteractiveOracle(io.StringIO(""), io.StringIO())
    with pytest.raises(UnansweredQuestionError):
        orc.answer(Question("a", "p", Atom("v")), None)


def test_why_answer_does_not_consume_question():
    stdin = io.StringIO("why.\nwhy.\nyes.\n")
    out = io.StringIO()
    orc = InteractiveOracle(stdin, out)
    from skolog.oracle import WhyContext

    ctx = WhyContext((), (Atom("root"),))
    ans = orc.answer(Question("a", "p", Atom("v")), lambda: ctx)
    assert ans == YES
    prompt, text = "a of person p is v ?\n", "to answer your query root\n"
    assert out.getvalue() == (prompt + text) * 2 + prompt, "why twice, both shown, question re-asked"


# --- through the engine ------------------------------------------------------------

def test_engine_ask_routes_unbound_value_to_ask_value():
    db = Database()
    load_program(db, "home(P, X) :- ask(country, P, X).")
    orc = ScriptedOracle("askv country ann -> egypt\n")
    out = solve(db, parse_query("home(ann, C)."), SolveOptions(), oracle=orc)
    assert out.status == "yes"
    assert out.solutions[0].bindings[Var("C")] == Atom("egypt")


def test_why_text_goes_to_the_oracle_stream_beside_its_prompt():
    db = Database()
    load_program(db, "nice(P) :- ask(likes, P, icecream).")
    solver_out, oracle_out = io.StringIO(), io.StringIO()
    orc = InteractiveOracle(io.StringIO("why.\nyes.\n"), oracle_out)
    out = Solver(db, SolveOptions(), orc, out=solver_out).run(parse_query("nice(peter)."))
    assert out.status == "yes"
    prompt = "likes of person peter is icecream ?\n"
    chain = (
        "trying to prove nice(peter) using nice(P) :- ask(likes,P,icecream).\n"
        "to answer your query nice(peter)\n"
    )
    assert oracle_out.getvalue() == prompt + chain + prompt
    assert solver_out.getvalue() == ""


def test_engine_ask_without_oracle_is_error():
    db = Database()
    load_program(db, "nice(P) :- ask(likes, P, icecream).")
    with pytest.raises(EngineError):
        solve(db, parse_query("nice(peter)."), SolveOptions(), oracle=None)


def test_engine_memo_survives_backtracking():
    db = Database()
    load_program(
        db,
        "person(marsha). person(marjorie)."
        " liked(P) :- person(P), ask(likes, P, tea).",
    )
    orc = ScriptedOracle("ask likes marsha tea -> no\nask likes marjorie tea -> yes\n")
    out = solve(db, parse_query("liked(P)."), SolveOptions(max_solutions=None), oracle=orc)
    assert [s.bindings[Var("P")] for s in out.solutions] == [Atom("marjorie")]
    assert len(known_facts(db)) == 2


def test_answer_text_rendering():
    # a reply is a term, and prints as one
    assert format_term(YES) == "yes"
    assert format_term(NO) == "no"
    assert format_term(value_answer(Atom("egypt"))) == "egypt"
