"""Proof trees, derived traces, HOW and WHY rendering, JSON forms."""

import io
import json

from skolog import (
    Atom,
    Database,
    ScriptedOracle,
    SolveOptions,
    Solver,
    Struct,
    Var,
    format_trace,
    how,
    load_program,
    parse_query,
    solve,
    trace_of,
    why,
)
from skolog.explain import (
    TraceEntry,
    format_trace_entry,
    proof_to_json,
    trace_to_json,
)
from skolog.negation import negate_fact
from skolog.oracle import WhyContext
from skolog.parser import parse_clause_text

from util import variant_equal, variant_equal_seq


def first_proof(db_text, query, oracle=None, **opt):
    db = Database()
    load_program(db, db_text)
    out = solve(db, parse_query(query), SolveOptions(**opt), oracle=oracle)
    assert out.status == "yes", f"expected success for {query}"
    return out.solutions[0].proof


APPEND = "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs)."


def test_trace_of_append_reduction_table():
    proof = first_proof(APPEND, "append([a,b],[c,d],Ls).")
    entries = trace_of(proof)
    assert len(entries) == 4
    goals = [format_trace_entry(e).split("\t")[0] for e in entries]
    assert goals[0] == "append([a,b],[c,d],Ls)"
    assert goals[3] == "true"
    # rows 2 and 3 mention the renamed tail variables
    assert goals[1].startswith("append([b],[c,d],")
    assert goals[2].startswith("append([],[c,d],")
    assert entries[3] == TraceEntry(Atom("true"), {})


def test_trace_bindings_restricted_to_goal_variables():
    proof = first_proof(APPEND, "append([a,b],[c,d],Ls).")
    from skolog.terms import variables_of

    for entry in trace_of(proof):
        goal_vars = set(variables_of(entry.goal))
        for v in entry.bindings:
            assert v in goal_vars


def test_trace_of_bare_fact():
    entries = trace_of(first_proof("likes(jack, sarah).", "likes(jack, sarah)."))
    assert len(entries) == 2
    assert format_trace_entry(entries[0]) == "likes(jack,sarah)"
    assert entries[1].goal == Atom("true")


def test_trace_conjunction_left_before_right():
    db = Database()
    load_program(db, "p(a). q(a).")
    out = solve(db, parse_query("p(X), q(X)."), SolveOptions())
    entries = trace_of(out.solutions[0].proof)
    text = [format_trace_entry(e) for e in entries]
    assert text[0].startswith("p(")
    assert text[1].startswith("q(")


def test_format_trace_tab_separated():
    proof = first_proof(APPEND, "append([a],[b],Zs).")
    lines = format_trace(trace_of(proof)).split("\n")
    assert lines[0].startswith("append([a],[b],Zs)\t")
    assert lines[-1] == "true"


def test_how_fact_single_line():
    proof = first_proof("likes(jack, sarah).", "likes(jack, sarah).")
    assert how(proof) == "likes(jack,sarah) is a fact"


def test_how_rule_because_with():
    proof = first_proof("p(X) :- q(X). q(a).", "p(a).")
    text = how(proof)
    lines = text.split("\n")
    assert lines[0] == "p(a) BECAUSE p(X) :- q(X) WITH {}"
    assert lines[1] == "  q(a) is a fact"


def test_how_shows_bindings_of_entry_goal():
    proof = first_proof("p(f(X)) :- q(X). q(a).", "p(W).")
    assert how(proof).split("\n")[0] == "p(f(a)) BECAUSE p(f(X)) :- q(X) WITH {W = f(_G1)}"


def test_how_user_said_leaf():
    db = Database()
    load_program(db, "nice(P) :- ask(likes, P, icecream).")
    orc = ScriptedOracle("ask likes peter icecream -> yes\n")
    out = solve(db, parse_query("nice(peter)."), SolveOptions(), oracle=orc)
    text = how(out.solutions[0].proof)
    assert 'user said yes to "likes of person peter is icecream ?"' in text


def test_how_memoized_answer_cites_known_fact():
    db = Database()
    load_program(
        db, "nice(P) :- ask(likes, P, icecream). known(yes, likes, peter, icecream)."
    )
    out = solve(db, parse_query("nice(peter)."), SolveOptions())
    text = how(out.solutions[0].proof)
    assert "known(yes,likes,peter,icecream)" in text


def test_how_s_fact_leaf():
    db = Database()
    negate_fact(db, parse_clause_text("p(X)."))
    out = solve(db, parse_query("holds_negated(p(sk_1))."), SolveOptions())
    text = how(out.solutions[0].proof)
    assert "s(neg(p),sk_1)" in text
    assert "negated" in text


def test_how_deterministic_bytes():
    p1 = first_proof(APPEND, "append([a,b],[c,d],Ls).")
    p2 = first_proof(APPEND, "append([a,b],[c,d],Ls).")
    assert how(p1) == how(p2)
    assert format_trace(trace_of(p1)) == format_trace(trace_of(p2))


def _frame(goal, clause_text, sc_id):
    from skolog import StoredClause
    from skolog.database import KIND_STATIC

    return goal, StoredClause(sc_id, KIND_STATIC, parse_clause_text(clause_text))


def test_why_renders_innermost_first():
    frames = (
        _frame(Struct("state", (Atom("a"),)), "state(X) :- country(X).", 1),
        _frame(Struct("country", (Atom("a"),)), "country(X) :- ask(c, X, v).", 2),
    )
    ctx = WhyContext(frames, (Struct("state", (Atom("a"),)),))
    text = why(ctx)
    lines = text.split("\n")
    assert lines[0] == "trying to prove country(a) using country(X) :- ask(c,X,v)."
    assert lines[1] == "trying to prove state(a) using state(X) :- country(X)."
    assert lines[2] == "to answer your query state(a)"


def test_why_idempotent():
    ctx = WhyContext(
        (_frame(Struct("p", (Atom("a"),)), "p(X) :- q(X).", 1),),
        (Struct("p", (Atom("a"),)),),
    )
    assert why(ctx) == why(ctx)


def test_why_during_engine_question():
    db = Database()
    load_program(
        db,
        "state(not_twin, A) :- country(X, A)."
        " country(X, P) :- ask_value(country, P, X).",
    )
    contexts = []

    class Peeking(ScriptedOracle):
        def answer(self, question, why_supplier):
            if why_supplier is not None:
                contexts.append(why_supplier())
            return super().answer(question, why_supplier)

    orc = Peeking("askv country marsha -> egypt\n")
    out = solve(db, parse_query("state(not_twin, marsha)."), SolveOptions(), oracle=orc)
    assert out.status == "yes"
    (ctx,) = contexts
    text = why(ctx)
    assert "trying to prove country(" in text
    assert "trying to prove state(not_twin,marsha)" in text
    assert text.strip().endswith("to answer your query state(not_twin,marsha)")


def test_proof_replay_soundness():
    # every clause-justified node's children match its clause body
    from skolog.database import StoredClause
    from util import reference_unify

    db = Database()
    load_program(db, APPEND)
    out = solve(db, parse_query("append(X, Y, [a,b,c])."), SolveOptions(max_solutions=None))

    def check(node):
        just = node.justification
        if isinstance(just, StoredClause):
            stored = just.clause
            assert reference_unify(node.goal, stored.head) is not None
            assert len(node.children) == len(stored.body)
        for child in node.children:
            check(child)

    for sol in out.solutions:
        check(sol.proof)


def test_proof_to_json_shape():
    proof = first_proof("p(X) :- q(X). q(a).", "p(a).")
    data = proof_to_json(proof)
    assert set(data) == {"goal", "justification", "bindings", "children"}
    assert data["goal"] == "p(a)"
    assert data["justification"]["kind"] == "clause"
    assert isinstance(data["children"], list)
    json.dumps(data)  # serializable


def test_trace_to_json_shape():
    proof = first_proof(APPEND, "append([a],[b],Zs).")
    data = trace_to_json(trace_of(proof))
    assert all(set(e) == {"goal", "bindings"} for e in data)
    assert data[-1]["goal"] == "true"
    json.dumps(data)


def _why_lines_at_question(program, goal, script):
    """The lines of the WHY text at each question the engine puts."""
    db = Database()
    load_program(db, program)
    contexts = []

    class Peeking(ScriptedOracle):
        def answer(self, question, why_supplier):
            contexts.append(why_supplier())
            return super().answer(question, why_supplier)

    solve(db, parse_query(goal), SolveOptions(max_solutions=1), oracle=Peeking(script))
    return [why(ctx).split("\n") for ctx in contexts]


def test_why_lists_only_open_ancestors():
    # b, proved before c was called, serves no pending question
    (lines,) = _why_lines_at_question(
        "a :- b, c. b :- d. d. c :- ask(likes, peter, icecream).", "a.",
        "ask likes peter icecream -> yes\n",
    )
    assert lines == [
        "trying to prove c using c :- ask(likes,peter,icecream).",
        "trying to prove a using a :- b, c.",
        "to answer your query a",
    ]


def test_why_after_a_finished_sibling_lists_the_open_clauses():
    # q's subproof is finished when the question comes up inside mid
    (lines,) = _why_lines_at_question(
        "top :- mid. mid :- q, ask(likes, peter, icecream). q.", "top.",
        "ask likes peter icecream -> yes\n",
    )
    assert lines == [
        "trying to prove mid using mid :- q, ask(likes,peter,icecream).",
        "trying to prove top using top :- mid.",
        "to answer your query top",
    ]


def test_why_in_the_twins_case_skips_finished_subproofs():
    from skolog.corpus import corpus_text

    (_, lines) = _why_lines_at_question(
        corpus_text("twins.pl"), "state(not_twin, marsha, marjorie).",
        "askv country marsha -> smith\naskv country marjorie -> jones\n",
    )
    assert len(lines) == 4
    assert lines[0].startswith("trying to prove country(_G")
    assert lines[0].endswith(",marjorie) using country(X,P) :- ask_value(country,P,X).")
    assert lines[1].startswith(
        "trying to prove person(marjorie,father1,mother1,month1,year1,country(_G"
    )
    assert lines[2].startswith("trying to prove state(not_twin,marsha,marjorie) using state(")
    assert lines[3] == "to answer your query state(not_twin,marsha,marjorie)"
