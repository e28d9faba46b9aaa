"""The command line and the interactive session."""

import json
import os
import subprocess
import sys

import pytest

import skolog
from skolog.corpus import corpus_path

from util import run_cli

APPEND = str(corpus_path("append.pl"))
TWINS = str(corpus_path("twins.pl"))
COURSE = str(corpus_path("course.pl"))
ANSWERS_COUNTRY = str(corpus_path("answers_country.txt"))


# --- run ---------------------------------------------------------------------

def test_run_append_binding(tmp_path):
    r = run_cli(["run", APPEND, "--goal", "append([a,b],[c,d],Ls)."])
    assert r.code == 0
    assert r.out == "Ls = [a,b,c,d]\n"


def test_run_no_solution_exit_1():
    r = run_cli(["run", TWINS, "--goal", "not(twin(marsha,marjorie))."])
    assert r.code == 1
    assert r.out == "no\n"


def test_run_ground_success_prints_yes():
    r = run_cli(["run", TWINS, "--goal", "twin(marsha,marjorie)."])
    assert r.code == 0
    assert r.out == "yes\n"


def test_run_depth_exceeded_exit_3(tmp_path):
    f = tmp_path / "loop.pl"
    f.write_text("loop :- loop.\n")
    r = run_cli(["run", str(f), "--goal", "loop.", "--depth", "40"])
    assert r.code == 3
    assert r.out == "depth_exceeded\n"


def test_run_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.pl"
    f.write_text("p(a :- q.\n")
    r = run_cli(["run", str(f), "--goal", "p(X)."])
    assert r.code == 2
    assert "error" in r.err


def test_run_engine_error_exit_2():
    r = run_cli(["run", COURSE, "--goal", "plus(X, Y, 3)."])
    assert r.code == 2
    assert "plus" in r.err


def test_run_missing_file_exit_2():
    r = run_cli(["run", "/definitely/not/here.pl", "--goal", "p."])
    assert r.code == 2


def test_run_multiple_solutions_blank_line_separated():
    r = run_cli(["run", APPEND, "--goal", "append(X,Y,[a,b]).", "--max-solutions", "3"])
    assert r.code == 0
    blocks = r.out.strip().split("\n\n")
    assert len(blocks) == 3
    assert blocks[0] == "X = []\nY = [a,b]"
    assert blocks[2] == "X = [a,b]\nY = []"


def test_run_trace_flag():
    r = run_cli(["run", APPEND, "--goal", "append([a,b],[c,d],Ls).", "--trace"])
    lines = r.out.split("\n")
    assert lines[0].startswith("append([a,b],[c,d],Ls)\t")
    assert "true" in lines
    assert lines[-2] == "Ls = [a,b,c,d]"


def test_run_explain_flag():
    r = run_cli(["run", COURSE, "--goal", "duration(logic, D).", "--explain"])
    assert "D = 2" in r.out
    assert "BECAUSE" in r.out


def test_run_oracle_script():
    r = run_cli(
        [
            "run",
            TWINS,
            "--goal",
            "state(not_twin, marsha, marjorie).",
            "--oracle",
            ANSWERS_COUNTRY,
        ]
    )
    assert r.code == 0
    assert r.out == "yes\n"


def test_run_interactive_stdin_answers():
    r = run_cli(
        ["run", TWINS, "--goal", "state(not_twin, marsha, marjorie)."],
        stdin_text="egypt.\nusa.\n",
    )
    assert r.code == 0
    assert "country of person marsha is ?" in r.out
    assert r.out.endswith("yes\n")


def test_run_unanswered_scripted_question_exit_2(tmp_path):
    script = tmp_path / "empty.txt"
    script.write_text("# nothing\n")
    r = run_cli(
        ["run", TWINS, "--goal", "state(not_twin, marsha, marjorie).", "--oracle", str(script)]
    )
    assert r.code == 2
    assert "country of person marsha is ?" in r.err


def test_run_batch_determinism():
    argv = [
        "run",
        TWINS,
        "--goal",
        "state(not_twin, marsha, marjorie).",
        "--oracle",
        ANSWERS_COUNTRY,
        "--trace",
        "--explain",
    ]
    a, b = run_cli(argv), run_cli(argv)
    assert a.out == b.out and a.code == b.code


# --- json ---------------------------------------------------------------------

JSON_SCHEMA = {
    "type": "object",
    "required": ["status", "solutions", "trace"],
    "properties": {
        "status": {"enum": ["yes", "no", "error", "depth_exceeded"]},
        "solutions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["bindings", "proof"],
                "properties": {
                    "bindings": {"type": "array", "items": {"$ref": "#/$defs/binding"}},
                    "proof": {"$ref": "#/$defs/proof"},
                },
            },
        },
        "trace": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["goal", "bindings"],
                "properties": {
                    "goal": {"type": "string"},
                    "bindings": {"type": "array", "items": {"$ref": "#/$defs/binding"}},
                },
            },
        },
    },
    "$defs": {
        "binding": {
            "type": "object",
            "required": ["var", "term"],
            "properties": {"var": {"type": "string"}, "term": {"type": "string"}},
        },
        "proof": {
            "type": "object",
            "required": ["goal", "justification", "bindings", "children"],
            "properties": {
                "goal": {"type": "string"},
                "justification": {"type": "object", "required": ["kind"]},
                "bindings": {"type": "array", "items": {"$ref": "#/$defs/binding"}},
                "children": {"type": "array", "items": {"$ref": "#/$defs/proof"}},
            },
        },
    },
}


def _validate(payload):
    import jsonschema

    jsonschema.validate(payload, JSON_SCHEMA)


def test_json_output_validates_on_corpus_queries():
    cases = [
        (["run", APPEND, "--goal", "append([a,b],[c,d],Ls).", "--json"], 0, "yes"),
        (["run", APPEND, "--goal", "append(X,Y,[a,b]).", "--json", "--max-solutions", "3"], 0, "yes"),
        (["run", COURSE, "--goal", "duration(logic, D).", "--json"], 0, "yes"),
        (["run", TWINS, "--goal", "twin(marsha, mona).", "--json"], 1, "no"),
        (
            [
                "run",
                TWINS,
                "--goal",
                "state(not_twin, marsha, marjorie).",
                "--oracle",
                ANSWERS_COUNTRY,
                "--json",
            ],
            0,
            "yes",
        ),
    ]
    for argv, code, status in cases:
        r = run_cli(argv)
        assert r.code == code
        payload = json.loads(r.out)
        _validate(payload)
        assert payload["status"] == status


def test_json_depth_exceeded(tmp_path):
    f = tmp_path / "loop.pl"
    f.write_text("loop :- loop.\n")
    r = run_cli(["run", str(f), "--goal", "loop.", "--json", "--depth", "25"])
    assert r.code == 3
    payload = json.loads(r.out)
    _validate(payload)
    assert payload["status"] == "depth_exceeded"
    assert payload["solutions"] == []


def test_json_bindings_and_trace_content():
    r = run_cli(["run", APPEND, "--goal", "append([a],[b],Z).", "--json"])
    payload = json.loads(r.out)
    (sol,) = payload["solutions"]
    assert sol["bindings"] == [{"var": "Z", "term": "[a,b]"}]
    assert payload["trace"][-1]["goal"] == "true"
    assert payload["solutions"][0]["proof"]["justification"]["kind"] == "clause"


# --- semantics -----------------------------------------------------------------

def test_semantics_two_step_model(tmp_path):
    f = tmp_path / "m.pl"
    f.write_text("q(a). p(X) :- q(X).\n")
    r = run_cli(["semantics", str(f)])
    assert r.code == 0
    assert r.out == "p(a)\nq(a)\n"


def test_semantics_empty_program(tmp_path):
    f = tmp_path / "empty.pl"
    f.write_text("% nothing here\n")
    r = run_cli(["semantics", str(f)])
    assert r.code == 0
    assert r.out == ""


def test_semantics_not_definite(tmp_path):
    f = tmp_path / "n.pl"
    f.write_text("p :- not(q).\n")
    r = run_cli(["semantics", str(f)])
    assert r.code == 2
    assert "not_definite" in r.err


def test_semantics_functor_bound_note(tmp_path):
    f = tmp_path / "f.pl"
    f.write_text("p(a). p(f(X)) :- p(X).\n")
    r = run_cli(["semantics", str(f), "--bound", "1"])
    assert r.code == 0
    assert r.out == "p(a)\np(f(a))\n"
    assert "depth-approximate" in r.err


# --- repl ----------------------------------------------------------------------

def test_repl_query_yes_and_quit():
    r = run_cli(["repl", TWINS], stdin_text="twin(marsha, marjorie).\n\n:quit\n")
    assert r.code == 0
    assert "yes" in r.out


def test_repl_bindings_and_semicolon():
    r = run_cli(
        ["repl", APPEND],
        stdin_text="append(X,Y,[a,b]).\n;\n;\n;\n:quit\n",
    )
    assert r.out.count("X = ") == 3
    assert "no" in r.out, "after the last solution, backtracking reports no"


def test_repl_how_after_query():
    r = run_cli(
        ["repl", COURSE],
        stdin_text="duration(logic, D).\n\nhow.\n:quit\n",
    )
    assert "BECAUSE" in r.out


def test_repl_how_without_success():
    r = run_cli(["repl"], stdin_text="how.\n:quit\n")
    assert "no proof available" in r.out


def test_repl_why_outside_question():
    r = run_cli(["repl"], stdin_text="why.\n:quit\n")
    assert "no question pending" in r.out


def test_repl_assert_retract_listing():
    r = run_cli(
        ["repl"],
        stdin_text=(
            "assert(p(a)).\n"
            "assert(p(b)).\n"
            "listing.\n"
            "retract(p(a)).\n"
            "listing.\n"
            ":quit\n"
        ),
    )
    assert r.out.count("p(a).") == 1, "listed once, gone after retract"
    assert r.out.count("p(b).") == 2


def test_repl_parse_error_recovers():
    r = run_cli(["repl"], stdin_text="p(a.\nassert(q(x)).\nq(W).\n\n:quit\n")
    assert "parse error" in r.out
    assert "W = x" in r.out


def test_repl_engine_error_recovers():
    r = run_cli(["repl"], stdin_text="plus(X, Y, 3).\nassert(q(x)).\n:quit\n")
    assert "error" in r.out
    assert r.code == 0


def test_repl_negate_flow():
    r = run_cli(
        ["repl", COURSE],
        stdin_text="negate enrolled(X, logic).\nfresh_student.\nlisting.\n:quit\n",
    )
    assert "skolem of person enrolled is ?" in r.out
    assert "s(neg(enrolled),fresh_student,logic)." in r.out


def test_repl_question_why_then_answer(tmp_path):
    f = tmp_path / "ask.pl"
    f.write_text("nice(P) :- ask(likes, P, icecream).\n")
    r = run_cli(
        ["repl", str(f)],
        stdin_text="nice(peter).\nwhy.\nyes.\n\n:quit\n",
    )
    assert "trying to prove nice(peter) using nice(P) :- ask(likes,P,icecream)." in r.out
    assert "to answer your query nice(peter)" in r.out
    assert r.out.count("likes of person peter is icecream ?") == 2


def test_repl_reset_clears_known(tmp_path):
    f = tmp_path / "ask.pl"
    f.write_text("nice(P) :- ask(likes, P, icecream).\n")
    r = run_cli(
        ["repl", str(f)],
        stdin_text=(
            "nice(peter).\nyes.\n\n"
            "listing.\n"
            ":reset\n"
            "listing.\n"
            ":quit\n"
        ),
    )
    assert r.out.count("known(yes,likes,peter,icecream).") == 1


def test_repl_trace_toggle():
    traced = run_cli(
        ["repl", APPEND], stdin_text=":trace on\nappend([a],[b],Z).\n\n:quit\n"
    )
    plain = run_cli(["repl", APPEND], stdin_text="append([a],[b],Z).\n\n:quit\n")
    assert "append([],[b]," in traced.out, "live rows show the recursive call"
    assert "append([],[b]," not in plain.out


def test_repl_eof_is_clean_exit():
    r = run_cli(["repl"], stdin_text="")
    assert r.code == 0


def test_repl_unknown_colon_command():
    r = run_cli(["repl"], stdin_text=":frobnicate\n:quit\n")
    assert "unknown command" in r.out


def test_repl_oracle_script_answers_questions(tmp_path):
    f = tmp_path / "ask.pl"
    f.write_text("nice(P) :- ask(likes, P, icecream).\n")
    script = tmp_path / "s.txt"
    script.write_text("ask likes peter icecream -> yes\n")
    r = run_cli(
        ["repl", str(f), "--oracle", str(script)],
        stdin_text="nice(peter).\n\n:quit\n",
    )
    assert "yes" in r.out


def test_run_deep_left_recursion_exits_3(tmp_path):
    # in a subprocess: an interpreter crash fails this test, not the run
    f = tmp_path / "loop.pl"
    f.write_text("loop :- loop.\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolog.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for depth in ([], ["--depth", "100000"]):
        r = subprocess.run(
            [sys.executable, "-m", "skolog.cli", "run", str(f), "--goal", "loop.", *depth],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (r.returncode, r.stdout) == (3, "depth_exceeded\n"), r.stderr


# Terms and proofs nested past the interpreter's default recursion limit

def _nested(depth):
    return "s(" * depth + "zero" + ")" * depth


def test_run_answers_a_deeply_nested_query(tmp_path):
    f = tmp_path / "nat.pl"
    f.write_text("nat(zero).\nnat(s(N)) :- nat(N).\n")
    r = run_cli(["run", str(f), "--goal", f"nat({_nested(3000)})."])
    assert (r.code, r.out) == (0, "yes\n")
    r = run_cli(["run", str(f), "--goal", f"X = {_nested(3000)}."])
    assert (r.code, r.out) == (0, f"X = {_nested(3000)}\n")


def test_run_renders_a_deep_proof(tmp_path):
    # a 1501-deep proof of small goals: trace, HOW and JSON
    f = tmp_path / "count.pl"
    f.write_text("cnt(0).\ncnt(N) :- plus(M, 1, N), cnt(M).\n")
    r = run_cli(["run", str(f), "--goal", "cnt(1500).", "--trace", "--explain"])
    assert r.code == 0, r.err
    lines = r.out.splitlines()
    assert lines[:2] == ["cnt(1500)", "cnt(1499)"]
    assert lines.count("yes") == 1
    assert lines[-1] == "  " * 1500 + "cnt(0) is a fact"
    r = run_cli(["run", str(f), "--goal", "cnt(1500).", "--json"])
    assert r.code == 0, r.err
    assert r.out.count('"goal": "cnt(') == 1501 + 1501  # proof nodes, trace entries
    assert "\n" + "  " * 3004 + '"goal": "cnt(0)",\n' in r.out


def test_json_text_matches_json_dumps():
    from skolog.explain import json_text

    for value in (
        {"status": "no", "solutions": [], "trace": []},
        {"a": [1, {"b": [], "c": {}}, "d\u00e9\"\n"], "e": None, "f": True, "g": -3},
        [],
        "x",
        [[[]], [{"k": [0]}]],
    ):
        assert json_text(value) == json.dumps(value, indent=2)


def test_repl_survives_deep_terms(tmp_path):
    f = tmp_path / "nat.pl"
    f.write_text("nat(zero).\nnat(s(N)) :- nat(N).\n")
    deep = _nested(2000)
    r = run_cli(
        ["repl", str(f)],
        stdin_text=f"nat({deep}).\n\nhow.\nassert(p({deep})).\nretract(p(X)).\n:quit\n",
    )
    assert r.code == 0
    assert r.out.count("yes") == 3
    assert r.out.count(" BECAUSE nat(s(N)) :- nat(N) WITH ") == 2000


def test_repl_reports_a_term_too_deep_to_compare(tmp_path):
    # comparing two deep terms for equality still recurses; the session
    # reports it and goes on
    f = tmp_path / "memo.pl"
    f.write_text(f"known(yes, colour, sky, {_nested(5000)}).\n")
    r = run_cli(
        ["repl", str(f)],
        stdin_text=f"ask(colour, sky, {_nested(5000)}).\nknown(R, colour, sky, _).\n:quit\n",
    )
    assert r.code == 0
    assert "error: a term is nested too deeply to handle" in r.out
    assert "R = yes" in r.out
