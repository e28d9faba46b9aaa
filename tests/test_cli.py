"""The command line and the interactive session."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import skolog
from skolog.corpus import corpus_path

from util import run_cli

APPEND = str(corpus_path("append.pl"))
TWINS = str(corpus_path("twins.pl"))
COURSE = str(corpus_path("course.pl"))
ANSWERS_COUNTRY = str(corpus_path("answers_country.txt"))
ROOT = Path(__file__).resolve().parent.parent


# --- run ---------------------------------------------------------------------

def test_run_append_binding(tmp_path):
    r = run_cli(["run", APPEND, "--goal", "append([a,b],[c,d],Ls)."])
    assert r.code == 0
    assert r.out == "Ls = [a,b,c,d]\n"


def test_readme_quick_start_transcript(monkeypatch):
    # the paper's transcript, _G numbering included, as README.md shows it
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("$ skolog run "))
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("```"))
    argv = shlex.split(lines[start][len("$ skolog "):])
    monkeypatch.chdir(ROOT)
    r = run_cli(argv)
    assert r.code == 0
    assert r.out == "".join(line + "\n" for line in lines[start + 1:end])


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


@pytest.mark.parametrize(
    "program, goal, script",
    [
        ("p(a).\n", "p(Ⓐ).", None),
        ("p(Ⓐ).\n", "p(X).", None),
        ("p(a).\n", "p(X).", "askv a s -> ²\n"),
    ],
)
def test_run_unreadable_text_exits_2(tmp_path, program, goal, script):
    # in a subprocess with a short timeout: a reader that hangs (and keeps
    # allocating) fails this test instead of stalling the run
    f = tmp_path / "p.pl"
    f.write_text(program, encoding="utf-8")
    argv = ["run", str(f), "--goal", goal]
    if script is not None:
        (tmp_path / "s.txt").write_text(script, encoding="utf-8")
        argv += ["--oracle", str(tmp_path / "s.txt")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolog.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="1")
    r = subprocess.run(
        [sys.executable, "-m", "skolog.cli", *argv],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=10,
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr, r.stderr


def test_run_engine_error_exit_2():
    r = run_cli(["run", COURSE, "--goal", "plus(X, Y, 3)."])
    assert r.code == 2
    assert "plus" in r.err


@pytest.mark.parametrize("goal, message", [
    ("ask(X, p, v).", "ask attribute and subject must be atoms: ask(X,p,v)"),
    ("ask(a, p, f(X)).", "ask value must be ground or a variable: ask(a,p,f(X))"),
    ("assert(1).", "cannot assert: assert(1)"),
    ("retract(X).", "cannot retract: retract(X)"),
    ("holds_negated(X).", "holds_negated/1 needs a callable argument: holds_negated(X)"),
    ("holds_negated(1).", "holds_negated/1 needs a callable argument: holds_negated(1)"),
    ("holds_negated(p(X)).", "holds_negated/1 needs a ground argument: holds_negated(p(X))"),
    # not/1's argument is selected like any goal, so it gets a body goal's message
    ("not(1).", "integer is not a callable goal: 1"),
    ("not(X).", "goal is an unbound variable: X"),
])
def test_run_builtin_misuse_is_an_error(goal, message):
    r = run_cli(["run", APPEND, "--goal", goal])
    assert (r.code, r.out, r.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("goal, code, out, err", [
    # q(Y) and r(Y) hold for Y = b but not for Y = a: neither yes nor no is sound
    ("q(Y).", 2, "", "error: not/1 needs a ground argument: not(p(_G1))\n"),
    ("r(Y).", 2, "", "error: \\=/2 needs ground arguments: _G1 \\= a\n"),
    ("q(b).", 0, "yes\n", ""),
    ("r(b).", 0, "yes\n", ""),
])
def test_run_not_and_not_unify_need_ground_arguments(tmp_path, goal, code, out, err):
    f = tmp_path / "neg.pl"
    f.write_text("p(a). q(X) :- not(p(X)). r(X) :- X \\= a.\n")
    r = run_cli(["run", str(f), "--goal", goal])
    assert (r.code, r.out, r.err) == (code, out, err)


def test_run_missing_file_exit_2():
    r = run_cli(["run", "/definitely/not/here.pl", "--goal", "p."])
    assert r.code == 2


@pytest.mark.parametrize("command", ["run", "semantics", "repl", "oracle"])
def test_a_file_that_is_not_utf8_is_an_error(tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p(a).\n\xff\n")
    good = tmp_path / "good.pl"
    good.write_text("p(a).\n")
    argv = {
        "run": ["run", str(bad), "--goal", "p(X)."],
        "semantics": ["semantics", str(bad)],
        "repl": ["repl", str(bad)],
        "oracle": ["run", str(good), "--goal", "p(X).", "--oracle", str(bad)],
    }[command]
    r = run_cli(argv, stdin_text=":quit\n")
    assert r.code == 2
    assert r.err.startswith(f"error: {bad}: not UTF-8") and "Traceback" not in r.err, r.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["semantics", APPEND, "--bound", "-1"], "--bound"),
        (["run", APPEND, "--goal", "append(X, Y, [a]).", "--max-solutions", "0"], "--max-solutions"),
        (["run", APPEND, "--goal", "append(X, Y, [a]).", "--max-solutions", "-3"], "--max-solutions"),
        (["run", APPEND, "--goal", "append(X, Y, [a]).", "--depth", "-1"], "--depth"),
        (["repl", APPEND, "--depth", "-1"], "--depth"),
    ],
    ids=["bound", "max-solutions-0", "max-solutions-negative", "run-depth", "repl-depth"],
)
def test_numeric_flag_out_of_range_is_an_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as e:
        run_cli(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err and "Traceback" not in err


def test_depth_zero_is_allowed():
    r = run_cli(["run", APPEND, "--goal", "append(X, Y, [a]).", "--depth", "0"])
    assert (r.code, r.out) == (3, "depth_exceeded\n")


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


def test_run_explain_cites_an_asserted_fact_sharing_the_query_variable(tmp_path):
    # the stored p(X) holds the query's own X, which p(f(X)) does not unify
    # with; it is still an instance of the fact, not a fact about it
    f = tmp_path / "e.pl"
    f.write_text("e(0).\n")
    r = run_cli(["run", str(f), "--goal", "assert(p(X)), p(f(X)).", "--explain"])
    assert r.code == 0
    assert r.out.splitlines()[1:] == ["assert(p(X)) by builtin assertz", "p(f(X)) is a fact"]


def test_run_consult_parse_error_names_the_file_first(tmp_path):
    f = tmp_path / "u.pl"
    f.write_text("q(a).\nq(\u24b6).\n", encoding="utf-8")
    r = run_cli(["run", str(f), "--goal", "q(X)."])
    assert r.code == 2
    assert r.err == f"error: {f}:2:3: illegal character '\u24b6' (expected token)\n"


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
        "justification": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["clause", "asserted_fact", "s_fact", "user_said", "builtin"]},
            },
            "allOf": [
                {
                    "if": {"properties": {"kind": {"enum": ["clause", "asserted_fact", "s_fact"]}}},
                    "then": {
                        "required": ["id", "clause"],
                        "properties": {"id": {"type": "integer"}, "clause": {"type": "string"}},
                    },
                },
                {
                    "if": {"properties": {"kind": {"const": "user_said"}}},
                    "then": {
                        "required": ["prompt", "answer"],
                        "properties": {"prompt": {"type": "string"}, "answer": {"type": "string"}},
                    },
                },
                {
                    "if": {"properties": {"kind": {"const": "builtin"}}},
                    "then": {"required": ["name"], "properties": {"name": {"type": "string"}}},
                },
            ],
        },
        "proof": {
            "type": "object",
            "required": ["goal", "justification", "bindings", "children"],
            "properties": {
                "goal": {"type": "string"},
                "justification": {"$ref": "#/$defs/justification"},
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


@pytest.mark.parametrize("justification", [
    {"kind": "rule"},
    {"kind": "clause", "id": 1},
    {"kind": "asserted_fact", "clause": "p(a)."},
    {"kind": "s_fact", "id": "1", "clause": "s(neg(p),sk_1)."},
    {"kind": "user_said", "prompt": "colour of person sky is ?"},
    {"kind": "builtin"},
])
def test_json_schema_rejects_a_malformed_justification(justification):
    import jsonschema

    proof = {"goal": "p", "justification": justification, "bindings": [], "children": []}
    with pytest.raises(jsonschema.ValidationError):
        _validate({"status": "yes", "solutions": [{"bindings": [], "proof": proof}], "trace": []})


def _justifications(proof):
    """Every justification in a JSON proof, in preorder."""
    out, todo = [], [proof]
    while todo:
        node = todo.pop()
        out.append(node["justification"])
        todo.extend(reversed(node["children"]))
    return out


def test_json_labels_an_asserted_fact_cited_by_resolution(tmp_path):
    f = tmp_path / "e.pl"
    f.write_text("e(0).\n")
    r = run_cli(["run", str(f), "--goal", "assert(p(a)), p(X).", "--json"])
    assert r.code == 0
    payload = json.loads(r.out)
    _validate(payload)
    builtin, fact = _justifications(payload["solutions"][0]["proof"])[1:]
    assert builtin == {"kind": "builtin", "name": "assertz"}
    assert fact["kind"] == "asserted_fact" and fact["clause"] == "p(a)."


def test_json_labels_an_acquired_memo_hit_as_asserted_fact(tmp_path):
    f = tmp_path / "ask.pl"
    f.write_text("nice(P) :- ask(likes, P, icecream).\n")
    script = tmp_path / "s.txt"
    script.write_text("ask likes peter icecream -> yes\n")
    r = run_cli(["run", str(f), "--goal", "nice(peter), nice(peter).", "--oracle", str(script), "--json"])
    assert r.code == 0
    payload = json.loads(r.out)
    _validate(payload)
    justifications = _justifications(payload["solutions"][0]["proof"])
    kinds = [j["kind"] for j in justifications]
    assert kinds == ["builtin", "clause", "user_said", "clause", "asserted_fact"]
    assert justifications[-1]["clause"] == "known(yes,likes,peter,icecream)."


def test_json_labels_holds_negated_after_negate_fact_as_s_fact():
    from skolog import negate_fact, parse_clause_text, parse_query, solve, SolveOptions
    from skolog.database import Database
    from skolog.explain import proof_to_json

    db = Database()
    nf = negate_fact(db, parse_clause_text("enrolled(X, logic)."))
    out = solve(db, parse_query("holds_negated(enrolled(sk_1, logic))."), SolveOptions())
    proof = proof_to_json(out.solutions[0].proof)
    _validate({"status": "yes", "solutions": [{"bindings": [], "proof": proof}], "trace": []})
    assert proof["justification"] == {
        "kind": "s_fact", "id": nf.stored_clause.id, "clause": "s(neg(enrolled),sk_1,logic).",
    }


def test_a_memo_hit_on_a_known_fact_from_program_text_cites_it_as_a_clause(tmp_path):
    f = tmp_path / "k.pl"
    f.write_text("known(yes, likes, tom, tea).\n")
    r = run_cli(["run", str(f), "--goal", "ask(likes, tom, tea).", "--json"])
    assert r.code == 0
    payload = json.loads(r.out)
    _validate(payload)
    assert payload["solutions"][0]["proof"]["justification"] == {
        "kind": "clause", "id": 1, "clause": "known(yes,likes,tom,tea).",
    }
    r = run_cli(["run", str(f), "--goal", "ask(likes, tom, tea).", "--explain"])
    assert r.out == "yes\nask(likes,tom,tea) BECAUSE known(yes,likes,tom,tea) is a fact\n"


def test_holds_negated_cites_an_s_fact_from_program_text_like_any_fact(tmp_path):
    # only negate_fact makes an s-fact; one written in the program is a clause
    f = tmp_path / "s.pl"
    f.write_text("s(neg(p), a).\n")
    r = run_cli(["run", str(f), "--goal", "holds_negated(p(a)).", "--explain"])
    assert r.out == "yes\nholds_negated(p(a)) BECAUSE s(neg(p),a) is a fact\n"
    r = run_cli(["run", str(f), "--goal", "holds_negated(p(a)).", "--json"])
    payload = json.loads(r.out)
    _validate(payload)
    assert payload["solutions"][0]["proof"]["justification"] == {
        "kind": "clause", "id": 1, "clause": "s(neg(p),a).",
    }


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


def test_semantics_append_at_the_default_bound(tmp_path):
    # the 74-term universe at bound 2 has about 30M ground instances of the
    # append rule; matching bodies against derived facts visits few of them
    f = tmp_path / "append_more.pl"
    f.write_text(Path(APPEND).read_text() + "t(b).\nq(b, f([])).\n")
    r = run_cli(["semantics", str(f), "--bound", "2"])
    assert r.code == 0
    atoms = r.out.splitlines()
    assert len(atoms) == 172
    for atom in ("append([],b,b)", "append([b],[],[b])", "append([b],f([]),[b|f([])])",
                 "q(b,f([]))", "t(b)"):
        assert atom in atoms
    assert "append([b,b],[b],[b,b,b])" not in atoms, "its third argument is deeper than the bound"


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


def test_repl_retract_shows_the_bindings_of_its_pattern(tmp_path):
    f = tmp_path / "p.pl"
    f.write_text("p(1).\np(2).\nq(a, b).\n")
    r = run_cli(
        ["repl", str(f)],
        stdin_text="retract(p(Z)).\nretract(p(2)).\nretract(p(_)).\nretract(q(B, _)).\n:quit\n",
    )
    assert r.out == "?- Z = 1\n?- yes\n?- no\n?- B = a\n?- "
    batch = run_cli(["run", str(f), "--goal", "retract(p(Z))."])
    assert batch.out == "Z = 1\n"


def test_repl_parse_error_recovers():
    for bad in ("p(a.", "p(²)."):
        r = run_cli(["repl"], stdin_text=f"{bad}\nassert(q(x)).\nq(W).\n\n:quit\n")
        assert "parse error:" in r.out
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


def test_repl_a_quoted_yes_reply_answers_the_same_now_and_from_the_memo(tmp_path):
    f = tmp_path / "ask.pl"
    f.write_text("likes(P) :- ask(likes, P, icecream).\n")
    r = run_cli(["repl", str(f)], stdin_text="likes(peter).\n'yes'.\n\nlikes(peter).\n\n:quit\n")
    assert r.out == "?- likes of person peter is icecream ?\nyes\n?- yes\n?- "


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


def test_repl_reply_that_is_not_more_runs_as_the_next_input(tmp_path):
    f = tmp_path / "e.pl"
    f.write_text("q(a).\n")
    r = run_cli(["repl", str(f)], stdin_text="q(Z).\nhow.\n:quit\n")
    assert r.code == 0
    assert "Z = a\n" in r.out
    assert "q(a) is a fact" in r.out


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
    assert r.out.count("yes") == 2
    assert r.out.count("?- X = s(") == 1  # retract(p(X)) shows its binding
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
