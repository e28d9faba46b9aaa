"""The `skolog run` invocations that README and the twins case study show,
one that enumerates four answers, two REPL sessions and two
`skolog semantics` models print exactly their recorded output.

Each `run` invocation is recorded twice, with `--trace --explain` and with
`--json`; the files in `data/golden/` hold stdout byte for byte, and for
the fact-acquisition session and the models stderr as well.  Each
invocation, and each demo script, also runs as a new process under two
values of PYTHONHASHSEED and prints the same bytes.  After a
deliberate change of output, `python tests/test_golden.py` rewrites them,
and the demo scripts' transcripts in `data/` that `test_demos.py` checks.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from skolog.corpus import corpus_path
from test_demos import DATA, DEMOS, SRC, run_demo
from util import run_cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CASE = "state(not_twin, marsha, marjorie)."

# name -> (program, goal, oracle script or None, exit code)
RUNS = {
    "append": ("append.pl", "append([a,b],[c,d],Ls).", None, 0),
    "append_splits": ("append.pl", "append(X, Y, [a,b,c]).", None, 0),
    "twin": ("twins.pl", "twin(marsha, marjorie).", None, 0),
    "not_twin": ("twins.pl", "not(twin(marsha, marjorie)).", None, 1),
    "case_country": ("twins.pl", CASE, "answers_country.txt", 0),
    "case_family": ("twins.pl", CASE, "answers_family.txt", 0),
    "case_day": ("twins.pl", CASE, "answers_day.txt", 0),
    "case_triplets": (
        "twins.pl",
        "assertz(person(mona, father1, mother1, month1, year1)), " + CASE,
        "answers_triplets.txt",
        0,
    ),
}
MODES = {"trace.out": ["--trace", "--explain"], "json": ["--json"]}
# name -> options of `skolog run` beyond the mode's; a second answer's
# proof is pinned only where a run asks for more than one
OPTIONS = {"append_splits": ["--max-solutions", "4"]}

REPL_INPUT = (
    ":trace on\n"
    "append(X, Y, [a]).\n"
    ";\n"
    "how.\n"
    "append(X, Y, [a]), X = [b].\n"
    "assert(last(E, L) :- append(_, [E], L)).\n"
    "last(E, [a,b]).\n"
    "how.\n"
    "retract(append([H|T], L, [H|R]) :- append(T, L, R)).\n"
    "retract(last(A, B) :- append(C, D, F)).\n"
    "listing.\n"
    ":trace off\n"
    "append(X, Y, []).\n"
    ":quit\n"
)

# name -> (program text, --bound): append/3 over a universe with a second
# constant and functor, whose model is depth-approximate, and a transitive
# closure over a graph with a cycle
SEMANTICS = {
    "semantics_append": (corpus_path("append.pl").read_text(encoding="utf-8") + "t(b). q(b, f([])).\n", 2),
    "semantics_path": ((DATA / "path.pl").read_text(encoding="utf-8"), 0),
}


# A value answered from the script and explained, one negation whose
# witness is proposed a stored name, a compound, then a fresh atom, and one
# whose witness is refused a name and so gets a generated sk_<k>.
ACQUISITION_SCRIPT = (
    "askv country marsha -> egypt\n"
    "askv skolem twin -> marsha\n"
    "askv skolem twin -> f(a)\n"
    "askv skolem twin -> alice\n"
    "askv skolem likes -> no\n"
)
ACQUISITION_INPUT = (
    "country(X, marsha).\n"
    "how.\n"
    "negate twin(X, marjorie).\n"
    "negate likes(Y, tea).\n"
    "holds_negated(twin(alice, marjorie)).\n"
    "holds_negated(likes(sk_1, tea)).\n"
    ":quit\n"
)


def _invocations(tmp: Path) -> dict[str, tuple[list[str], str]]:
    """Every recorded CLI invocation, by the golden file of its stdout: its
    ``skolog`` arguments and its stdin.  The files it reads from outside
    the corpus are written under ``tmp``."""
    out = {}
    for name, (program, goal, script, _) in RUNS.items():
        for mode in MODES:
            argv = ["run", str(corpus_path(program)), "--goal", goal, *MODES[mode], *OPTIONS.get(name, ())]
            out[f"{name}.{mode}"] = (argv + (["--oracle", str(corpus_path(script))] if script else []), "")
    out["repl.out"] = (["repl", str(corpus_path("append.pl"))], REPL_INPUT)
    answers = tmp / "answers.txt"
    answers.write_text(ACQUISITION_SCRIPT, encoding="utf-8")
    out["acquisition.out"] = (["repl", str(corpus_path("twins.pl")), "--oracle", str(answers)], ACQUISITION_INPUT)
    for name, (text, bound) in SEMANTICS.items():
        (tmp / name).mkdir()
        program = tmp / name / "program.pl"
        program.write_text(text, encoding="utf-8")
        out[f"{name}.out"] = (["semantics", str(program), "--bound", str(bound)], "")
    return out


# the goldens whose invocation's stderr is recorded too, beside them as .err
WITH_STDERR = {"acquisition.out", *(f"{name}.out" for name in SEMANTICS)}


def _cli(golden: str):
    """The recorded invocation whose stdout ``golden`` holds, run in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        argv, stdin = _invocations(Path(tmp))[golden]
        return run_cli(argv, stdin_text=stdin)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", RUNS)
def test_run_output_matches_its_golden(name, mode):
    r = _cli(f"{name}.{mode}")
    assert (r.code, r.err) == (RUNS[name][3], "")
    assert r.out == (GOLDEN / f"{name}.{mode}").read_text(encoding="utf-8")


def test_repl_session_matches_its_golden():
    r = _cli("repl.out")
    assert (r.code, r.err) == (0, "")
    assert r.out == (GOLDEN / "repl.out").read_text(encoding="utf-8")


def test_acquisition_session_matches_its_golden():
    r = _cli("acquisition.out")
    assert r.code == 0
    assert r.out == (GOLDEN / "acquisition.out").read_text(encoding="utf-8")
    assert r.err == (GOLDEN / "acquisition.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", SEMANTICS)
def test_semantics_output_matches_its_golden(name):
    r = _cli(f"{name}.out")
    assert r.code == 0
    assert r.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert r.err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


# Atoms hash by their address and strings by PYTHONHASHSEED, so a set or
# dict of terms iterates in an order that differs from process to process;
# no output may follow it.
@pytest.mark.parametrize("seed", ["0", "1"])
def test_output_does_not_depend_on_hashing(seed, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8")
    entry = [sys.executable, "-c", "from skolog.cli import entry; entry()"]

    def run(item):
        golden, (argv, stdin) = item
        r = subprocess.run(entry + argv, input=stdin.encode(), capture_output=True, env=env, timeout=60)
        err = (GOLDEN / golden).with_suffix(".err").read_bytes() if golden in WITH_STDERR else b""
        return golden, (r.stdout, r.stderr), ((GOLDEN / golden).read_bytes(), err)

    with ThreadPoolExecutor(max_workers=2) as pool:
        for golden, got, recorded in pool.map(run, _invocations(tmp_path).items()):
            assert got == recorded, golden
    for script in DEMOS:
        r = run_demo(script, PYTHONHASHSEED=seed)
        assert (r.returncode, r.stderr, r.stdout) == (0, "", (DATA / f"{script}.out").read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        goldens = list(_invocations(Path(tmp)))
    for golden in goldens:
        r = _cli(golden)
        (GOLDEN / golden).write_text(r.out, encoding="utf-8")
        if golden in WITH_STDERR:
            (GOLDEN / golden).with_suffix(".err").write_text(r.err, encoding="utf-8")
    for script in DEMOS:
        r = run_demo(script)
        r.check_returncode()
        (DATA / f"{script}.out").write_text(r.stdout, encoding="utf-8")
