"""The `skolog run` invocations that README and the twins case study show,
one that enumerates four answers, and two REPL sessions, print exactly
their recorded output.

Each `run` invocation is recorded twice, with `--trace --explain` and with
`--json`; the files in `data/golden/` hold stdout byte for byte, and for
the fact-acquisition session stderr as well.  After a deliberate change of
output, `python tests/test_golden.py` rewrites them, and the demo scripts'
transcripts in `data/` that `test_demos.py` checks.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from skolog.corpus import corpus_path
from test_demos import DATA, DEMOS, run_demo
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


def _run(name: str, mode: str):
    program, goal, script, _ = RUNS[name]
    argv = ["run", str(corpus_path(program)), "--goal", goal, *MODES[mode], *OPTIONS.get(name, ())]
    if script:
        argv += ["--oracle", str(corpus_path(script))]
    return run_cli(argv)


def _repl():
    return run_cli(["repl", str(corpus_path("append.pl"))], stdin_text=REPL_INPUT)


def _acquisition():
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "answers.txt"
        script.write_text(ACQUISITION_SCRIPT, encoding="utf-8")
        argv = ["repl", str(corpus_path("twins.pl")), "--oracle", str(script)]
        return run_cli(argv, stdin_text=ACQUISITION_INPUT)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", RUNS)
def test_run_output_matches_its_golden(name, mode):
    r = _run(name, mode)
    assert (r.code, r.err) == (RUNS[name][3], "")
    assert r.out == (GOLDEN / f"{name}.{mode}").read_text(encoding="utf-8")


def test_repl_session_matches_its_golden():
    r = _repl()
    assert (r.code, r.err) == (0, "")
    assert r.out == (GOLDEN / "repl.out").read_text(encoding="utf-8")


def test_acquisition_session_matches_its_golden():
    r = _acquisition()
    assert r.code == 0
    assert r.out == (GOLDEN / "acquisition.out").read_text(encoding="utf-8")
    assert r.err == (GOLDEN / "acquisition.err").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    outputs = {f"{n}.{m}": _run(n, m).out for n in RUNS for m in MODES}
    outputs["repl.out"] = _repl().out
    acquisition = _acquisition()
    outputs["acquisition.out"], outputs["acquisition.err"] = acquisition.out, acquisition.err
    for file, text in outputs.items():
        (GOLDEN / file).write_text(text, encoding="utf-8")
    for script in DEMOS:
        r = run_demo(script)
        r.check_returncode()
        (DATA / f"{script}.out").write_text(r.stdout, encoding="utf-8")
