"""No input crashes the command line.

A property drives ``cli.main`` in-process over ``run``, ``semantics`` and
``repl`` with random program text, goals, flags, oracle scripts, answers
and REPL lines, now and then a file that is not UTF-8 and terms nested
10,000 deep.  Every invocation must end with an exit code from 0 to 3
(argument errors are ``SystemExit(2)``), with no traceback on stderr,
and within the deadline.

The generator keeps the cost of each run small.  ``--depth`` is at most
200: the search can be exponential in it.  ``semantics`` matches rule
bodies against the atoms derived so far and ranges over the universe
only for a fact's variables and for head variables that no body goal
binds, so its cost follows the size of the depth-bounded universe U:
facts and clauses over X and Y alone can derive |U|^2 atoms.
Range-restricted clauses (every head variable in the body) may use Z as
well: they derive only what their body goals join.
Rarely there is noise, a deep term or a clause that is not definite.
Its ``--bound`` is at most 1: at bound 2 the lists and f/g compounds of
the signature make U too large.

Tier-1 runs the default example count; CI runs more through the
``robustness`` profile registered in ``conftest.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import string
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skolog.cli import main
from skolog.corpus import PROGRAMS, corpus_text

# Characters of random text: printable ASCII, some Unicode letters, digits
# and spaces, and, less often, characters that are not name characters
# although Python calls them alphanumeric or cased.
ALPHABET = string.printable + "éÄ中١  ǅ"
RARE = "²①ⒶⓐͅⅠ"
FRAGMENTS = (
    "p(", "q(X, Y)", "r", ":-", ", ", ".", "\n", "[", "]", "|", "[a|T]", "'it''s'",
    "% c\n", "not(", "!", "=", "\\=", "plus(", "write(", "ask(colour, sky, ",
    "ask_value(colour, P, ", "assert(", "retract(", "holds_negated(", "fail", "true",
    "_", "X", "-7", "123456789012345678901234567890", "f(", "g(", ")", "s(neg(p), ",
)
DEEP = 10_000
DEEP_TERMS = (
    "s(" * DEEP + "z" + ")" * DEEP,
    "[" * DEEP + "]" * DEEP,
    "f(" * DEEP + "X" + ")" * DEEP,
)

# A small signature, so that well-formed clauses call one another.
PREDICATES = (("p", 1), ("q", 2), ("r", 0), ("t", 1))
ATTRIBUTES = ("colour", "country")
SUBJECTS = ("sky", "ann")


rarely = st.sampled_from((False,) * 9 + (True,))  # True about one time in ten


def _rarely(strategy, other):
    """``other`` about one time in ten, else ``strategy``."""
    return rarely.flatmap(lambda rare: other if rare else strategy)


text_noise = st.lists(
    _rarely(st.sampled_from(ALPHABET), st.sampled_from(RARE)) | st.sampled_from(FRAGMENTS),
    max_size=30,
).map("".join)

LEAVES = ("a", "b", "nil", "0", "-3", "[]", "'q x'", "X", "Y")


def terms_over(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(("f", "g")), st.lists(inner, min_size=1, max_size=2))
            .map(lambda fa: f"{fa[0]}({', '.join(fa[1])})"),
            st.lists(inner, min_size=1, max_size=3).map(lambda xs: f"[{', '.join(xs)}]"),
            st.tuples(inner, inner).map(lambda ht: f"[{ht[0]}|{ht[1]}]"),
        ),
        max_leaves=4,
    )


terms = terms_over(LEAVES + ("_",))


@st.composite
def user_goals(draw, terms=terms):
    name, arity = draw(st.sampled_from(PREDICATES))
    return f"{name}({', '.join(draw(terms) for _ in range(arity))})" if arity else name


@st.composite
def body_goals(draw):
    kind = draw(st.sampled_from(
        ("user", "user", "user", "not", "!", "=", "\\=", "plus", "write", "ask", "assert",
         "retract", "holds_negated", "fail", "true")
    ))
    if kind == "user":
        return draw(user_goals())
    if kind == "not":
        return f"not({draw(user_goals())})"
    if kind in ("=", "\\="):
        return f"{draw(terms)} {kind} {draw(terms)}"
    if kind == "plus":
        return f"plus({draw(terms)}, {draw(terms)}, {draw(terms)})"
    if kind == "write":
        return f"write({draw(terms)})"
    if kind == "ask":
        verb = draw(st.sampled_from(("ask", "ask_value")))
        attribute, subject = draw(st.sampled_from(ATTRIBUTES)), draw(st.sampled_from(SUBJECTS))
        return f"{verb}({attribute}, {subject}, {draw(terms)})"
    if kind in ("assert", "retract", "holds_negated"):
        return f"{kind}({draw(user_goals())})"
    return kind


def clauses(heads, body_goals):
    """Clause text: a head, and a body of up to two goals."""
    return st.tuples(heads, st.lists(body_goals, max_size=2)).map(
        lambda hb: f"{hb[0]} :- {', '.join(hb[1])}." if hb[1] else f"{hb[0]}."
    )


deep_facts = st.sampled_from(DEEP_TERMS).map(lambda t: f"t({t}).")
program_items = _rarely(
    _rarely(clauses(user_goals(), body_goals()), st.sampled_from([corpus_text(n) for n in PROGRAMS])),
    text_noise | deep_facts,
)
# Definite clauses over the variables X and Y alone, and range-restricted
# ones over X, Y and Z (see above).
definite_goals = user_goals(terms_over(LEAVES))
CONSTANTS = tuple(x for x in LEAVES if x not in ("X", "Y"))


@st.composite
def range_restricted_clauses(draw):
    body = draw(st.lists(user_goals(terms_over(LEAVES + ("Z",))), min_size=1, max_size=2))
    seen = tuple(v for v in ("X", "Y", "Z") if re.search(rf"\b{v}\b", " ".join(body)))
    head = draw(user_goals(terms_over(CONSTANTS + seen)))
    return f"{head} :- {', '.join(body)}."


semantics_items = _rarely(
    clauses(definite_goals, definite_goals) | range_restricted_clauses(),
    st.sampled_from(("p(X) :- not(q(X)).", "r :- !.")) | text_noise | deep_facts,
)


@st.composite
def file_bytes(draw, text):
    """``text`` as UTF-8; about one time in ten with a byte that is not."""
    data = draw(text).encode("utf-8")
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\x80"))) + data[at:]
    return data


programs = st.lists(program_items, max_size=5).map("\n".join)
queries = _rarely(
    st.lists(body_goals(), min_size=1, max_size=3).map(lambda gs: ", ".join(gs) + "."),
    text_noise | deep_facts,
)
replies = _rarely(
    st.sampled_from(("yes.", "no.", "why.", "why", "no", "", "egypt.", "f(x).", "X."))
    | terms.map(lambda t: t + "."),
    text_noise | st.sampled_from(DEEP_TERMS),
)


QUESTION = re.compile(r"\bask(?:_value)?\(\s*([a-z]\w*)\s*,\s*([a-z]\w*)\s*,|\bnegate\s+([a-z]\w*)")


def questions_in(text):
    """(attribute, subject, value text or None) of each question that an
    ask/ask_value goal or a REPL ``negate`` line in ``text`` can put: None
    for a value question, which a goal puts when its value is a variable
    and a negation puts for its witness, with the predicate as subject."""
    found = []
    for m in QUESTION.finditer(text):
        if m[3]:
            found.append(("skolem", m[3], None))
            continue
        end, depth = m.end(), 0
        while end < len(text) and (depth or text[end] not in ")]"):
            depth += (text[end] in "([") - (text[end] in ")]")
            end += 1
        value = text[m.end():end].strip()
        if value and "\n" not in value:
            found.append((m[1], m[2], None if re.fullmatch(r"[A-Z_]\w*", value) else value))
    return found


VALUE_REPLIES = ("no", "egypt", "f(x)", "X", "f(X)")


def _answer(draw, question):
    attribute, subject, value = question
    if value is None:
        return f"askv {attribute} {subject} -> {draw(st.sampled_from(VALUE_REPLIES))}"
    return f"ask {attribute} {subject} {value} -> {draw(st.sampled_from(('yes', 'no')))}"


@st.composite
def script_lines(draw):
    attribute, subject = draw(st.sampled_from(ATTRIBUTES)), draw(st.sampled_from(SUBJECTS + ("p",)))
    return draw(_rarely(st.sampled_from((
        _answer(draw, (attribute, subject, draw(terms))),
        _answer(draw, (attribute, subject, None)),
        f"askv skolem {subject} -> {draw(terms)}",
    )), text_noise))


@st.composite
def scripts(draw, questions):
    """Oracle script text: an answer to each of ``questions`` (see
    ``questions_in``) that a coin keeps, then up to six ``script_lines``."""
    answers = [_answer(draw, q) for q in questions if draw(st.booleans())]
    return "\n".join(answers + draw(st.lists(script_lines(), max_size=6)))


repl_lines = st.one_of(
    queries,
    user_goals().map(lambda g: f"negate {g}."),
    user_goals().map(lambda g: f"assert({g})."),
    user_goals().map(lambda g: f"retract({g})."),
    st.sampled_from(
        ("how.", "why.", ";", "", "listing.", ":trace on", ":trace off", ":reset", ":bogus",
         "negate p(X)", "assert(p(a) :- q).")
    ),
    replies,
)


@st.composite
def invocations(draw):
    """(argv, stdin text, {file name: bytes}) for one run of the CLI; the
    files' directory is ``@DIR@`` in argv."""
    command = draw(st.sampled_from(("run", "semantics", "repl")))
    if command == "semantics":
        files = {"prog.pl": draw(file_bytes(st.lists(semantics_items, max_size=5).map("\n".join)))}
        bound = draw(_rarely(st.integers(0, 1), st.just(-1)))
        return ["semantics", "@DIR@/prog.pl", f"--bound={bound}"], "", files
    files = {"prog.pl": draw(file_bytes(programs))}
    argv = [command, "@DIR@/prog.pl"]
    if command == "run":
        argv.append(f"--goal={draw(queries)}")
        for flag in ("--trace", "--explain", "--json"):
            if draw(st.booleans()):
                argv.append(flag)
        if draw(st.booleans()):
            argv.append(f"--max-solutions={draw(_rarely(st.integers(1, 5), st.integers(-1, 0)))}")
    argv.append(f"--depth={draw(_rarely(st.integers(0, 200), st.just(-1)))}")
    lines = draw(st.lists(repl_lines if command == "repl" else replies, max_size=8))
    if draw(st.booleans()):
        questions = questions_in("\n".join([files["prog.pl"].decode("utf-8", "replace"), *argv, *lines]))
        files["answers.txt"] = draw(file_bytes(scripts(questions)))
        argv.append("--oracle=@DIR@/answers.txt")
    return argv, "".join(line + "\n" for line in lines), files


@given(invocations())
@settings(deadline=5000, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_no_input_crashes_the_cli(invocation):
    argv, stdin_text, files = invocation
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            with open(os.path.join(d, name), "wb") as f:
                f.write(data)
        argv = [a.replace("@DIR@", d) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
            except SystemExit as e:  # argument errors
                code = e.code
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()
