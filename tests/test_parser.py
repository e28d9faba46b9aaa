"""Tokenizer, parser, and canonical printing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolog import (
    Atom,
    Clause,
    Int,
    ParseError,
    Struct,
    Var,
    format_clause,
    format_goal,
    format_term,
    mklist,
    parse_clause_text,
    parse_program,
    parse_query,
    parse_term_text,
)
from skolog.parser import format_goals, tokenize

from strategies import terms
from test_robustness import ALPHABET, FRAGMENTS, RARE
from util import (
    reference_parse_clause_text,
    reference_parse_program,
    reference_parse_query,
    reference_parse_term_text,
    variant_equal,
    variant_equal_seq,
)


def kinds(text):
    # each token's kind and value, up to the "" that ends the tokens
    toks, read = tokenize(text)
    out = []
    for tok in toks[:toks.index("")]:
        term = read.get(tok)
        if term is None:
            out.append(("var", "_") if tok == "_" else ("punct", tok))
        else:
            out.append((type(term).__name__.lower(), term.value if type(term) is Int else term.name))
    return out


def test_tokenize_fact_with_spaces():
    assert kinds("likes(jack , sarah).") == [
        ("atom", "likes"),
        ("punct", "("),
        ("atom", "jack"),
        ("punct", ","),
        ("atom", "sarah"),
        ("punct", ")"),
        ("punct", "."),
    ]


def test_tokenize_comment_only():
    assert kinds("% comment\n") == []


def test_tokenize_illegal_char_position():
    for text, line, col in [
        ("p(@)", 1, 3),
        ("p(²).", 1, 3),  # a digit that int() does not read
        ("p(Ⓐ).", 1, 3),  # cased, but not alphanumeric
        ("p(\u0345).", 1, 3),
        ("-²", 1, 1),
        ("1²", 1, 2),
        ("p.\nq(" + "9" * 5000 + ").", 2, 3),  # more digits than int() converts
        ("p(. @", 1, 5),  # the first lexical error wins over an earlier syntax error
    ]:
        for read in (tokenize, parse_program):
            with pytest.raises(ParseError) as e:
                read(text)
            assert (e.value.line, e.value.col) == (line, col), text[:8]


def test_tokenize_quoted_atom():
    ((kind, value),) = kinds("'hello world'")
    assert (kind, value) == ("atom", "hello world")


def test_tokenize_negative_integer():
    assert ("int", -4) in kinds("p(-4)")


def test_parse_append_program():
    text = "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs)."
    clauses = parse_program(text)
    assert len(clauses) == 2
    assert clauses[0].body == ()
    assert len(clauses[1].body) == 1
    assert clauses[1].head.name == "append"


def test_parse_empty_program():
    assert parse_program("") == []


def test_parse_empty_body_is_error():
    with pytest.raises(ParseError):
        parse_program("p(a) :- .")


def test_parse_query_forms():
    assert parse_query("?- father(abraham, X).") == [
        Struct("father", (Atom("abraham"), Var("X")))
    ]
    assert parse_query("true.") == [Atom("true")]
    with pytest.raises(ParseError):
        parse_query("?- .")


def test_parse_conjunctive_query():
    goals = parse_query("p(X), q(X).")
    assert len(goals) == 2


def test_parse_list_sugar():
    t = parse_term_text("[a,b]")
    assert t == Struct(".", (Atom("a"), Struct(".", (Atom("b"), Atom("[]")))))
    assert parse_term_text("[]") == Atom("[]")
    assert parse_term_text("[X|Xs]") == Struct(".", (Var("X"), Var("Xs")))


def test_parse_infix_equality_goals():
    (g,) = parse_query("X = f(Y).")
    assert g == Struct("=", (Var("X"), Struct("f", (Var("Y"),))))
    (g2,) = parse_query("a \\= b.")
    assert g2 == Struct("\\=", (Atom("a"), Atom("b")))


def test_parse_rejects_variable_goal():
    with pytest.raises(ParseError):
        parse_query("X.")
    with pytest.raises(ParseError):
        parse_program("p(a) :- X.")


@pytest.mark.parametrize("parse, text, message", [
    (parse_query, "p. q.", "1:4: unexpected atom 'q' (expected end of input)"),
    (parse_clause_text, "p. q.", "1:4: unexpected atom 'q' (expected end of input)"),
    (parse_term_text, "a b", "1:3: unexpected atom 'b' (expected end of input)"),
    (parse_term_text, "p(-007) -007", "1:9: unexpected int '-7' (expected end of input)"),
    (parse_clause_text, "p(a)\n% c", "2:4: unexpected end of input (expected '.')"),
], ids=["query", "clause", "term", "int", "comment"])
def test_trailing_input_is_an_error(parse, text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_parse_rejects_integer_goal():
    with pytest.raises(ParseError) as e:
        parse_query("1.")
    assert str(e.value) == "1:1: integer is not a callable goal (expected goal)"
    with pytest.raises(ParseError) as e:
        parse_program("p :- q,\n  1.")
    assert str(e.value) == "2:3: integer is not a callable goal (expected goal)"


def test_parse_rejects_variable_head():
    with pytest.raises(ParseError):
        parse_program("X :- p(a).")


def test_parse_anonymous_vars_distinct():
    t = parse_term_text("f(_, _)")
    assert t.args[0] != t.args[1]


def test_missing_period_error():
    with pytest.raises(ParseError) as e:
        parse_program("p(a)")
    assert e.value.line >= 1 and e.value.col >= 1


def test_format_term_examples():
    assert format_term(mklist([Atom("a"), Atom("b")])) == "[a,b]"
    assert format_term(Struct("time", (Atom("monday"), Int(9), Int(11)))) == "time(monday,9,11)"
    assert format_term(Var("X")) == "X"
    assert format_term(Struct(".", (Atom("a"), Var("T")))) == "[a|T]"


def test_format_quotes_odd_atoms():
    assert format_term(Atom("hello world")) == "'hello world'"
    assert format_term(Atom("Big")) == "'Big'"
    assert format_term(Atom("[]")) == "[]"
    rt = parse_term_text(format_term(Atom("it's")))
    assert rt == Atom("it's")


def test_format_goal_infix():
    assert format_goal(Struct("=", (Var("X"), Atom("a")))) == "X = a"
    assert format_goal(Struct("\\=", (Atom("a"), Atom("b")))) == "a \\= b"


def test_format_clause():
    c = parse_clause_text("p(X) :- q(X), r(X).")
    assert format_clause(c) == "p(X) :- q(X), r(X)."
    f = parse_clause_text("p(a).")
    assert format_clause(f) == "p(a)."


@given(terms())
@settings(max_examples=400, deadline=None)
def test_round_trip_random_terms(t):
    assert variant_equal(parse_term_text(format_term(t)), t)


def test_round_trip_corpus():
    from skolog.corpus import PROGRAMS, corpus_text

    for name in PROGRAMS:
        for clause in parse_program(corpus_text(name)):
            assert variant_equal(parse_clause_text(format_clause(clause)), clause)


@pytest.mark.parametrize(
    "bad",
    ["p(a", "p(a))", ":- q.", "p(a) :- .", "f(", "[a|b|c].", "p(a).q", "'unterminated"],
)
def test_errors_have_in_bounds_positions(bad):
    with pytest.raises(ParseError) as e:
        parse_program(bad)
    err = e.value
    lines = bad.split("\n")
    assert 1 <= err.line <= len(lines)
    assert 1 <= err.col <= len(lines[err.line - 1]) + 1


# The reader against the reference reader kept with the tests: the same
# terms up to variable renaming, or the same error at the same place.
READERS = [
    (parse_program, reference_parse_program),
    (parse_query, reference_parse_query),
    (parse_clause_text, reference_parse_clause_text),
    (parse_term_text, reference_parse_term_text),
]
# tokens that the robustness fragments seldom or never make: lexical
# errors, and integers that read otherwise than they are written
ODD_TOKENS = ("'a\\q'", "'\\", "'x\\", "9" * 4301, "-", ":", "-007", "007")
clause_texts = st.builds(
    lambda head, body: format_clause(Clause(head, tuple(body))),
    terms(max_depth=3),
    st.lists(terms(max_depth=2), max_size=2),
)
pieces = st.sampled_from(FRAGMENTS) | st.sampled_from(ODD_TOKENS) | st.sampled_from(RARE) | clause_texts
reader_texts = st.one_of(
    st.lists(clause_texts, max_size=4).map("\n".join),
    terms().map(format_term),
    st.lists(terms(max_depth=2), min_size=1, max_size=3).map(lambda gs: f"?- {format_goals(gs)}."),
    st.lists(pieces, max_size=10).map("".join),
    # an integer after a whole term, written otherwise than it reads
    st.tuples(terms(max_depth=2).map(format_term), st.sampled_from(("-007", "007"))).map(" ".join),
    st.lists(st.sampled_from(ALPHABET) | pieces, max_size=30).map("".join),
)


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as e:
        return ("error", e.message, e.line, e.col, e.expected)


@given(reader_texts)
# at least 500 examples; a profile that asks for more (CI's robustness) wins
@settings(max_examples=max(500, settings.default.max_examples), deadline=None)
def test_reader_agrees_with_the_reference_reader(text):
    for read, reference in READERS:
        got, want = _outcome(read, text), _outcome(reference, text)
        if type(got) is tuple or type(want) is tuple:
            assert got == want, read.__name__
        elif type(want) is list:
            assert variant_equal_seq(got, want), read.__name__
        else:
            assert variant_equal(got, want), read.__name__


_LINES = (" " * 60 + "% a comment line\n") * 13_000  # about 1 MB


@pytest.mark.parametrize("text", [
    _LINES + "@",
    _LINES + "'unterminated",
    "p([" + ", ".join(f"a{i}" for i in range(100_000)) + "]).",
    "p([" + ", ".join(f"a{i}" if i % 2 else "_" for i in range(100_000)) + "]).",
    " ".join(chr(c) for c in range(0x10000, 0x60000) if not chr(c).isalnum()),
], ids=["illegal", "unterminated", "list", "variables", "distinct"])
def test_a_megabyte_of_input_reads_as_the_reference_reads_it(text):
    # the scanner's whitespace and comment prefix must not backtrack, and
    # some 240,000 distinct illegal tokens must not cost a search each
    got, want = _outcome(parse_program, text), _outcome(reference_parse_program, text)
    if type(want) is list:  # each reader gives every `_` an id of its own
        assert variant_equal_seq(got, want)
    else:
        assert got == want
