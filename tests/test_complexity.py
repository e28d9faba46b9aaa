"""Complexity pinned by counts instead of seconds.

Each test counts an operation by wrapping the function that does it for
the length of one query or one read, runs at growing sizes, and asserts
the exact count where the program fixes it.  A count does not swing with the
host's speed, so it can guard a shape that wall time cannot.
"""

from __future__ import annotations

from unittest import mock

import pytest

from skolog import Atom, Clause, Database, Solver, Struct, load_program, parse_program, parse_query, solve
from skolog import parser
from skolog.corpus import corpus_text
from skolog.oracle import YES, ask, ask_value
from skolog.parser import format_term
from skolog.terms import Store


@pytest.mark.parametrize("n", [10, 20, 40])
def test_append_on_n_elements_makes_n_plus_one_head_matches(n):
    # the bound first argument selects one clause per call: the n
    # recursive calls and the closing call on [] each match one head
    db = Database()
    load_program(db, corpus_text("append.pl"))
    items = ",".join(f"e{i}" for i in range(n))
    matched = []
    unify_head = Store.unify_head

    def counted(store, goal, clause, fresh):
        matched.append(clause)
        return unify_head(store, goal, clause, fresh)

    with mock.patch.object(Store, "unify_head", counted):
        out = solve(db, parse_query(f"append([{items}], [z], L)."))
    assert [format_term(v) for s in out.solutions for v in s.bindings.values()] == [f"[{items},z]"]
    assert len(matched) == n + 1


@pytest.mark.parametrize("n", [10, 20, 40])
def test_append_on_n_elements_leaves_2n_plus_one_bindings_and_n_plus_one_records(n):
    # matched in unify's order, each recursive call's head binds the call's
    # third argument to a built [X|Zs], then X to the list's element; the
    # closing call binds the last Zs.  Each of the n + 1 calls leaves one
    # record.
    db = Database()
    load_program(db, corpus_text("append.pl"))
    items = ",".join(f"e{i}" for i in range(n))
    at_answer = []
    solution = Solver._solution

    def counted(self, qvars):
        at_answer.append((len(self._store.bindings), len(self._records)))
        return solution(self, qvars)

    with mock.patch.object(Solver, "_solution", counted):
        out = solve(db, parse_query(f"append([{items}], [z], L)."))
    assert [format_term(v) for s in out.solutions for v in s.bindings.values()] == [f"[{items},z]"]
    assert at_answer == [(2 * n + 1, n + 1)]


@pytest.mark.parametrize("n", [1000, 2000, 4000])
def test_reading_n_clauses_scans_the_text_once(n):
    # the reader splits the whole text into tokens in one scan, and works
    # out a token's line and column only for an error
    text = "".join(f"p({i}, [a, 'b c'|T]) :- q(X, T), not(r(X)).  % clause {i}\n" for i in range(n))
    scan = mock.Mock(wraps=parser._SCAN)
    position = mock.Mock(wraps=parser._position)
    with mock.patch.object(parser, "_SCAN", scan), mock.patch.object(parser, "_position", position):
        clauses = parse_program(text)
    assert len(clauses) == n
    assert scan.findall.call_args_list == [mock.call(text)]
    assert scan.finditer.call_count == 0 and position.call_count == 0


@pytest.mark.parametrize("n", [100, 1000])
def test_a_memo_hit_reads_one_known_fact_of_n_subjects(n):
    # the subject's index list (one fact) wins over the attribute's (n)
    db = Database()
    for i in range(n):
        db.assertz(Clause(Struct("known", (YES, Atom("color"), Atom(f"s{i}"), Atom("red")))))
    read = []
    clauses = Database.clauses

    def counted(self, ind, args=()):
        snapshot = clauses(self, ind, args)
        read.append(len(snapshot))
        return snapshot

    subject = f"s{n // 2}"
    with mock.patch.object(Database, "clauses", counted):
        by_value = ask_value(db, "color", subject, None)
        by_yes_no = ask(db, "color", subject, Atom("red"), None)
    assert (by_value.source, by_value.value) == ("memo", Atom("red"))
    assert (by_yes_no.source, by_yes_no.succeeded) == ("memo", True)
    assert read == [1, 1]
