"""Complexity pinned by counts instead of seconds.

Each test counts an operation by wrapping the function that does it for
the length of one query, runs at growing sizes, and asserts the exact
count where the program fixes it.  A count does not swing with the
host's speed, so it can guard a shape that wall time cannot.
"""

from __future__ import annotations

from unittest import mock

import pytest

from skolog import Atom, Clause, Database, Struct, load_program, parse_query, solve
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
