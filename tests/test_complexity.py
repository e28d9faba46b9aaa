"""Complexity pinned by counts instead of seconds.

Each test counts an operation by wrapping the function that does it for
the length of one query, runs at n, 2n and 4n, and asserts the exact
count where the program fixes it.  A count does not swing with the
host's speed, so it can guard a shape that wall time cannot.
"""

from __future__ import annotations

from unittest import mock

import pytest

from skolog import Database, load_program, parse_query, solve
from skolog.corpus import corpus_text
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
