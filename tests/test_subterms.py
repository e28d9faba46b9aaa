"""The read-only term walks, each against a recursive reference."""

from hypothesis import given, settings

from skolog import Atom, Int, Struct, Var, mklist
from skolog.terms import is_ground, signature, subterms, variables_of

from strategies import terms


def ref_subterms(t):
    out = [t]
    if isinstance(t, Struct):
        for a in t.args:
            out += ref_subterms(a)
    return out


def ref_variables(t):
    if isinstance(t, Var):
        return [t]
    if isinstance(t, Struct):
        out = []
        for a in t.args:
            out += [v for v in ref_variables(a) if v not in out]
        return out
    return []


def ref_argument_terms(goal):
    return [x for a in goal.args for x in ref_subterms(a)] if isinstance(goal, Struct) else []


@settings(max_examples=300, deadline=None)
@given(terms())
def test_walks_match_recursive_references(t):
    assert list(subterms(t)) == ref_subterms(t)
    assert variables_of(t) == ref_variables(t)
    assert is_ground(t) == (ref_variables(t) == [])
    inner = ref_argument_terms(t)
    assert signature([t]) == (
        {x for x in inner if isinstance(x, (Atom, Int))},
        {(x.name, len(x.args)) for x in inner if isinstance(x, Struct)},
    )


def test_subterms_is_preorder_left_to_right():
    t = Struct("f", (Struct("g", (Atom("a"), Var("X"))), Int(1)))
    assert list(subterms(t)) == [t, t.args[0], Atom("a"), Var("X"), Int(1)]


def test_goal_walks_read_many_goals_but_not_predicate_symbols():
    goals = [Atom("p"), Struct("q", (Atom("a"), Struct("s", (Int(2),)))), Var("G")]
    assert signature(goals) == ({Atom("a"), Int(2)}, {("s", 1)})


def test_walks_do_not_recurse_on_a_long_list():
    items = [Atom("a"), Int(7), Var("X")] * 33_334
    lst = mklist(items[:100_000])
    t = Struct("p", (lst,))
    assert not is_ground(lst)
    assert variables_of(lst) == [Var("X")]
    assert signature([t]) == ({Atom("a"), Int(7), Atom("[]")}, {(".", 2)})
