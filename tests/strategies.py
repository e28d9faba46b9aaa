"""Hypothesis strategies for terms, clauses, and small programs."""

from __future__ import annotations

from hypothesis import strategies as st

from skolog import Atom, Clause, Int, Struct, Var

ATOM_NAMES = ("a", "b", "c", "foo", "bar", "nil", "x1")
VAR_NAMES = ("X", "Y", "Z", "W", "Acc", "_tmp")
FUNCTORS = ("f", "g", "pair", "s")
PREDICATES = ("p", "q", "r", "t")

atoms = st.sampled_from(ATOM_NAMES).map(Atom)
ints = st.integers(min_value=-99, max_value=99).map(Int)
variables = st.sampled_from(VAR_NAMES).map(Var)
constants = atoms | ints


def terms(max_depth: int = 4, leaves=None):
    base = leaves if leaves is not None else (constants | variables)
    return st.recursive(
        base,
        lambda children: st.builds(
            Struct,
            st.sampled_from(FUNCTORS),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
        max_leaves=2 ** max_depth,
    )


ground_terms = terms(leaves=constants)


# Few constants and variable names, so that in a call and a clause drawn
# from them variables repeat and arguments clash or match often.
few_terms = st.recursive(
    st.sampled_from((Atom("a"), Atom("b"), Int(1), Var("X"), Var("Y"), Var("Z"))),
    lambda children: st.builds(Struct, st.sampled_from(("f", "g")), st.lists(children, min_size=1, max_size=2).map(tuple)),
    max_leaves=6,
)


def head_matches():
    """(call, clause) pairs of one predicate p/n over ``few_terms``, the
    call's arguments either drawn on their own or copied from the head, so
    that many pairs match.  The two share variable names, which must stay
    apart."""

    def pair(head_args):
        head = Struct("p", tuple(head_args))
        call = st.tuples(*(st.just(a) | few_terms for a in head_args)).map(lambda xs: Struct("p", xs))
        body = st.lists(goals(few_terms), max_size=2).map(tuple)
        return st.tuples(call, st.builds(Clause, st.just(head), body))

    return st.lists(few_terms, min_size=1, max_size=3).flatmap(pair)


def goals(argument_strategy=None):
    args = argument_strategy if argument_strategy is not None else terms(max_depth=2)
    return st.builds(
        Struct,
        st.sampled_from(PREDICATES),
        st.lists(args, min_size=1, max_size=3).map(tuple),
    )


def facts():
    return goals(argument_strategy=constants | variables).map(lambda h: Clause(head=h))


def definite_programs(max_clauses: int = 6):
    """Function-free definite programs: ground or single-variable-linked
    clauses over a small signature.  Suitable for the semantics oracle."""
    heads = goals(argument_strategy=atoms | variables)
    bodies = st.lists(goals(argument_strategy=atoms | variables), min_size=0, max_size=2)
    clause = st.builds(lambda h, b: Clause(head=h, body=tuple(b)), heads, bodies)
    return st.lists(clause, min_size=1, max_size=max_clauses)
