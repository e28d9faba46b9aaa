"""Shared test helpers: variant equality, the reference unifier and head
match, CLI harness."""

from __future__ import annotations

import io
from dataclasses import dataclass

from skolog import Atom, Clause, Int, Struct, Var
from skolog.cli import main as cli_main
from skolog.terms import apply, rename_clause, subterms


def canonical(term, mapping=None):
    """Rename variables to V0, V1, ... in first-occurrence order, so two
    variants of the same term become equal."""
    if mapping is None:
        mapping = {}
    if isinstance(term, Var):
        if term not in mapping:
            mapping[term] = Var("V", len(mapping))
        return mapping[term]
    if isinstance(term, (Atom, Int)):
        return term
    if isinstance(term, Struct):
        return Struct(term.name, tuple(canonical(a, mapping) for a in term.args))
    if isinstance(term, Clause):
        return Clause(
            head=canonical(term.head, mapping),
            body=tuple(canonical(g, mapping) for g in term.body),
        )
    raise TypeError(f"not a term: {term!r}")


def variant_equal(a, b) -> bool:
    """True when a and b differ only in variable names."""
    return canonical(a) == canonical(b)


def variant_equal_seq(xs, ys) -> bool:
    """Variant equality over a sequence, with one shared renaming per side
    (variable identities must correspond across all elements)."""
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        return False
    ma, mb = {}, {}
    return all(canonical(x, ma) == canonical(y, mb) for x, y in zip(xs, ys))


def occurs(v, t) -> bool:
    return v in subterms(t)


def reference_unify(t1, t2):
    """Most general unifier of ``t1`` and ``t2`` as a dict, or None: the
    reference that ``Store.unify`` is tested against.

    Works through a stack of equations.  Each variable binding is pushed
    eagerly into both the remaining equations and the accumulated
    substitution, so the result is idempotent.  The occurs check is always
    on: reference_unify(X, f(X)) is None.
    """
    theta = {}
    stack = [(t1, t2)]

    def bind(v, value):
        one = {v: value}
        for i, (a, b) in enumerate(stack):
            stack[i] = (apply(one, a), apply(one, b))
        for k in list(theta):
            theta[k] = apply(one, theta[k])
        theta[v] = value

    while stack:
        x, y = stack.pop()
        if isinstance(x, (Var, Atom, Int)) and x == y:
            continue
        if isinstance(x, Var) and not occurs(x, y):
            bind(x, y)
            continue
        if isinstance(y, Var) and not occurs(y, x):
            bind(y, x)
            continue
        if (
            isinstance(x, Struct)
            and isinstance(y, Struct)
            and x.name == y.name
            and len(x.args) == len(y.args)
        ):
            stack.extend(zip(x.args, y.args))
            continue
        return None
    return theta


def rename_then_unify(store, goal, clause, order, fresh):
    """Reference for ``Store.unify_head``, with its signature: rename
    ``clause`` apart, unify ``goal`` with the renamed head in ``store``,
    and return the renamed body, or None if they do not unify."""
    renamed = rename_clause(clause, fresh)
    return renamed.body if store.unify(goal, renamed.head) else None


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv, stdin_text: str = "") -> CliResult:
    stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = cli_main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return CliResult(code, stdout.getvalue(), stderr.getvalue())
