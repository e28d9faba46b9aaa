"""Shared test helpers: variant equality, the reference unifier and head
match, the reference proof finalizer, the reference reader, a database's
contents, CLI harness."""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from skolog import Atom, Clause, Int, ParseError, Struct, Var
from skolog.cli import main as cli_main
from skolog.database import StoredClause
from skolog.engine import Solution
from skolog.explain import QUERY_ROOT, ProofNode
from skolog.parser import _ESCAPE, _ESCAPES
from skolog.terms import NIL, Term, anonymous_var, apply, mklist, rename_clause, subterms


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


def rename_then_unify(store, goal, clause, fresh):
    """Reference for ``Store.unify_head``, with its signature: rename
    ``clause`` apart, unify the renamed head with ``goal`` in ``store``,
    so the clause's side binds first, and return the renamed body, or None
    if they do not unify.  A head that does not unify gives its renaming's
    ids back to ``fresh``."""
    start = fresh.next_id
    renamed = rename_clause(clause, fresh)
    if store.unify(renamed.head, goal):
        return renamed.body
    fresh.next_id = start
    return None


def finalize_from_scratch(solver, qvars):
    """Reference for ``Solver._solution``: the answer over ``qvars`` and its
    proof, built from the solver's records and store as they stand, with
    every record's entry goal and bindings resolved as of its stamps
    rather than taken from an earlier answer's node."""
    res = solver._store.resolver(history=True)
    bindings = {v: res.resolve(v) for v in qvars if v in res.bindings}
    built = []  # finished nodes, a first child on top
    for goal, stamp, after, just in reversed(solver._records):
        final = res.resolve(goal)
        entry = res.resolve(goal, stamp, later := {})
        theta = {v: res.resolve(v, after) for v in later if res.pos[v] < after}
        children = ()
        if type(just) is StoredClause:
            n = len(just.clause.body)
            if n:
                children = tuple(reversed(built[-n:]))
                del built[-n:]
        built.append(ProofNode(final, entry, just, theta, children))
    built.reverse()
    if len(built) == 1:
        return Solution(bindings, built[0])
    goal = Struct(",", tuple(p.goal for p in built)) if built else Atom("true")
    return Solution(bindings, ProofNode(goal, goal, QUERY_ROOT, {}, tuple(built)))


# ----------------------------------------------------------------------
# The reference reader: a Token with its line and column for every token,
# read through peek and advance.  The parse_* functions of skolog.parser
# are tested against these reference_parse_* functions.

# One alternative per token kind, tried in order; "illegal" takes any
# character the others reject.  \s, \d and \w match what str.isspace,
# int() and str.isalnum (plus "_") accept.  A quoted atom that matches
# without "close" stopped at a bad escape or at the end of the text.
_TOKEN = re.compile(
    r"""(?P<skip>(?:\s+|%[^\n]*)+)
      | (?P<int>-?\d+)
      | (?P<name>\w+)
      | (?P<quoted>'(?:[^'\\]|\\[\\'nt])*(?P<close>')?)
      | (?P<punct>:-|\?-|\\=|[()\[\]|,.!=])
      | (?P<illegal>.)""",
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # "atom" | "var" | "int" | "punct" | "eof"
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset where the current line begins
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "name":
            c = tok[0]
            kind = "atom" if c.islower() else "var" if c.isupper() or c == "_" else "illegal"
        if kind == "atom" or kind == "var" or kind == "punct":
            toks.append(Token(kind, tok, line, col))
        elif kind == "int":
            try:
                toks.append(Token("int", int(tok), line, col))
            except ValueError:  # more digits than int() will convert
                raise ParseError("integer too long", line, col) from None
        elif kind == "illegal":
            raise ParseError(f"illegal character {tok[0]!r}", line, col, expected="token")
        else:  # skip or quoted, the only tokens that may span lines
            start_line = line
            newlines = tok.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + tok.rindex("\n") + 1
            if kind == "quoted":
                if m["close"] is None:
                    end = m.end()
                    message = "bad escape in" if end < len(text) else "unterminated"
                    raise ParseError(f"{message} quoted atom", line, end - line_start + 1)
                name = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], tok[1:-1])
                toks.append(Token("atom", name, start_line, col))
    toks.append(Token("eof", None, line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at_punct(self, *symbols: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.value in symbols

    def expect_punct(self, symbol: str) -> Token:
        t = self.peek()
        if t.kind != "punct" or t.value != symbol:
            self.fail(f"unexpected {describe(t)}", expected=repr(symbol))
        return self.advance()

    def fail(self, message: str, expected: Optional[str] = None) -> None:
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected=expected)

    def parse_term(self) -> Term:
        # A stack of open compounds and lists instead of recursion, so that
        # terms may nest as deep as the input goes.  A frame is [kind,
        # functor, parts]: kind "(" reads arguments, "[" list items, "|"
        # a list tail, which is then the last of its parts.
        toks = self.toks
        frames: list[list] = []
        while True:
            t = toks[self.i]
            if t.kind == "atom":
                self.i += 1
                if toks[self.i][:2] == ("punct", "("):
                    self.i += 1
                    frames.append(["(", t.value, []])
                    continue
                term = Atom(t.value)
            elif t.kind == "var":
                self.i += 1
                term = anonymous_var() if t.value == "_" else Var(t.value)
            elif t.kind == "int":
                self.i += 1
                term = Int(t.value)
            elif t[:2] == ("punct", "["):
                self.i += 1
                if toks[self.i][:2] != ("punct", "]"):
                    frames.append(["[", None, []])
                    continue
                self.i += 1
                term = NIL
            elif t[:2] == ("punct", "!"):
                self.i += 1
                term = Atom("!")
            else:
                self.fail(f"unexpected {describe(t)}", expected="term")
            while frames:  # close what the term completes
                kind, name, parts = frames[-1]
                parts.append(term)
                t = toks[self.i]
                if t.kind == "punct" and kind != "|":
                    if t.value == ",":
                        self.i += 1
                        break
                    if t.value == "|" and kind == "[":
                        self.i += 1
                        frames[-1][0] = "|"
                        break
                frames.pop()
                if kind == "(":
                    self.expect_punct(")")
                    term = Struct(name, tuple(parts))
                else:
                    self.expect_punct("]")
                    term = mklist(parts) if kind == "[" else mklist(parts[:-1], parts[-1])
            else:
                return term

    def parse_goal(self) -> Term:
        t = self.peek()
        lhs = self.parse_term()
        if self.at_punct("=", "\\="):
            op = self.advance()
            rhs = self.parse_term()
            return Struct(str(op.value), (lhs, rhs))
        if isinstance(lhs, Var):
            raise ParseError("variable is not a callable goal", t.line, t.col, expected="goal")
        if isinstance(lhs, Int):
            raise ParseError("integer is not a callable goal", t.line, t.col, expected="goal")
        return lhs

    def parse_goals(self) -> list[Term]:
        goals = [self.parse_goal()]
        while self.at_punct(","):
            self.advance()
            goals.append(self.parse_goal())
        return goals

    def parse_clause(self) -> Clause:
        start = self.peek()
        head = self.parse_term()
        if isinstance(head, (Var, Int)):
            raise ParseError(
                "clause head must be an atom or compound term",
                start.line,
                start.col,
                expected="clause head",
            )
        body: tuple[Term, ...] = ()
        if self.at_punct(":-"):
            self.advance()
            body = tuple(self.parse_goals())
        self.expect_punct(".")
        return Clause(head=head, body=body)

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            self.fail(f"unexpected {describe(self.peek())}", expected="end of input")


def describe(t: Token) -> str:
    if t.kind == "eof":
        return "end of input"
    if t.kind == "punct":
        return f"'{t.value}'"
    return f"{t.kind} '{t.value}'"


def reference_parse_program(text: str) -> list[Clause]:
    p = _Parser(tokenize(text))
    clauses: list[Clause] = []
    while p.peek().kind != "eof":
        clauses.append(p.parse_clause())
    return clauses


def reference_parse_query(text: str) -> list[Term]:
    p = _Parser(tokenize(text))
    if p.at_punct("?-"):
        p.advance()
    goals = p.parse_goals()
    p.expect_punct(".")
    p.expect_eof()
    return goals


def reference_parse_clause_text(text: str) -> Clause:
    p = _Parser(tokenize(text))
    c = p.parse_clause()
    p.expect_eof()
    return c


def reference_parse_term_text(text: str) -> Term:
    p = _Parser(tokenize(text))
    t = p.parse_term()
    p.expect_eof()
    return t


def stored_clauses(db):
    """What ``db`` holds, ids aside: each stored clause's kind and clause,
    predicate by predicate, in stored order."""
    return [(sc.kind, sc.clause) for sc in db.all_stored()]


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
