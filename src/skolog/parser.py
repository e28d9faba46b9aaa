"""Reader and writer for the clause syntax.

Grammar (Edinburgh-style subset):

    program  ::=  clause*
    clause   ::=  term [ ':-' goals ] '.'
    query    ::=  [ '?-' ] goals '.'
    goals    ::=  goal ( ',' goal )*
    goal     ::=  term [ ( '=' | '\\=' ) term ]
    term     ::=  VAR | INT | ATOM [ '(' term ( ',' term )* ')' ]
               |  '[' [ term ( ',' term )* [ '|' term ] ] ']'  |  '!'

Atoms are /[a-z][A-Za-z0-9_]*/ or single-quoted; variables are
/[A-Z_][A-Za-z0-9_]*/ (a bare ``_`` is a fresh variable per occurrence);
integers may carry a leading minus.  ``%`` starts a comment.  Lists are
sugar for '.'/2 chains ending in ``[]``.

``format_term`` writes the canonical form read back by the parser:
no spaces inside terms, lists re-sugared, atoms quoted only when needed.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .errors import ParseError
from .terms import (
    NIL,
    Atom,
    Clause,
    Int,
    Struct,
    Subst,
    Term,
    Var,
    anonymous_var,
    mklist,
)

_PLAIN_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_ESCAPES = {"\\": "\\", "'": "'", "n": "\n", "t": "\t"}
_UNESCAPES = {"\\": "\\\\", "'": "\\'", "\n": "\\n", "\t": "\\t"}


class Token(NamedTuple):
    kind: str  # "atom" | "var" | "int" | "punct" | "eof"
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def step(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c == "%":
            while i < n and text[i] != "\n":
                step()
            continue
        if c.isspace():
            step()
            continue
        start_line, start_col = line, col
        if c.islower():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("atom", text[i:j], start_line, start_col))
            step(j - i)
            continue
        if c.isupper() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("var", text[i:j], start_line, start_col))
            step(j - i)
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", int(text[i:j]), start_line, start_col))
            step(j - i)
            continue
        if c == "'":
            step()
            chars: list[str] = []
            while True:
                if i >= n:
                    raise ParseError("unterminated quoted atom", line, col)
                c = text[i]
                if c == "'":
                    step()
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise ParseError("bad escape in quoted atom", line, col)
                    chars.append(_ESCAPES[text[i + 1]])
                    step(2)
                    continue
                chars.append(c)
                step()
            toks.append(Token("atom", "".join(chars), start_line, start_col))
            continue
        two = text[i : i + 2]
        if two in (":-", "?-", "\\="):
            toks.append(Token("punct", two, start_line, start_col))
            step(2)
            continue
        if c in "()[]|,.!=":
            toks.append(Token("punct", c, start_line, start_col))
            step()
            continue
        raise ParseError(f"illegal character {c!r}", start_line, start_col, expected="token")

    toks.append(Token("eof", None, line, col))
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
        end = self.expect_punct(".")
        span = (start.line, start.col, end.line, end.col)
        return Clause(head=head, body=body, span=span)

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            self.fail(f"unexpected {describe(self.peek())}", expected="end of input")


def describe(t: Token) -> str:
    if t.kind == "eof":
        return "end of input"
    if t.kind == "punct":
        return f"'{t.value}'"
    return f"{t.kind} '{t.value}'"


def parse_program(text: str) -> list[Clause]:
    p = _Parser(tokenize(text))
    clauses: list[Clause] = []
    while p.peek().kind != "eof":
        clauses.append(p.parse_clause())
    return clauses


def parse_query(text: str) -> list[Term]:
    """Goals of one query: ``?- g1, g2.`` (the ``?-`` is optional)."""
    p = _Parser(tokenize(text))
    if p.at_punct("?-"):
        p.advance()
    goals = p.parse_goals()
    p.expect_punct(".")
    p.expect_eof()
    return goals


def parse_clause_text(text: str) -> Clause:
    p = _Parser(tokenize(text))
    c = p.parse_clause()
    p.expect_eof()
    return c


def parse_term_text(text: str) -> Term:
    p = _Parser(tokenize(text))
    t = p.parse_term()
    p.expect_eof()
    return t


def _atom_text(name: str) -> str:
    if _PLAIN_ATOM.match(name) or name in ("[]", "!"):
        return name
    out = "".join(_UNESCAPES.get(c, c) for c in name)
    return f"'{out}'"


def format_term(t: Term) -> str:
    """Canonical writing: reading it back yields the same term up to
    consistent variable renaming."""
    out: list[str] = []
    # a stack of iterators over terms still to write and text (str) to
    # copy, one per open compound, instead of recursion
    stack = [iter((t,))]
    while stack:
        for x in stack[-1]:
            kind = type(x)
            if kind is str:
                out.append(x)
            elif kind is Atom:
                out.append(_atom_text(x.name))
            elif kind is Var:
                out.append(x.name)
            elif kind is Int:
                out.append(str(x.value))
            else:
                if x.name == "." and len(x.args) == 2:
                    parts = ["["]
                    while type(x) is Struct and x.name == "." and len(x.args) == 2:
                        parts += [x.args[0], ","]
                        x = x.args[1]
                    parts[-1:] = ["]"] if x == NIL else ["|", x, "]"]
                else:
                    parts = [_atom_text(x.name) + "("]
                    for a in x.args:
                        parts += [a, ","]
                    parts[-1] = ")"
                stack.append(iter(parts))
                break
        else:
            stack.pop()
    return "".join(out)


def format_goal(t: Term) -> str:
    """Like format_term, but writes =/2 and \\=/2 infix as goals read."""
    if isinstance(t, Struct) and t.name in ("=", "\\=") and len(t.args) == 2:
        return f"{format_term(t.args[0])} {t.name} {format_term(t.args[1])}"
    return format_term(t)


def format_goals(goals) -> str:
    return ", ".join(format_goal(g) for g in goals)


def format_clause(c: Clause) -> str:
    if not c.body:
        return format_term(c.head) + "."
    return format_term(c.head) + " :- " + format_goals(c.body) + "."


def format_bindings(theta: Subst) -> str:
    return ", ".join(f"{v.name} = {format_term(t)}" for v, t in theta.items())
