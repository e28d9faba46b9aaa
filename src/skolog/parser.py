"""Reader and writer for the clause syntax.

Grammar (Edinburgh-style subset):

    program  ::=  clause*
    clause   ::=  term [ ':-' goals ] '.'
    query    ::=  [ '?-' ] goals '.'
    goals    ::=  goal ( ',' goal )*
    goal     ::=  term [ ( '=' | '\\=' ) term ]
    term     ::=  VAR | INT | ATOM [ '(' term ( ',' term )* ')' ]
               |  '[' [ term ( ',' term )* [ '|' term ] ] ']'  |  '!'

Names are runs of word characters (``str.isalnum`` or ``_``).  A name
that starts with a lowercase letter is an atom; one that starts with an
uppercase letter or ``_`` is a variable (a bare ``_`` is a fresh variable
per occurrence).  Atoms may also be single-quoted, with the escapes
``\\\\ \\' \\n \\t``.  Integers are decimal digits (those ``int`` reads)
with an optional leading minus.  ``%`` starts a comment.  A name that
starts otherwise, and any other character, is a ParseError at its
line:col.  Lists are sugar for '.'/2 chains ending in ``[]``.

The first lexical error in the text wins: each distinct token is
checked once, before parsing.  A token's line:col is worked out, by
scanning the text again, only for an error.

``format_term`` writes the canonical form read back by the parser:
no spaces inside terms, lists re-sugared, atoms quoted only when needed.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from .errors import ParseError
from .terms import (
    CUT,
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
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPES = {"\\": "\\\\", "'": "\\'", "\n": "\\n", "\t": "\\t"}
_PUNCT = frozenset((":-", "?-", "\\=", "(", ")", "[", "]", "|", ",", ".", "!", "="))
# Whitespace and comments, then one token: punctuation, an integer, a
# name, a quoted atom, any other character (illegal), or "" at the end of
# the text.  \s, \d and \w match what str.isspace, int() and str.isalnum
# (plus "_") accept.  Some alternative of the token matches wherever the
# prefix stops, so the prefix never backtracks.  A quoted atom that
# _QUOTED does not match stopped at a bad escape or at the end.
_SCAN = re.compile(
    r"""(?:\s+|%[^\n]*)*
      ( [()\[\]|,.!=] | :- | \?- | \\= | -?\d+ | \w+ | '(?:[^'\\]|\\[\\'nt])*'? | . | \Z )""",
    re.VERBOSE | re.DOTALL,
)
_QUOTED = re.compile(r"'(?:[^'\\]|\\[\\'nt])*'")


def _lexeme(tok: str) -> Optional[Term]:
    """The term that a name, quoted atom or integer token reads as; None
    for punctuation, ``_`` and the end.  ValueError(message, expected)
    for a lexical error."""
    c = tok[:1]
    if tok in _PUNCT or tok == "_" or not c:
        return None
    if c == "'":
        if _QUOTED.fullmatch(tok):
            return Atom(_ESCAPE.sub(lambda e: _ESCAPES[e[1]], tok[1:-1]))
        raise ValueError("quoted atom", None)
    if c.isdecimal() or c == "-" and len(tok) > 1:
        try:
            return Int(int(tok))
        except ValueError:  # more digits than int() will convert
            raise ValueError("integer too long", None) from None
    if c.isalnum() and c.islower():
        return Atom(tok)
    if c.isalnum() and c.isupper() or c == "_":
        return Var(tok)
    raise ValueError(f"illegal character {c!r}", "token")


def _position(text: str, i: int, end: bool = False) -> tuple[int, int]:
    """Line and column where token ``i`` of ``text`` starts, or ends."""
    m = next(itertools.islice(_SCAN.finditer(text), i, None))
    offset = m.end() if end else m.start(1)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> tuple[list[str], dict[str, Optional[Term]]]:
    """The token strings of ``text``, ending in "" for the end, and what
    each distinct one reads as (see _lexeme).  The first lexical error in
    the text is a ParseError, whatever follows."""
    toks = _SCAN.findall(text)
    terms: dict[str, Optional[Term]] = {}
    errors = {}
    for tok in set(toks):
        try:
            terms[tok] = _lexeme(tok)
        except ValueError as e:
            errors[tok] = e.args
    if errors:
        i = next(i for i, tok in enumerate(toks) if tok in errors)
        message, expected = errors[toks[i]]
        if message != "quoted atom":
            raise ParseError(message, *_position(text, i), expected=expected)
        # an unclosed quoted atom stops at the end or before a backslash
        message = ("bad escape in " if toks[i + 1] else "unterminated ") + message
        raise ParseError(message, *_position(text, i, end=True))
    return toks, terms


class _Reader:
    """Reads terms from the token strings of one text.  A token's position
    is worked out from the text only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.toks, self.terms = tokenize(text)
        self.i = 0

    def fail(self, message: str, expected: Optional[str] = None, at: Optional[int] = None):
        raise ParseError(message, *_position(self.text, self.i if at is None else at), expected=expected)

    def unexpected(self, expected: str):
        tok = self.toks[self.i]
        term = self.terms.get(tok)
        if term is None:
            what = "end of input" if not tok else "var '_'" if tok == "_" else f"'{tok}'"
        else:
            what = f"{type(term).__name__.lower()} '{term.value if type(term) is Int else term.name}'"
        self.fail(f"unexpected {what}", expected)

    def expect(self, symbol: str, expected: Optional[str] = None) -> None:
        if self.toks[self.i] != symbol:
            self.unexpected(expected or repr(symbol))
        self.i += 1

    def parse_term(self) -> Term:
        # A stack of open compounds and lists instead of recursion, so that
        # terms may nest as deep as the input goes.  A frame is [kind,
        # functor, parts]: kind "(" reads arguments, "[" list items, "|"
        # a list tail, which is then the last of its parts.
        toks, terms = self.toks, self.terms
        frames: list[list] = []
        while True:
            t = toks[self.i]
            term = terms.get(t)
            if term is not None:
                self.i += 1
                if toks[self.i] == "(" and type(term) is Atom:
                    self.i += 1
                    frames.append(["(", term.name, []])
                    continue
            elif t == "_":
                self.i += 1
                term = anonymous_var()
            elif t == "[":
                self.i += 1
                if toks[self.i] != "]":
                    frames.append(["[", None, []])
                    continue
                self.i += 1
                term = NIL
            elif t == "!":
                self.i += 1
                term = CUT
            else:
                self.unexpected("term")
            while frames:  # close what the term completes
                kind, name, parts = frames[-1]
                parts.append(term)
                t = toks[self.i]
                if kind != "|":
                    if t == ",":
                        self.i += 1
                        break
                    if t == "|" and kind == "[":
                        self.i += 1
                        frames[-1][0] = "|"
                        break
                frames.pop()
                if kind == "(":
                    self.expect(")")
                    term = Struct(name, tuple(parts))
                else:
                    self.expect("]")
                    term = mklist(parts) if kind == "[" else mklist(parts[:-1], parts[-1])
            else:
                return term

    def parse_goal(self) -> Term:
        start = self.i
        lhs = self.parse_term()
        op = self.toks[self.i]
        if op == "=" or op == "\\=":
            self.i += 1
            return Struct(op, (lhs, self.parse_term()))
        if type(lhs) is Var:
            self.fail("variable is not a callable goal", "goal", start)
        if type(lhs) is Int:
            self.fail("integer is not a callable goal", "goal", start)
        return lhs

    def parse_goals(self) -> list[Term]:
        goals = [self.parse_goal()]
        while self.toks[self.i] == ",":
            self.i += 1
            goals.append(self.parse_goal())
        return goals

    def parse_clause(self) -> Clause:
        start = self.i
        head = self.parse_term()
        if type(head) is Var or type(head) is Int:
            self.fail("clause head must be an atom or compound term", "clause head", start)
        body: tuple[Term, ...] = ()
        if self.toks[self.i] == ":-":
            self.i += 1
            body = tuple(self.parse_goals())
        self.expect(".")
        return Clause(head=head, body=body)


def parse_program(text: str) -> list[Clause]:
    p = _Reader(text)
    clauses: list[Clause] = []
    while p.toks[p.i]:
        clauses.append(p.parse_clause())
    return clauses


def parse_query(text: str) -> list[Term]:
    """Goals of one query: ``?- g1, g2.`` (the ``?-`` is optional)."""
    p = _Reader(text)
    if p.toks[0] == "?-":
        p.i = 1
    goals = p.parse_goals()
    p.expect(".")
    p.expect("", "end of input")
    return goals


def parse_clause_text(text: str) -> Clause:
    p = _Reader(text)
    c = p.parse_clause()
    p.expect("", "end of input")
    return c


def parse_term_text(text: str) -> Term:
    p = _Reader(text)
    t = p.parse_term()
    p.expect("", "end of input")
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
    text = c._text
    if text is None:
        text = format_term(c.head) + (" :- " + format_goals(c.body) if c.body else "") + "."
        object.__setattr__(c, "_text", text)  # a clause is immutable: its text never goes stale
    return text


def format_bindings(theta: Subst) -> str:
    return ", ".join(f"{v.name} = {format_term(t)}" for v, t in theta.items())
