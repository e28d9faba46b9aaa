"""Interactive fact acquisition: ask/3, ask_value/3, and the known/4 memo.

A reply is a term: ``yes``, ``no`` or a value.  Everything the user (or a
script standing in for the user) says is memoised as a ground
``known(Reply, Attribute, Subject, Value)`` fact at the front of the
ordinary database, so ``listing`` shows it and ``retract`` can take it
back.  A reply with a variable in it is an error, and a known/4 fact with
one answers nothing.  A given question is put to the oracle at most once
per session.  One function, ``ask``, applies this table to both kinds of
question (``value=None`` asks for a value, as ``Question`` has it), taking
the first fact in database order that a row names:

    ask(A, P, V):        known(yes, A, P, V)  -> succeed
                         known(_,  A, P, V)   -> fail
                         otherwise            -> consult, record, test for yes
    ask_value(A, P, V):  known(yes, A, P, W)  -> bind V = W (first in order)
                         known(no, A, P, no_value) -> fail
                         otherwise            -> consult for a value

A refused ask_value (the reply ``no``) stores the reserved atom
``no_value`` so the question is not put again.

The oracle is the only party to a question: it puts it, shows WHY it is
asked when told ``why`` (on the stream the question went to), and answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TextIO, Union

from .database import Database, StoredClause
from .errors import EngineError, OracleScriptError, ParseError, UnansweredQuestionError
from .parser import format_clause, format_goal, format_goals, format_term, parse_term_text
from .terms import Atom, Clause, Struct, Term, is_ground

KNOWN = ("known", 4)
NO_VALUE = Atom("no_value")


@dataclass(frozen=True)
class Question:
    attribute: str
    subject: str
    value: Optional[Term] = None  # None means: a value is requested


YES = Atom("yes")
NO = Atom("no")


def value_answer(t: Term) -> Term:
    """The reply that gives the value ``t``: the term itself.  Only the
    benchmark's ``DictOracle`` calls it; ROADMAP item 1, which changes the
    benchmark, deletes it."""
    return t


def prompt_for(q: Question) -> str:
    if q.attribute == "skolem" and q.value is None:  # negation's witness question
        return f"new constant for a false instance of {q.subject} ?"
    if q.value is None:
        return f"{q.attribute} of person {q.subject} is ?"
    return f"{q.attribute} of person {q.subject} is {format_term(q.value)} ?"


@dataclass(frozen=True)
class WhyContext:
    """Goal stack behind a pending question: (goal, clause) frames from the
    query root down to the clause whose body is being proved."""

    frames: tuple[tuple[Term, StoredClause], ...]
    root: tuple[Term, ...]


def why(ctx: WhyContext) -> str:
    """WHY a question is being put: the clause chain from the pending goal
    back to the query, innermost first."""
    lines = [
        f"trying to prove {format_goal(goal)} using {format_clause(sc.clause)}"
        for goal, sc in reversed(ctx.frames)
    ]
    lines.append(f"to answer your query {format_goals(ctx.root)}")
    return "\n".join(lines)


class Oracle:
    """Answers questions."""

    def answer(self, question: Question, why_supplier: Optional[Callable] = None) -> Term:
        """The reply to ``question``, a term: ``YES``, ``NO`` or a value.
        ``why_supplier``, if given, returns the ``WhyContext`` behind it: an
        oracle that can be asked why shows ``why`` of it on its own stream,
        then puts the question again."""
        raise NotImplementedError


def consult(oracle: Optional[Oracle], question: Question, why_supplier=None) -> Term:
    """Put one question; with no oracle attached that is an error."""
    if oracle is None:
        raise EngineError(f"a question came up but no oracle is attached: {prompt_for(question)}")
    return oracle.answer(question, why_supplier)


class ScriptedOracle(Oracle):
    """Answers from a script, one entry per line:

        ask <attribute> <subject> <value> -> yes|no
        askv <attribute> <subject> -> <value>|no

    ``#`` starts a comment.  An entry is a ``Question`` and its reply term;
    a question uses up the first entry that asks exactly it.  An unmatched
    question raises, naming the question.  Never asks why.
    """

    def __init__(self, text: str):
        self.entries = _parse_script(text)

    def answer(self, question: Question, why_supplier=None) -> Term:
        for i, (q, reply) in enumerate(self.entries):
            if q == question:
                del self.entries[i]
                return reply
        raise UnansweredQuestionError(f"no script entry for: {prompt_for(question)}")


def _parse_script(text: str) -> list[tuple[Question, Term]]:
    entries: list[tuple[Question, Term]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise OracleScriptError(f"script line {lineno}: missing '->'")
        lhs, rhs = (part.strip() for part in line.split("->", 1))
        fields = lhs.split()
        if not fields:
            raise OracleScriptError(f"script line {lineno}: empty question")
        kind = fields[0]
        if kind == "ask":
            if len(fields) < 4:
                raise OracleScriptError(f"script line {lineno}: ask needs attribute, subject, value")
            value = _script_value(" ".join(fields[3:]), lineno)
            if rhs not in ("yes", "no"):
                raise OracleScriptError(f"script line {lineno}: ask reply must be yes or no")
            entries.append((Question(fields[1], fields[2], value), Atom(rhs)))
        elif kind == "askv":
            if len(fields) != 3:
                raise OracleScriptError(f"script line {lineno}: askv needs attribute, subject")
            entries.append((Question(fields[1], fields[2]), _script_value(rhs, lineno)))
        else:
            raise OracleScriptError(f"script line {lineno}: unknown entry kind {kind!r}")
    return entries


def _script_value(text: str, lineno: int) -> Term:
    try:
        return parse_term_text(text)
    except ParseError as e:
        raise OracleScriptError(f"script line {lineno}: {e}") from None


class InteractiveOracle(Oracle):
    """Puts questions to a person on a pair of text streams.

    Accepted replies: ``why.``, or a term such as ``yes.``, ``no.`` or a
    value (the trailing period is optional).  ``why`` writes the WHY chain
    and puts the question again; anything unreadable re-prompts.
    """

    def __init__(self, in_stream: TextIO, out_stream: TextIO):
        self.in_stream = in_stream
        self.out_stream = out_stream

    def answer(self, question: Question, why_supplier=None) -> Term:
        while True:
            self.out_stream.write(prompt_for(question) + "\n")
            line = self.in_stream.readline()
            if line == "":
                raise UnansweredQuestionError(
                    f"input ended during question: {prompt_for(question)}"
                )
            line = line.strip()
            if line.endswith("."):
                line = line[:-1].strip()
            if not line:
                continue
            if line == "why":
                if why_supplier is not None:
                    self.out_stream.write(why(why_supplier()) + "\n")
                continue
            try:
                return parse_term_text(line)
            except ParseError:
                self.out_stream.write("please answer yes., no., why., or a term\n")


@dataclass(frozen=True)
class UserSaidJust:
    question: Question
    answer: Term  # the reply as given


@dataclass
class AskResult:
    """An ask's outcome.  ``just`` is what a proof of the ask cites: the
    known/4 fact of a memo hit, or a ``UserSaidJust`` for a fresh answer."""

    succeeded: bool
    source: str  # "memo" | "fresh"
    just: Union[StoredClause, UserSaidJust]
    value: Optional[Term] = None  # ask_value: term bound to V


def _record(db: Database, q: Question, reply: Term) -> None:
    """Store ``reply`` to ``q`` as a known/4 fact: a yes/no reply as given,
    a refused value as ``no_value``, and a value as a ``yes`` for it.  A
    reply that is not ground is an error, and nothing is stored."""
    if not is_ground(reply):
        raise EngineError(f'reply {format_term(reply)} to "{prompt_for(q)}" is not ground')
    if q.value is not None:
        answer, value = reply, q.value
    elif reply == NO:
        answer, value = NO, NO_VALUE
    else:
        answer, value = YES, reply
    db.asserta(Clause(head=Struct("known", (answer, Atom(q.attribute), Atom(q.subject), value))))


def ask(
    db: Database,
    attribute: str,
    subject: str,
    value: Optional[Term],
    oracle: Optional[Oracle],
    why_supplier: Optional[Callable] = None,
) -> AskResult:
    """Answer the question about ``attribute`` of ``subject``: whether it is
    the ground ``value``, or, with ``value`` None, what it is.  The known/4
    memo answers by the table above; otherwise the oracle is consulted and
    its reply recorded."""
    key = (Atom(attribute), Atom(subject))
    refused = None
    for sc in db.clauses(KNOWN, (None, *key)):
        c = sc.clause
        if c.body or not is_ground(c.head) or c.head.args[1:3] != key:
            continue  # a rule or a fact with a variable answers nothing
        said, _, _, known = c.head.args
        if value is not None:
            if known == value:
                return AskResult(said == YES, "memo", sc)
        elif said == YES:  # answers wherever a refusal sits
            return AskResult(True, "memo", sc, known)
        elif refused is None and said == NO and known == NO_VALUE:
            refused = sc
    if refused is not None:
        return AskResult(False, "memo", refused)
    q = Question(attribute, subject, value)
    reply = consult(oracle, q, why_supplier)
    # A term offered where yes/no was wanted is recorded as given, and the
    # ask succeeds exactly when the memo hit on that record later would.
    _record(db, q, reply)
    if value is not None or reply == NO:
        return AskResult(reply == YES, "fresh", UserSaidJust(q, reply))
    return AskResult(True, "fresh", UserSaidJust(q, reply), reply)


def ask_value(
    db: Database,
    attribute: str,
    subject: str,
    oracle: Optional[Oracle],
    why_supplier: Optional[Callable] = None,
) -> AskResult:
    """Value question: what is <attribute> of <subject>?"""
    return ask(db, attribute, subject, None, oracle, why_supplier)


def reset_known(db: Database) -> int:
    """Forget everything acquired through questions; returns the count."""
    return db.clear_predicate(KNOWN)
