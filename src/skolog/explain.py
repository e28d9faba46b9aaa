"""Proof trees and their renderings: HOW, the derived trace, and JSON.
WHY (``WhyContext``, ``why``) explains a question, so it lives in ``oracle``.

Negation as failure leaves nothing to explain (a failed search has no
tree), which is the gap the s-fact transform fills: a success through a
stored negative fact cites that fact like any other justification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from .database import StoredClause
from .oracle import Answer, Question, WhyContext, answer_text, prompt_for, why  # noqa: F401
from .parser import format_bindings, format_clause, format_goal, format_goals, format_term
from .terms import Subst, Term, TRUE, indicator_of


@dataclass(frozen=True)
class ClauseJust:
    clause: StoredClause


@dataclass(frozen=True)
class BuiltinJust:
    name: str


@dataclass(frozen=True)
class AssertedFactJust:
    clause: StoredClause


@dataclass(frozen=True)
class UserSaidJust:
    question: Question
    answer: Answer


@dataclass(frozen=True)
class SFactJust:
    clause: StoredClause


Justification = Union[ClauseJust, BuiltinJust, AssertedFactJust, UserSaidJust, SFactJust]

# Marker justification for the synthetic root over multi-goal queries.
QUERY_ROOT = BuiltinJust("query")


@dataclass(frozen=True)
class ProofNode:
    """One reduction in a successful derivation.

    ``goal`` is the goal as instantiated in the final answer; ``entry_goal``
    is the goal as it stood when selected; ``bindings`` is that reduction's
    unifier restricted to the entry goal's variables.
    """

    goal: Term
    entry_goal: Term
    justification: Justification
    bindings: Subst
    children: tuple["ProofNode", ...] = ()


@dataclass(frozen=True)
class TraceEntry:
    goal: Term
    bindings: Subst


def _is_reduction(node: ProofNode) -> bool:
    return isinstance(node.justification, (ClauseJust, AssertedFactJust, SFactJust))


def trace_of(proof: ProofNode) -> list[TraceEntry]:
    """Goal-by-goal account of the successful derivation, one entry per
    clause reduction in proof order, closed by a ``true`` entry for the
    empty resolvent."""
    entries: list[TraceEntry] = []
    todo = [proof]  # a stack, not recursion: a proof nests as deep as its derivation
    while todo:
        node = todo.pop()
        if _is_reduction(node):
            entries.append(TraceEntry(node.entry_goal, dict(node.bindings)))
        todo.extend(reversed(node.children))
    entries.append(TraceEntry(TRUE, {}))
    return entries


def format_trace_entry(e: TraceEntry) -> str:
    if not e.bindings:
        return format_goal(e.goal)
    return f"{format_goal(e.goal)}\t{format_bindings(e.bindings)}"


def format_trace(entries: list[TraceEntry]) -> str:
    return "\n".join(format_trace_entry(e) for e in entries)


def _node_line(node: ProofNode) -> str:
    j = node.justification
    g = format_goal(node.goal)
    if isinstance(j, (ClauseJust, AssertedFactJust)):
        c = j.clause.clause
        if not c.body:
            if indicator_of(node.goal) != indicator_of(c.head):
                # a fact about the goal rather than an instance of it:
                # an ask answered from the known/4 memo
                return f"{g} BECAUSE {format_term(c.head)} is a fact"
            return f"{g} is a fact"
        rule = format_term(c.head) + " :- " + format_goals(c.body)
        return f"{g} BECAUSE {rule} WITH {{{format_bindings(node.bindings)}}}"
    if isinstance(j, UserSaidJust):
        return f'user said {answer_text(j.answer)} to "{prompt_for(j.question)}"'
    if isinstance(j, SFactJust):
        return f"{g} negated by s-fact {format_term(j.clause.clause.head)}"
    assert isinstance(j, BuiltinJust)
    return f"{g} by builtin {j.name}"


def how(proof: ProofNode) -> str:
    """HOW a solution was reached: the root reduction, then each subproof
    indented two spaces per level."""
    lines: list[str] = []
    todo = [(proof, 0)]
    while todo:
        node, depth = todo.pop()
        if node.justification is QUERY_ROOT:
            todo.extend((c, depth) for c in reversed(node.children))
            continue
        lines.append("  " * depth + _node_line(node))
        todo.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines)


def _bindings_json(theta: Subst) -> list[dict]:
    return [{"var": v.name, "term": format_term(t)} for v, t in theta.items()]


def _justification_json(j: Justification) -> dict:
    if isinstance(j, ClauseJust):
        return {"kind": "clause", "id": j.clause.id, "clause": format_clause(j.clause.clause)}
    if isinstance(j, AssertedFactJust):
        return {"kind": "asserted_fact", "id": j.clause.id, "clause": format_clause(j.clause.clause)}
    if isinstance(j, SFactJust):
        return {"kind": "s_fact", "id": j.clause.id, "clause": format_clause(j.clause.clause)}
    if isinstance(j, UserSaidJust):
        return {
            "kind": "user_said",
            "prompt": prompt_for(j.question),
            "answer": answer_text(j.answer),
        }
    assert isinstance(j, BuiltinJust)
    return {"kind": "builtin", "name": j.name}


def proof_to_json(proof: ProofNode) -> dict:
    """The proof as nested dicts, built without recursion.  Encode it with
    ``json_text``: ``json.dumps`` recurses once per level."""
    out: list[dict] = []
    todo = [(proof, out)]  # (node, the list its dict goes in)
    while todo:
        node, siblings = todo.pop()
        children: list[dict] = []
        siblings.append(
            {
                "goal": format_goal(node.goal),
                "justification": _justification_json(node.justification),
                "bindings": _bindings_json(node.bindings),
                "children": children,
            }
        )
        todo.extend((c, children) for c in reversed(node.children))
    return out[0]


def json_text(value) -> str:
    """``json.dumps(value, indent=2)`` for dicts, lists and scalars, without
    recursion, so proofs of any depth encode."""
    out: list[str] = []
    todo: list = [(value, "\n")]  # (value, newline and indent of its level), or text
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        x, nl = item
        inner = nl + "  "
        if type(x) is dict and x:
            parts: list = ["{"]
            for k, v in x.items():
                parts += [inner + json.dumps(k) + ": ", (v, inner), ","]
            parts[-1] = nl + "}"
        elif type(x) is list and x:
            parts = ["["]
            for v in x:
                parts += [inner, (v, inner), ","]
            parts[-1] = nl + "]"
        else:
            out.append(json.dumps(x))
            continue
        todo.extend(reversed(parts))
    return "".join(out)


def trace_to_json(entries: list[TraceEntry]) -> list[dict]:
    return [
        {"goal": format_goal(e.goal), "bindings": _bindings_json(e.bindings)}
        for e in entries
    ]
