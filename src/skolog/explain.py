"""Proof trees and their renderings: HOW, the derived trace, and JSON.
WHY (``WhyContext``, ``why``) explains a question, so it lives in ``oracle``,
as does ``UserSaidJust``: the oracle alone knows what justifies an answer.

A proof node is justified by one of three values: the ``StoredClause`` it
cites (a clause reduction, a known/4 memo hit, a holds_negated/1 hit), a
builtin's name (``"query"`` for the root over a multi-goal query), or a
``UserSaidJust`` for a fresh answer.  A cited clause's ``kind`` names where
it came from, as JSON prints it: ``clause`` for program text,
``asserted_fact`` for an assert or acquisition at run time, or ``s_fact``.

Negation as failure leaves nothing to explain (a failed search has no
tree), which is the gap the s-fact transform fills: a success through a
stored negative fact cites that fact like any other justification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from .database import StoredClause, KIND_S_FACT
from .oracle import UserSaidJust, WhyContext, answer_text, prompt_for, why  # noqa: F401
from .parser import format_bindings, format_clause, format_goal, format_goals, format_term
from .terms import Subst, Term, TRUE, indicator_of

Justification = Union[StoredClause, str, UserSaidJust]

# The builtin name that justifies the synthetic root over multi-goal queries.
QUERY_ROOT = "query"


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


def trace_of(proof: ProofNode) -> list[TraceEntry]:
    """Goal-by-goal account of the successful derivation, one entry per
    clause reduction in proof order, closed by a ``true`` entry for the
    empty resolvent."""
    entries: list[TraceEntry] = []
    todo = [proof]  # a stack, not recursion: a proof nests as deep as its derivation
    while todo:
        node = todo.pop()
        if type(node.justification) is StoredClause:
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
    if type(j) is StoredClause:
        c = j.clause
        if j.kind == KIND_S_FACT:
            return f"{g} negated by s-fact {format_term(c.head)}"
        if not c.body:
            if indicator_of(node.goal) != indicator_of(c.head):
                # a fact about the goal rather than an instance of it:
                # an ask answered from the known/4 memo, or holds_negated/1
                return f"{g} BECAUSE {format_term(c.head)} is a fact"
            return f"{g} is a fact"
        rule = format_term(c.head) + " :- " + format_goals(c.body)
        return f"{g} BECAUSE {rule} WITH {{{format_bindings(node.bindings)}}}"
    if type(j) is UserSaidJust:
        return f'user said {answer_text(j.answer)} to "{prompt_for(j.question)}"'
    return f"{g} by builtin {j}"


def how(proof: ProofNode) -> str:
    """HOW a solution was reached: the root reduction, then each subproof
    indented two spaces per level."""
    lines: list[str] = []
    todo = [(proof, 0)]
    while todo:
        node, depth = todo.pop()
        if node.justification == QUERY_ROOT:
            todo.extend((c, depth) for c in reversed(node.children))
            continue
        lines.append("  " * depth + _node_line(node))
        todo.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines)


def bindings_json(theta: Subst) -> list[dict]:
    return [{"var": v.name, "term": format_term(t)} for v, t in theta.items()]


def _justification_json(j: Justification) -> dict:
    if type(j) is StoredClause:
        return {"kind": j.kind, "id": j.id, "clause": format_clause(j.clause)}
    if type(j) is UserSaidJust:
        return {
            "kind": "user_said",
            "prompt": prompt_for(j.question),
            "answer": answer_text(j.answer),
        }
    return {"kind": "builtin", "name": j}


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
                "bindings": bindings_json(node.bindings),
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
        {"goal": format_goal(e.goal), "bindings": bindings_json(e.bindings)}
        for e in entries
    ]
