"""Goal resolution: leftmost goal first, clauses in stored order,
alternatives on backtracking.

The solver follows the WAM's control model without its compiler (Warren
1983; Ait-Kaci 1991).  A ``terms.Store`` holds the variable bindings, read
through ``deref``, and a trail of the variables bound, so backtracking
undoes bindings by popping the trail back to a mark.  The goals still to
prove form a linked list of cells; a user call with clauses left sits on a
choicepoint stack, which failure pops to resume the latest alternative.
A call tries, in stored order, the clauses that the database keeps for
its arguments: the shortest list that an index on a bound argument
position gives (all of them when no argument is bound).  Each reduction
renames the chosen clause apart, unifies the goal with its head (occurs
check on), and puts the clause body in front of the goals.

Reductions along one derivation path are capped by ``depth_limit``.  A
path cut off that way raises ``truncated``, and a run without solutions
then reports ``depth_exceeded`` instead of ``no``: ``no`` always means an
exhaustive search said no.  Cut drops the choicepoints pushed since the
call of its clause.  not/1 runs its argument as a sub-run on the same
stacks, above a fence choicepoint: it fails if the sub-run succeeds,
succeeds if it fails, and fails, raising ``truncated``, if it was cut off.
A variable in not/1's compound argument, or in an argument of ``\\=``, is
an InstantiationError: the answer would hold for some of its values only.

Each goal proved on the current path leaves a record in proof-tree
preorder (a clause's children are the records of its body goals after it):
the goal, the trail lengths before and after it, and its clause or builtin
justification.  Terms are resolved when a solution is finalized: proof
goals and answers under the final bindings, entry goals and their bindings
as of the trail lengths in their records.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional, TextIO

from . import oracle as oracle_mod
from .database import Database, StoredClause, KIND_DYNAMIC
from .errors import EngineError, InstantiationError
from .explain import ProofNode, QUERY_ROOT, format_trace_entry, TraceEntry
from .negation import find_s_fact
from .parser import format_goal
from .terms import (
    Atom,
    Clause,
    FreshVars,
    Int,
    Store,
    Struct,
    Subst,
    Term,
    Var,
    is_ground,
    rename_clause,
    variables_in,
    variables_of,
)

# The solver calls none of these; they stay names of this module because
# perfbench/tracer.py wraps the term operations here by name.
from .terms import apply, compose, unify  # noqa: F401


@dataclass
class SolveOptions:
    depth_limit: int = 10_000
    max_solutions: Optional[int] = None


@dataclass
class Solution:
    bindings: Subst  # query variables only, fully instantiated
    proof: ProofNode


@dataclass
class Outcome:
    status: str  # "yes" | "no" | "depth_exceeded"
    solutions: list[Solution] = field(default_factory=list)


@dataclass(slots=True)
class _Choice:
    """A choicepoint: a user call, kept while it has clauses left (always,
    when tracing, so that its failure is shown), or not/1's fence."""

    raw: Term  # the goal as its cell holds it
    rest: object  # the goal-list cells after it
    depth: int
    mark: int  # trail length at the call
    records: int  # record count at the call
    height: int  # choicepoint stack height at the call: what cut keeps
    goal: Optional[Term] = None  # dereferenced; None for a not/1 fence
    clauses: tuple = ()
    next: int = 0
    produced: bool = False  # some clause body was proved
    truncated: bool = False  # not/1: the flag before the sub-run


_EXIT = object()  # cell after a traced call's body; its barrier slot holds the call
_SUCCEEDED = object()  # cell after not/1's argument; its barrier slot holds the fence
_CUT, _NOT = object(), object()  # control constructs the solver runs itself


class Solver:
    """One query-answering machine over a database.

    ``out`` receives write/1 output, ``diag`` receives warnings; both
    default to the real terminal.  Questions, and the WHY text that
    explains them, go to the oracle's own stream.  A solver given
    ``trace_out`` writes the live trace stream there; without it, it
    does not trace.
    """

    def __init__(
        self,
        db: Database,
        options: Optional[SolveOptions] = None,
        oracle: Optional[oracle_mod.Oracle] = None,
        out: Optional[TextIO] = None,
        diag: Optional[TextIO] = None,
        trace_out: Optional[TextIO] = None,
    ):
        self.db = db
        self.options = options or SolveOptions()
        self.oracle = oracle
        self.out = out if out is not None else sys.stdout
        self.diag = diag if diag is not None else sys.stderr
        self.trace_out = trace_out
        self.truncated = False  # the depth limit cut off a branch of the latest search

    def run(self, goals) -> Outcome:
        """Collect solutions (up to max_solutions) and name the outcome."""
        solutions = []
        limit = self.options.max_solutions
        for sol in self.solutions(goals):
            solutions.append(sol)
            if limit is not None and len(solutions) >= limit:
                break
        if solutions:
            return Outcome("yes", solutions)
        return Outcome("depth_exceeded" if self.truncated else "no")

    def solutions(self, goals) -> Iterator[Solution]:
        """Lazy stream of solutions in derivation order."""
        goals = tuple(goals)
        for g in goals:
            if not isinstance(g, (Atom, Struct)):
                raise EngineError(f"query goal is not callable: {g!r}")
        qvars = variables_in(goals)
        # renamed variables are _G<n>, numbered from 1 unless a query
        # variable (passed in as a term, not read as text) holds such an id
        self._fresh = FreshVars(start=1 + max((v.id for v in qvars), default=0))
        self.truncated = False
        self._root = goals
        self._warned: set[tuple[str, int]] = set()
        self._store = Store()
        self._records: list[tuple] = []  # (goal, trail length, length after, justification)
        self._choices: list[_Choice] = []
        cont = None  # goal-list cells: (goal, cut barrier, next cell)
        for g in reversed(goals):
            cont = (g, 0, cont)
        yield from self._search(cont, [v for v in qvars if v.name != "_"])

    def _search(self, cont, qvars) -> Iterator[Solution]:
        store, records, choices = self._store, self._records, self._choices
        bindings, trail = store.bindings, store.trail
        depth = 0
        resume = False  # resume the latest choicepoint: on failure, or a new call
        while True:
            if resume:
                if not choices:
                    return
                cp = choices.pop()
                store.undo(cp.mark)
                del records[cp.records:]
                if cp.goal is not None:
                    cont = self._reduce(cp)
                    if cont is False:
                        continue
                else:  # the not/1 sub-run failed
                    cut_off = self.truncated
                    self.truncated = cp.truncated or cut_off
                    if cut_off:
                        continue
                    records.append((cp.raw, cp.mark, cp.mark, "not"))
                    cont = cp.rest
                depth = cp.depth + 1
                resume = False
            if cont is None:
                yield self._solution(qvars)
                resume = True
                continue
            raw, barrier, rest = cont
            goal = raw
            while type(goal) is Var:
                goal = bindings.get(goal)
                if goal is None:
                    raise InstantiationError(f"goal is an unbound variable: {format_goal(raw)}")
            if type(goal) is Struct:
                ind = (goal.name, len(goal.args))
            elif type(goal) is Atom:
                ind = (goal.name, 0)
            elif type(goal) is Int:
                raise EngineError(f"integer is not a callable goal: {goal.value}")
            elif goal is _EXIT:
                barrier.produced = True
                cont = rest
                continue
            else:  # _SUCCEEDED: not/1 fails, and its sub-run is dropped
                del choices[barrier.height:]
                self.truncated = self.truncated or barrier.truncated
                resume = True
                continue
            handler = _BUILTINS.get(ind)
            if handler is None:
                clauses = self.db.clauses(ind, map(store.deref, goal.args) if ind[1] else ())
                if not clauses and not self.db.defines(ind):
                    if ind not in self._warned:
                        self._warned.add(ind)
                        self.diag.write(f"warning: unknown predicate {ind[0]}/{ind[1]}\n")
                else:
                    choices.append(
                        _Choice(raw, rest, depth, len(trail), len(records), len(choices), goal, clauses)
                    )
                resume = True
            elif handler is _CUT:
                records.append((raw, len(trail), len(trail), "!"))
                del choices[barrier:]
                cont = rest
            elif handler is _NOT:
                arg = store.resolver().resolve(goal.args[0])
                if type(arg) is Struct and not is_ground(arg):
                    raise InstantiationError(f"not/1 needs a ground argument: {self._shown(goal)}")
                fence = _Choice(raw, rest, depth, len(trail), len(records), len(choices),
                                truncated=self.truncated)
                choices.append(fence)
                self.truncated = False
                depth += 1
                cont = (goal.args[0], len(choices), (_SUCCEEDED, fence, None))
            else:
                mark = len(trail)
                just = handler(self, goal)
                if just is None:
                    resume = True
                else:
                    records.append((raw, mark, len(trail), just))
                    cont = rest

    def _reduce(self, call: _Choice):
        """Reduce ``call`` by its next clause whose head unifies, and return
        the goal-list cells that follow; False once no clause is left."""
        store, fresh, tracing = self._store, self._fresh, self.trace_out is not None
        shown = store.resolver().resolve(call.goal) if tracing else None  # the goal as it was called
        while call.next < len(call.clauses):
            sc = call.clauses[call.next]
            call.next += 1
            mapping: dict[Var, Var] = {}
            renamed = rename_clause(sc.clause, fresh, mapping)
            if not store.unify(call.goal, renamed.head, set(mapping.values()) if mapping else None):
                store.undo(call.mark)
                continue
            if call.depth >= self.options.depth_limit:
                self.truncated = True
                store.undo(call.mark)
                break
            if call.next < len(call.clauses) or tracing:
                self._choices.append(call)
            self._records.append((call.raw, call.mark, len(store.trail), sc))
            rest = call.rest
            if tracing:
                res = store.resolver()
                bound = {v: res.resolve(v) for v in variables_of(shown) if v in store.bindings}
                self.trace_out.write(format_trace_entry(TraceEntry(shown, bound)) + "\n")
                rest = (_EXIT, call, rest)
            for g in reversed(renamed.body):
                rest = (g, call.height, rest)
            return rest
        if tracing and not call.produced:
            self.trace_out.write(f"fail\t{format_goal(shown)}\n")
        return False

    def _solution(self, qvars) -> Solution:
        res = self._store.resolver(history=True)
        bindings = {v: res.resolve(v) for v in qvars if v in res.bindings}
        built: list[ProofNode] = []  # finished nodes, a first child on top
        for goal, stamp, after, just in reversed(self._records):
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

    def _why_supplier(self):
        # The open ancestors of the pending goal: walk the records in
        # preorder with a stack of [record, body goals not yet started],
        # dropping each finished subproof before the next one starts.
        stack: list[list] = []
        for record in self._records:
            while stack and stack[-1][1] == 0:
                stack.pop()
            if stack:
                stack[-1][1] -= 1
            just = record[3]
            stack.append([record, len(just.clause.body) if type(just) is StoredClause else 0])
        while stack and stack[-1][1] == 0:
            stack.pop()
        res = self._store.resolver(history=True)
        frames = tuple((res.resolve(goal, stamp), just) for (goal, stamp, _, just), _ in stack)
        return oracle_mod.WhyContext(frames, self._root)

    # ------------------------------------------------------------------
    # builtins: each takes the selected goal and returns its justification,
    # or None when it fails

    def _shown(self, g) -> str:
        return format_goal(self._store.resolver().resolve(g))

    def _bi_true(self, g):
        return "true"

    def _bi_fail(self, g):
        return None

    def _bi_unify(self, g):
        return "=" if self._store.unify(g.args[0], g.args[1]) else None

    def _bi_not_unify(self, g):
        a, b = map(self._store.resolver().resolve, g.args)
        if not (is_ground(a) and is_ground(b)):
            raise InstantiationError(f"\\=/2 needs ground arguments: {self._shown(g)}")
        # ground terms unify without binding anything, so nothing to undo
        return None if self._store.unify(a, b) else "\\="

    def _bi_plus(self, g):
        args = [self._store.deref(x) for x in g.args]
        a, b, c = [x.value if type(x) is Int else None for x in args]
        known = 3 - (a, b, c).count(None)
        if known < 2:
            raise InstantiationError(f"plus/3 needs at least two integers: {self._shown(g)}")
        if known == 3:
            return "plus" if a + b == c else None
        if c is None:
            missing, value = args[2], a + b
        elif b is None:
            missing, value = args[1], c - a
        else:
            missing, value = args[0], c - b
        return "plus" if self._store.unify(missing, Int(value)) else None

    def _bi_write(self, g):
        self.out.write(self._shown(g.args[0]))
        return "write"

    def _bi_ask(self, g):
        # ask_value/3 with a ground value is a yes/no question, and ask/3 with
        # a variable value a value question.  A memo hit needs no oracle.
        res = self._store.resolver()
        a, p, v = (res.resolve(x) for x in g.args)
        if type(a) is not Atom or type(p) is not Atom:
            raise InstantiationError(f"ask attribute and subject must be atoms: {self._shown(g)}")
        if is_ground(v):
            res = oracle_mod.ask(self.db, a.name, p.name, v, self.oracle, self._why_supplier)
        elif type(v) is Var:
            res = oracle_mod.ask_value(self.db, a.name, p.name, self.oracle, self._why_supplier)
            if res.succeeded:
                self._store.bind(v, res.value)
        else:
            raise InstantiationError(f"ask value must be ground or a variable: {self._shown(g)}")
        return res.just if res.succeeded else None

    def _clause_arg(self, g, verb: str) -> Clause:
        t = self._store.resolver().resolve(g.args[0])
        if not isinstance(t, (Atom, Struct)):
            raise EngineError(f"cannot {verb}: {self._shown(g)}")
        return Clause(head=t)

    def _bi_asserta(self, g):
        self.db.asserta(self._clause_arg(g, "assert"), kind=KIND_DYNAMIC)
        return "asserta"

    def _bi_assertz(self, g):
        self.db.assertz(self._clause_arg(g, "assert"), kind=KIND_DYNAMIC)
        return "assertz"

    def _bi_retract(self, g):
        theta = self.db.retract(self._clause_arg(g, "retract"))
        if theta is None:
            return None
        for v, t in theta.items():
            self._store.bind(v, t)
        return "retract"

    def _bi_holds_negated(self, g):
        return find_s_fact(self.db, self._store.resolver().resolve(g.args[0]))


# Keys are exactly terms.BUILTIN_INDICATORS.
_BUILTINS = {
    ("!", 0): _CUT,
    ("not", 1): _NOT,
    ("true", 0): Solver._bi_true,
    ("fail", 0): Solver._bi_fail,
    ("=", 2): Solver._bi_unify,
    ("\\=", 2): Solver._bi_not_unify,
    ("plus", 3): Solver._bi_plus,
    ("write", 1): Solver._bi_write,
    ("ask", 3): Solver._bi_ask,
    ("ask_value", 3): Solver._bi_ask,
    ("asserta", 1): Solver._bi_asserta,
    ("assertz", 1): Solver._bi_assertz,
    ("assert", 1): Solver._bi_assertz,
    ("retract", 1): Solver._bi_retract,
    ("holds_negated", 1): Solver._bi_holds_negated,
}


def solve(
    db: Database,
    goals,
    options: Optional[SolveOptions] = None,
    oracle: Optional[oracle_mod.Oracle] = None,
    out: Optional[TextIO] = None,
    diag: Optional[TextIO] = None,
    trace_out: Optional[TextIO] = None,
) -> Outcome:
    return Solver(db, options, oracle, out, diag, trace_out).run(goals)
