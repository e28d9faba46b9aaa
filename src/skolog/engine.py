"""Goal resolution: leftmost goal first, clauses in stored order,
alternatives on backtracking.

The solver follows the WAM's control model without its compiler (Warren
1983; Ait-Kaci 1991).  A ``Store`` holds the variable bindings, read
through ``deref``, and a trail of the variables bound, so backtracking
undoes bindings by popping the trail back to a mark.  The goals still to
prove form a linked list of cells; a user call with clauses left sits on a
choicepoint stack, which failure pops to resume the latest alternative.
Each reduction renames the chosen clause apart, unifies the goal with its
head (occurs check on), and puts the clause body in front of the goals.

Reductions along one derivation path are capped by ``depth_limit``.  A
path cut off that way raises ``truncated``, and a run without solutions
then reports ``depth_exceeded`` instead of ``no``: ``no`` always means an
exhaustive search said no.  Cut drops the choicepoints pushed since the
call of its clause.  not/1 runs its argument as a sub-run on the same
stacks, above a fence choicepoint: it fails if the sub-run succeeds,
succeeds if it fails, and fails, raising ``truncated``, if it was cut off.

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
from operator import is_
from typing import Iterator, Optional, TextIO

from . import oracle as oracle_mod
from .database import Database, StoredClause, KIND_DYNAMIC, KIND_S_FACT, KIND_STATIC
from .errors import EngineError, InstantiationError
from .explain import (
    AssertedFactJust,
    BuiltinJust,
    ClauseJust,
    ProofNode,
    QUERY_ROOT,
    SFactJust,
    UserSaidJust,
    WhyContext,
    format_trace_entry,
    TraceEntry,
    why as render_why,
)
from .negation import find_s_fact
from .parser import format_goal
from .terms import (
    Atom,
    Clause,
    FreshVars,
    Int,
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
    trace: bool = False
    max_solutions: Optional[int] = None


@dataclass
class Solution:
    bindings: Subst  # query variables only, fully instantiated
    proof: ProofNode


@dataclass
class Outcome:
    status: str  # "yes" | "no" | "depth_exceeded"
    solutions: list[Solution] = field(default_factory=list)


class _MissingOracle(oracle_mod.Oracle):
    """Stands in when no oracle is attached; consulting it is an error."""

    def answer(self, question, why_supplier):
        raise EngineError(
            "a question came up but no oracle is attached: "
            + oracle_mod.prompt_for(question)
        )


_MISSING_ORACLE = _MissingOracle()


class Store:
    """Variable bindings with a trail.

    ``unify`` binds as ``terms.unify`` does: the same order of equations,
    and a variable of ``a``'s side binds to ``b``'s side, so resolving any
    variable gives what ``terms.apply`` gives with the unifier.  A failed
    unification may leave bindings behind; ``undo`` to a mark removes them.
    """

    def __init__(self):
        self.bindings: dict[Var, Term] = {}
        self.trail: list[Var] = []

    def deref(self, t: Term) -> Term:
        get = self.bindings.get
        while type(t) is Var and (value := get(t)) is not None:
            t = value
        return t

    def bind(self, v: Var, t: Term) -> None:
        self.bindings[v] = t
        self.trail.append(v)

    def undo(self, mark: int) -> None:
        trail, bindings = self.trail, self.bindings
        while len(trail) > mark:
            del bindings[trail.pop()]

    def resolver(self, history: bool = False) -> "_Resolver":
        """Reads terms under the current bindings; with ``history``, also
        as of an earlier trail length."""
        pos = {v: i for i, v in enumerate(self.trail)} if history else None
        return _Resolver(self.bindings, pos)

    def unify(self, a: Term, b: Term, fresh: Optional[set] = None) -> bool:
        """Unify ``a`` with ``b``, the occurs check always on.

        ``fresh`` holds the variables a renaming has just made for ``b``.
        Such a variable cannot occur in a term of ``a``'s side until a
        binding made here links it there, which takes it out of ``fresh``;
        until then its check is skipped: the WAM's first-occurrence rule.
        """
        bindings, trail = self.bindings, self.trail
        get = bindings.get
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            while type(x) is Var and (value := get(x)) is not None:
                x = value
            while type(y) is Var and (value := get(y)) is not None:
                y = value
            if x is y:
                continue
            if type(x) is Var:
                if type(y) is Var and x == y:
                    continue
                v, t = x, y
            elif type(y) is Var:
                v, t = y, x
            elif type(x) is Struct:
                if type(y) is not Struct or x.name != y.name or len(x.args) != len(y.args):
                    return False
                stack.extend(zip(x.args, y.args))
                continue
            elif x == y:
                continue
            else:
                return False
            if (fresh is None or v not in fresh) and self._occurs(v, t, fresh):
                return False
            bindings[v] = t
            trail.append(v)
        return True

    def _occurs(self, v: Var, t: Term, fresh: Optional[set]) -> bool:
        """Does ``v`` occur in ``t``?  Takes the renamed variables met on
        the way out of ``fresh``, since binding ``v`` to ``t`` links them."""
        get = self.bindings.get
        todo = [t]
        while todo:
            u = todo.pop()
            while type(u) is Var and (value := get(u)) is not None:
                u = value
            if type(u) is Struct:
                todo.extend(u.args)
            elif type(u) is Var:
                if u == v:
                    return True
                if fresh:
                    fresh.discard(u)
        return False


class _Resolver:
    """Terms under a fixed set of bindings.

    Resolving a term with every binding applied memoizes each compound by
    ``id``, with the latest trail position among the bindings it used.
    Given ``pos`` (variable -> trail position), a term can be resolved as
    of an earlier trail length too: a memoized compound whose latest
    position lies below that length is reused whole.  The bindings must
    not change meanwhile, and the terms resolved must stay alive.
    """

    def __init__(self, bindings: dict, pos: Optional[dict] = None):
        self.bindings, self.pos = bindings, pos
        self.memo: dict[int, tuple[Term, int]] = {}

    def resolve(self, t: Term, stamp: Optional[int] = None, later: Optional[dict] = None) -> Term:
        """``t`` under the bindings made before trail length ``stamp``, or
        under all when it is None.  ``later``, when given, receives the
        variables of the result that were bound later, in first-occurrence
        order, as keys."""
        memo, bindings, pos = self.memo, self.bindings, self.pos
        final = stamp is None
        # [compound, its resolved args so far, their latest position,
        #  latest position of the bindings that led to the compound]
        frames: list[list] = []
        x = t
        while True:
            latest = -1
            while type(x) is Var and (value := bindings.get(x)) is not None:
                p = pos[x] if pos is not None else -1
                if not final and p >= stamp:
                    if later is not None:
                        later[x] = None
                    break
                latest = max(latest, p)
                x = value
            if type(x) is Struct:
                hit = memo.get(id(x))
                if hit is None or not (final or hit[1] < stamp):
                    frames.append([x, [], -1, latest])
                    x = x.args[0]
                    continue
                x, latest = hit[0], max(latest, hit[1])
            while frames:  # up, finishing what is complete
                frame = frames[-1]
                f, done = frame[0], frame[1]
                done.append(x)
                if latest > frame[2]:
                    frame[2] = latest
                if len(done) < len(f.args):
                    x = f.args[len(done)]
                    break
                frames.pop()
                x = f if all(map(is_, done, f.args)) else Struct(f.name, tuple(done))
                if final:
                    memo[id(f)] = (x, frame[2])
                latest = max(frame[2], frame[3])
            else:
                return x


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
_CUT_PROOF, _NOT_PROOF = BuiltinJust("!"), BuiltinJust("not")


class Solver:
    """One query-answering machine over a database.

    ``out`` receives write/1 output and question dialogue, ``diag``
    receives warnings, ``trace_out`` receives the live trace stream when
    options.trace is set.  All defaults go to the real terminal.
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
        self._truncated = False

    @property
    def truncated(self) -> bool:
        """Whether the depth limit cut off a branch of the latest search."""
        return self._truncated

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
        return Outcome("depth_exceeded" if self._truncated else "no")

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
        self._truncated = False
        self._root = goals
        self._warned: set[tuple[str, int]] = set()
        self._store = Store()
        self._records: list[tuple] = []  # (goal, trail length, length after, justification)
        self._choices: list[_Choice] = []
        self._tracing = self.trace_out is not None and self.options.trace
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
                    cut_off = self._truncated
                    self._truncated = cp.truncated or cut_off
                    if cut_off:
                        continue
                    records.append((cp.raw, cp.mark, cp.mark, _NOT_PROOF))
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
                    raise InstantiationError(f"goal is an unbound variable: {raw!r}")
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
                self._truncated = self._truncated or barrier.truncated
                resume = True
                continue
            handler = _BUILTINS.get(ind)
            if handler is None:
                clauses = self.db.clauses(ind)
                if not clauses:
                    if ind not in self._warned:
                        self._warned.add(ind)
                        self.diag.write(f"warning: unknown predicate {ind[0]}/{ind[1]}\n")
                else:
                    choices.append(
                        _Choice(raw, rest, depth, len(trail), len(records), len(choices), goal, clauses)
                    )
                resume = True
            elif handler is _CUT:
                records.append((raw, len(trail), len(trail), _CUT_PROOF))
                del choices[barrier:]
                cont = rest
            elif handler is _NOT:
                inner = store.deref(goal.args[0])
                if type(inner) is Var:
                    raise InstantiationError("not/1 needs a callable argument")
                if type(inner) is Int:
                    raise EngineError("integer is not a callable goal")
                fence = _Choice(raw, rest, depth, len(trail), len(records), len(choices),
                                truncated=self._truncated)
                choices.append(fence)
                self._truncated = False
                depth += 1
                cont = (inner, len(choices), (_SUCCEEDED, fence, None))
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
        store, fresh, tracing = self._store, self._fresh, self._tracing
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
                self._truncated = True
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
                just = _justify(just)
            built.append(ProofNode(final, entry, just, theta, children))
        built.reverse()
        if len(built) == 1:
            return Solution(bindings, built[0])
        goal = Struct(",", tuple(p.goal for p in built)) if built else Atom("true")
        return Solution(bindings, ProofNode(goal, goal, QUERY_ROOT, {}, tuple(built)))

    def _why_supplier(self):
        res = self._store.resolver(history=True)
        frames = tuple(
            (res.resolve(goal, stamp), just)
            for goal, stamp, _, just in self._records
            if type(just) is StoredClause
        )
        return WhyContext(frames, self._root)

    def _why_renderer(self, ctx) -> None:
        self.out.write(render_why(ctx) + "\n")

    # ------------------------------------------------------------------
    # builtins: each takes the selected goal and returns its justification,
    # or None when it fails

    def _shown(self, g) -> str:
        return format_goal(self._store.resolver().resolve(g))

    def _bi_true(self, g):
        return BuiltinJust("true")

    def _bi_fail(self, g):
        return None

    def _bi_unify(self, g):
        return BuiltinJust("=") if self._store.unify(g.args[0], g.args[1]) else None

    def _bi_not_unify(self, g):
        mark = len(self._store.trail)
        unified = self._store.unify(g.args[0], g.args[1])
        self._store.undo(mark)
        return None if unified else BuiltinJust("\\=")

    def _bi_plus(self, g):
        args = [self._store.deref(x) for x in g.args]
        a, b, c = [x.value if type(x) is Int else None for x in args]
        known = 3 - (a, b, c).count(None)
        if known < 2:
            raise InstantiationError(f"plus/3 needs at least two integers: {self._shown(g)}")
        if known == 3:
            return BuiltinJust("plus") if a + b == c else None
        if c is None:
            missing, value = args[2], a + b
        elif b is None:
            missing, value = args[1], c - a
        else:
            missing, value = args[0], c - b
        return BuiltinJust("plus") if self._store.unify(missing, Int(value)) else None

    def _bi_write(self, g):
        self.out.write(self._shown(g.args[0]))
        return BuiltinJust("write")

    def _bi_ask(self, g):
        # ask_value/3 with a ground value is a yes/no question, and ask/3
        # with a variable value a value question.  The oracle is looked up
        # lazily: a memo hit answers without any oracle at all.
        res = self._store.resolver()
        a, p, v = (res.resolve(x) for x in g.args)
        if type(a) is not Atom or type(p) is not Atom:
            raise InstantiationError(f"ask attribute and subject must be atoms: {self._shown(g)}")
        oracle = self.oracle or _MISSING_ORACLE
        if is_ground(v):
            res = oracle_mod.ask(
                self.db, a.name, p.name, v, oracle, self._why_supplier, self._why_renderer
            )
        elif type(v) is Var:
            res = oracle_mod.ask_value(
                self.db, a.name, p.name, oracle, self._why_supplier, self._why_renderer
            )
            if res.succeeded:
                self._store.bind(v, res.value)
        else:
            raise InstantiationError(f"ask value must be ground or a variable: {self._shown(g)}")
        if not res.succeeded:
            return None
        if res.source == "memo":
            return AssertedFactJust(res.known)
        return UserSaidJust(res.question, res.answer)

    def _clause_arg(self, g, verb: str) -> Clause:
        t = self._store.resolver().resolve(g.args[0])
        if not isinstance(t, (Atom, Struct)):
            raise EngineError(f"cannot {verb}: {self._shown(g)}")
        return Clause(head=t)

    def _bi_asserta(self, g):
        self.db.asserta(self._clause_arg(g, "assert"), kind=KIND_DYNAMIC)
        return BuiltinJust("asserta")

    def _bi_assertz(self, g):
        self.db.assertz(self._clause_arg(g, "assert"), kind=KIND_DYNAMIC)
        return BuiltinJust("assertz")

    def _bi_retract(self, g):
        theta = self.db.retract(self._clause_arg(g, "retract"))
        if theta is None:
            return None
        for v, t in theta.items():
            self._store.bind(v, t)
        return BuiltinJust("retract")

    def _bi_holds_negated(self, g):
        inner = self._store.resolver().resolve(g.args[0])
        if not isinstance(inner, (Atom, Struct)):
            raise InstantiationError("holds_negated/1 needs a callable argument")
        if not is_ground(inner):
            raise InstantiationError(f"holds_negated/1 needs a ground argument: {self._shown(g)}")
        sc = find_s_fact(self.db, inner)
        return None if sc is None else SFactJust(sc)


def _justify(sc: StoredClause):
    if sc.kind == KIND_STATIC:
        return ClauseJust(sc)
    if sc.kind == KIND_S_FACT:
        return SFactJust(sc)
    return AssertedFactJust(sc)


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
