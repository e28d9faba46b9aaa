"""Goal resolution: leftmost goal first, clauses in stored order,
alternatives on backtracking.

The solver follows the WAM's control model (Warren 1983; Ait-Kaci 1991);
of its compiler, only the head match is kept.  A ``terms.Store`` holds
the variable bindings, read through ``deref``, in one dict in binding
order (the WAM's trail), which backtracking pops back to a mark.  The
goals still to prove form a linked list of cells; a user call with
clauses left sits on a choicepoint stack, which failure pops to resume
the latest alternative.
A call tries, in stored order, the clauses that the database keeps for
its arguments: the shortest list that an index on a bound argument
position gives (all of them when no argument is bound).  Each try
unifies the clause's head with the goal as if the clause had been
renamed apart (occurs check on), without renaming it: ``Store.unify_head``
runs code generated for the clause's shape against the goal, so a clause
that cannot match fails at its first clashing comparison, and a clause
variable's first occurrence names the goal's term, binding no variable of
the goal.  A clause too big to compile is renamed apart, then unified.
Only a match uses up fresh ids, one per clause variable, so the ``_G<n>``
names are those of renaming apart each clause that matches.  A reduction
puts the clause body, built under the head's match, in front of the goals.

Reductions along one derivation path are capped by ``depth_limit``.  Each
path cut off that way adds one to ``cutoffs``, and a run without solutions
then reports ``depth_exceeded`` instead of ``no``: ``no`` always means an
exhaustive search said no.  Cut drops the choicepoints pushed since the
call of its clause.  not/1 runs the textbook ``not(G) :- G, !, fail.
not(_).`` (Clark 1978): above a fence choicepoint, the ``not(_)`` branch,
it runs ``G, !, fail``, whose cut drops the fence and G's choicepoints.
Resumed once G has failed, the fence fails too if a path of G was cut
off, for then that failure proves nothing.  A variable in not/1's compound
argument, or in an argument of ``\\=``, is an InstantiationError: the
answer would hold for some of its values only.

Each goal proved on the current path leaves a record in proof-tree
preorder (a clause's children are the records of its body goals after it):
the goal, the binding counts before and after it, its clause or builtin
justification, and, once read, its entry goal and bindings.  One preorder
walk over the records builds the proof at a solution and the open clauses
behind a question (WHY).  An answer's bindings are resolved under the
final bindings at its solution, and a record's entry goal and bindings as
of its counts, once, by their first reader (the live trace, if attached).
A proof node's goal is resolved on its first read, over a copy of the
bindings taken at its solution; each ground compound (the query's input
lists, say) is entered only once in its lifetime.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional, TextIO

from . import oracle as oracle_mod
from .database import Database, StoredClause
from .errors import EngineError, InstantiationError
from .explain import ProofNode, QUERY_ROOT, format_trace_entry, TraceEntry
from .negation import find_s_fact
from .parser import format_goal
from .terms import (
    CUT,
    FAIL,
    TRUE,
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
    variables_in,
    variables_of,
)

# The solver calls none of these; they stay names of this module because
# perfbench/tracer.py wraps the term operations here by name.
from .terms import apply, compose, rename_clause, unify  # noqa: F401


@dataclass
class SolveOptions:
    depth_limit: int = 10_000
    max_solutions: Optional[int] = None

    def __post_init__(self):
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError(f"max_solutions must be at least 1, not {self.max_solutions}")


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
    when tracing, so that the trace shows it run out: Byrd's FAIL port), or
    not/1's fence."""

    raw: Term  # the goal as its cell holds it
    rest: object  # the goal-list cells after it
    depth: int
    mark: int  # binding count at the call
    records: int  # record count at the call
    height: int  # choicepoint stack height at the call: what cut keeps
    goal: Optional[Term] = None  # dereferenced; None for a not/1 fence
    clauses: tuple = ()
    next: int = 0
    cutoffs: int = 0  # not/1: the solver's count when the fence was pushed


_CUT, _NOT = object(), object()  # control constructs the solver runs itself


class Solver:
    """One query-answering machine over a database.

    ``out`` receives write/1 output, ``diag`` receives warnings; both
    default to the real terminal.  Questions, and the WHY text that
    explains them, go to the oracle's own stream.  A solver given
    ``trace_out`` writes the live trace stream there: a line per head
    match with its bindings, and ``fail`` with the goal as called when a
    call runs out of clauses (the FAIL port: Byrd 1980).  Without it, it
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
        self.cutoffs = 0  # branches cut off by the depth limit in the search that ran last

    def run(self, goals) -> Outcome:
        """Collect solutions (up to max_solutions) and name the outcome."""
        solutions = list(itertools.islice(self.solutions(goals), self.options.max_solutions))
        return Outcome("yes", solutions) if solutions else Outcome(self.exhausted_status())

    def exhausted_status(self) -> str:
        """The status of a search with no solutions left: ``no`` only if
        no path of it was cut off."""
        return "depth_exceeded" if self.cutoffs else "no"

    def solutions(self, goals) -> Iterator[Solution]:
        """Lazy stream of solutions in derivation order.  Several streams
        of one solver may be alive at once; each answers its own query."""
        goals = tuple(goals)
        for g in goals:
            if not isinstance(g, (Atom, Struct)):
                raise EngineError(f"query goal is not callable: {format_goal(g)}")
        qvars = variables_in(goals)
        # renamed variables are _G<n>, numbered from 1 unless a query
        # variable (passed in as a term, not read as text) holds such an id
        self._fresh = FreshVars(start=1 + max((v.id for v in qvars), default=0))
        self.cutoffs = 0
        self._root = goals
        self._warned: set[tuple[str, int]] = set()
        self._store = Store()
        # [goal, binding count, count after, justification, (entry goal, bindings) or None]
        self._records: list[list] = []
        self._choices: list[_Choice] = []
        cont = None  # goal-list cells: (goal, cut barrier, next cell)
        for g in reversed(goals):
            cont = (g, 0, cont)
        yield from self._search(cont, [v for v in qvars if v.name != "_"])

    def _search(self, cont, qvars) -> Iterator[Solution]:
        state = self._root, self._fresh, self._warned, self._store, self._records, self._choices
        store, records, choices = self._store, self._records, self._choices
        bindings = store.bindings
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
                else:  # the not/1 sub-run failed; if it was cut off, so is not/1
                    if self.cutoffs > cp.cutoffs:
                        continue
                    records.append([cp.raw, cp.mark, cp.mark, "not", None])
                    cont = cp.rest
                depth = cp.depth + 1
                resume = False
            if cont is None:
                cutoffs = self.cutoffs
                yield self._solution(qvars)
                if self._store is not store:  # another query ran meanwhile: take this one's state back
                    self._root, self._fresh, self._warned, self._store, self._records, self._choices = state
                    self.cutoffs = cutoffs
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
            else:
                raise EngineError(f"integer is not a callable goal: {goal.value}")
            handler = _BUILTINS.get(ind)
            if handler is None:
                clauses = self.db.clauses(ind, map(store.deref, goal.args) if ind[1] else ())
                if not clauses and not self.db.defines(ind):
                    if ind not in self._warned:
                        self._warned.add(ind)
                        self.diag.write(f"warning: unknown predicate {ind[0]}/{ind[1]}\n")
                else:
                    choices.append(
                        _Choice(raw, rest, depth, len(bindings), len(records), len(choices), goal, clauses)
                    )
                resume = True
            elif handler is _CUT:
                records.append([raw, len(bindings), len(bindings), "!", None])
                del choices[barrier:]
                cont = rest
            elif handler is _NOT:
                arg = store.resolver().resolve(goal.args[0])
                if type(arg) is Struct and not is_ground(arg):
                    raise InstantiationError(f"not/1 needs a ground argument: {self._shown(goal)}")
                fence = _Choice(raw, rest, depth, len(bindings), len(records), len(choices),
                                cutoffs=self.cutoffs)
                choices.append(fence)
                depth += 1
                cont = (goal.args[0], len(choices), (CUT, fence.height, (FAIL, 0, None)))
            else:
                mark = len(bindings)
                just = handler(self, goal)
                if just is None:
                    resume = True
                else:
                    records.append([raw, mark, len(bindings), just, None])
                    cont = rest

    def _reduce(self, call: _Choice):
        """Reduce ``call`` by its next clause whose head unifies, and return
        the goal-list cells that follow; False once no clause is left."""
        store, fresh, tracing = self._store, self._fresh, self.trace_out is not None
        shown = store.resolver().resolve(call.goal) if tracing else None  # the goal as it was called
        while call.next < len(call.clauses):
            sc = call.clauses[call.next]
            call.next += 1
            body = store.unify_head(call.goal, sc.clause, fresh)
            if body is None:
                store.undo(call.mark)
                continue
            if call.depth >= self.options.depth_limit:
                self.cutoffs += 1
                store.undo(call.mark)
                break
            if call.next < len(call.clauses) or tracing:
                self._choices.append(call)
            entry = None
            if tracing:
                res = store.resolver()
                entry = shown, {v: res.resolve(v) for v in variables_of(shown) if v in store.bindings}
                self.trace_out.write(format_trace_entry(TraceEntry(*entry)) + "\n")
            self._records.append([call.raw, call.mark, len(store.bindings), sc, entry])
            rest = call.rest
            for g in reversed(body):
                rest = (g, call.height, rest)
            return rest
        if tracing:
            self.trace_out.write(f"fail\t{format_goal(shown)}\n")
        return False

    def _solution(self, qvars) -> Solution:
        """The answer under the current bindings, and its proof, whose goals
        resolve on their first read over a copy of those bindings.  A query
        of zero or several goals is the proof's root."""
        res = self._store.resolver(history=True)
        bindings = {v: res.resolve(v) for v in qvars if v in res.bindings}
        final = self._store.snapshot().resolve
        built = self._tree(res, final)[0][2]
        if len(built) == 1:
            return Solution(bindings, built[0])
        query = Struct(",", self._root) if self._root else TRUE
        return Solution(bindings, ProofNode.lazy(final, query, None, QUERY_ROOT, {}, tuple(built)))

    def _why_supplier(self):
        # the open clauses behind the pending goal, outermost first
        res = self._store.resolver(history=True)
        open_frames = self._tree(res, res.resolve)[1:]  # its nodes go unread
        return oracle_mod.WhyContext(tuple((r[4][0], r[3]) for r, *_ in open_frames), self._root)

    def _tree(self, res, final) -> list[list]:
        """Walk the records in preorder and return the frames still open,
        the query's first: [record, body goals left, finished child nodes].
        A record whose body is proved, or a leaf, becomes a node of the
        frame below it, whose goal is ``final(goal)``, made on its first
        read.  A record's entry goal and bindings, resolved as of its
        counts by their first reader, stay in it: they read only bindings
        below its count after, and a record that backtracking keeps was
        made before the resumed choicepoint, so that count is at most the
        choicepoint's mark, below which undo pops nothing."""
        resolve, pos, lazy = res.resolve, res.pos, ProofNode.lazy
        stack = [[None, -1, []]]  # the query's frame: its count never reaches 0
        top = stack[0]
        for rec in self._records:
            top[1] -= 1
            goal, stamp, after, just, pair = rec
            if pair is None:
                entry = resolve(goal, stamp, later := {})
                rec[4] = pair = entry, {v: resolve(v, after) for v in later if pos[v] < after}
            if type(just) is StoredClause and just.clause.body:
                top = [rec, len(just.clause.body), []]
                stack.append(top)
                continue
            top[2].append(lazy(final, goal, pair[0], just, pair[1]))
            while top[1] == 0:  # the node just added was its last body goal's
                stack.pop()
                (goal, _, _, just, (entry, theta)), _, nodes = top
                top = stack[-1]
                top[2].append(lazy(final, goal, entry, just, theta, tuple(nodes)))
        return stack

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
        ground = is_ground(v)
        if not ground and type(v) is not Var:
            raise InstantiationError(f"ask value must be ground or a variable: {self._shown(g)}")
        res = oracle_mod.ask(self.db, a.name, p.name, v if ground else None, self.oracle, self._why_supplier)
        if res.value is not None:  # only a value question's success has one
            self._store.bindings[v] = res.value
        return res.just if res.succeeded else None

    def _clause_arg(self, g, verb: str) -> Clause:
        t = self._store.resolver().resolve(g.args[0])
        if not isinstance(t, (Atom, Struct)):
            raise EngineError(f"cannot {verb}: {self._shown(g)}")
        return Clause(head=t)

    def _bi_asserta(self, g):
        self.db.asserta(self._clause_arg(g, "assert"))
        return "asserta"

    def _bi_assertz(self, g):
        self.db.assertz(self._clause_arg(g, "assert"))
        return "assertz"

    def _bi_retract(self, g):
        theta = self.db.retract(self._clause_arg(g, "retract"))
        if theta is None:
            return None
        # theta binds variables of the resolved pattern: none is bound here
        self._store.bindings.update(theta)
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
