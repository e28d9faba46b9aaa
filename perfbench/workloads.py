"""The four seeded workloads and their engine-independent answer checks.

Every workload is a closed loop of one client: the next operation starts
when the previous one has returned.  Operations come in blocks.  A block
holds each kind and input size of the workload's mix in a seeded order,
so two seeds give the same mix of costs with different inputs, and a run
that ends on a block boundary is comparable across seeds.  Each block
starts from a fresh set-up, so what a block costs does not depend on how
many blocks a fast or slow host got through before it.  Expected
answers come from the generators (Python lists, a dict mirror of the
store, the known/4 and Skolem rules, a Python closure), never from skolog.

The module imports skolog, so the checkout's ``src`` must be on the path
first (``worker.import_program`` does that).
"""

from __future__ import annotations

import contextlib
import random
import re
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from skolog import database, engine, explain, negation, oracle, parser, semantics
from skolog.corpus import corpus_text
from skolog.terms import Atom, Clause, Int, Struct, Var, mklist

_now = time.perf_counter_ns
# held before any wrapper is installed: the harness's own reduction count
# must not show up in the traced layers
_trace_of = explain.trace_of


@dataclass
class Op:
    kind: str
    goals: tuple = ()
    expected: object = None
    block_start: bool = False
    extra: object = None
    # what the first op of a block brings into the block's fresh state
    block_data: object = None


class _Sink:
    def write(self, s: str) -> int:
        return len(s)


_SINK = _Sink()


class Meter:
    """Time spent in ``engine.solve`` and the proofs it returned, for one op."""

    def __init__(self):
        self.solve_ns = 0
        self.proofs: list = []

    def solve(self, db, goals, max_solutions: Optional[int] = 1, oracle_=None):
        opts = engine.SolveOptions(max_solutions=max_solutions)
        t0 = _now()
        out = engine.solve(db, goals, opts, oracle=oracle_, out=_SINK, diag=_SINK)
        self.solve_ns += _now() - t0
        self.proofs.extend(s.proof for s in out.solutions)
        return out


def reductions(proof) -> int:
    """Clause reductions in one returned proof."""
    return len(_trace_of(proof)) - 1


def proof_nodes(proof) -> int:
    return 1 + sum(proof_nodes(c) for c in proof.children)


def no_span(name: str):
    return contextlib.nullcontext()


def load(text: str, span: Callable = no_span):
    """Parse ``text`` and load it into a fresh Database: the set-up the
    ``setup_s`` metric times."""
    with span("parser.parse"):
        clauses = parser.parse_program(text)
    with span("database.load"):
        db = database.Database()
        database.load_clauses(db, clauses)
    return clauses, db


def value_of(t):
    """Benchmark-side reading of an answer term: atoms to names, integers
    to ints, lists to Python lists."""
    if isinstance(t, Atom):
        return [] if t.name == "[]" else t.name
    if isinstance(t, Int):
        return t.value
    if isinstance(t, Struct) and t.name == "." and len(t.args) == 2:
        tail = value_of(t.args[1])
        if isinstance(tail, list):
            return [value_of(t.args[0])] + tail
    raise ValueError(f"unexpected answer term {t!r}")


def _term(v):
    if isinstance(v, int):
        return Int(v)
    if isinstance(v, list):
        return mklist([_term(x) for x in v])
    return Atom(v)


def _goal(name: str, *args):
    return Struct(name, tuple(a if isinstance(a, Var) else _term(a) for a in args))


def _binding(sol, var: Var):
    return value_of(sol.bindings[var])


def _strata(rng: random.Random, n: int) -> list[float]:
    """One point in each of n equal slices of [0, 1), shuffled."""
    us = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(us)
    return us


def _blocks(rng: random.Random, make_block: Callable[[random.Random], list]) -> Iterator[Op]:
    """Endless stream of blocks; each expects a freshly set-up state."""
    while True:
        block = make_block(rng)
        for i, op in enumerate(block):
            op.block_start = i == 0
            yield op


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def program_bytes(self) -> int:
        return len(self.text.encode())

    def setup(self, span: Callable = no_span):
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def execute(self, state, op: Op, meter: Meter):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError


# ----------------------------------------------------------------------
# list-recursion: long derivations, two clauses per predicate


LIST_PROGRAM = """\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""

R, X, Y = Var("R"), Var("X"), Var("Y")


class ListRecursion(Workload):
    """app/3 and nrev/2 on ground lists, and all splits of a list.

    A block holds one op per (kind, length): app on 4..36 elements, nrev
    on 2..12, splits of 2..22.  The long derivations sit in the tail.
    """

    name = "list-recursion"
    APP = range(4, 37)
    NREV = range(2, 13)
    SPLIT = range(2, 23)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.text = LIST_PROGRAM

    def setup(self, span=no_span):
        return load(self.text, span)[1]

    @staticmethod
    def _items(rng, n):
        return [rng.randrange(100) if rng.random() < 0.3 else f"a{rng.randrange(50)}" for _ in range(n)]

    def _block(self, rng):
        ops = []
        for n in self.APP:
            xs, ys = self._items(rng, n), self._items(rng, rng.randint(1, 3))
            ops.append(Op("app", (_goal("app", xs, ys, R),), xs + ys))
        for n in self.NREV:
            xs = self._items(rng, n)
            ops.append(Op("nrev", (_goal("nrev", xs, R),), xs[::-1]))
        for n in self.SPLIT:
            xs = self._items(rng, n)
            splits = [[xs[:i], xs[i:]] for i in range(n + 1)]
            ops.append(Op("split", (_goal("app", X, Y, xs),), splits))
        rng.shuffle(ops)
        return ops

    def ops(self):
        return _blocks(random.Random(self.seed), self._block)

    def execute(self, db, op, meter):
        return meter.solve(db, op.goals, None if op.kind == "split" else 1)

    def check(self, op, out):
        if op.kind == "split":
            got = [[_binding(s, X), _binding(s, Y)] for s in out.solutions]
            return out.status == "yes" and got == op.expected
        return out.status == "yes" and _binding(out.solutions[0], R) == op.expected


# ----------------------------------------------------------------------
# fact-store: clause selection over thousands of facts, with writes


class FactStore(Workload):
    """emp/3 and dept/2 facts with one-level join rules.

    Reads bind the first argument.  Their keys are skewed: two thirds sit
    near the front of the clause list and one third near the back, so
    both early and late clause positions are hit.  Retracts hit evenly
    spread positions.  Two ninths of each block are assert/1 and
    retract/1, kept in balance so the store size stays near its start.
    Expected answers come from an ordered dict mirror of emp/3 that every
    write updates.
    """

    name = "fact-store"
    EMPLOYEES = 2500
    DEPTS = 40
    # per block: lookups, works_in joins, manager_of joins, dept rosters,
    # asserts, retracts.  An odd block size that is a multiple of 5 puts
    # p50 and p90 in the middle of one op's copies, not between two ops.
    MIX = (("emp", 16), ("works_in", 9), ("manager_of", 7), ("roster", 3), ("assert", 5), ("retract", 5))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.emps = {f"e{i}": (f"d{rng.randrange(self.DEPTS)}", rng.randrange(1000, 9000)) for i in range(self.EMPLOYEES)}
        self.depts = {f"d{j}": (f"dn{rng.randrange(1000)}", f"e{rng.randrange(self.EMPLOYEES)}") for j in range(self.DEPTS)}
        lines = [f"emp({e}, {d}, {s})." for e, (d, s) in self.emps.items()]
        lines += [f"dept({d}, {n}, {m})." for d, (n, m) in self.depts.items()]
        lines += [
            "works_in(E, DN) :- emp(E, D, _), dept(D, DN, _).",
            "manager_of(E, M) :- emp(E, D, _), dept(D, _, M).",
        ]
        self.text = "\n".join(lines) + "\n"

    def setup(self, span=no_span):
        return load(self.text, span)[1]

    def ops(self):
        kinds = [k for k, n in self.MIX for _ in range(n)]
        reads = sum(n for k, n in self.MIX if k in ("emp", "works_in", "manager_of"))
        retracts = dict(self.MIX)["retract"]

        def skewed(rng, u):
            # u in [0, 1): two thirds early-heavy, one third late-heavy
            if u < 2 / 3:
                return (u * 1.5) ** 3
            return 1 - ((u - 2 / 3) * 3) ** 3

        def block(rng):
            mirror = dict(self.emps)
            next_id = self.EMPLOYEES
            order = kinds[:]
            rng.shuffle(order)
            us = _strata(rng, reads)
            vs = _strata(rng, retracts)
            ops = []
            for kind in order:
                keys = list(mirror)
                if kind in ("emp", "works_in", "manager_of"):
                    e = keys[min(len(keys) - 1, int(skewed(rng, us.pop()) * len(keys)))]
                    d, s = mirror[e]
                    if kind == "emp":
                        ops.append(Op(kind, (_goal("emp", e, Var("D"), Var("S")),), {"D": d, "S": s}))
                    elif kind == "works_in":
                        ops.append(Op(kind, (_goal("works_in", e, Var("DN")),), {"DN": self.depts[d][0]}))
                    else:
                        ops.append(Op(kind, (_goal("manager_of", e, Var("M")),), {"M": self.depts[d][1]}))
                elif kind == "roster":
                    d = f"d{rng.randrange(self.DEPTS)}"
                    rows = [{"E": e, "S": s} for e, (dd, s) in mirror.items() if dd == d]
                    ops.append(Op(kind, (_goal("emp", Var("E"), d, Var("S")),), rows))
                elif kind == "assert":
                    e = f"e{next_id}"
                    next_id += 1
                    d, s = f"d{rng.randrange(self.DEPTS)}", rng.randrange(1000, 9000)
                    mirror[e] = (d, s)
                    ops.append(Op(kind, (Struct("assert", (_goal("emp", e, d, s),)),), {}))
                else:
                    e = keys[int(vs.pop() * len(keys))]
                    d, s = mirror.pop(e)
                    ops.append(Op(kind, (Struct("retract", (_goal("emp", e, Var("D"), Var("S")),)),), {"D": d, "S": s}))
            return ops

        return _blocks(random.Random(self.seed + 1), block)

    def execute(self, db, op, meter):
        return meter.solve(db, op.goals, None if op.kind == "roster" else 1)

    def check(self, op, out):
        # expected: the query's bindings by variable name, or one such
        # dict per solution for a roster
        got = [{v.name: value_of(t) for v, t in sol.bindings.items()} for sol in out.solutions]
        if op.kind == "roster":
            return out.status == "yes" and got == op.expected
        return out.status == "yes" and got == [op.expected]


# ----------------------------------------------------------------------
# expert-session: ask/known acquisition, Skolem negation, explanations


class DictOracle(oracle.Oracle):
    """A simulated user who answers at once from a seeded dict.

    ``answers`` maps (attribute, subject) to a value name, or to None for
    a refusal; each session brings its own.  Skolem questions are answered from ``skolem_queue``, which
    the benchmark fills before each negation.  ``asked`` logs the
    attribute questions put since it was last cleared.
    """

    def __init__(self, answers: dict):
        self.answers = answers
        self.skolem_queue: list = []
        self.asked: list = []

    def answer(self, question, why_supplier=None):
        if question.attribute == "skolem":
            reply = self.skolem_queue.pop(0)
        else:
            self.asked.append((question.attribute, question.subject))
            reply = self.answers[(question.attribute, question.subject)]
        if reply is None:
            return oracle.NO
        return oracle.value_answer(Atom(reply))


_PERSON_FACT = re.compile(r"^person\((\w+), (\w+), (\w+), (\w+), (\w+)\)\.", re.M)
ATTRIBUTES = ("country", "family", "day")
# state(not_twin, A, B) clauses in program order, told apart by a piece
# of their canonical text
NOT_TWIN_CLAUSES = ("country(X,A)", "family(X,A)", "day(X,A)", "C \\= A")


class ExpertSession(Workload):
    """The twins.pl rules over a generated family knowledge base.

    Families have one to three birth cohorts of one to three children.
    Most queries ask state(not_twin, A, B) for two members of a cohort,
    so ask_value/3 fires; subjects repeat, so the known/4 memo grows and
    is hit.  A block is one session with a new simulated user, whose
    answers are drawn afresh.  Every session asks the same number of pairs
    whose answer comes from each not_twin clause (or from none), so seeds
    and sessions differ in people, not in the mix of proofs.  Every answer
    is rendered as HOW text, proof JSON and trace JSON.  One op in 25
    negates a fact through the session's FreshnessLedger; two
    holds_negated/1 queries follow it.
    """

    name = "expert-session"
    # (children per birth cohort, cohorts): 280 generated people, the
    # same number for every seed, since every scan of person/5 costs more
    # the more people there are
    COHORTS = ((1, 50), (2, 70), (3, 30))
    # per part: (kind, which not_twin clause answers, or "cross" for two
    # people of different cohorts, or "same" for twin/3 in one cohort),
    # count; a negation and two holds_negated follow.  25 ops in all.  The
    # 11 cheapest (holds, twin, clause 0, negate) leave p50 in the middle
    # of the clause-1 ops, and the 7 dearest hold p90.
    MIX = (
        ("not_twin", 0, 5), ("not_twin", 1, 4), ("not_twin", 2, 3), ("not_twin", 3, 2), ("not_twin", None, 2),
        ("not_twin", "cross", 3), ("twin", "same", 2), ("twin", "cross", 1),
    )
    # a block is one session of three such parts: 75 ops
    SESSION_PARTS = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        base = corpus_text("twins.pl")
        self.cohort: dict[str, tuple] = {}
        for m in _PERSON_FACT.finditer(base):
            self.cohort[m.group(1)] = m.groups()[1:]
        lines = []
        sizes = [size for size, count in self.COHORTS for _ in range(count)]
        rng.shuffle(sizes)
        n = f = 0
        while sizes:
            f += 1
            take = min(len(sizes), rng.choice((1, 1, 2, 2, 3)))
            family, sizes = sizes[:take], sizes[take:]
            births = rng.sample([(mo, yr) for mo in range(1, 13) for yr in range(1980, 2011)], len(family))
            for (mo, yr), size in zip(births, family):
                for _ in range(size):
                    p = f"p{n}"
                    n += 1
                    data = (f"father{f + 1}", f"mother{f + 1}", f"month{mo}", f"year{yr}")
                    self.cohort[p] = data
                    lines.append(f"person({p}, {', '.join(data)}).")
        self.text = base + "\n" + "\n".join(lines) + "\n"
        groups: dict[tuple, list] = {}
        for p, data in self.cohort.items():
            groups.setdefault(data, []).append(p)
        self.groups = groups
        self.people = list(self.cohort)
        self.twins = [(a, b) for g in groups.values() for i, a in enumerate(g) for b in g[i + 1:]]

    def _answers(self, rng) -> dict:
        """What one simulated user says: (attribute, person) -> value name,
        or None for a refusal.  Siblings mostly share a family name, and
        members of a cohort mostly share a birthday."""
        family = {data[0]: f"fam{rng.randrange(60)}" for data in self.groups}
        day = {data: f"day{rng.randint(1, 28)}" for data in self.groups}
        answers = {}
        for p, data in self.cohort.items():
            answers[("country", p)] = None if rng.random() < 0.2 else f"c{rng.randrange(4)}"
            answers[("family", p)] = None if rng.random() < 0.15 else (
                family[data[0]] if rng.random() < 0.7 else f"fam{rng.randrange(60)}")
            answers[("day", p)] = None if rng.random() < 0.15 else (
                day[data] if rng.random() < 0.75 else f"day{rng.randint(1, 28)}")
        return answers

    def fires(self, a, b, ask):
        """Which state(not_twin, a, b) clause proves it (0..3), or None.
        ``ask(attribute, person)`` gives the answer, None for a refusal,
        and is called in the order the engine puts the questions."""
        same = self.cohort[a] == self.cohort[b]
        for idx, attr in enumerate(ATTRIBUTES):
            x = ask(attr, a)
            if x is None or not same:
                continue
            y = ask(attr, b)
            if y is not None and x != y:
                return idx
        if same and len(self.groups[self.cohort[a]]) >= 3:
            return 3
        return None

    def setup(self, span=no_span):
        db = load(self.text, span)[1]
        return _Session(db, DictOracle({}), negation.FreshnessLedger())

    def ops(self):
        kinds = [(k, group) for k, group, n in self.MIX for _ in range(n)]

        def pair(rng, pairs, group):
            if group == "cross":
                while True:
                    a, b = rng.sample(self.people, 2)
                    if self.cohort[a] != self.cohort[b]:
                        return a, b
            # a session without such a pair falls back to any two twins
            a, b = rng.choice(pairs.get(group) or self.twins)
            return (a, b) if rng.random() < 0.5 else (b, a)

        def block(rng):
            # one session: a new user, and a fresh store, memo and ledger
            answers = self._answers(rng)
            pairs: dict = {}
            for a, b in self.twins:
                pairs.setdefault(self.fires(a, b, lambda attr, p: answers[(attr, p)]), []).append((a, b))
            memo: set = set()
            issued: set = set()
            stored: set = set()
            ops = []
            for part in range(self.SESSION_PARTS):
                order = kinds[:]
                rng.shuffle(order)
                part_ops = []
                for kind, group in order:
                    a, b = pair(rng, pairs, group)
                    if kind == "twin":
                        part_ops.append(Op("twin", (_goal("state", "twin", a, b),), (0 if group == "same" else None, [])))
                    else:
                        expected = self._not_twin(a, b, answers, memo)
                        part_ops.append(Op("not_twin", (_goal("state", "not_twin", a, b),), expected))
                at = rng.randrange(len(part_ops) + 1)
                neg = self._negation(rng, issued, f"w{part}_")
                pred, args, _ = neg.expected
                stored.add((pred, args))
                other = (pred, (rng.choice(self.people),) + args[1:])
                part_ops[at:at] = [neg, _holds(pred, args, True), _holds(*other, other in stored)]
                ops += part_ops
            ops[0].block_data = answers
            return ops

        return _blocks(random.Random(self.seed + 1), block)

    def _not_twin(self, a, b, answers, memo):
        """(clause, questions put to the oracle), given the known/4 memo."""
        asked: list = []

        def ask(attr, p):
            if (attr, p) not in memo:
                memo.add((attr, p))
                asked.append((attr, p))
            return answers[(attr, p)]

        return self.fires(a, b, ask), asked

    def _negation(self, rng, issued, prefix):
        """A negate op: the fact, the oracle's Skolem proposals, and the
        stored s-fact and constants the freshness rule must give."""
        p = rng.choice(self.people)
        pred, slots = rng.choice((("twin", [None, p]), ("person", [None, *self.cohort[p]]), ("sibling", [None, None])))
        fact_args, stored_args, proposals, constants = [], [], [], []
        for a in slots:
            if a is not None:
                fact_args.append(Atom(a))
                stored_args.append(a)
                continue
            # a name already in the store or already issued must be refused
            taken = rng.choice(sorted(issued)) if issued and rng.random() < 0.5 else rng.choice(self.people)
            style = rng.randrange(4)
            if style <= 1:
                c = f"{prefix}{len(constants)}"
                proposals += [taken, c] if style == 1 else [c]
            else:
                k = 1
                while f"sk_{k}" in issued:
                    k += 1
                c = f"sk_{k}"
                proposals += [None] if style == 2 else [taken] * 4
            issued.add(c)
            constants.append(c)
            fact_args.append(Var(f"V{len(fact_args)}"))
            stored_args.append(c)
        fact = Struct(pred, tuple(fact_args))
        return Op("negate", (), (pred, tuple(stored_args), tuple(constants)), extra=(fact, proposals))

    def execute(self, s, op, meter):
        if op.block_data is not None:
            s.oracle.answers = op.block_data
        s.oracle.asked.clear()
        if op.kind == "negate":
            fact, proposals = op.extra
            s.oracle.skolem_queue = list(proposals)
            return negation.negate_fact(s.db, Clause(fact), s.oracle, s.ledger)
        out = meter.solve(s.db, op.goals, 1, s.oracle)
        rendered = None
        if out.solutions:
            proof = out.solutions[0].proof
            rendered = (
                explain.how(proof),
                explain.proof_to_json(proof),
                explain.trace_to_json(explain.trace_of(proof)),
            )
        return out, rendered, list(s.oracle.asked)

    def check(self, op, result):
        if op.kind == "negate":
            pred, args, constants = op.expected
            want = Struct("s", (Struct("neg", (Atom(pred),)),) + tuple(Atom(a) for a in args))
            return result.stored == want and result.skolem_constants == tuple(Atom(c) for c in constants)
        out, rendered, asked = result
        if op.kind == "holds":
            return out.status == ("yes" if op.expected else "no") and asked == []
        clause, want_asked = op.expected
        if asked != want_asked:
            return False
        if clause is None:
            return out.status == "no"
        if out.status != "yes":
            return False
        how_text, proof_json, trace_json = rendered
        cited = proof_json["justification"].get("clause", "")
        if op.kind == "not_twin" and NOT_TWIN_CLAUSES[clause] not in cited:
            return False
        return (
            cited.startswith("state(" + op.kind + ",")
            and how_text.startswith(parser.format_goal(op.goals[0]))
            and trace_json[-1]["goal"] == "true"
        )


def _holds(pred, args, yes):
    return Op("holds", (Struct("holds_negated", (_goal(pred, *args),)),), yes)


@dataclass
class _Session:
    db: object
    oracle: DictOracle
    ledger: object


# ----------------------------------------------------------------------
# fixpoint: T_P least fixpoint on acyclic graph programs


TC_RULES = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n"
SG_RULES = "sg(X, X) :- node(X).\nsg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\n"


@dataclass
class _Graph:
    text: str
    model: set    # expected minimal model as (pred, args) tuples
    pred: str     # the derived predicate, whose atoms are asked
    inside: list  # its atoms in the model, reflexive ones left out
    outside: list  # its atoms over the graph's nodes not in the model


class Fixpoint(Workload):
    """minimal_model_with_steps on seeded acyclic graph programs, checked
    against a Python closure, then a seeded sample of atoms in and out of
    the model, drawn afresh at every check, asked of the engine.

    Transitive closure (3-variable rule, universe^3 ground instances) on
    8 graphs of 6..13 nodes and same-generation (4-variable rule,
    universe^4) on 7 trees of 4..7 nodes.  Each node hangs below one of
    the three nodes before it, so the engine's searches stay small and
    semantics does most of the work.  Each size comes in VARIANTS seeded
    graphs; one block checks one variant of each size, so a run sees many
    graph shapes.
    """

    name = "fixpoint"
    # 15 sizes: an odd count that is a multiple of 5 puts p50 and p90 in
    # the middle of one size's copies, not between two sizes
    TC_NODES = range(6, 14)
    SG_NODES = (4, 5, 6, 7, 5, 6, 7)
    VARIANTS = 8
    SAMPLE = 2  # atoms in and out of the model asked per program

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        make = [(self._tc, k) for k in self.TC_NODES] + [(self._sg, k) for k in self.SG_NODES]
        # graphs[size * VARIANTS + variant]
        self.graphs = [fn(rng, k) for fn, k in make for _ in range(self.VARIANTS)]
        self.sizes = len(make)
        self.text = "".join(g.text for g in self.graphs)

    @staticmethod
    def _parents(rng, k):
        return {i: rng.randrange(max(0, i - 3), i) for i in range(1, k)}

    @staticmethod
    def _graph(text, model, pred, nodes):
        inside = sorted(a for p, a in model if p == pred and a[0] != a[1])
        outside = sorted({(x, y) for x in nodes for y in nodes} - {a for p, a in model if p == pred})
        return _Graph(text, model, pred, inside, outside)

    def _tc(self, rng, k):
        nodes = [f"n{i}" for i in range(k)]
        edges = {(nodes[p], nodes[c]) for c, p in self._parents(rng, k).items()}
        # one shortcut edge keeps the graph from being a tree
        a, b = sorted(rng.sample(range(k), 2))
        edges.add((nodes[a], nodes[b]))
        path = set(edges)
        while True:
            more = {(x, w) for x, y in path for z, w in edges if y == z} - path
            if not more:
                break
            path |= more
        model = {("edge", e) for e in edges} | {("path", p) for p in path}
        text = "".join(f"edge({x}, {y}).\n" for x, y in sorted(edges)) + TC_RULES
        return self._graph(text, model, "path", nodes)

    def _sg(self, rng, k):
        nodes = [f"n{i}" for i in range(k)]
        par = {(nodes[c], nodes[p]) for c, p in self._parents(rng, k).items()}
        sg = {(x, x) for x in nodes}
        while True:
            more = {(x, y) for x, xp in par for y, yp in par if (xp, yp) in sg} - sg
            if not more:
                break
            sg |= more
        model = {("node", (x,)) for x in nodes} | {("par", p) for p in par} | {("sg", s) for s in sg}
        text = "".join(f"node({x}).\n" for x in nodes) + "".join(f"par({c}, {p}).\n" for c, p in sorted(par)) + SG_RULES
        return self._graph(text, model, "sg", nodes)

    def setup(self, span=no_span):
        return [load(g.text, span) for g in self.graphs]

    def ops(self):
        def check(rng, i):
            g = self.graphs[i]
            picks = [(a, True) for a in rng.sample(g.inside, min(self.SAMPLE, len(g.inside)))]
            picks += [(a, False) for a in rng.sample(g.outside, min(self.SAMPLE, len(g.outside)))]
            return Op("model", (), i, extra=[((_goal(g.pred, *a),), yes) for a, yes in picks])

        def block(rng):
            order = [size * self.VARIANTS + rng.randrange(self.VARIANTS) for size in range(self.sizes)]
            rng.shuffle(order)
            return [check(rng, i) for i in order]

        return _blocks(random.Random(self.seed + 1), block)

    def execute(self, programs, op, meter):
        clauses, db = programs[op.expected]
        model, steps = semantics.minimal_model_with_steps(clauses)
        answers = [meter.solve(db, goals).status for goals, _ in op.extra]
        return model, steps, answers

    def check(self, op, result):
        model, _steps, answers = result
        graph = self.graphs[op.expected]
        got = {(a.name, tuple(value_of(x) for x in a.args)) for a in model}
        return got == graph.model and answers == ["yes" if yes else "no" for _, yes in op.extra]


WORKLOADS = {w.name: w for w in (ListRecursion, FactStore, ExpertSession, Fixpoint)}
