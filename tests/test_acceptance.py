"""End-to-end acceptance criteria.

Each test prints one line, `[acceptance] criterion N (<name>): PASS|FAIL`,
visible under `pytest -s`.  Randomized criteria use fixed seeds so the
counts and outcomes are reproducible.
"""

import io
import itertools
import random
import sys
import time
from contextlib import contextmanager

from skolog import (
    Atom,
    Clause,
    Database,
    Int,
    ScriptedOracle,
    SolveOptions,
    Struct,
    UniverseBound,
    Var,
    constants_of,
    herbrand_base,
    is_model,
    load_program,
    minimal_model,
    minimal_model_with_steps,
    negate_fact,
    parse_clause_text,
    parse_program,
    parse_query,
    parse_term_text,
    solve,
    tp,
    unify,
)
from skolog.corpus import corpus_path, corpus_text
from skolog.errors import ParseError
from skolog.terms import apply, variables_of

from util import canonical, run_cli, stored_clauses

APPEND = str(corpus_path("append.pl"))
TWINS = str(corpus_path("twins.pl"))


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def parse_trace_table(lines):
    """Trace rows -> one comparable term, variables shared across rows."""
    rows = []
    for line in lines:
        goal_text, _, bindings_text = line.partition("\t")
        parts = [parse_term_text(goal_text)]
        if bindings_text:
            for pair in bindings_text.split(", "):
                name, _, term_text = pair.partition(" = ")
                parts.append(Struct("bind", (Var(name), parse_term_text(term_text))))
        rows.append(Struct("row", tuple(parts)))
    return canonical(Struct("table", tuple(rows)))


def test_criterion_01_append_trace():
    with criterion(1, "append trace"):
        started = time.monotonic()
        r = run_cli(["run", APPEND, "--goal", "append([a,b],[c,d],Ls).", "--trace"])
        elapsed = time.monotonic() - started
        assert r.code == 0
        lines = r.out.strip().split("\n")
        assert lines[-1] == "Ls = [a,b,c,d]"
        expected = [
            "append([a,b],[c,d],Ls)\tLs = [a|Zs]",
            "append([b],[c,d],Zs)\tZs = [b|Zs1]",
            "append([],[c,d],Zs1)\tZs1 = [c,d]",
            "true",
        ]
        assert parse_trace_table(lines[:-1]) == parse_trace_table(expected), (
            "trace must match the four-step table modulo variable names"
        )
        assert elapsed < 1.0


def test_criterion_02_misleading_negation():
    with criterion(2, "misleading negation"):
        r_yes = run_cli(["run", TWINS, "--goal", "twin(marsha, marjorie)."])
        assert r_yes.code == 0 and r_yes.out == "yes\n"

        r_no = run_cli(["run", TWINS, "--goal", "not(twin(marsha, marjorie))."])
        assert r_no.code == 1 and r_no.out == "no\n"

        # the failed query leaves nothing to explain
        db = Database()
        load_program(db, corpus_text("twins.pl"))
        out = solve(db, parse_query("not(twin(marsha, marjorie))."), SolveOptions())
        assert out.status == "no" and out.solutions == []

        repl = run_cli(
            ["repl", TWINS],
            stdin_text="not(twin(marsha, marjorie)).\nhow.\n:quit\n",
        )
        assert "no proof available" in repl.out


def test_criterion_03_case_study():
    with criterion(3, "not_twin case study"):
        variants = [
            ("answers_country.txt", "country"),
            ("answers_family.txt", "family"),
            ("answers_day.txt", "day"),
        ]
        for script, attribute in variants:
            started = time.monotonic()
            r = run_cli(
                [
                    "run",
                    TWINS,
                    "--goal",
                    "state(not_twin, marsha, marjorie).",
                    "--oracle",
                    str(corpus_path(script)),
                    "--explain",
                ]
            )
            assert time.monotonic() - started < 1.0
            assert r.code == 0, f"{attribute} variant failed: {r.err}"
            first = r.out.split("\n")[1]
            assert first.startswith("state(not_twin,marsha,marjorie) BECAUSE")
            assert f"{attribute}(" in first, "HOW cites the distinguishing clause"
            assert r.out.count("user said") == 2

        # triplet variant: a third sibling with identical birth data
        started = time.monotonic()
        db = Database()
        load_program(db, corpus_text("twins.pl"))
        load_program(db, "person(mona, father1, mother1, month1, year1).")
        orc = ScriptedOracle(corpus_text("answers_triplets.txt"))
        out = solve(
            db, parse_query("state(not_twin, marsha, marjorie)."), SolveOptions(), oracle=orc
        )
        assert out.status == "yes"
        from skolog.explain import how

        text = how(out.solutions[0].proof)
        assert "person(mona,father1,mother1,month1,year1) is a fact" in text
        assert "mona \\= marsha" in text and "mona \\= marjorie" in text
        assert time.monotonic() - started < 1.0


def test_criterion_04_ask_memoization():
    with criterion(4, "ask/known memoization"):
        db = Database()
        load_program(db, "nice(P) :- ask(likes, P, icecream).")
        orc = ScriptedOracle("ask likes peter icecream -> yes\n")  # exactly one entry
        out = solve(db, parse_query("nice(peter), nice(peter)."), SolveOptions(), oracle=orc)
        assert out.status == "yes"
        known = [sc for sc in db.clauses(("known", 4))]
        assert len(known) == 1
        assert known[0].clause.head == parse_term_text("known(yes,likes,peter,icecream)")

        # a stored no makes ask fail without touching the oracle
        db2 = Database()
        load_program(
            db2,
            "nice(P) :- ask(likes, P, icecream)."
            " known(no, likes, peter, icecream).",
        )
        angry = ScriptedOracle("")  # raises if consulted
        out2 = solve(db2, parse_query("nice(peter)."), SolveOptions(), oracle=angry)
        assert out2.status == "no"


def _random_fact_program(rng):
    preds = ["p", "q", "r"]
    consts = ["a", "b", "c", "d", "e"]
    lines = []
    for _ in range(rng.randint(1, 6)):
        pred = rng.choice(preds)
        args = ", ".join(rng.choice(consts) for _ in range(rng.randint(1, 3)))
        lines.append(f"{pred}({args}).")
    if rng.random() < 0.5:
        lines.append("t(X) :- p(X).")
    return "\n".join(lines)


def test_criterion_05_skolem_freshness():
    with criterion(5, "skolem freshness"):
        rng = random.Random(2024)
        sink = io.StringIO()
        rounds = 200
        for _ in range(rounds):
            text = _random_fact_program(rng)
            db, before_db = Database(), Database()
            load_program(db, text)
            load_program(before_db, text)
            before_constants = constants_of(db)
            count_before = db.clause_count()

            arity = rng.randint(1, 3)
            positions = list(range(arity))
            rng.shuffle(positions)
            n_vars = rng.randint(1, arity)
            var_positions = set(positions[:n_vars])
            args = tuple(
                Var(f"V{i}") if i in var_positions else Atom(rng.choice("abc"))
                for i in range(arity)
            )
            fact = Clause(head=Struct(rng.choice(["p", "q", "zz"]), args))
            nf = negate_fact(db, fact)

            for c in nf.skolem_constants:
                assert c not in before_constants, "witness constant fresh at issue time"
            assert len(set(nf.skolem_constants)) == len(nf.skolem_constants)
            assert len(nf.stored.args) == arity + 1, "stored arity is n+m+1"
            assert db.clause_count() == count_before + 1, "db grows by exactly one clause"

            # conservativity: queries that do not mention s are untouched
            for _ in range(5):
                goal_text = (
                    f"{rng.choice(['p', 'q', 'r', 't'])}"
                    f"({', '.join(rng.choice('abcde') for _ in range(rng.randint(1, 3)))})."
                )
                old = solve(
                    before_db, parse_query(goal_text), SolveOptions(max_solutions=None), diag=sink
                )
                new = solve(db, parse_query(goal_text), SolveOptions(max_solutions=None), diag=sink)
                assert old.status == new.status
                assert [s.bindings for s in old.solutions] == [s.bindings for s in new.solutions]


def _random_pattern(rng, vars_pool=("X", "Y")):
    def build(depth):
        roll = rng.random()
        if depth >= 2 or roll < 0.45:
            if rng.random() < 0.4:
                return Var(rng.choice(vars_pool))
            return Atom(rng.choice("abc"))
        return Struct("f", (build(depth + 1),))

    return build(0)


def _ground_universe():
    terms = [Atom(c) for c in "abc"]
    depth1 = [Struct("f", (t,)) for t in terms]
    depth2 = [Struct("f", (t,)) for t in depth1]
    return terms + depth1 + depth2


def test_criterion_06_unification_suite():
    with criterion(6, "unification suite"):
        rng = random.Random(77)
        universe = _ground_universe()
        pairs = 1000
        for i in range(pairs):
            a, b = _random_pattern(rng), _random_pattern(rng)
            theta = unify(a, b)
            if theta is not None:
                assert apply(theta, a) == apply(theta, b), "unifier property"
                for v, t in theta.items():
                    assert apply(theta, t) == t, "idempotence"
            # small-scope completeness against brute-force enumeration
            shared = list(dict.fromkeys(variables_of(a) + variables_of(b)))
            found = False
            for assignment in itertools.product(universe, repeat=len(shared)):
                sigma = dict(zip(shared, assignment))
                if apply(sigma, a) == apply(sigma, b):
                    found = True
                    break
            assert (theta is not None) == found, f"disagree on {a} vs {b}"

        x = Var("X")
        assert unify(x, Struct("f", (x,))) is None, "occurs check"


def _random_definite_program(rng):
    """Function-free definite program: <=4 predicates, <=3 constants,
    <=6 clauses.  At most 3 clauses share a predicate, which keeps the
    branching of an exhaustive failed search manageable."""
    preds = [("p", 1), ("q", 1), ("r", 2), ("t", 1)]
    consts = ["a", "b", "c"]
    variables = ["X", "Y"]

    def arg():
        return rng.choice(consts + variables)

    def goal(name, arity):
        return f"{name}({', '.join(arg() for _ in range(arity))})"

    lines = []
    per_pred = {name: 0 for name, _ in preds}
    for _ in range(rng.randint(1, 6)):
        open_preds = [(n, a) for n, a in preds if per_pred[n] < 3]
        name, arity = rng.choice(open_preds)
        per_pred[name] += 1
        head = goal(name, arity)
        n_body = rng.randint(0, 2)
        if n_body == 0:
            lines.append(f"{head}.")
        else:
            body = ", ".join(goal(*rng.choice(preds)) for _ in range(n_body))
            lines.append(f"{head} :- {body}.")
    return "\n".join(lines)


def _engine_proves(db, atom, sink):
    """Escalating depth; a finite failed search settles the matter early."""
    for limit in (4, 8, 16, 32, 48):
        out = solve(db, [atom], SolveOptions(depth_limit=limit, max_solutions=1), diag=sink)
        if out.status == "yes":
            return True
        if out.status == "no":
            return False
    return False


def test_criterion_07_operational_equals_declarative():
    with criterion(7, "operational = declarative"):
        started = time.monotonic()
        rng = random.Random(123)
        bound = UniverseBound(0)
        sink = io.StringIO()
        checked_exhaustively = 0
        for _ in range(100):
            text = _random_definite_program(rng)
            clauses = parse_program(text)
            db = Database()
            load_program(db, text)
            model = minimal_model(clauses, bound)
            base = sorted(herbrand_base(clauses, bound), key=repr)
            for atom in base:
                if atom in model:
                    assert _engine_proves(db, atom, sink), (
                        f"model atom the engine cannot prove in:\n{text}"
                    )
                else:
                    # an unprovable atom may sit above an infinite search
                    # tree, so exhaustion is checked at a fixed depth
                    out = solve(
                        db, [atom], SolveOptions(depth_limit=10, max_solutions=1), diag=sink
                    )
                    assert out.status != "yes", (
                        f"engine proves an atom outside the minimal model in:\n{text}"
                    )

            if len(base) <= 12:
                models = []
                for bits in itertools.product([0, 1], repeat=len(base)):
                    interp = {a for a, bit in zip(base, bits) if bit}
                    if is_model(clauses, interp, bound):
                        models.append(interp)
                assert model == set.intersection(*models), (
                    "minimal model is the intersection of all models"
                )
                checked_exhaustively += 1
        assert checked_exhaustively > 0
        assert time.monotonic() - started < 60.0


def test_criterion_08_tp_laws():
    with criterion(8, "T_P laws"):
        rng = random.Random(5)
        bound = UniverseBound(0)
        for _ in range(60):
            clauses = parse_program(_random_definite_program(rng))
            base = sorted(herbrand_base(clauses, bound), key=repr)
            for _ in range(5):
                i = {a for a in base if rng.random() < 0.4}
                j = i | {a for a in base if rng.random() < 0.3}
                assert tp(clauses, i, bound) <= tp(clauses, j, bound), "monotone"
            model, steps = minimal_model_with_steps(clauses, bound)
            assert steps - 1 <= max(1, len(base)), "fixpoint within |B(P)| iterations"
            assert tp(clauses, model, bound) == model, "a genuine fixpoint"


def test_criterion_09_dynamic_db():
    with criterion(9, "dynamic database"):
        db = Database()
        load_program(db, "p(m).")
        out = solve(
            db,
            parse_query("asserta(p(f)), assertz(p(z)), p(W)."),
            SolveOptions(max_solutions=None),
        )
        assert [s.bindings[Var("W")] for s in out.solutions] == [
            Atom("f"),
            Atom("m"),
            Atom("z"),
        ], "asserta before, assertz after, order observable in solutions"

        out2 = solve(db, parse_query("retract(p(Z))."), SolveOptions())
        assert out2.solutions[0].bindings[Var("Z")] == Atom("f"), (
            "retract takes the first unifying clause and instantiates the pattern"
        )
        assert [sc.clause.head for sc in db.clauses(("p", 1))] == [
            Struct("p", (Atom("m"),)),
            Struct("p", (Atom("z"),)),
        ]

        d_assert = Database()
        d_assertz = Database()
        solve(d_assert, parse_query("assert(q(a)), assert(q(b)), assert(q(c))."))
        solve(d_assertz, parse_query("assertz(q(a)), assertz(q(b)), assertz(q(c))."))
        assert stored_clauses(d_assert) == stored_clauses(d_assertz), "assert is assertz"
        ordered = solve(d_assert, parse_query("q(X)."), SolveOptions(max_solutions=None))
        assert [s.bindings[Var("X")] for s in ordered.solutions] == [
            Atom("a"),
            Atom("b"),
            Atom("c"),
        ]


def _random_term_for_roundtrip(rng):
    def build(depth):
        roll = rng.random()
        if depth >= 3 or roll < 0.35:
            kind = rng.randrange(4)
            if kind == 0:
                return Atom(rng.choice(["a", "b", "foo", "hello world", "It", "[]"]))
            if kind == 1:
                return Int(rng.randint(-50, 50))
            if kind == 2:
                return Var(rng.choice(["X", "Y", "Zs", "_tail"]))
            return Atom(rng.choice(["nil", "end"]))
        name = rng.choice(["f", "g", "time", "."])
        arity = 2 if name == "." else rng.randint(1, 3)
        return Struct(name, tuple(build(depth + 1) for _ in range(arity)))

    return build(0)


def test_criterion_10_parser_round_trip():
    from skolog import format_clause, format_term
    from skolog.corpus import PROGRAMS

    with criterion(10, "parser round trip"):
        for name in PROGRAMS:
            for clause in parse_program(corpus_text(name)):
                again = parse_clause_text(format_clause(clause))
                assert canonical(again) == canonical(clause)

        rng = random.Random(31)
        for _ in range(500):
            t = _random_term_for_roundtrip(rng)
            again = parse_term_text(format_term(t))
            assert canonical(again) == canonical(t), format_term(t)

        malformed = [
            "p(a",
            "p(a))",
            ":- q.",
            "p(a) :- .",
            "f(",
            "[a|b|c].",
            "p(a).q",
            "'open",
            "p(@).",
            "p(a)\nq(b).",
            "p(a) :- q(b),.",
            "X :- p.",
            "p(a) q(b).",
        ]
        for bad in malformed:
            try:
                parse_program(bad)
            except ParseError as e:
                lines = bad.split("\n")
                assert 1 <= e.line <= len(lines), bad
                assert 1 <= e.col <= len(lines[e.line - 1]) + 1, bad
            else:
                raise AssertionError(f"expected a ParseError for {bad!r}")
