"""Command line: batch queries, an interactive session, and the
declarative-semantics printer.

Exit codes: 0 a solution was found (or clean interactive exit), 1 no,
2 error, 3 depth exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Optional, TextIO

from .database import Database, load_program
from .engine import Outcome, Solver, SolveOptions
from .errors import ParseError, SkologError
from .explain import bindings_json, how, json_text, proof_to_json, trace_of, trace_to_json, format_trace
from .negation import FreshnessLedger, negate_fact
from .oracle import InteractiveOracle, Oracle, ScriptedOracle, WhyContext, reset_known
from .parser import format_clause, format_term, parse_clause_text, parse_program, parse_query
from .semantics import (
    UniverseBound,
    is_function_free,
    minimal_model,
)
from .errors import NotDefiniteError
from .terms import Clause


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        n = int(text)  # a ValueError is reported as "invalid int value"
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {n}")
        return n

    parse.__name__ = "int"
    return parse


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="skolog", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="consult files, run one query, print answers")
    run.add_argument("files", nargs="+", help="program files to consult, in order")
    run.add_argument("--goal", required=True, help="query to run, e.g. 'append(X,Y,[a,b]).'")
    run.add_argument("--oracle", help="answer script standing in for the user")
    run.add_argument(
        "--depth", type=_at_least(0), default=10_000, help="max reductions per derivation path"
    )
    run.add_argument("--trace", action="store_true", help="print the derived trace per solution")
    run.add_argument("--explain", action="store_true", help="print the HOW tree per solution")
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument(
        "--max-solutions", type=_at_least(1), default=1, help="answers to search for (default 1)"
    )

    repl = sub.add_parser("repl", help="interactive session")
    repl.add_argument("files", nargs="*", help="program files to consult first")
    repl.add_argument("--oracle", help="answer script instead of live questions")
    repl.add_argument("--depth", type=_at_least(0), default=10_000)

    sem = sub.add_parser("semantics", help="print the minimal model of a definite program")
    sem.add_argument("file")
    sem.add_argument("--bound", type=_at_least(0), default=2, help="term depth bound for the universe")

    return p


def main(
    argv=None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_batch(args, stdin, stdout, stderr)
        if args.command == "repl":
            return run_repl(args, stdin, stdout, stderr)
        return semantics_cmd(args.file, args.bound, stdout, stderr)
    except (SkologError, OSError) as e:
        stderr.write(f"error: {e}\n")
        return 2


def entry() -> None:
    sys.exit(main())


def _read_text(path: str) -> str:
    """A file's text, decoded as UTF-8 whatever the locale."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise SkologError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None


def _consult_files(db: Database, paths) -> None:
    for path in paths:
        text = _read_text(path)
        try:
            load_program(db, text)
        except ParseError as e:
            raise ParseError(e.message, e.line, e.col, e.expected, source=path) from None


def _make_oracle(args, stdin: TextIO, stdout: TextIO) -> Oracle:
    if args.oracle:
        return ScriptedOracle(_read_text(args.oracle))
    return InteractiveOracle(stdin, stdout)


def _answer_text(bindings) -> str:
    """One line per binding, or ``yes`` when there are none."""
    return "\n".join(f"{v.name} = {format_term(t)}" for v, t in bindings.items()) or "yes"


_EXIT_BY_STATUS = {"yes": 0, "no": 1, "depth_exceeded": 3}


def run_batch(args, stdin: TextIO, stdout: TextIO, stderr: TextIO) -> int:
    db = Database()
    _consult_files(db, args.files)
    goals = parse_query(args.goal)
    options = SolveOptions(depth_limit=args.depth, max_solutions=args.max_solutions)
    solver = Solver(db, options, _make_oracle(args, stdin, stdout), out=stdout, diag=stderr)
    outcome = solver.run(goals)

    if args.json:
        stdout.write(json_text(_json_payload(outcome)) + "\n")
        return _EXIT_BY_STATUS[outcome.status]

    if outcome.status == "yes":
        for i, sol in enumerate(outcome.solutions):
            if i:
                stdout.write("\n")
            if args.trace:
                stdout.write(format_trace(trace_of(sol.proof)) + "\n")
            stdout.write(_answer_text(sol.bindings) + "\n")
            if args.explain:
                stdout.write(how(sol.proof) + "\n")
        return 0
    stdout.write(outcome.status + "\n")
    return _EXIT_BY_STATUS[outcome.status]


def _json_payload(outcome: Outcome) -> dict:
    solutions = [
        {"bindings": bindings_json(sol.bindings), "proof": proof_to_json(sol.proof)}
        for sol in outcome.solutions
    ]
    trace = trace_to_json(trace_of(outcome.solutions[0].proof)) if outcome.solutions else []
    return {"status": outcome.status, "solutions": solutions, "trace": trace}


def semantics_cmd(path: str, bound: int, stdout: TextIO, stderr: TextIO) -> int:
    clauses = parse_program(_read_text(path))
    try:
        model = minimal_model(clauses, UniverseBound(bound))
    except NotDefiniteError as e:
        stderr.write(f"not_definite: {e}\n")
        return 2
    if clauses and not is_function_free(clauses):
        stderr.write(
            f"note: program has functors; model is depth-approximate at depth {bound}\n"
        )
    for line in sorted(format_term(a) for a in model):
        stdout.write(line + "\n")
    return 0


@dataclass
class Session:
    db: Database
    options: SolveOptions
    oracle: Oracle
    ledger: FreshnessLedger = field(default_factory=FreshnessLedger)
    last_proof: object = None
    trace: bool = False  # :trace on
    unread: Optional[str] = None  # a line read as a "more?" reply that was not one


def run_repl(args, stdin: TextIO, stdout: TextIO, stderr: TextIO) -> int:
    db = Database()
    _consult_files(db, args.files)
    session = Session(
        db=db,
        options=SolveOptions(depth_limit=args.depth),
        oracle=_make_oracle(args, stdin, stdout),
    )
    return repl_loop(session, stdin, stdout, stderr)


def repl_loop(session: Session, stdin: TextIO, stdout: TextIO, stderr: TextIO) -> int:
    """Read commands and queries until :quit or end of input.  Malformed
    input gets a message and a fresh prompt; the session survives."""
    while True:
        line, session.unread = session.unread, None
        if line is None:
            stdout.write("?- ")
            line = stdin.readline()
        if line == "":
            stdout.write("\n")
            return 0
        line = line.strip()
        if not line:
            continue
        try:
            if _dispatch(session, line, stdin, stdout, stderr):
                return 0
        except ParseError as e:
            stdout.write(f"parse error: {e}\n")
        except SkologError as e:
            stdout.write(f"error: {e}\n")


def _dispatch(session: Session, line: str, stdin, stdout, stderr) -> bool:
    """Handle one line; True means quit."""
    if line.startswith(":"):
        return _colon_command(session, line, stdout)
    if line == "listing.":
        for sc in session.db.all_stored():
            stdout.write(format_clause(sc.clause) + "\n")
        return False
    if line == "how.":
        if session.last_proof is None:
            stdout.write("no proof available\n")
        else:
            stdout.write(how(session.last_proof) + "\n")
        return False
    if line == "why.":
        stdout.write("no question pending\n")
        return False
    clause = _clause_command(line, "assert")
    if clause is not None:
        session.db.assertz(clause)
        stdout.write("yes\n")
        return False
    clause = _clause_command(line, "retract")
    if clause is not None:
        theta = session.db.retract(clause)
        if theta is None:
            stdout.write("no\n")
        else:
            stdout.write(_answer_text({v: t for v, t in theta.items() if v.name != "_"}) + "\n")
        return False
    if line.startswith("negate "):
        _negate_command(session, line[len("negate ") :], stdout, stderr)
        return False
    _run_query(session, line, stdin, stdout, stderr)
    return False


def _clause_command(line: str, verb: str) -> Optional[Clause]:
    """``C`` when the whole line is ``verb(C).`` for one clause ``C``,
    which may be a rule; None for any other line, such as a query that
    calls ``verb`` and goes on with further goals.  A line of that shape
    that reads neither as one clause nor as a query gets the clause
    parser's error, which can point into a rule."""
    if not (line.startswith(verb + "(") and line.endswith(").")):
        return None
    try:
        return parse_clause_text(line[len(verb) + 1 : -2] + ".")
    except ParseError as e:
        try:
            parse_query(line)
        except ParseError:
            raise e from None
        return None


def _colon_command(session: Session, line: str, stdout: TextIO) -> bool:
    """Run one ``:`` command; True means quit."""
    command = " ".join(line.rstrip(".").split())
    if command == ":reset":
        reset_known(session.db)
    elif command in (":trace on", ":trace off"):
        session.trace = command == ":trace on"
    elif command != ":quit":
        stdout.write(f"unknown command: {line}\n")
    return command == ":quit"


def _negate_command(session: Session, text: str, stdout: TextIO, stderr: TextIO) -> None:
    fact = parse_clause_text(text if text.rstrip().endswith(".") else text + ".")
    nf = negate_fact(
        session.db,
        fact,
        oracle=session.oracle,
        ledger=session.ledger,
        diag=stderr,
        why_supplier=lambda: WhyContext((), (fact.head,)),
    )
    stdout.write(format_term(nf.stored) + ".\n")


def _run_query(session: Session, line: str, stdin, stdout, stderr) -> None:
    goals = parse_query(line)
    solver = Solver(
        session.db,
        session.options,
        session.oracle,
        out=stdout,
        diag=stderr,
        trace_out=stdout if session.trace else None,
    )
    session.last_proof = None
    for sol in solver.solutions(goals):
        session.last_proof = sol.proof
        stdout.write(_answer_text(sol.bindings) + "\n")
        more = stdin.readline()
        if more.strip() != ";":
            if more.strip():
                session.unread = more
            return
    # none (left), answers shown or not
    stdout.write(solver.exhausted_status() + "\n")


if __name__ == "__main__":
    entry()
