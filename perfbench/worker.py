"""Runs one workload in a process of its own and streams its results.

``run.py`` starts this script and reads one JSON object per line from its
standard output, so a worker that dies (a deep recursion can overrun the
C stack) loses only the operation in flight.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times set-up and a closed loop of operations with no
wrappers installed.  With ``--trace 1`` it runs the seed's first block of
operations in pairs of passes, one plain and one with the layer wrappers
of ``tracer.py``, and reports the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# At least this many timed ops, so ten or more lie beyond the p90.
MIN_OPS = 100
# Before each block, set-up is timed until this much time has passed.
SETUP_BURST_NS = 20_000_000
WARMUP_OPS = 10
# A measured loop ends by this wall time even when a block is unfinished.
LOOP_LIMIT_S = 120.0

_now = time.perf_counter_ns


def import_program():
    """Import skolog from this checkout's ``src``, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "skolog", "__init__.py")):
        raise SystemExit(f"skolog sources not found under {src}")
    sys.path.insert(0, src)
    import skolog

    if os.path.dirname(os.path.abspath(skolog.__file__)) != os.path.join(src, "skolog"):
        raise SystemExit(f"skolog was imported from {skolog.__file__}, not {src}")
    return skolog


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_op(wl, state, op, meter):
    """(latency ns, result is right, error text or None).  An exception
    raised by the program is a failed op, not the end of the run."""
    t0 = _now()
    try:
        result = wl.execute(state, op, meter)
    except Exception as e:  # the program under test may raise anything
        return _now() - t0, False, f"{type(e).__name__}: {e}"
    lat = _now() - t0
    try:
        return lat, bool(wl.check(op, result)), None
    except Exception as e:  # a malformed answer fails the check
        return lat, False, f"check: {type(e).__name__}: {e}"


# ----------------------------------------------------------------------
# calibration: the host's speed swings by up to 2x within minutes, so
# every timed run also times a fixed computation that shares no code with
# skolog but does the same kind of work (frozen dataclass terms, isinstance
# dispatch, dict substitutions).  run.py scales each time to a host on
# which one kernel call takes run.CALIBRATION_NS.


@dataclass(frozen=True)
class _V:
    name: str


@dataclass(frozen=True)
class _S:
    name: str
    args: tuple


def _subst(t, env):
    if isinstance(t, _V):
        return env.get(t, t)
    if isinstance(t, _S):
        return _S(t.name, tuple(_subst(a, env) for a in t.args))
    return t


_VARS = [_V(f"X{i}") for i in range(8)]


def calibration_kernel() -> bool:
    t = "nil"
    for i in range(40):
        t = _S(".", (_VARS[i % 8], t))
    env: dict = {}
    t2 = t
    for i, v in enumerate(_VARS):
        env[v] = _S("f", (i, "a"))
        t2 = _subst(t, env)
        env = {k: _subst(x, env) for k, x in env.items()}
    return t2 == t


# ----------------------------------------------------------------------


def _setups(wl, min_ns: int):
    """Set up afresh until ``min_ns`` have passed, once at least.  Returns
    the durations and the last state."""
    samples: list[int] = []
    while sum(samples) < min_ns or not samples:
        t0 = _now()
        state = wl.setup()
        samples.append(_now() - t0)
    return samples, state


def first_block(wl) -> list:
    ops = wl.ops()
    block = [next(ops)]
    for op in ops:
        if op.block_start:
            return block
        block.append(op)


def timed(wl, seconds: float) -> None:
    """Closed loop until ``seconds`` have passed and MIN_OPS ops are done,
    ending on a block boundary.  Each block runs on a fresh set-up, timed
    along with others until SETUP_BURST_NS have passed.  Before each op
    the calibration kernel is timed once; ``run.py`` scales every time by
    the kernel's speed around it."""
    from workloads import Meter, reductions

    # warm-up on a state of its own; the measured loop starts afresh
    warm = wl.setup()
    for op in itertools.islice(wl.ops(), WARMUP_OPS):
        run_op(wl, warm, op, Meter())
        calibration_kernel()
    warm = None
    gc.collect()

    emit({"planned": None})
    start = _now()
    deadline = start + int(seconds * 1e9)
    for i, op in enumerate(wl.ops()):
        now = _now()
        if op.block_start and i >= MIN_OPS and now >= deadline:
            break
        if now - start > LOOP_LIMIT_S * 1e9:
            break
        if op.block_start:
            state = None
            gc.collect()  # the last block's garbage, outside any timing
            samples, state = _setups(wl, SETUP_BURST_NS)
            emit({"setup_ns": samples})
        t0 = _now()
        calibration_kernel()
        cal = _now() - t0
        meter = Meter()
        lat, ok, err = run_op(wl, state, op, meter)
        rec = {"ns": lat, "ok": ok, "solve_ns": meter.solve_ns, "red": sum(reductions(p) for p in meter.proofs),
               "cal_ns": cal}
        if err:
            rec["err"] = err
        emit(rec)
    emit({"end": (_now() - start) / 1e9})


def _pass(wl, state, ops, tracer=None):
    """Run ``ops`` once on ``state``; returns (wall ns, failures)."""
    from workloads import Meter, proof_nodes, reductions

    emit({"planned": len(ops)})
    gc.collect()
    failed = 0
    t0 = _now()
    for i, op in enumerate(ops):
        meter = Meter()
        if tracer is None:
            _, ok, err = run_op(wl, state, op, meter)
        else:
            tracer.op = i
            with tracer.span("op"):
                _, ok, err = run_op(wl, state, op, meter)
            tracer.count("reductions", sum(reductions(p) for p in meter.proofs))
            tracer.count("proof_nodes", sum(proof_nodes(p) for p in meter.proofs))
        failed += not ok
        rec = {"ok": ok}
        if err:
            rec["err"] = err
        emit(rec)
    return _now() - t0, failed


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, program_bytes: int, plain_ns: int, traced_ns: int) -> dict:
    def calls(name):
        return tracer.stat(name)[0]

    def secs(name):
        return tracer.stat(name)[1]

    c = tracer.counts.get
    red = c("reductions", 0)
    parse_s = secs("parser.parse")
    return {
        "terms.compose_calls": calls("terms.compose"),
        "terms.compose_s": secs("terms.compose"),
        "terms.apply_s": secs("terms.apply"),
        "engine.self_s": tracer.stat("engine.solve")[2],
        "engine.solve_s": secs("engine.solve"),
        "engine.reductions": red,
        "engine.depth_exceeded": c("depth_exceeded", 0),
        "database.clauses_calls": calls("database.clauses"),
        "database.clauses_s": secs("database.clauses"),
        "database.clauses_per_call": _ratio(c("clauses_items", 0), calls("database.clauses")),
        "terms.rename_calls": calls("terms.rename"),
        "terms.rename_s": secs("terms.rename"),
        "terms.unify_calls": calls("terms.unify"),
        "terms.unify_s": secs("terms.unify"),
        "terms.unify_fail_ratio": _ratio(c("unify_fail", 0), calls("terms.unify")),
        "engine.unify_per_reduction": _ratio(calls("terms.unify"), red),
        "database.assert_calls": calls("database.assert"),
        "database.assert_s": secs("database.assert"),
        "database.retract_calls": calls("database.retract"),
        "database.retract_s": secs("database.retract"),
        "parser.parse_s": parse_s,
        "parser.mb_per_s": _ratio(program_bytes / 1e6, parse_s),
        "database.load_s": secs("database.load"),
        "oracle.ask_calls": calls("oracle.ask"),
        "oracle.ask_s": secs("oracle.ask"),
        "oracle.consults": calls("oracle.wait"),
        "oracle.memo_hit_ratio": _ratio(c("memo_hits", 0), calls("oracle.ask")),
        "oracle.wait_s": secs("oracle.wait"),
        "negation.negate_calls": calls("negation.negate"),
        "negation.negate_s": secs("negation.negate"),
        "negation.constants_of_s": secs("negation.constants_of"),
        "negation.find_s_fact_s": secs("negation.find_s_fact"),
        "explain.how_s": secs("explain.how"),
        "explain.json_s": secs("explain.json"),
        "explain.trace_of_s": secs("explain.trace_of"),
        "explain.proof_nodes": c("proof_nodes", 0),
        "semantics.minimal_model_s": secs("semantics.minimal_model"),
        "semantics.ground_instances": c("ground_instances", 0),
        "semantics.ground_instances_s": secs("semantics.ground_instances"),
        "semantics.tp_steps": c("tp_steps", 0),
        "trace.overhead_ratio": _ratio(traced_ns, plain_ns),
    }


def traced(wl, seconds: float, skolog, spans_path: str | None) -> dict:
    """Plain and traced passes over the same ops, in pairs, until
    ``seconds`` have passed (one pair at least).  Counts come from the
    first traced pass (every pass gives the same); times and ratios are
    the median over the traced passes."""
    from tracer import Tracer, install, uninstall
    from workloads import Meter

    ops = first_block(wl)
    state = wl.setup()
    for op in ops[:WARMUP_OPS]:
        run_op(wl, state, op, Meter())
    passes = []
    start = _now()
    while not passes or _now() - start < seconds * 1e9:
        plain_ns, _ = _pass(wl, wl.setup(), ops)
        tracer = Tracer()
        state = wl.setup(tracer.span)
        oracle = getattr(state, "oracle", None)
        if oracle is not None:
            oracle.answer = tracer.wrap("oracle.wait", oracle.answer)
        undo = install(tracer, skolog)
        try:
            traced_ns, _ = _pass(wl, state, ops, tracer)
        finally:
            uninstall(undo)
        passes.append(layer_metrics(tracer, wl.program_bytes, plain_ns, traced_ns))
        if spans_path is not None and len(passes) == 1:
            tracer.write(spans_path)
    first = passes[0]
    return {k: v if isinstance(v, int) else statistics.median(p[k] for p in passes) for k, v in first.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    skolog = import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"{wl.name}.spans.tsv")
        emit({"per_layer": traced(wl, args.seconds, skolog, spans)})
    else:
        timed(wl, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
