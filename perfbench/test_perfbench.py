"""Tests of the benchmark itself, on tiny workload sizes.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402

skolog = worker.import_program()

import workloads  # noqa: E402


class TinyLists(workloads.ListRecursion):
    APP, NREV, SPLIT = range(2, 6), range(2, 5), range(2, 5)


class TinyFacts(workloads.FactStore):
    EMPLOYEES, DEPTS = 60, 4


class TinySession(workloads.ExpertSession):
    COHORTS = ((1, 3), (2, 6), (3, 3))
    SESSION_PARTS = 2


class TinyFixpoint(workloads.Fixpoint):
    TC_NODES, SG_NODES, VARIANTS = range(3, 6), (3, 4), 1


TINY = (TinyLists, TinyFacts, TinySession, TinyFixpoint)

# Counts that must repeat exactly between two traced runs with one seed.
DETERMINISTIC = (
    "engine.reductions",
    "terms.unify_calls",
    "database.clauses_calls",
    "oracle.consults",
    "semantics.ground_instances",
)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class WorkloadAnswers(unittest.TestCase):
    def test_every_tiny_workload_answers_correctly(self):
        for cls in TINY:
            with self.subTest(workload=cls.name):
                for seed in (3, 4):
                    wl = cls(seed)
                    _, failed = _quiet(worker._pass, wl, wl.setup(), worker.first_block(wl))
                    self.assertEqual(failed, 0)

    def test_a_wrong_expected_answer_is_a_failure(self):
        for cls in TINY:
            with self.subTest(workload=cls.name):
                wl = cls(3)
                ops = worker.first_block(wl)
                victim = next(op for op in ops if op.kind != "negate")
                if cls is TinyFixpoint:
                    # expected is the program index; its model is the answer
                    graph = wl.graphs[victim.expected]
                    graph.model = graph.model | {("path", ("n0", "n0"))}
                else:
                    victim.expected = _corrupt(victim.expected)
                _, failed = _quiet(worker._pass, wl, wl.setup(), ops)
                self.assertGreaterEqual(failed, 1)

    def test_the_seed_makes_the_inputs(self):
        for cls in TINY:
            with self.subTest(workload=cls.name):
                a = [(op.kind, op.goals, op.expected) for op in _take(cls(5), 30)]
                b = [(op.kind, op.goals, op.expected) for op in _take(cls(5), 30)]
                c = [(op.kind, op.goals, op.expected) for op in _take(cls(6), 30)]
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


def _take(wl, n):
    return list(itertools.islice(wl.ops(), n))


def _corrupt(expected):
    if isinstance(expected, list):
        return expected + ["extra"]
    if isinstance(expected, dict):
        return {k: "wrong" for k in expected} or {"X": "wrong"}
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, tuple):  # expert-session: (clause, questions)
        clause, asked = expected
        return (None if clause is not None else 0, asked)
    raise AssertionError(f"no way to corrupt {expected!r}")


_COUNTS_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    sys.path.insert(0, {here!r})
    import test_perfbench as t
    out = {{}}
    for cls in t.TINY:
        with contextlib.redirect_stdout(io.StringIO()):
            m = t.worker.traced(cls(11), 0, t.skolog, None)
        out[cls.name] = {{k: m[k] for k in t.DETERMINISTIC}}
    print(json.dumps(out))
    """
)


class TracedCounts(unittest.TestCase):
    def test_counts_repeat_across_processes(self):
        # separate processes with different hash seeds, so set and dict
        # order cannot make the counts agree by accident
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", _COUNTS_SCRIPT.format(here=HERE)],
                capture_output=True, text=True, env=env, check=True,
            )
            runs.append(json.loads(out.stdout))
        self.assertEqual(runs[0], runs[1])
        self.assertGreater(runs[0]["list-recursion"]["engine.reductions"], 0)
        self.assertGreater(runs[0]["fact-store"]["database.clauses_calls"], 0)
        self.assertGreater(runs[0]["expert-session"]["oracle.consults"], 0)
        self.assertGreater(runs[0]["fixpoint"]["semantics.ground_instances"], 0)

    def test_wrappers_come_off(self):
        before = skolog.engine.unify, skolog.database.Database.clauses
        _quiet(worker.traced, TinyLists(1), 0, skolog, None)
        self.assertEqual((skolog.engine.unify, skolog.database.Database.clauses), before)


class Runner(unittest.TestCase):
    def test_a_crashed_worker_fails_the_rest_of_its_pass(self):
        script = (
            "import json, os, signal\n"
            "print(json.dumps({'planned': 5}), flush=True)\n"
            "print(json.dumps({'ok': True}), flush=True)\n"
            "print(json.dumps({'ok': True}), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGSEGV)\n"
        )
        records, code, _ = run.run_worker("", 0, 1, 1, cmd=[sys.executable, "-c", script])
        self.assertEqual(code, -11)
        self.assertEqual(run.count_ops(records, False, 1, 100), (5, 3))

    def test_a_crashed_timed_loop_fails_the_ops_it_would_have_run(self):
        records = [{"planned": None}] + [{"ok": True, "ns": 10_000_000}] * 10
        attempted, failed = run.count_ops(records, False, 1.0, 100)
        # 0.1 s spent of 1 s at 100 ops/s: about 90 more, and the one in flight
        self.assertEqual((attempted, failed), (10 + 91, 91))

    def test_end_to_end_scales_times_by_the_calibration_speed(self):
        ops = [{"ns": 2_000_000, "ok": True, "solve_ns": 1_000_000, "red": 10,
                "cal_ns": run.CALIBRATION_NS * 2}] * 20
        records = [{"setup_ns": [4_000_000]}] + ops
        m = run.end_to_end(records, 20.0)
        # the host ran at half speed: every time is halved
        self.assertAlmostEqual(m["op_ms_p50"], 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.002)
        self.assertAlmostEqual(m["lips"], 20_000)
        self.assertAlmostEqual(m["ops_per_s"], 1000)

    def test_missing_program_is_an_error(self):
        spec_only = os.path.join(os.path.dirname(HERE), "no-such-checkout")
        self.assertFalse(os.path.exists(spec_only))
        old = run.ROOT
        run.ROOT = spec_only
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertNotEqual(run.main(["--workload", "fixpoint", "--seed", "1", "--seconds", "1", "--trace", "0"]), 0)
        finally:
            run.ROOT = old


if __name__ == "__main__":
    unittest.main()
