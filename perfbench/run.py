#!/usr/bin/env python3
"""skolog benchmark: seeded workloads, end-to-end and per-layer metrics.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload fact-store --seed 7 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones.

Every workload, with each metric printed by name and unit, and an exit
status that is not 0 when any answer was wrong:

    python3 perfbench/run.py --all [--seed 1] [--seconds 10] [--trace 0]

Each run happens in a worker process (``worker.py``).  A worker that
crashes costs the operation in flight and every operation it would still
have run; those count as failed, and the benchmark still reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading

from worker import MIN_OPS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# A worker is killed after this long, so the run ends within 180 s.
WORKER_LIMIT_S = 170.0
# Reported times are those of a host that runs worker.calibration_kernel
# in exactly this many nanoseconds.
CALIBRATION_NS = 1_000_000
# The host's speed at an op is read from the kernel timings of this many
# ops before and after it.
CALIBRATION_WINDOW = 5


def run_worker(workload: str, seed: int, seconds: float, trace: int, cmd=None):
    """(records, exit code, peak RSS in MB) of one worker process."""
    if cmd is None:
        cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(WORKER_LIMIT_S, proc.kill)
    timer.start()
    records = []
    try:
        for line in proc.stdout:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                pass  # a line cut short by a crash
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return records, proc.returncode, usage.ru_maxrss / 1024


def count_ops(records, finished: bool, seconds: float, min_ops: int) -> tuple[int, int]:
    """(attempted, failed).  If the worker did not finish, the op in flight
    and the ops it would still have run are failed: the rest of the
    current planned pass, or, for a timed loop, as many as fit in the time
    left at the rate seen so far."""
    ops = [r for r in records if "ok" in r]
    attempted, failed = len(ops), sum(not r["ok"] for r in ops)
    if finished:
        return attempted, failed
    planned = None
    since = 0
    for r in records:
        if "planned" in r:
            planned, since = r["planned"], 0
        elif "ok" in r:
            since += 1
    if planned is not None:
        lost = max(1, planned - since)
    else:
        spent = sum(r.get("ns", 0) for r in ops) / 1e9
        by_time = math.ceil((seconds - spent) * since / spent) if spent > 0 and since else 0
        lost = 1 + max(by_time, min_ops - since, 0)
    return attempted + lost, failed + lost


def end_to_end(records, rss_mb: float) -> dict:
    """Metrics of a timed run.  Each op's times are scaled by the speed of
    the calibration kernel over the CALIBRATION_WINDOW ops on either side
    of it, and set-up times by that of the op that follows them, so runs
    made while the host is busy or idle can be compared."""
    ops = [r for r in records if "ns" in r]
    if len(ops) < 2:
        return {"setup_s": 0.0, "op_ms_p50": 0.0, "op_ms_p90": 0.0, "ops_per_s": 0.0,
                "lips": 0.0, "peak_rss_mb": rss_mb}
    cal = [r["cal_ns"] for r in ops]
    scale = []
    for i in range(len(ops)):
        window = cal[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
        scale.append(CALIBRATION_NS * len(window) / sum(window))
    setups, pending, i = [], [], 0
    for r in records:
        if "setup_ns" in r:
            pending.extend(r["setup_ns"])
        elif "ns" in r:
            setups.extend(ns * scale[i] for ns in pending)
            pending = []
            i += 1
    lat_ms = [r["ns"] * f / 1e6 for r, f in zip(ops, scale)]
    deciles = statistics.quantiles(lat_ms, n=10)
    solve_s = sum(r["solve_ns"] * f for r, f in zip(ops, scale)) / 1e9
    return {
        "setup_s": statistics.median(setups) / 1e9,
        "op_ms_p50": deciles[4],
        "op_ms_p90": deciles[8],
        "ops_per_s": len(ops) / (sum(lat_ms) / 1e3),
        "lips": sum(r["red"] for r in ops) / solve_s if solve_s else 0.0,
        "peak_rss_mb": rss_mb,
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    records, code, rss_mb = run_worker(workload, seed, seconds, trace)
    finished = code == 0 and any("end" in r or "per_layer" in r for r in records)
    attempted, failed = count_ops(records, finished, seconds, MIN_OPS)
    for r in records:
        if r.get("err"):
            print(f"{workload}: {r['err']}", file=sys.stderr)
    if not finished:
        print(f"{workload}: worker exited with code {code}", file=sys.stderr)
    if trace:
        values = next((r["per_layer"] for r in records if "per_layer" in r), {})
        wanted = spec["per_layer"]
    else:
        values = end_to_end(records, rss_mb)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    return {
        "correct": finished and failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "skolog", "__init__.py")):
        print(f"skolog sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload NAME and --all")
    if args.workload and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    if not args.all:
        result = run_one(spec, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    all_correct = True
    for name in names:
        result = run_one(spec, name, args.seed, args.seconds, args.trace)
        all_correct &= result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<30} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<16} {'fail_ratio':<30} {result['failed'] / result['attempted']:>14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} ops)")
        sys.stdout.flush()
    print("all answers correct" if all_correct else "WRONG ANSWERS: see fail_ratio above")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
