"""One workload in a fresh process: set up, warm up, measure, check.

Started by ``run.py`` with BLAS threads pinned to one; prints one JSON
object as its last line of standard output. ``--setup-only`` stops once the
workload is ready, so the parent can time set-up several times.

A pass runs every operation of the workload once, as a closed loop: one
client, each operation starting when the previous one has returned. Only the
operations are timed; their outputs are checked between them. Passes repeat
until another one would end after ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE = np.random.default_rng(0).random((300, 300))
SCRATCH = np.empty_like(REFERENCE)  # the loop allocates nothing, so the heap
# state a workload leaves behind cannot change its speed
REFERENCE_S = 0.0148  # median of reference_loop() on the 2-vCPU tuning machine
REFERENCE_SAMPLES = 24  # per pass at least, spread over the gaps between operations


def reference_loop() -> float:
    """Time a fixed numpy and pure-Python loop that runs no coopt code."""
    start = time.perf_counter()
    for _ in range(20):
        np.exp(REFERENCE, out=SCRATCH).sum()
        sum(range(20000))
    return time.perf_counter() - start


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pins": {k: os.environ.get(k) for k in PINS},
    }


def run_pass(ops, seen: dict, failures: list, traced: bool) -> dict:
    """Run every operation once; fingerprints must match earlier repeats."""
    per_gap = -(-REFERENCE_SAMPLES // (len(ops) + 1))
    refs = [reference_loop() for _ in range(per_gap)]
    times, costs = [], {}
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run()
            raised = None
        except Exception:  # an operation that raises is a counted failure
            raised = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        times.append(time.perf_counter() - start)
        refs += [reference_loop() for _ in range(per_gap)]
        if raised is not None:
            failures.append({"op": op.key, "traced": traced, "reason": f"raised {raised}"})
            continue
        try:
            fp, cost, failure = op.check(out)
        except Exception:  # e.g. an unreadable artifact
            fp, cost = {}, math.nan
            failure = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if failure is None and seen.setdefault(op.key, fp) != fp:
            failure = f"fingerprint {fp} differs from an earlier repeat {seen[op.key]}"
        if failure is not None:
            failures.append({"op": op.key, "traced": traced, "reason": failure})
        costs[op.key] = cost
    return {"wall": sum(times), "times": times, "costs": costs,
            "speed": REFERENCE_S / statistics.median(refs)}


def measure(ops, seconds, seen, failures, tracer=None):
    """Passes until another would end after ``seconds``. With a tracer,
    untraced and traced passes alternate, so both see the same machine."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(ops, seen, failures, False))
        if tracer is not None:
            mark = len(tracer.spans)
            restore = spans.install(tracer)
            try:
                traced.append(run_pass(ops, seen, failures, True))
            finally:
                restore()
            traced[-1]["spans"] = tracer.spans[mark:]
        typical = sum(statistics.median(p["wall"] for p in ps) for ps in (plain, traced) if ps)
        if time.perf_counter() + typical > deadline:
            return plain, traced


def op_medians(passes, calibrated=True) -> list:
    """Each operation's median time over the passes: one burst of machine
    noise then moves one operation of one pass, not the whole pass.

    Calibrated times are scaled by the pass's ``speed``, the nominal over the
    measured time of the reference loop run between its operations, so they
    read as seconds at the nominal machine speed."""
    return [statistics.median(ts) for ts in zip(*(
        [t * (p["speed"] if calibrated else 1.0) for t in p["times"]] for p in passes))]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import coopt

    if Path(coopt.__file__).resolve().parent != ROOT / "src" / "coopt":
        print(f"coopt imported from {coopt.__file__}, not from this checkout", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        setup = {"raw_setup_s": time.monotonic() - args.t0}
        setup["setup_s"] = setup["raw_setup_s"] * REFERENCE_S / statistics.median(
            reference_loop() for _ in range(REFERENCE_SAMPLES))
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup)
    print(json.dumps(result))
    return 0


def run(wl, args) -> dict:
    ops = wl.ops()
    seen, failures = {}, []
    result = {"env": environment()}
    if not args.trace:
        passes, _ = measure(ops, args.seconds, seen, failures)
        typical = op_medians(passes)
        costs = [passes[0]["costs"].get(op.key, math.nan) for op in ops if op.objective]
        positive = [c for c in costs if c > 0 and math.isfinite(c)]
        attempted = len(ops) * len(passes)
        result["metrics"] = {
            "wall_s": sum(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - len(failures) / attempted,
            "objective_gmean": math.exp(statistics.fmean(math.log(c) for c in positive))
            if positive else 0.0,
        }
        detail = {"passes": len(passes), "pass_s": [p["wall"] for p in passes],
                  "speed": [p["speed"] for p in passes],
                  "raw_wall_s": sum(op_medians(passes, calibrated=False)),
                  "fail_share": len(failures) / attempted}
        kinds = sorted({op.kind for op in ops})
        if len(kinds) > 1:
            for kind in kinds:
                detail[f"cmd_s.{kind}"] = statistics.fmean(
                    t for t, op in zip(typical, ops) if op.kind == kind)
        if hasattr(wl, "cce"):
            detail["cce_mean"] = statistics.fmean(wl.cce.values())
    else:
        tracer = spans.Tracer()
        plain, traced = measure(ops, args.seconds, seen, failures, tracer)
        per_pass = [spans.layer_metrics(p["spans"], p["wall"]) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        for k in spans.COUNT_METRICS:
            if any(m[k] != per_pass[0][k] for m in per_pass):
                failures.append({"op": "pass", "traced": True,
                                 "reason": f"count {k} differs between passes: "
                                           f"{[m[k] for m in per_pass]}"})
            metrics[k] = per_pass[0][k]
        metrics["trace.overhead_s"] = (sum(op_medians(traced, calibrated=False))
                                       - sum(op_medians(plain, calibrated=False)))
        result["metrics"] = metrics
        attempted = len(ops) * (len(plain) + len(traced))
        detail = {"passes": len(plain) + len(traced)}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result.update(attempted=attempted, failures=failures, detail=detail, fingerprints=seen)
    return result


if __name__ == "__main__":
    sys.exit(main())
