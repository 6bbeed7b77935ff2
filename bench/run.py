"""Seeded benchmark for coopt.

    python3 bench/run.py --workload exact-lp --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --check

Run from the root of a checkout: the package is imported from ``src/``.
Each run starts fresh worker processes with BLAS threads pinned to one
(``worker.py``); the pins are set only in their environment. Without
tracing, set-up is timed in three fresh processes (the last one goes on to
measure) and the median is reported. With ``--trace 1`` one process
alternates untraced passes with passes under the span wrappers of
``spans.py``.

The last line of standard output is the result object; the lines before it
give the environment, the per-workload detail (``fail_share``, ``cce_mean``,
``cmd_s.*``) and every failure with its cause. ``--check`` runs a short pass of
every workload on the default seed, traced and untraced, and on a second
seed, and exits non-zero unless all of them pass their checks, the traced
fingerprints equal the untraced ones, and the second seed changes them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-lp", "cocluster-d1", "cli-small")
DEFAULT_SEED = 0
SETUPS = 3
RUN_LIMIT_S = 175.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio",
             "objective_gmean": "cost"}


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("ns_per_cell_sweep"):
        return "ns"
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("max_residual"):
        return "L1"
    if metric.startswith("share.") or metric.endswith(("_ratio", ".util", ".coverage")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(args, deadline: float, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    """Everything one invocation prints, as a dict; raises if a worker fails."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        setups = [spawn(args, deadline, "--setup-only") for _ in range(SETUPS - 1)]
    res = spawn(args, deadline)
    metrics = dict(res["metrics"])
    if not args.trace:
        setups.append(res)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        res["detail"]["raw_setup_s"] = [s["raw_setup_s"] for s in setups]
    failed = len(res["failures"])
    res["result"] = {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k) or unit(k)}
                    for k, v in sorted(metrics.items())},
    }
    return res


def save_fingerprints(args, res) -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"fingerprints-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res["fingerprints"], indent=1, sort_keys=True) + "\n")
    return path


def self_check(seconds: float) -> int:
    """Short passes of every workload on two seeds, traced and untraced."""
    ok = True
    for workload in WORKLOADS:
        runs = {}
        for seed, trace in ((DEFAULT_SEED, 0), (DEFAULT_SEED, 1), (DEFAULT_SEED + 1, 0)):
            args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds,
                                      trace=trace)
            runs[seed, trace] = res = run_workload(args)
            print(f"{workload} seed {seed} trace {trace}: "
                  f"{json.dumps(res['result'], sort_keys=True)}", flush=True)
            for f in res["failures"]:
                print(f"  FAILED {f['op']}: {f['reason']}")
        base = runs[DEFAULT_SEED, 0]["fingerprints"]
        checks = {
            "all operations pass": all(r["result"]["correct"] for r in runs.values()),
            "traced fingerprints equal untraced":
                runs[DEFAULT_SEED, 1]["fingerprints"] == base,
            "second seed changes every fingerprint": all(
                fp != base[key] for key, fp in runs[DEFAULT_SEED + 1, 0]["fingerprints"].items()),
        }
        for name, passed in checks.items():
            print(f"  {'ok  ' if passed else 'FAIL'} {workload}: {name}")
            ok &= passed
    print("check passed" if ok else "check FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="self-check every workload on two seeds, then exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "coopt" / "__init__.py").is_file():
        print(f"no coopt package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.check:
        return self_check(1.0)
    if args.workload is None:
        ap.error("--workload is required unless --check is given")
    try:
        res = run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    fp_path = save_fingerprints(args, res)
    print(json.dumps({"env": res["env"]}, sort_keys=True))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": res["detail"], "fingerprints": str(fp_path.relative_to(ROOT))},
                     sort_keys=True))
    for f in res["failures"]:
        print(json.dumps({"failed": f}, sort_keys=True))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
