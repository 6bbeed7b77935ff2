"""The three seeded workloads: inputs, one pass of operations, output checks.

A workload builds its inputs from the workload seed in ``__init__`` and
lists the operations of one pass in ``ops``. Each operation is a pair of
callables: ``run`` is the timed call into coopt; ``check`` runs afterwards,
outside the timed region, and returns ``(fingerprint, cost, failure)`` where
``failure`` is ``None`` or the reason the operation failed.

The checks call ``coopt.tensorcost.coot_objective`` and read CSVs with numpy,
never through the names the tracer wraps, so checking adds no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import coopt.apps
import coopt.cli
import coopt.coot
from coopt.core import ABSOLUTE, SQUARED_EUCLIDEAN
from coopt.fileio import write_labels_csv, write_matrix_csv
from coopt.gw import sqeuclid_matrix
from coopt.tensorcost import coot_objective

EXACT_TOL = 1e-9  # marginal tolerance stated for the LP and Hungarian paths
SINKHORN_TOL = coopt.coot.CootProblem.sinkhorn_tol  # default; no workload changes it
COST_RTOL = 1e-12


@dataclass
class Op:
    key: str  # identifies the same operation across passes
    kind: str  # command name on cli-small, workload name elsewhere
    run: Callable[[], object]
    check: Callable[[object], Tuple[Dict[str, str], float, Optional[str]]]
    # False where the optimum is known to be zero (hda on a permuted copy), so
    # the cost is rounding noise and would swamp a geometric mean
    objective: bool = True


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def _plan_failure(plan, w, wp, tol) -> Optional[str]:
    if np.any(plan < 0):
        return "coupling has a negative entry"
    err = float(np.abs(plan.sum(axis=1) - w).sum() + np.abs(plan.sum(axis=0) - wp).sum())
    if not err <= tol:
        return f"coupling off its marginals by {err:.3g} > {tol:g}"
    return None


def _load(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _cost_failure(reported: float, recomputed: float) -> Optional[str]:
    if not abs(reported - recomputed) <= COST_RTOL * max(abs(recomputed), 1e-300):
        return f"reported cost {reported!r} != recomputed {recomputed!r}"
    return None


def _first(*failures) -> Optional[str]:
    return next((f for f in failures if f is not None), None)


class ExactLp:
    """``solve_coot`` on uniform-weight non-square pairs, exact inner solves."""

    name = "exact-lp"
    pairs = 4  # distinct pairs per pass; averages out restart-count luck
    restarts = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.jobs = min(2, os.cpu_count() or 1)
        self.data = []
        for i in range(self.pairs):
            rng = np.random.default_rng([seed, i])
            self.data.append((rng.random((200, 50)), rng.random((150, 40))))

    def warmup(self) -> None:
        # every code path at the measured shapes, one outer iteration each
        X, Y = self.data[0]
        coopt.coot.solve_coot(coopt.coot.CootProblem(X, Y, max_iter=1),
                              restarts=self.jobs, seed=self.seed, jobs=self.jobs)

    def ops(self) -> List[Op]:
        return [Op(f"pair{i}", self.name, self._runner(X, Y), self._checker(X, Y))
                for i, (X, Y) in enumerate(self.data)]

    def _runner(self, X, Y):
        return lambda: coopt.coot.solve_coot(coopt.coot.CootProblem(X, Y),
                                             restarts=self.restarts, seed=self.seed,
                                             jobs=self.jobs)

    def _checker(self, X, Y):
        def check(sol):
            ps = sol.sample_coupling.plan
            pv = sol.feature_coupling.plan
            fp = {"cost": repr(sol.cost), "pi_s": _sha(ps), "pi_v": _sha(pv)}
            failure = _first(
                _plan_failure(ps, _uniform(200), _uniform(150), EXACT_TOL),
                _plan_failure(pv, _uniform(50), _uniform(40), EXACT_TOL),
                _cost_failure(sol.cost, coot_objective(X, Y, ps, pv, SQUARED_EUCLIDEAN)),
            )
            return fp, sol.cost, failure
        return check


class CoclusterD1:
    """``apps.cocluster`` at library defaults on D1 block instances.

    A fresh D1 draw per seed makes one operation take either ~1.8 s or
    ~5.2 s (20 or 40 of its 46 Sinkhorn calls capped), so the pass time
    would swing with the seed far beyond any usable bound. The pass instead
    runs the first three D1 draws (generator seeds 0-2, one of them in the
    slow regime), and the workload seed permutes the rows and columns of
    each. The solver is permutation-equivariant, so the work stays the same
    while every input matrix changes with the seed.
    """

    name = "cocluster-d1"
    instances = (0, 1, 2)

    def __init__(self, seed: int, workdir: Path):
        self.data = []
        for inst in self.instances:
            X, rows, cols = coopt.apps.generate_blocks(coopt.apps.BLOCK_PRESETS["D1"], inst)
            rng = np.random.default_rng([seed, inst])
            rp = rng.permutation(X.shape[0])
            cp = rng.permutation(X.shape[1])
            self.data.append((inst, X[rp][:, cp], rows[rp], cols[cp]))
        self.cce: Dict[str, float] = {}

    def warmup(self) -> None:
        inst, X, _, _ = self.data[0]
        coopt.apps.cocluster(X, 3, 3, seed=inst, outer_iter=1, inner_iter=1)

    def ops(self) -> List[Op]:
        return [Op(f"d1-{inst}", self.name, self._runner(inst, X),
                   self._checker(f"d1-{inst}", X, rows, cols))
                for inst, X, rows, cols in self.data]

    @staticmethod
    def _runner(inst, X):
        return lambda: coopt.apps.cocluster(X, 3, 3, seed=inst)

    def _checker(self, key, X, rows, cols):
        def check(cc):
            ps = cc.solution.sample_coupling.plan
            pv = cc.solution.feature_coupling.plan
            fp = {"cost": repr(cc.solution.cost), "pi_s": _sha(ps), "pi_v": _sha(pv),
                  "summary": _sha(cc.summary),
                  "labels": _sha(np.concatenate([cc.row_labels, cc.col_labels]))}
            self.cce[key] = coopt.apps.cce(cc.row_labels, rows, cc.col_labels, cols)
            failure = _first(
                _plan_failure(ps, _uniform(X.shape[0]), _uniform(3), SINKHORN_TOL),
                _plan_failure(pv, _uniform(X.shape[1]), _uniform(3), SINKHORN_TOL),
                _cost_failure(cc.solution.cost,
                              coot_objective(X, cc.summary, ps, pv, SQUARED_EUCLIDEAN)),
            )
            return fp, cc.solution.cost, failure
        return check


class CliSmall:
    """Five ``coopt.cli.main`` runs per input set, in process, on CSVs."""

    name = "cli-small"
    sets = 8  # input sets per pass; averages out per-instance iteration counts
    commands = ("coot", "coot-entropic", "election", "gw", "hda")
    artifacts = {"gw": ("pi",), "hda": ("pi_s", "pi_v", "labels", "scores")}
    # inputs, loss and cost scale to recompute each reported cost; gw ties
    # one coupling to both slots over the point clouds' distance matrices
    checked = {
        "coot": ("x", "y", SQUARED_EUCLIDEAN, 1),
        "coot-entropic": ("x", "y", SQUARED_EUCLIDEAN, 1),
        "election": ("e1", "e2", ABSOLUTE, 20 * 8),
        "gw": ("p1", "p2", SQUARED_EUCLIDEAN, 1),
        "hda": ("xs", "xt", SQUARED_EUCLIDEAN, 1),
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dirs = []
        for i in range(self.sets):
            d = workdir / f"set{i}"
            d.mkdir(parents=True)
            rng = np.random.default_rng([seed, i])
            write_matrix_csv(d / "x.csv", rng.random((20, 12)))
            write_matrix_csv(d / "y.csv", rng.random((15, 7)))
            for name in ("e1", "e2"):
                write_matrix_csv(d / f"{name}.csv",
                                 np.array([rng.permutation(8) + 1 for _ in range(20)], float))
            write_matrix_csv(d / "p1.csv", rng.random((40, 2)))
            write_matrix_csv(d / "p2.csv", rng.random((30, 2)))
            ys = np.repeat(np.arange(4), 10)
            xs = rng.normal(0.0, 3.0, (4, 10))[ys] + rng.normal(size=(40, 10))
            rp = rng.permutation(40)
            write_matrix_csv(d / "xs.csv", xs)
            write_matrix_csv(d / "xt.csv", xs[rp][:, rng.permutation(10)])
            write_labels_csv(d / "ys.csv", ys)
            known = np.full(40, -1)
            picked = rng.choice(40, 5, replace=False)
            known[picked] = ys[rp][picked]
            write_labels_csv(d / "yt.csv", known)
            self.dirs.append(d)

    def _argv(self, d: Path, command: str) -> List[str]:
        out = ["--seed", str(self.seed), "--out", str(d / "out" / command)]
        if command in ("coot", "coot-entropic"):
            eps = ["--eps1", "0.05", "--eps2", "0.05"] if command == "coot-entropic" else []
            argv = ["coot", "--x", d / "x.csv", "--y", d / "y.csv", *eps, "--restarts", "10"]
        elif command == "election":
            argv = ["election", "--x", d / "e1.csv", "--y", d / "e2.csv", "--restarts", "20"]
        elif command == "gw":
            argv = ["gw", "--x", d / "p1.csv", "--y", d / "p2.csv", "--points",
                    "--restarts", "5"]
        else:
            argv = ["hda", "--xs", d / "xs.csv", "--xt", d / "xt.csv", "--ys", d / "ys.csv",
                    "--yt-partial", d / "yt.csv", "--restarts", "20"]
        return [str(a) for a in argv] + out

    def warmup(self) -> None:
        for command in self.commands:
            self._runner(self._argv(self.dirs[0], command))()

    def ops(self) -> List[Op]:
        return [Op(f"set{i}-{command}", command, self._runner(self._argv(d, command)),
                   self._checker(d, command), objective=command != "hda")
                for i, d in enumerate(self.dirs) for command in self.commands]

    @staticmethod
    def _runner(argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return coopt.cli.main(argv)
        return run

    def _checker(self, d: Path, command: str):
        out = d / "out" / command
        stems = self.artifacts.get(command, ("pi_s", "pi_v"))
        paths = [out / f"{stem}.csv" for stem in stems] + [out / "report.json"]
        x_name, y_name, loss, scale = self.checked[command]
        ps_path, pv_path = (paths[0], paths[0]) if command == "gw" else paths[:2]
        tol = SINKHORN_TOL if command == "coot-entropic" else EXACT_TOL

        def check(code):
            if code in (1, 2, 3):
                return {}, math.nan, f"exit code {code}"
            missing = [p.name for p in paths if not p.is_file()]
            if missing:
                return {}, math.nan, f"missing artifacts {missing}"
            cost = json.loads(paths[-1].read_text())["cost"]
            fp = {"cost": repr(cost)}
            fp.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in paths[:-1])
            X, Y, ps, pv = (_load(p) for p in (d / f"{x_name}.csv", d / f"{y_name}.csv",
                                               ps_path, pv_path))
            if command == "gw":
                X, Y = sqeuclid_matrix(X).matrix, sqeuclid_matrix(Y).matrix
            failure = _first(
                _plan_failure(ps, _uniform(X.shape[0]), _uniform(Y.shape[0]), tol),
                _plan_failure(pv, _uniform(X.shape[1]), _uniform(Y.shape[1]), tol),
                _cost_failure(cost, scale * coot_objective(X, Y, ps, pv, loss)),
            )
            if failure is None and command == "election" and not abs(cost - round(cost)) <= 1e-9:
                failure = f"election distance {cost!r} is not an integer"
            return fp, cost, failure
        return check


WORKLOADS = {w.name: w for w in (ExactLp, CoclusterD1, CliSmall)}
