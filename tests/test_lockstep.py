"""Restarts in lockstep.

With ``jobs=1`` the alternating driver advances every restart as one stack.
Each restart must come out bitwise as it does solved alone: plans, objective
trace, iteration count, ``converged`` and the selected restart. The CLI must
write the same bytes for any ``--jobs``. Solved alone is the same driver on a
stack of one, so these tests check that results do not depend on the stack
size; tolerance checks against stabilized Sinkhorn cover the entropic body.
"""

import json
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from coopt import (
    ABSOLUTE,
    KULLBACK_LEIBLER,
    LOSSES,
    SQUARED_EUCLIDEAN,
    CootProblem,
    PreparedContraction,
    Side,
    entropic_ot,
    one_hot_labels,
    sqeuclid_matrix,
)
from coopt import coot, ot, tensorcost
from coopt.apps import class_mismatch_mask
from coopt.cli import main
from coopt.fileio import write_labels_csv, write_matrix_csv
from coopt.ot import entropic_ot_stack, sinkhorn


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _weights(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


def _signature(sol):
    return (_bits(sol.sample_coupling.plan), _bits(sol.feature_coupling.plan),
            _bits(sol.objective_trace), sol.iterations, sol.converged, sol.restart_index)


def _mask(n, n2, classes, known):
    """HDA class-mismatch mask: source i has class i % classes, and so has
    target j for j < known; the other targets are unlabelled."""
    target = np.where(np.arange(n2) < known, np.arange(n2) % classes, -1)
    return class_mismatch_mask(one_hot_labels(np.arange(n) % classes, classes),
                               one_hot_labels(target, classes))


def _case(name):
    """(problem, restarts, tied) for one lockstep case."""
    rng = np.random.default_rng([64, CASES.index(name)])
    if name == "sq-exact-weighted":
        X, X2 = rng.random((9, 5)), rng.random((7, 4))
        return CootProblem(X, X2, w=_weights(rng, 9), vp=_weights(rng, 4)), 7, False
    if name == "abs-entropic-short-samples":
        # 5 < 8 samples: the sample side is solved on its transpose
        X, X2 = rng.random((5, 4)), rng.random((8, 3))
        return CootProblem(X, X2, loss=ABSOLUTE, eps_samples=0.05, eps_features=0.05), 2, False
    if name == "kl-mixed-short-features":
        # exact samples, entropic features with 3 < 5 features
        X, X2 = rng.random((7, 3)) + 0.1, rng.random((6, 5)) + 0.1
        return CootProblem(X, X2, loss=KULLBACK_LEIBLER, eps_features=0.05), 7, False
    if name == "sq-mixed-entropic-samples":
        X, X2 = rng.random((8, 6)), rng.random((6, 4))
        return CootProblem(X, X2, eps_samples=0.1, v=_weights(rng, 6)), 2, False
    if name == "sq-entropic-one-restart":
        X, X2 = rng.random((10, 4)), rng.random((6, 5))
        return CootProblem(X, X2, eps_samples=0.05, eps_features=0.05), 1, False
    if name == "sq-size-one-side":
        # one feature on X: the feature coupling is 1 x 3, in closed form
        X, X2 = rng.random((6, 1)), rng.random((5, 3))
        return CootProblem(X, X2, eps_samples=0.05, eps_features=0.05), 7, False
    if name == "sq-constant-costs":
        X, X2 = np.ones((4, 3)), np.full((5, 2), 2.0)
        return CootProblem(X, X2, eps_samples=0.05, eps_features=0.05), 7, False
    if name == "gw-exact-equal-sizes":
        C, C2 = (sqeuclid_matrix(rng.random((7, 2))).matrix for _ in range(2))
        return CootProblem(C, C2, max_iter=100, tol=1e-9), 7, True
    if name == "gw-entropic":
        C, C2 = (sqeuclid_matrix(rng.random((n, 2))).matrix for n in (8, 6))
        return CootProblem(C, C2, eps_samples=0.05, max_iter=100, tol=1e-9), 2, True
    if name == "hda-masked-exact":
        Xs, Xt = rng.random((8, 3)), rng.random((8, 3))
        mask = _mask(8, 8, 2, 3)
        return CootProblem(Xs, Xt, sample_cost_mask=mask), 7, False
    if name == "hda-masked-entropic":
        Xs, Xt = rng.random((6, 4)), rng.random((9, 3))
        mask = _mask(6, 9, 3, 4)
        return CootProblem(Xs, Xt, sample_cost_mask=mask, mask_penalty=5.0,
                           eps_samples=0.05, eps_features=0.05), 2, False
    if name == "hda-masked-auto-penalty":
        # at this eps the auto penalty (1e3 max cost, per restart) shapes the plan
        Xs, Xt = rng.random((7, 3)), rng.random((6, 4))
        mask = _mask(7, 6, 2, 3)
        return CootProblem(Xs, Xt, sample_cost_mask=mask, eps_samples=50.0,
                           eps_features=0.05), 7, False
    if name == "sq-exact-shortlist":
        # a 70x50 sample LP, 3,500 cells: each restart lists its shortlist
        # LPs after the first from its own previous potentials
        X, X2 = rng.random((70, 12)), rng.random((50, 10))
        return CootProblem(X, X2), 3, False
    raise ValueError(name)


CASES = ["sq-exact-weighted", "abs-entropic-short-samples", "kl-mixed-short-features",
         "sq-mixed-entropic-samples", "sq-entropic-one-restart", "sq-size-one-side",
         "sq-constant-costs", "gw-exact-equal-sizes", "gw-entropic", "hda-masked-exact",
         "hda-masked-entropic", "hda-masked-auto-penalty", "sq-exact-shortlist"]


@pytest.mark.parametrize("name", CASES)
def test_lockstep_restarts_equal_each_restart_solved_alone(name):
    """Every restart of the stack, bitwise as solved alone, and the same winner
    at 1 to 3 jobs. ``_solve_single`` is the one-restart call of the same
    driver, so this shows that a restart does not depend on the stack it
    runs in. Every solution owns its plans, so none keeps a stack alive."""
    problem, restarts, tied = _case(name)
    starts = coot._starts(problem, restarts, 5, tied)
    stack = coot._solve_stack(problem, starts, tied)
    alone = [coot._solve_single(problem, init, r, tied) for r, init in enumerate(starts)]
    assert [_signature(s) for s in stack] == [_signature(s) for s in alone]
    plans = [p for s in stack for p in (s.sample_coupling.plan, s.feature_coupling.plan)]
    assert all(p.base is None or p.base.size == p.size for p in plans)
    winner = min(alone, key=lambda s: (s.cost, s.restart_index))
    for jobs in (1, 2, 3):
        best = coot._best_restart(problem, restarts, 5, jobs=jobs, tied=tied)
        assert _signature(best) == _signature(winner)


def _singles(count):
    return [(r, 1, False) for r in range(count)]


# (eps_samples, eps_features, restarts, {jobs: shares}); a share is recorded
# as (first restart index, restarts in it, solved on the main thread)
SHARES = {
    "entropic": (0.05, 0.05, 5, {1: [(0, 5, True)], 2: [(0, 2, False), (2, 3, False)],
                                 3: [(0, 1, False), (1, 2, False), (3, 2, False)]}),
    "exact": (0.0, 0.0, 5, {1: [(0, 5, True)], 2: _singles(5)}),
    "mixed": (0.05, 0.0, 5, {1: [(0, 5, True)], 2: _singles(5)}),
    "one-restart": (0.05, 0.0, 1, {1: [(0, 1, True)], 3: [(0, 1, True)]}),
}


@pytest.mark.parametrize("name", SHARES)
def test_best_restart_solves_each_share_as_one_stack(name, monkeypatch):
    """``_best_restart`` cuts the restarts into contiguous shares, each one
    ``_solve_stack`` call: one share on the calling thread at ``jobs=1`` or
    with one restart; at ``jobs > 1``, ``min(jobs, R)`` near-equal shares
    when every side is entropic, and one restart per share otherwise. The
    winner is the same at every ``jobs``."""
    eps_samples, eps_features, restarts, shares = SHARES[name]
    rng = np.random.default_rng(67)
    problem = CootProblem(rng.random((6, 4)), rng.random((5, 3)),
                          eps_samples=eps_samples, eps_features=eps_features)
    calls = []
    solve = coot._solve_stack

    def record(problem, starts, tied=False, first_index=0):
        calls.append((first_index, len(starts),
                      threading.current_thread() is threading.main_thread()))
        return solve(problem, starts, tied, first_index)

    monkeypatch.setattr(coot, "_solve_stack", record)
    winners = set()
    for jobs, expected in shares.items():
        calls.clear()
        winners.add(_signature(coot._best_restart(problem, restarts, 3, jobs=jobs)))
        assert sorted(calls) == expected, jobs
    assert len(winners) == 1


def test_lockstep_with_warm_tries_stalling_for_some_restarts(monkeypatch):
    """On data scaled by 3 at eps 0.01, some restarts' warm tries need capped
    steps and fall back to the continuation while the others' succeed, within
    one stacked call; each restart is still bitwise its solve alone."""
    stalled = []
    stage = ot._newton_stage

    def recording(*args, **kwargs):
        out = stage(*args, **kwargs)
        if kwargs.get("near"):
            stalled.append(out[4].copy())
        return out

    monkeypatch.setattr(ot, "_newton_stage", recording)
    rng = np.random.default_rng([65, 0])
    problem = CootProblem(3 * rng.random((7, 5)), 3 * rng.random((6, 4)),
                          eps_samples=0.01, eps_features=0.01)
    starts = coot._starts(problem, 4, 0, False)
    stack = coot._solve_stack(problem, starts)
    assert any(0 < s.sum() < s.size for s in stalled)
    alone = [coot._solve_single(problem, init, r) for r, init in enumerate(starts)]
    assert [_signature(s) for s in stack] == [_signature(s) for s in alone]


def test_entropic_stack_with_one_warm_try_stalling():
    """One cost's warm potentials are far off, so its first step is capped and
    it falls back to the continuation, ending where a cold solve ends; the
    others stay warm. Every result is bitwise its cost solved alone."""
    rng = np.random.default_rng(61)
    w, wp = _weights(rng, 12), _weights(rng, 9)
    C = rng.random((4, 12, 9))
    eps = 0.05
    warm = [entropic_ot(w, wp, c * 1.01, eps).potentials for c in C]
    warm[2] = (rng.normal(0.0, 100 * eps, 12), rng.normal(0.0, 100 * eps, 9))
    results = entropic_ot_stack(w, wp, C, eps, init_potentials=warm)
    for c, init, res in zip(C, warm, results):
        alone = entropic_ot(w, wp, c, eps, init_potentials=init)
        assert _bits(res.coupling.plan) == _bits(alone.coupling.plan)
        assert [_bits(p) for p in res.potentials] == [_bits(p) for p in alone.potentials]
        assert (res.iterations, res.converged, res.cost) == (
            alone.iterations, alone.converged, alone.cost)
    cold = entropic_ot(w, wp, C[2], eps)
    assert _bits(results[2].coupling.plan) == _bits(cold.coupling.plan)
    assert results[2].iterations == cold.iterations
    assert all(results[r].iterations < cold.iterations for r in (0, 1, 3))


@pytest.mark.parametrize("n, m", [(5, 9), (3, 30), (12, 13)])
def test_flipped_entropic_stack_matches_sinkhorn(n, m):
    """A cost with fewer rows than columns is solved on its transpose. Every
    result of a stack, cold and warm, is the plan stabilized Sinkhorn
    reaches, within 1e-10, and its potentials ``(f, g)`` give that plan."""
    rng = np.random.default_rng([66, n, m])
    w, wp = _weights(rng, n), _weights(rng, m)
    C = rng.random((3, n, m))
    eps = 0.05
    cold = entropic_ot_stack(w, wp, C, eps, tol=1e-12)
    warm = entropic_ot_stack(w, wp, 1.01 * C, eps, tol=1e-12,
                             init_potentials=[res.potentials for res in cold])
    for c, res in zip(np.concatenate([C, 1.01 * C]), cold + warm):
        ref = sinkhorn(w, wp, c, eps=eps, max_iter=20000, tol=1e-12)
        assert ref.converged and res.converged
        np.testing.assert_allclose(res.coupling.plan, ref.coupling.plan, atol=1e-10, rtol=0)
        assert abs(res.cost - ref.cost) <= 1e-10
        f, g = res.potentials
        plan = np.outer(w, wp) * np.exp((f[:, None] + g[None, :] - c) / eps)
        np.testing.assert_allclose(plan, res.coupling.plan, atol=1e-12, rtol=0)


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
def test_contracting_a_stack_equals_contracting_each_plan(loss_name):
    rng = np.random.default_rng(62)
    X, X2 = rng.random((6, 4)) + 0.1, rng.random((5, 3)) + 0.1
    prepared = PreparedContraction(X, X2, LOSSES[loss_name])
    for side, shape in ((Side.SAMPLE, (4, 3)), (Side.FEATURE, (6, 5))):
        plans = rng.random((3,) + shape)
        stacked = prepared.contract(plans, side)
        for plan, cost in zip(plans, stacked):
            assert _bits(cost) == _bits(prepared.contract(plan, side))


@pytest.mark.parametrize("shape", [(1, 600, 3), (2, 300, 2), (3, 100, 7), (1, 64, 1),
                                   (4, 20, 15), (2, 9, 8), (1, 5, 3)])
def test_row_reductions_equal_numpy(shape):
    """The column loops of short rows give numpy's row sums and maxima bitwise."""
    rng = np.random.default_rng(list(shape))
    a = rng.random(shape) * 10.0 ** rng.integers(-8, 8, shape)
    assert _bits(ot._row_sum(a)) == _bits(a.sum(axis=-1))
    assert _bits(ot._row_max(a)) == _bits(a.max(axis=-1))


@pytest.fixture
def cli_inputs(tmp_path):
    rng = np.random.default_rng(63)
    paths = {}

    def matrix(name, data):
        paths[name] = tmp_path / f"{name}.csv"
        write_matrix_csv(paths[name], data)

    matrix("x", rng.random((9, 5)))
    matrix("y", rng.random((7, 4)))
    matrix("e1", np.array([rng.permutation(5) + 1 for _ in range(6)], float))
    matrix("e2", np.array([rng.permutation(5) + 1 for _ in range(6)], float))
    matrix("p1", rng.random((9, 2)))
    matrix("p2", rng.random((7, 2)))
    ys = np.arange(12) % 3
    matrix("xs", rng.normal(0.0, 3.0, (3, 4))[ys] + rng.normal(size=(12, 4)))
    matrix("xt", rng.random((10, 3)))
    paths["ys"], paths["yt"] = tmp_path / "ys.csv", tmp_path / "yt.csv"
    write_labels_csv(paths["ys"], ys)
    write_labels_csv(paths["yt"], np.where(np.arange(10) < 4, np.arange(10) % 3, -1))
    return paths


def _argv(command, p):
    if command == "coot":
        return ["coot", "--x", p["x"], "--y", p["y"]]
    if command == "coot-entropic":
        return ["coot", "--x", p["x"], "--y", p["y"], "--eps1", "0.05", "--eps2", "0.05"]
    if command == "election":
        return ["election", "--x", p["e1"], "--y", p["e2"]]
    return ["hda", "--xs", p["xs"], "--xt", p["xt"], "--ys", p["ys"], "--yt-partial", p["yt"]]


def _artifacts(out):
    files = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    return files, json.loads((out / "report.json").read_text())["cost"]


@pytest.mark.parametrize("command", ["coot", "coot-entropic", "election", "hda"])
def test_cli_artifacts_identical_across_jobs(tmp_path, cli_inputs, command):
    """``--jobs 1`` runs the restarts in lockstep, 2 and 3 on threads; the
    CSVs and the reported cost are the same bytes."""
    runs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"{command}-{jobs}"
        argv = _argv(command, cli_inputs) + ["--restarts", "5", "--seed", "4",
                                             "--jobs", jobs, "--out", out]
        assert main([str(a) for a in argv]) == 0
        runs.append(_artifacts(out))
    assert runs[0][0] and runs[1] == runs[0] and runs[2] == runs[0]


def test_gw_cli_artifacts_equal_threaded_restarts(tmp_path, cli_inputs):
    """``gw`` has no ``--jobs``: its restarts always run in lockstep. The plan
    and cost it writes are those of the same restarts on 2 and 3 threads."""
    out = tmp_path / "gw"
    argv = ["gw", "--x", cli_inputs["p1"], "--y", cli_inputs["p2"], "--points",
            "--restarts", "5", "--seed", "4", "--out", out]
    assert main([str(a) for a in argv]) == 0
    files, cost = _artifacts(out)
    C = sqeuclid_matrix(np.loadtxt(cli_inputs["p1"], delimiter=",", ndmin=2)).matrix
    C2 = sqeuclid_matrix(np.loadtxt(cli_inputs["p2"], delimiter=",", ndmin=2)).matrix
    problem = CootProblem(C, C2, loss=SQUARED_EUCLIDEAN, max_iter=100, tol=1e-9)
    for jobs in (2, 3):
        sol = coot._best_restart(problem, 5, 4, jobs=jobs, tied=True)
        write_matrix_csv(tmp_path / f"pi-{jobs}.csv", sol.sample_coupling.plan)
        assert (tmp_path / f"pi-{jobs}.csv").read_bytes() == files["pi.csv"]
        assert sol.cost == cost


def _peak(solve) -> int:
    """The tracemalloc peak of ``solve()``, in bytes."""
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_at_a_time(problem, restarts, seed):
    """The restarts of an untied solve, one ``_solve_stack`` call each, every
    start drawn alone (bitwise the start ``_starts`` draws)."""
    for r in range(restarts):
        init = None if r == 0 else (
            coot.random_coupling(problem.w, problem.wp, np.random.default_rng([seed, r])),
            np.outer(problem.v, problem.vp))
        coot._solve_stack(problem, [init], False, r)


def _memory_case(name):
    """(problem, restarts, jobs) for a memory guard."""
    rng = np.random.default_rng([72, int(name == "hda")])
    if name == "hda":
        # the `hda` command's shape: 40 samples of 10 features on each side,
        # four classes, five target labels known, masked exact, 20 restarts
        ys = np.repeat(np.arange(4), 10)
        Xs = rng.normal(0.0, 3.0, (4, 10))[ys] + rng.normal(size=(40, 10))
        perm = rng.permutation(40)
        known = np.full(40, -1)
        known[:5] = ys[perm][:5]
        mask = class_mismatch_mask(one_hot_labels(ys, 4), one_hot_labels(known, 4))
        return CootProblem(Xs, Xs[perm][:, rng.permutation(10)], sample_cost_mask=mask), 20, 1
    return CootProblem(rng.random((24, 6)), rng.random((18, 5))), 16, 2


# Measured ratios, lockstep peak over the largest one-at-a-time peak: hda 15.1-15.2
# before the contraction built its result in place and the exact side solved and
# wrote back one restart at a time, 8.7-8.8 after; exact at jobs=2 3.9-4.0 while
# the start list was kept for the whole solve, 2.8-2.9 after
MEMORY_BOUNDS = {"hda": 10.5, "exact-jobs2": 3.3}


@pytest.mark.parametrize("name", MEMORY_BOUNDS)
def test_lockstep_memory_stays_near_one_restart_at_a_time(name):
    """Lockstep keeps one contraction stack plus each restart's previous cost
    and plan live, and no stack of starts: its tracemalloc peak stays within
    a bound of the same restarts solved one ``_solve_stack`` call at a time.
    Both are run once first, so that no cache is first filled while traced."""
    problem, restarts, jobs = _memory_case(name)
    lockstep = lambda: coot._best_restart(problem, restarts, 0, jobs=jobs)  # noqa: E731
    alone = lambda: _one_at_a_time(problem, restarts, 0)  # noqa: E731
    lockstep()
    alone()
    assert _peak(lockstep) <= MEMORY_BOUNDS[name] * _peak(alone)


def test_starts_are_freed_once_copied(monkeypatch):
    """``_best_restart`` keeps no reference to the starts it draws: by the
    first inner solve, the stack they were drawn in is gone."""
    problem, restarts, _ = _memory_case("exact-jobs2")
    drawn, alive = [], []
    starts, inner = coot._starts, coot._inner_ot

    def record(*args):
        out = starts(*args)
        drawn.extend(weakref.ref(init[0].base) for init in out if init is not None)
        return out

    def count(*args):
        alive.append(sum(ref() is not None for ref in drawn))
        return inner(*args)

    monkeypatch.setattr(coot, "_starts", record)
    monkeypatch.setattr(coot, "_inner_ot", count)
    coot._best_restart(problem, restarts, 0)
    assert drawn and alive and max(alive) == 0


def _constant_minus_product(factors, pi):
    """The contraction as one constant stack minus the product term."""
    f1, f2, h1, h2 = factors
    const = (f1 @ pi.sum(axis=2)[:, :, None]) + (f2 @ pi.sum(axis=1)[:, :, None]).transpose(0, 2, 1)
    return const - tensorcost._h_term(h1, pi, h2.T)


@pytest.mark.parametrize("chunk", [1, 100, None, 10**9])
@pytest.mark.parametrize("shapes", [((8, 8), (8, 8)), ((48, 48), (48, 48)),
                                    ((30, 20), (25, 15)), ((7, 60), (5, 50))])
def test_factored_contraction_equals_one_constant_stack(shapes, chunk, monkeypatch):
    """``_factored`` forms the constant term a few plans at a time and
    subtracts the product from it in place; every slice is bitwise the
    constant stack minus the product, on both sides, for stacks of 1, 7 and
    20 plans and any chunk size (None: the default)."""
    if chunk is not None:
        monkeypatch.setattr(tensorcost, "_CONSTANT_CHUNK", chunk)
    rng = np.random.default_rng([73, *shapes[0], *shapes[1]])
    X, X2 = rng.random(shapes[0]), rng.random(shapes[1])
    factors = tensorcost._factors(X, X2, SQUARED_EUCLIDEAN)
    for side in Side:
        oriented = tensorcost._oriented(side, *factors)
        p, q = oriented[2].shape[1], oriented[3].shape[1]
        for restarts in (1, 7, 20):
            pi = rng.random((restarts, p, q))
            got = tensorcost._factored(oriented, pi)
            assert _bits(got) == _bits(_constant_minus_product(oriented, pi)), (side, restarts)


@pytest.mark.parametrize("penalty", [None, 5.0])
def test_masking_one_cost_equals_its_slice_of_the_masked_stack(penalty):
    """The exact side masks each restart's cost alone; that is bitwise its
    slice of the stack masked at once, with the auto penalty (1e3 times the
    cost's max, or 1.0 when the max is <= 0: an all-zero and a negative cost
    are in the stack) and with an explicit one."""
    rng = np.random.default_rng(74)
    mask = _mask(9, 7, 3, 4)
    problem = CootProblem(rng.random((9, 3)), rng.random((7, 2)), sample_cost_mask=mask,
                          mask_penalty=penalty)
    costs = rng.random((6, 9, 7)) * 10.0 ** rng.integers(-3, 4, (6, 1, 1))
    costs[2] = 0.0
    costs[4] = -costs[4]
    if penalty is None:
        top = costs.max(axis=(1, 2))
        penalty = np.where(top > 0, 1e3 * top, 1.0)[:, None, None]
    stacked = costs + penalty * mask
    assert _bits(coot._masked(costs, problem)) == _bits(stacked)
    for cost, expected in zip(costs, stacked):
        assert _bits(coot._masked(cost, problem)) == _bits(expected)
