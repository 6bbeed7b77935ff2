"""Unit tests for the alternating solver and the enumeration oracle."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from coopt import (
    ABSOLUTE,
    CootProblem,
    Coupling,
    DimensionError,
    DomainError,
    KULLBACK_LEIBLER,
    LOSSES,
    SQUARED_EUCLIDEAN,
    bap_oracle,
    coot_distance_checks,
    coot_objective,
    hda_pipeline,
    one_hot_labels,
    permutation_equal,
    random_coupling,
    sinkhorn,
    solve_coot,
    solve_gw_dc,
    sqeuclid_matrix,
    uniform_histogram,
    validate_coupling,
)
from coopt import coot, ot
from coopt.apps import class_mismatch_mask
from coopt.core import marginal_residual


def test_solve_self_instance_reaches_zero():
    rng = np.random.default_rng(41)
    X = rng.random((2, 2))
    sol = solve_coot(CootProblem(X, X))
    oracle = bap_oracle(X, X)
    assert oracle.cost == 0.0
    assert abs(sol.cost) <= 1e-9


def test_permutation_couplings_give_zero():
    rng = np.random.default_rng(42)
    X = rng.random((4, 3))
    rows = rng.permutation(4)
    cols = rng.permutation(3)
    X2 = X[rows][:, cols]  # X2[i] = X[rows[i]]
    ps = np.zeros((4, 4))
    ps[rows, np.arange(4)] = 0.25
    pv = np.zeros((3, 3))
    pv[cols, np.arange(3)] = 1.0 / 3.0
    # the factored kernel leaves cancellation dust; the direct sum is exact
    assert abs(coot_objective(X, X2, ps, pv, SQUARED_EUCLIDEAN)) <= 1e-12
    from coopt import Side, contract_naive

    direct = float(np.sum(contract_naive(X, X2, ps, SQUARED_EUCLIDEAN, Side.FEATURE).matrix * pv))
    assert direct == 0.0


def test_restarts_match_oracle_on_seeded_instance():
    rng = np.random.default_rng(43)
    X = rng.random((3, 3))
    X2 = rng.random((3, 3))
    oracle = bap_oracle(X, X2)
    sol = solve_coot(CootProblem(X, X2), restarts=20, seed=43)
    assert sol.cost == pytest.approx(oracle.cost, abs=1e-9)
    assert sol.cost >= oracle.cost - 1e-12


def test_trace_monotone_with_exact_solvers():
    rng = np.random.default_rng(44)
    for _ in range(10):
        X = rng.random((6, 5))
        X2 = rng.random((4, 7))
        sol = solve_coot(CootProblem(X, X2))
        trace = sol.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))


@pytest.mark.parametrize("caps", [{"max_iter": -1}, {"sinkhorn_max_iter": 0},
                                  {"eps_samples": 0.1, "sinkhorn_max_iter": -3}])
def test_problem_rejects_iteration_caps_out_of_range(caps):
    X = np.random.default_rng(46).random((3, 2))
    with pytest.raises(DomainError):
        CootProblem(X, X, **caps)


@pytest.mark.parametrize("jobs", [0, -2])
def test_solve_rejects_jobs_below_one(jobs):
    X = np.random.default_rng(47).random((3, 2))
    with pytest.raises(DomainError):
        solve_coot(CootProblem(X, X), restarts=2, jobs=jobs)


def test_max_iter_zero_returns_product_initialization():
    rng = np.random.default_rng(45)
    X = rng.random((3, 2))
    X2 = rng.random((4, 3))
    problem = CootProblem(X, X2, max_iter=0)
    sol = solve_coot(problem)
    ps = np.outer(problem.w, problem.wp)
    pv = np.outer(problem.v, problem.vp)
    np.testing.assert_array_equal(sol.sample_coupling.plan, ps)
    np.testing.assert_array_equal(sol.feature_coupling.plan, pv)
    assert sol.cost == pytest.approx(coot_objective(X, X2, ps, pv, SQUARED_EUCLIDEAN))
    assert sol.iterations == 0 and not sol.converged


def test_returned_couplings_are_feasible():
    rng = np.random.default_rng(46)
    X = rng.random((5, 4))
    X2 = rng.random((6, 3))
    exact = solve_coot(CootProblem(X, X2))
    for c in (exact.sample_coupling, exact.feature_coupling):
        assert validate_coupling(c.plan, c.row_marginal, c.col_marginal, 1e-9)
    entropic = solve_coot(CootProblem(X, X2, eps_samples=0.05, eps_features=0.05))
    for c in (entropic.sample_coupling, entropic.feature_coupling):
        assert validate_coupling(c.plan, c.row_marginal, c.col_marginal, 1e-6)


def test_mixed_mode_runs_exact_samples_entropic_features():
    rng = np.random.default_rng(47)
    X = rng.random((4, 3))
    X2 = rng.random((5, 4))
    sol = solve_coot(CootProblem(X, X2, eps_samples=0.0, eps_features=1.0))
    assert sol.sample_coupling.feasible(1e-9)
    assert sol.feature_coupling.feasible(1e-6)


def test_never_below_oracle_on_uniform_square():
    rng = np.random.default_rng(48)
    for _ in range(5):
        X = rng.random((3, 3))
        X2 = rng.random((3, 3))
        sol = solve_coot(CootProblem(X, X2), restarts=5, seed=0)
        assert sol.cost >= bap_oracle(X, X2).cost - 1e-12


def test_restart_stability_on_permuted_instances():
    """At least one of 20 restarts lands at (near) zero on permuted pairs."""
    rng = np.random.default_rng(49)
    for trial in range(5):
        n, d = rng.integers(2, 5), rng.integers(2, 5)
        X = rng.random((n, d))
        X2 = X[rng.permutation(n)][:, rng.permutation(d)]
        sol = solve_coot(CootProblem(X, X2), restarts=20, seed=trial)
        assert sol.cost <= 1e-8


def test_degenerate_single_column_target():
    rng = np.random.default_rng(50)
    X = rng.random((5, 4))
    X2 = rng.random((1, 1))
    sol = solve_coot(CootProblem(X, X2))
    assert sol.sample_coupling.shape == (5, 1)
    assert sol.feature_coupling.shape == (4, 1)
    np.testing.assert_allclose(sol.sample_coupling.plan.sum(axis=1), 1.0 / 5.0)


def test_random_coupling_is_feasible_and_seeded():
    w = uniform_histogram(4)
    wp = uniform_histogram(6)
    a = random_coupling(w, wp, np.random.default_rng(5))
    b = random_coupling(w, wp, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert validate_coupling(a, w, wp, 1e-9)


def test_jobs_do_not_change_the_selected_restart():
    rng = np.random.default_rng(51)
    X = rng.random((3, 3))
    X2 = rng.random((3, 3))
    serial = solve_coot(CootProblem(X, X2), restarts=8, seed=7, jobs=1)
    threaded = solve_coot(CootProblem(X, X2), restarts=8, seed=7, jobs=4)
    assert serial.cost == threaded.cost
    assert serial.restart_index == threaded.restart_index
    np.testing.assert_array_equal(serial.sample_coupling.plan, threaded.sample_coupling.plan)


def test_bap_oracle_identity_and_swap():
    X = np.array([[0.0, 1.0], [2.0, 3.0]])
    res = bap_oracle(X, X)
    assert res.cost == 0.0
    swapped = X[::-1][:, ::-1]
    res = bap_oracle(X, swapped)
    assert res.cost == 0.0
    assert res.row_perm == (1, 0)
    assert res.col_perm == (1, 0)


def test_bap_oracle_lower_bounds_random_feasible_pairs():
    rng = np.random.default_rng(52)
    X = rng.random((3, 3))
    X2 = rng.random((3, 3))
    oracle = bap_oracle(X, X2).cost
    u3 = uniform_histogram(3)
    for _ in range(100):
        ps = sinkhorn(u3, u3, rng.random((3, 3)), eps=0.5).coupling.plan
        pv = sinkhorn(u3, u3, rng.random((3, 3)), eps=0.5).coupling.plan
        assert coot_objective(X, X2, ps, pv, SQUARED_EUCLIDEAN) >= oracle - 1e-12


def test_bap_oracle_refuses_large_instances():
    big = np.zeros((7, 3))
    with pytest.raises(DimensionError):
        bap_oracle(big, big)


def test_permutation_equal_detects_construction():
    rng = np.random.default_rng(53)
    X = rng.random((3, 4))
    X2 = X[[2, 0, 1]][:, [3, 1, 0, 2]]
    assert permutation_equal(X, X2)
    assert not permutation_equal(X, X2 + 1e-9)


def test_distance_checks_identical_triple():
    X = np.arange(9, dtype=float).reshape(3, 3)
    report = coot_distance_checks([(X, X.copy(), X.copy())], ABSOLUTE)
    assert report["max_symmetry_gap"] == 0.0
    assert report["max_triangle_slack"] <= 0.0
    assert report["triangle_violations"] == 0
    assert report["indiscernibles_ok"]


def test_distance_checks_random_triples():
    rng = np.random.default_rng(54)
    triples = []
    for i in range(10):
        A = rng.random((3, 3))
        B = A[rng.permutation(3)][:, rng.permutation(3)] if i % 3 == 0 else rng.random((3, 3))
        C = rng.random((3, 3))
        triples.append((A, B, C))
    report = coot_distance_checks(triples, ABSOLUTE)
    assert report["max_symmetry_gap"] <= 1e-12
    assert report["triangle_violations"] == 0
    assert report["indiscernibles_ok"]


@pytest.mark.parametrize("loss", ["sq", "abs", "kl"])
def test_reported_cost_is_the_objective_of_the_returned_couplings(loss):
    rng = np.random.default_rng(55)
    X = rng.random((6, 4)) + 0.1
    X2 = rng.random((5, 3)) + 0.1
    problem = CootProblem(X, X2, loss=LOSSES[loss])
    sol = solve_coot(problem, restarts=4, seed=2)
    ps, pv = sol.sample_coupling.plan, sol.feature_coupling.plan
    assert sol.cost == coot_objective(X, X2, ps, pv, LOSSES[loss])
    assert sol.objective_trace[-1] == sol.cost


def test_sample_cost_mask_stays_out_of_the_reported_cost():
    # three class-0 sources but two class-0 targets: a quarter of the mass
    # must cross a masked (class-mismatch) cell
    rng = np.random.default_rng(56)
    Xs = rng.random((4, 3))
    Xt = rng.random((4, 2))
    ys = np.array([0, 0, 0, 1])
    yt = np.array([1, 1, 0, 0])
    result = hda_pipeline(Xs, Xt, ys, target_labels=yt, restarts=3, seed=1)
    sol = result.solution
    ps, pv = sol.sample_coupling.plan, sol.feature_coupling.plan
    mask = class_mismatch_mask(one_hot_labels(ys), one_hot_labels(yt))
    assert np.sum(mask * ps) >= 0.25 - 1e-9
    assert sol.cost == coot_objective(Xs, Xt, ps, pv, SQUARED_EUCLIDEAN)
    assert sol.objective_trace[-1] == sol.cost


def _reference_projection(plan, w, wp):
    """Alternate row/column scaling of one plan, stopping at L1 residual
    1e-13 or 500 sweeps: what the stacked projection must give per plan."""
    plan = np.array(plan, dtype=np.float64)
    for _ in range(500):
        plan *= (w / plan.sum(axis=1))[:, None]
        plan *= (wp / plan.sum(axis=0))[None, :]
        if marginal_residual(plan, w, wp) <= 1e-13:
            break
    return plan


def _reference_random(w, wp, rng):
    noise = rng.lognormal(0.0, 2.0, (w.size, wp.size))
    return _reference_projection(np.outer(w, wp) * noise, w, wp)


def _weights(rng, n):
    w = rng.uniform(0.05, 1.0, n)
    return w / w.sum()


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


_START_SHAPES = [((1, 1), (1, 1)), ((1, 4), (5, 3)), ((5, 1), (1, 2)), ((600, 2), (3, 4)),
                 ((7, 5), (6, 4))]


@pytest.mark.parametrize("shape, shape2", _START_SHAPES)
@pytest.mark.parametrize("weighted", [False, True])
def test_batched_starts_equal_one_random_coupling_per_plan(shape, shape2, weighted):
    rng = np.random.default_rng(sum(shape + shape2))
    X, X2 = rng.random(shape), rng.random(shape2)
    weights = {}
    if weighted:
        weights = dict(w=_weights(rng, shape[0]), wp=_weights(rng, shape2[0]),
                       v=_weights(rng, shape[1]), vp=_weights(rng, shape2[1]))
    problem = CootProblem(X, X2, **weights)
    restarts, seed = 6, 11
    starts = coot._starts(problem, restarts, seed, tied=False)
    assert len(starts) == restarts and starts[0] is None
    for r, (ps, pv) in enumerate(starts[1:], start=1):
        ref = np.random.default_rng([seed, r])
        ref_s = _reference_random(problem.w, problem.wp, ref)
        ref_v = _reference_random(problem.v, problem.vp, ref)
        assert _bits(ps) == _bits(ref_s) and _bits(pv) == _bits(ref_v)
        one = np.random.default_rng([seed, r])
        assert _bits(random_coupling(problem.w, problem.wp, one)) == _bits(ref_s)
        assert _bits(random_coupling(problem.v, problem.vp, one)) == _bits(ref_v)


@pytest.mark.parametrize("n, n2", [(6, 6), (1, 1), (5, 3)])
def test_batched_tied_starts_include_the_identity_biased_plan(n, n2):
    rng = np.random.default_rng(n * 10 + n2)
    problem = CootProblem(rng.random((n, n)), rng.random((n2, n2)))
    restarts, seed = 5, 3
    starts = coot._starts(problem, restarts, seed, tied=True)
    assert len(starts) == restarts and starts[0] is None
    w, wp = problem.w, problem.wp
    expected = []
    if n == n2:
        expected.append(_reference_projection(np.eye(n) * n + 1.0, w, wp))
    r = 1
    while len(expected) < restarts - 1:
        expected.append(_reference_random(w, wp, np.random.default_rng([seed, r])))
        r += 1
    for (ps, pv), ref in zip(starts[1:], expected):
        assert pv is ps and _bits(ps) == _bits(ref)


@pytest.mark.parametrize("knobs", [{"tol": -1.0}, {"tol": np.nan}, {"tol": -np.inf},
                                   {"eps_samples": np.nan}, {"eps_features": np.nan},
                                   {"eps_samples": np.inf}, {"eps_features": -np.inf}])
def test_problem_rejects_bad_tol_and_non_finite_eps(knobs):
    X = np.random.default_rng(48).random((3, 2))
    with pytest.raises(DomainError):
        CootProblem(X, X, **knobs)


@pytest.mark.parametrize("knobs", [{"tol": 0.0}, {"tol": np.inf}, {"eps_samples": 0.0},
                                   {"eps_features": 1e300}])
def test_problem_accepts_zero_or_infinite_tol_and_finite_eps(knobs):
    X = np.random.default_rng(49).random((3, 2))
    sol = solve_coot(CootProblem(X, X, max_iter=3, **knobs))
    assert sol.iterations >= 1


def _reuse_case(name):
    """(solve, sides): an exact solve from one start and its number of solved
    sides per iteration. A tied solve has no repeated cost to reuse: its
    last iteration prices the sample step with the previous plan, and that
    plan repeating is what stops the loop one iteration later."""
    rng = np.random.default_rng(57)
    if name == "coot":
        X, X2 = rng.random((12, 5)), rng.random((9, 4))
        return lambda: solve_coot(CootProblem(X, X2)), 2
    if name == "gw":
        C, C2 = sqeuclid_matrix(rng.random((10, 2))), sqeuclid_matrix(rng.random((8, 2)))
        return lambda: solve_gw_dc(C, C2), 1
    Xs, Xt = rng.random((16, 4)), rng.random((12, 3))
    ys = np.arange(16) % 2
    yt = np.where(np.arange(12) < 4, np.arange(12) % 2, -1)
    return lambda: hda_pipeline(Xs, Xt, ys, target_labels=yt, restarts=1).solution, 2


@pytest.mark.parametrize("name", ["coot", "gw", "hda"])
def test_exact_side_reuse_keeps_the_plan_of_a_fresh_solve(name, monkeypatch):
    """An exact side whose cost repeats up to rounding reuses its previous
    result. The returned sample plan is still bitwise what a fresh
    ``exact_ot`` gives on the last sample cost, and fewer LPs run than sides
    times iterations, except in the tied case, which runs one per
    iteration."""
    solve, sides = _reuse_case(name)
    costs, solved = [], []
    inner, exact = coot._inner_ot, coot.exact_ot

    def recording_inner(w, wp, cost, *args):
        costs.append((w, wp, cost))
        return inner(w, wp, cost, *args)

    def counting_exact(*args):
        solved.append(args)
        return exact(*args)

    monkeypatch.setattr(coot, "_inner_ot", recording_inner)
    monkeypatch.setattr(coot, "exact_ot", counting_exact)
    sol = solve()
    ps = sol.coupling.plan if name == "gw" else sol.sample_coupling.plan
    assert sol.converged and sol.iterations >= 2
    full = sides * sol.iterations
    assert len(solved) == full if name == "gw" else len(solved) < full
    w, wp, cost = [c for c in costs if c[2].shape == ps.shape][-1]
    with ThreadPoolExecutor(1) as pool:
        fresh = pool.submit(exact, w, wp, cost).result(timeout=60)
    assert _bits(fresh.coupling.plan) == _bits(ps)


@pytest.mark.parametrize("moved, reused", [(2.0**-45, True), (1e-9, False)])
def test_exact_side_reuse_bound(moved, reused, monkeypatch):
    """A cost moved by 2**-45 max|C| keeps the previous result; one moved by
    1e-9 max|C| is solved again."""
    rng = np.random.default_rng(58)
    w, wp = _weights(rng, 6), _weights(rng, 4)
    C = 3.0 * rng.random((6, 4))
    prev = C, coot.exact_ot(w, wp, C)
    solved = []
    monkeypatch.setattr(coot, "exact_ot", lambda *args: solved.append(args) or "solved")
    C2 = C.copy()
    C2[np.unravel_index(np.argmax(C), C.shape)] += moved * C.max()
    assert (C2 != C).any()
    got = coot._inner_ot(w, wp, C2, prev)
    assert (got is prev[1]) == reused
    assert len(solved) == (0 if reused else 1)


def test_solvers_reject_a_negative_seed():
    X = np.random.default_rng(48).random((3, 2))
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        solve_coot(CootProblem(X, X), restarts=2, seed=-1)
    C = sqeuclid_matrix(X)
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        solve_gw_dc(C, C, restarts=2, seed=-1)


def test_problem_rejects_weights_and_masks_of_the_wrong_size():
    X = np.random.default_rng(49).random((4, 3))
    X2 = np.random.default_rng(50).random((5, 2))
    for weights in ({"w": uniform_histogram(5)}, {"wp": uniform_histogram(4)},
                    {"v": uniform_histogram(2)}, {"vp": uniform_histogram(3)}):
        with pytest.raises(DimensionError, match="^weight lengths do not match"):
            CootProblem(X, X2, **weights)
    with pytest.raises(DimensionError, match=r"^sample cost mask must be \(4, 5\), got \(5, 4\)$"):
        CootProblem(X, X2, sample_cost_mask=np.zeros((5, 4)))


def test_stacked_entropic_solutions_own_their_plans():
    """A restart that stops keeps only its plans, and no plan is a slice of
    an iteration's stack, also in the tied case."""
    rng = np.random.default_rng(51)
    problem = CootProblem(rng.random((7, 5)), rng.random((6, 4)),
                          eps_samples=0.05, eps_features=0.05)
    C = sqeuclid_matrix(rng.random((6, 2)))
    tied = CootProblem(C.matrix, C.matrix, eps_samples=0.05)
    for prob, is_tied in ((problem, False), (tied, True)):
        solutions = coot._solve_stack(prob, coot._starts(prob, 4, 0, is_tied), is_tied)
        for sol in solutions:
            for plan in (sol.sample_coupling.plan, sol.feature_coupling.plan):
                assert plan.base is None or plan.base.size == plan.size


def _large_magnitude_pair():
    return (1e8 * np.random.default_rng(5).random((5, 4)),
            1e8 * np.random.default_rng(6).random((6, 3)))


@pytest.mark.parametrize("loss, cap", [(ABSOLUTE, 10000), (SQUARED_EUCLIDEAN, 200)])
def test_unconverged_inner_solve_makes_the_solve_unconverged(entropic_calls, loss, cap):
    """At 1e8 magnitudes and eps 0.05 some entropic calls end above their
    tolerance (abs loss) or at their Newton cap (squared loss), although the
    feature coupling stops moving; the solve must not report converged."""
    X, X2 = _large_magnitude_pair()
    sol = solve_coot(CootProblem(X, X2, loss=loss, eps_samples=0.05, eps_features=0.05,
                                 sinkhorn_max_iter=cap))
    assert any(not res.converged for res in entropic_calls)
    assert not sol.converged


def test_problem_checks_the_loss_domain_when_built():
    """Negative data lie outside the Kullback-Leibler domain: the problem is
    refused when built, before any solve."""
    rng = np.random.default_rng(52)
    X, X2 = rng.random((4, 3)) + 0.1, rng.random((5, 2)) + 0.1
    with pytest.raises(DomainError, match="kullback_leibler loss"):
        CootProblem(-X, X2, loss=KULLBACK_LEIBLER)
    CootProblem(X, X2, loss=KULLBACK_LEIBLER)


def test_problem_prepares_one_contraction_for_every_restart(monkeypatch):
    """The problem checks its data once: the threaded exact restarts all
    contract through the object the problem built."""
    built = []
    real = coot.PreparedContraction

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(coot, "PreparedContraction", counted)
    rng = np.random.default_rng(53)
    problem = CootProblem(rng.random((6, 4)), rng.random((5, 3)))
    sol = solve_coot(problem, restarts=4, seed=0, jobs=2)
    assert len(built) == 1
    monkeypatch.setattr(coot, "PreparedContraction", real)
    alone = solve_coot(CootProblem(problem.X, problem.X2), restarts=4, seed=0)
    assert (sol.cost, sol.restart_index) == (alone.cost, alone.restart_index)
    assert np.array_equal(sol.sample_coupling.plan, alone.sample_coupling.plan)


@pytest.mark.parametrize("value", [-1.0, 0.5, 2.0])
def test_sample_cost_mask_entries_must_be_0_or_1(value):
    X = np.random.default_rng(49).random((4, 3))
    X2 = np.random.default_rng(50).random((5, 2))
    mask = np.zeros((4, 5))
    mask[1, 2] = value
    with pytest.raises(DomainError, match="mask entries must be 0 or 1"):
        CootProblem(X, X2, sample_cost_mask=mask)


def test_uncertified_lp_makes_the_solve_unconverged(monkeypatch):
    """An LP result whose certificate misses -1e-9 is not converged, and
    neither is a solve that takes it."""
    real = ot._transport_lp

    def uncertified(w, wp, C):
        x, nit, _, potentials = real(w, wp, C)
        return x, nit, -1e-6, potentials

    monkeypatch.setattr(ot, "_transport_lp", uncertified)
    rng = np.random.default_rng(54)
    res = ot.exact_ot(uniform_histogram(4), uniform_histogram(5), rng.random((4, 5)))
    assert res.certificate == -1e-6 and not res.converged
    sol = solve_coot(CootProblem(rng.random((4, 3)), rng.random((5, 2))))
    assert not sol.converged
    monkeypatch.setattr(ot, "_transport_lp", real)
    assert ot.exact_ot(uniform_histogram(4), uniform_histogram(5), rng.random((4, 5))).converged


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_a_solve_builds_two_couplings_per_restart(eps, monkeypatch):
    """Inner results carry their plans; the only couplings a solve builds
    are the two of each restart's solution."""
    built = []
    check = Coupling.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Coupling, "__post_init__", counted)
    rng = np.random.default_rng(55)
    problem = CootProblem(rng.random((6, 4)), rng.random((5, 3)),
                          eps_samples=eps, eps_features=eps)
    restarts = 3
    sol = solve_coot(problem, restarts=restarts, seed=0)
    assert sol.iterations > 0
    assert len(built) == 2 * restarts


@pytest.mark.parametrize("knob", ["max_iter", "sinkhorn_max_iter"])
def test_problem_counts_must_be_integers(knob):
    X = np.random.default_rng(56).random((4, 3))
    with pytest.raises(DomainError, match=f"^{knob} must be an integer, got 2.5$"):
        CootProblem(X, X, **{knob: 2.5})
    with pytest.raises(DomainError, match=f"^{knob} must be an integer, got '3'$"):
        CootProblem(X, X, **{knob: "3"})
    problem = CootProblem(X, X, **{knob: np.int64(3)})
    assert solve_coot(problem).iterations <= 3
    with pytest.raises(DomainError, match=r"^need max_iter >= 0 and sinkhorn_max_iter >= 1 "):
        CootProblem(X, X, **{knob: -1})


@pytest.mark.parametrize("arg", ["restarts", "seed", "jobs"])
def test_restart_arguments_must_be_integers(arg):
    X = np.random.default_rng(57).random((4, 3))
    C = sqeuclid_matrix(X)
    with pytest.raises(DomainError, match=f"^{arg} must be an integer, got 1.5$"):
        solve_coot(CootProblem(X, X), **{arg: 1.5})
    if arg != "jobs":
        with pytest.raises(DomainError, match=f"^{arg} must be an integer, got 1.5$"):
            solve_gw_dc(C, C, **{arg: 1.5})
    sol = solve_coot(CootProblem(X, X), **{arg: np.int64(2)})
    assert sol.cost == solve_coot(CootProblem(X, X), **{arg: 2}).cost


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_rejects_a_non_finite_entropic_plan():
    rng = np.random.default_rng(0)
    problem = CootProblem(1e5 * rng.random((4, 3)), rng.random((5, 2)), eps_samples=1e-300)
    with pytest.raises(DomainError,
                       match=r"^coupling plan: entries must be finite \(no NaN/Inf\)$"):
        solve_coot(problem)
