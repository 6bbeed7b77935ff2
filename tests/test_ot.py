"""Unit tests for the exact and entropic transport subsolvers."""

import itertools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog

from coopt import (
    Coupling,
    DimensionError,
    DomainError,
    entropic_ot,
    exact_ot,
    sinkhorn,
    uniform_histogram,
    validate_coupling,
)
from coopt import ot


def permutation_minimum(C):
    """Brute-force transport optimum for uniform square marginals."""
    n = C.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, C[np.arange(n), perm].sum() / n)
    return best


def test_exact_ot_single_cell():
    res = exact_ot(uniform_histogram(1), uniform_histogram(1), [[5.0]])
    assert res.coupling.plan.tolist() == [[1.0]]
    assert res.cost == 5.0


def test_exact_ot_antidiagonal_zero_cost():
    u = uniform_histogram(2)
    res = exact_ot(u, u, [[0.0, 1.0], [1.0, 0.0]])
    assert res.cost == 0.0
    np.testing.assert_allclose(res.coupling.plan, [[0.5, 0.0], [0.0, 0.5]])


def test_exact_ot_matches_permutation_enumeration():
    rng = np.random.default_rng(21)
    u = uniform_histogram(3)
    C = rng.random((3, 3))
    res = exact_ot(u, u, C)
    assert res.cost == pytest.approx(permutation_minimum(C), abs=1e-12)


def test_exact_ot_uniform_square_plan_is_scaled_permutation():
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        u = uniform_histogram(n)
        plan = exact_ot(u, u, rng.random((n, n))).coupling.plan
        scaled = plan * n
        assert np.all((scaled == 0) | (np.abs(scaled - 1) < 1e-12))
        np.testing.assert_allclose(scaled.sum(axis=0), 1.0)
        np.testing.assert_allclose(scaled.sum(axis=1), 1.0)


def test_exact_ot_nonuniform_rectangular_feasible():
    rng = np.random.default_rng(6)
    w = rng.uniform(0.1, 1, 5)
    w /= w.sum()
    wp = rng.uniform(0.1, 1, 3)
    wp /= wp.sum()
    res = exact_ot(w, wp, rng.random((5, 3)))
    assert validate_coupling(res.coupling.plan, w, wp, 1e-9)
    assert np.isfinite(res.cost)


def test_exact_ot_is_a_lower_bound_over_feasible_couplings():
    """No feasible coupling (here: entropic plans of random costs) beats it."""
    rng = np.random.default_rng(17)
    w = uniform_histogram(4)
    wp = uniform_histogram(5)
    C = rng.random((4, 5))
    opt = exact_ot(w, wp, C).cost
    for k in range(100):
        other = sinkhorn(w, wp, rng.random((4, 5)), eps=1.0, max_iter=500).coupling.plan
        assert np.sum(C * other) >= opt - 1e-12


def test_exact_ot_errors():
    u = uniform_histogram(2)
    with pytest.raises(DomainError):
        exact_ot(u, u, [[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        exact_ot(u, uniform_histogram(3), [[1.0, 2.0], [3.0, 4.0]])


def _dense_lp_plan(w, wp, C):
    """The transport LP with a dense constraint matrix, solved by the same method."""
    n, m = C.shape
    row_eq = np.zeros((n, n * m))
    for i in range(n):
        row_eq[i, i * m : (i + 1) * m] = 1.0
    col_eq = np.zeros((m - 1, n * m))
    for j in range(m - 1):
        col_eq[j, j::m] = 1.0
    res = linprog(C.ravel(), A_eq=np.vstack([row_eq, col_eq]), b_eq=np.concatenate([w, wp[:-1]]),
                  bounds=(0, None), method="highs-ds", options={"presolve": False})
    return np.maximum(res.x.reshape(n, m), 0.0), res.nit


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (2, 3), (7, 4), (50, 40)],
                         ids=["1x5", "5x1", "2x3", "7x4", "50x40"])
def test_exact_ot_sparse_constraints_match_dense_reference(shape, uniform):
    n, m = shape
    rng = np.random.default_rng([n, m, uniform])
    if uniform:
        w, wp = uniform_histogram(n), uniform_histogram(m)
    else:
        w, wp = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
        w, wp = w / w.sum(), wp / wp.sum()
    costs = {
        "random": rng.random(shape),
        "constant": np.full(shape, 2.5),
        "zero": np.zeros(shape),
        "integer": rng.integers(0, 4, shape).astype(float),
        "1e8 scale": 1e8 * rng.random(shape),
    }
    for name, C in costs.items():
        res = exact_ot(w, wp, C)
        plan, nit = _dense_lp_plan(w, wp, C)
        assert np.array_equal(res.coupling.plan, plan), name
        assert res.iterations == nit, name


def test_exact_ot_model_cache_is_invisible():
    """Each thread keeps the HiGHS models of its last two marginal pairs. One
    thread's sequence that interleaves eight pairs, revisiting each while it
    is cached and then moving on so the cache evicts, gives every plan and
    iteration count of the dense reference LP bit for bit."""
    rng = np.random.default_rng(41)
    pairs = []
    for n, m in [(2, 3), (7, 4), (20, 15), (50, 40)]:
        w, wp = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
        pairs += [(uniform_histogram(n), uniform_histogram(m)), (w / w.sum(), wp / wp.sum())]
    costs = [
        lambda shape: rng.random(shape),
        lambda shape: np.full(shape, 2.5),
        lambda shape: np.zeros(shape),
        lambda shape: rng.integers(0, 4, shape).astype(float),
        lambda shape: 1e8 * rng.random(shape),
    ]
    order = []
    for a in range(len(pairs)):
        b = (a + 3) % len(pairs)
        order += [a, b, a, b, a]
    calls = [(pairs[k], costs[t % len(costs)]((pairs[k][0].size, pairs[k][1].size)))
             for t, k in enumerate(order)]

    def run():
        results = [exact_ot(w, wp, C) for (w, wp), C in calls]
        return results, len(ot._models.cache)

    with ThreadPoolExecutor(1) as pool:
        results, cached = pool.submit(run).result(timeout=120)
    assert cached == 2
    for t, (((w, wp), C), res) in enumerate(zip(calls, results)):
        plan, nit = _dense_lp_plan(w, wp, C)
        assert np.array_equal(res.coupling.plan, plan), t
        assert res.iterations == nit, t


def test_exact_ot_on_threads_matches_serial_calls():
    """The LP solve runs outside the interpreter lock, so restarts on threads
    overlap in it; concurrent solves must give the serial plans bit for bit."""
    rng = np.random.default_rng(37)
    shapes = [(200, 150), (150, 200), (120, 90), (90, 120), (60, 45), (45, 60), (40, 30),
              (30, 40), (25, 20), (20, 25), (15, 12), (12, 15), (10, 8), (8, 10), (9, 5),
              (5, 9), (7, 4), (4, 7), (7, 4), (4, 7)]
    instances = []
    for k, (n, m) in enumerate(shapes):
        w, wp = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
        # every other cost is integer-valued in {0, .., 3}, so ties abound
        C = rng.integers(0, 4, (n, m)).astype(float) if k % 2 else rng.random((n, m))
        instances.append((w / w.sum(), wp / wp.sum(), C))
    serial = [exact_ot(*args) for args in instances]
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(lambda args: exact_ot(*args), instances))
    for k, (a, b) in enumerate(zip(serial, threaded)):
        assert np.array_equal(a.coupling.plan, b.coupling.plan), shapes[k]
        assert a.iterations == b.iterations, shapes[k]


def test_exact_ot_memory_stays_small_at_300x200():
    """A dense constraint matrix alone would take 499 x 60000 floats (240 MB)."""
    rng = np.random.default_rng(31)
    w, wp = rng.uniform(0.1, 1, 300), rng.uniform(0.1, 1, 200)
    w, wp = w / w.sum(), wp / wp.sum()
    C = rng.random((300, 200))
    tracemalloc.start()
    try:
        res = exact_ot(w, wp, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert validate_coupling(res.coupling.plan, w, wp, 1e-9)


def test_sinkhorn_constant_cost_gives_product_coupling():
    w = uniform_histogram(3)
    wp = np.array([0.2, 0.3, 0.1, 0.4])
    for eps in (0.01, 0.5, 10.0):
        res = sinkhorn(w, wp, np.full((3, 4), 7.3), eps=eps)
        np.testing.assert_allclose(res.coupling.plan, np.outer(w, wp), atol=1e-13, rtol=0)
        assert res.converged


def test_sinkhorn_small_eps_approaches_exact_cost():
    u = uniform_histogram(2)
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = sinkhorn(u, u, C, eps=1e-3)
    exact = exact_ot(u, u, C).cost
    assert abs(res.cost - exact) <= 1e-2


def test_sinkhorn_plan_is_feasible_at_tolerance():
    rng = np.random.default_rng(8)
    w = rng.uniform(0.2, 1, 6)
    w /= w.sum()
    wp = rng.uniform(0.2, 1, 4)
    wp /= wp.sum()
    res = sinkhorn(w, wp, rng.random((6, 4)), eps=0.3, tol=1e-10)
    assert res.converged
    assert validate_coupling(res.coupling.plan, w, wp, 1e-10)


def test_sinkhorn_marginal_residual_monotone():
    """Residual after each full sweep never increases (float-jitter slack)."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        n, m = rng.integers(2, 8), rng.integers(2, 8)
        C = rng.random((n, m)) * rng.uniform(0.5, 5.0)
        w = rng.uniform(0.2, 1, n)
        w /= w.sum()
        wp = rng.uniform(0.2, 1, m)
        wp /= wp.sum()
        eps = float(rng.uniform(0.05, 1.0))
        residuals = []
        potentials = None
        for _ in range(60):
            step = sinkhorn(w, wp, C, eps=eps, max_iter=1, tol=0.0,
                            init_potentials=potentials)
            potentials = step.potentials
            residuals.append(step.marginal_error)
        for before, after in zip(residuals, residuals[1:]):
            assert after <= before + 1e-12


def test_sinkhorn_never_returns_nan_on_extreme_ratio():
    u = uniform_histogram(3)
    C = np.array([[0.0, 1e4, 2e4], [1e4, 0.0, 1e4], [2e4, 1e4, 0.0]])
    res = sinkhorn(u, u, C, eps=1e-2, max_iter=200)
    assert np.all(np.isfinite(res.coupling.plan))


def test_sinkhorn_rejects_nonpositive_eps():
    u = uniform_histogram(2)
    with pytest.raises(DomainError):
        sinkhorn(u, u, np.eye(2), eps=0.0)
    with pytest.raises(DomainError):
        sinkhorn(u, u, np.eye(2), eps=-1.0)


def test_ot_result_cost_matches_plan_recomputation():
    rng = np.random.default_rng(23)
    u = uniform_histogram(4)
    C = rng.random((4, 4))
    for res in (exact_ot(u, u, C), sinkhorn(u, u, C, eps=0.2)):
        assert res.cost == pytest.approx(float(np.sum(C * res.coupling.plan)), abs=1e-10)


def test_sinkhorn_rejects_zero_max_iter():
    u = uniform_histogram(2)
    with pytest.raises(DomainError):
        sinkhorn(u, u, np.eye(2), eps=1.0, max_iter=0)


def test_sinkhorn_rejects_warm_potentials_of_the_wrong_length():
    w, wp = uniform_histogram(4), uniform_histogram(3)
    with pytest.raises(DimensionError):
        sinkhorn(w, wp, np.ones((4, 3)), eps=0.1, init_potentials=(np.zeros(4), np.zeros(1)))
    with pytest.raises(DimensionError):
        sinkhorn(w, wp, np.ones((4, 3)), eps=0.1, init_potentials=(np.zeros(3), np.zeros(4)))


def _random_weights(rng, n):
    w = rng.uniform(0.1, 1, n)
    return w / w.sum()


@pytest.mark.parametrize("shape", [(4, 9), (9, 4), (7, 7), (30, 2)],
                         ids=["n<m", "n>m", "n=m", "30x2"])
def test_entropic_ot_agrees_with_converged_sinkhorn(shape):
    rng = np.random.default_rng(list(shape))
    w, wp = _random_weights(rng, shape[0]), _random_weights(rng, shape[1])
    C = 3.0 * rng.random(shape)
    for eps in (1.0, 0.1):
        ref = sinkhorn(w, wp, C, eps=eps, max_iter=100000, tol=1e-13)
        res = entropic_ot(w, wp, C, eps=eps, tol=1e-13)
        assert ref.converged and res.converged
        assert res.marginal_error <= 1e-13
        np.testing.assert_allclose(res.coupling.plan, ref.coupling.plan, atol=1e-10, rtol=0)
        assert abs(res.cost - ref.cost) <= 1e-10
        assert res.cost == float(np.sum(C * res.coupling.plan))


def _tall_thin_cost():
    """600 points on [0, 1] against 3 centres, squared distance x 100."""
    x = np.random.default_rng(41).random(600)
    return 100.0 * (x[:, None] - np.array([0.0, 0.5, 1.0])[None, :]) ** 2


def test_entropic_ot_converges_on_tall_thin_cost_with_large_ratio():
    C = _tall_thin_cost()
    w, wp = uniform_histogram(600), uniform_histogram(3)
    eps = 0.05
    assert C.max() / eps >= 1000
    assert not sinkhorn(w, wp, C, eps=eps, max_iter=500).converged
    res = entropic_ot(w, wp, C, eps=eps, max_iter=500, tol=1e-9)
    assert res.converged and res.marginal_error <= 1e-9
    assert res.iterations <= 500
    assert validate_coupling(res.coupling.plan, w, wp, 1e-9)


@pytest.mark.parametrize("shape", [(5, 8), (600, 3)], ids=["5x8", "600x3"])
def test_entropic_ot_swapping_sides_transposes_the_plan(shape):
    rng = np.random.default_rng(list(shape))
    w, wp = _random_weights(rng, shape[0]), _random_weights(rng, shape[1])
    C = 20.0 * rng.random(shape)
    res = entropic_ot(w, wp, C, eps=0.05)
    swapped = entropic_ot(wp, w, C.T, eps=0.05)
    assert res.converged and swapped.converged
    assert np.array_equal(swapped.coupling.plan, res.coupling.plan.T)
    np.testing.assert_array_equal(swapped.potentials[0], res.potentials[1])
    np.testing.assert_array_equal(swapped.potentials[1], res.potentials[0])


def test_entropic_ot_restarts_from_its_own_potentials_in_one_step():
    C = _tall_thin_cost()
    w, wp = uniform_histogram(600), uniform_histogram(3)
    cold = entropic_ot(w, wp, C, eps=0.05)
    warm = entropic_ot(w, wp, C, eps=0.05, init_potentials=cold.potentials)
    assert warm.converged and warm.iterations <= 1
    # the potentials are in Sinkhorn's convention, so they warm-start it too
    resumed = sinkhorn(w, wp, C, eps=0.05, init_potentials=cold.potentials)
    assert resumed.converged and resumed.iterations == 1


def test_entropic_ot_degenerate_inputs():
    rng = np.random.default_rng(43)
    w, wp = _random_weights(rng, 3), _random_weights(rng, 4)
    for eps in (0.01, 10.0):
        res = entropic_ot(w, wp, np.full((3, 4), 7.3), eps=eps)
        assert np.array_equal(res.coupling.plan, np.outer(w, wp))
        assert res.converged and res.cost == pytest.approx(7.3, rel=1e-15)
    one = uniform_histogram(1)
    row = entropic_ot(one, wp, rng.random((1, 4)), eps=0.1)
    assert np.array_equal(row.coupling.plan, wp[None, :]) and row.converged
    col = entropic_ot(w, one, rng.random((3, 1)), eps=0.1)
    assert np.array_equal(col.coupling.plan, w[:, None]) and col.converged
    big = 1e8 * rng.random((6, 5))
    w6, w5 = _random_weights(rng, 6), _random_weights(rng, 5)
    for eps in (1e7, 1e5):
        res = entropic_ot(w6, w5, big, eps=eps)
        assert res.converged and np.all(np.isfinite(res.coupling.plan))
        ref = sinkhorn(w6, w5, big, eps=eps, max_iter=100000, tol=1e-12)
        assert ref.converged
        np.testing.assert_allclose(res.coupling.plan, ref.coupling.plan, atol=1e-10, rtol=0)


def test_entropic_ot_rejects_bad_eps_and_max_iter():
    u = uniform_histogram(2)
    for eps in (0.0, -1.0):
        with pytest.raises(DomainError):
            entropic_ot(u, u, np.eye(2), eps=eps)
    with pytest.raises(DomainError):
        entropic_ot(u, u, np.eye(2), eps=1.0, max_iter=0)


def test_entropic_ot_rejects_warm_potentials_of_the_wrong_length():
    w, wp = uniform_histogram(4), uniform_histogram(3)
    with pytest.raises(DimensionError):
        entropic_ot(w, wp, np.ones((4, 3)), eps=0.1, init_potentials=(np.zeros(4), np.zeros(1)))
    with pytest.raises(DimensionError):
        entropic_ot(w, wp, np.ones((4, 3)), eps=0.1, init_potentials=(np.zeros(3), np.zeros(4)))



@pytest.mark.parametrize("solver", [sinkhorn, entropic_ot])
@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_entropic_solvers_reject_non_finite_or_non_positive_eps(solver, eps):
    w = uniform_histogram(3)
    C = np.random.default_rng(95).random((3, 3))
    name = solver.__name__
    with pytest.raises(DomainError, match=f"^{name} needs eps > 0, got {eps}$"):
        solver(w, w, C, eps=eps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("solver", ["sinkhorn", "entropic_ot", "entropic_ot_stack", "exact_ot"])
def test_solvers_reject_non_finite_warm_potentials(solver, side, bad):
    """A NaN or infinite warm potential on either side is named and rejected
    before any solve, also on a side the solver would recompute first, and
    also by ``exact_ot``'s full LP and Hungarian paths, which ignore them."""
    w, wp = _random_weights(np.random.default_rng(96), 4), uniform_histogram(3)
    C = np.random.default_rng(97).random((4, 3))
    warm = [np.zeros(4), np.zeros(3)]
    warm[side] = warm[side].copy()
    warm[side][1] = bad
    call = {"sinkhorn": lambda: sinkhorn(w, wp, C, 0.1, init_potentials=tuple(warm)),
            "entropic_ot": lambda: entropic_ot(w, wp, C, 0.1, init_potentials=tuple(warm)),
            "entropic_ot_stack": lambda: ot.entropic_ot_stack(
                w, wp, np.stack([C, C]), 0.1, init_potentials=[(np.zeros(4), np.zeros(3)),
                                                               tuple(warm)]),
            "exact_ot": lambda: exact_ot(w, wp, C, tuple(warm))}[solver]
    with pytest.raises(DomainError, match="^warm potentials: entries must be finite"):
        call()
    if solver == "exact_ot":
        u = uniform_histogram(3)
        with pytest.raises(DomainError, match="^warm potentials"):
            exact_ot(u, u, C[:3], (warm[0][:3], warm[1]))


@pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf])
@pytest.mark.parametrize("solver", ["sinkhorn", "entropic_ot", "entropic_ot_stack"])
def test_entropic_solvers_reject_nan_or_negative_tol(solver, tol):
    """A NaN tolerance would stop the solve after no Newton step at the first
    continuation stage's eps, and a negative one would run it to its cap."""
    w = uniform_histogram(3)
    C = np.random.default_rng(98).random((3, 3))
    call = {"sinkhorn": lambda: sinkhorn(w, w, C, 0.1, tol=tol),
            "entropic_ot": lambda: entropic_ot(w, w, C, 0.1, tol=tol),
            "entropic_ot_stack": lambda: ot.entropic_ot_stack(w, w, C[None], 0.1, tol=tol)}
    with pytest.raises(DomainError, match=f"^{solver} needs tol >= 0, got {tol}$"):
        call[solver]()


def test_entropic_ot_stack_names_itself_in_its_errors():
    w = uniform_histogram(3)
    C = np.random.default_rng(99).random((2, 3, 3))
    with pytest.raises(DomainError, match="^entropic_ot_stack needs eps > 0"):
        ot.entropic_ot_stack(w, w, C, 0.0)
    with pytest.raises(DomainError, match="^entropic_ot_stack needs max_iter >= 1"):
        ot.entropic_ot_stack(w, w, C, 0.1, max_iter=0)


def test_entropic_ot_stack_rejects_bad_stacks_and_warm_counts():
    w, wp = uniform_histogram(4), uniform_histogram(3)
    C = np.random.default_rng(100).random((2, 4, 3))
    for bad in (C[:, :3], C.transpose(0, 2, 1), C[:0], C[0]):
        with pytest.raises(DimensionError, match="^cost stack shape"):
            ot.entropic_ot_stack(w, wp, bad, 0.1)
    for value in (np.nan, np.inf):
        bad = C.copy()
        bad[1, 2, 0] = value
        with pytest.raises(DomainError, match="^cost: entries must be finite"):
            ot.entropic_ot_stack(w, wp, bad, 0.1)
    warm = [(np.zeros(4), np.zeros(3))] * 3
    with pytest.raises(DimensionError, match="^3 warm potential pairs for 2 costs$"):
        ot.entropic_ot_stack(w, wp, C, 0.1, init_potentials=warm)


def test_line_search_floor_stops_some_costs_of_a_stack(monkeypatch):
    """With the step floor above 1/2, every cost whose full Newton step is
    rejected bottoms out, while others of the same stack still step, so the
    floor is reached both with the whole stack going and with part of it
    stopped. Each result is bitwise its cost solved alone under that floor."""
    monkeypatch.setattr(ot, "_MIN_STEP", 0.75)
    rng = np.random.default_rng(0)
    w, wp = _random_weights(rng, 9), _random_weights(rng, 6)
    C = rng.random((4, 9, 6)) * np.array([1.0, 3.0, 10.0, 0.1])[:, None, None]
    results = ot.entropic_ot_stack(w, wp, C, 0.01)
    assert {res.converged for res in results} == {True, False}
    for c, res in zip(C, results):
        alone = entropic_ot(w, wp, c, 0.01)
        assert res.coupling.plan.tobytes() == alone.coupling.plan.tobytes()
        assert [p.tobytes() for p in res.potentials] == [p.tobytes() for p in alone.potentials]
        assert (res.iterations, res.converged, res.cost, res.marginal_error) == (
            alone.iterations, alone.converged, alone.cost, alone.marginal_error)


def test_exact_ot_all_zero_cost_above_the_shortlist_threshold():
    rng = np.random.default_rng(101)
    w, wp = _random_weights(rng, 60), _random_weights(rng, 55)
    res = exact_ot(w, wp, np.zeros((60, 55)))
    assert validate_coupling(res.coupling.plan, w, wp, 1e-9)
    assert res.certificate == 0.0
    assert res.cost == 0.0


@pytest.mark.parametrize("shape", [(9, 6), (4, 11)])
def test_entropic_ot_stack_results_own_their_plans(shape):
    """No result of a stack is a view of the stack, so keeping one result
    keeps no other cost's plan alive, and writing into one plan leaves the
    others unchanged."""
    rng = np.random.default_rng(102)
    w, wp = _random_weights(rng, shape[0]), _random_weights(rng, shape[1])
    results = ot.entropic_ot_stack(w, wp, rng.random((3, *shape)), 0.05)
    before = [res.coupling.plan.copy() for res in results]
    for res in results:
        plan = res.coupling.plan
        assert plan.base is None or plan.base.size == plan.size
    results[1].coupling.plan[...] = -1.0
    for r in (0, 2):
        assert results[r].coupling.plan.tobytes() == before[r].tobytes()


def test_ot_result_builds_its_coupling_once_on_first_read():
    rng = np.random.default_rng(31)
    w, wp = uniform_histogram(4), np.array([0.2, 0.3, 0.5])
    for res in (exact_ot(w, wp, rng.random((4, 3))), entropic_ot(w, wp, rng.random((4, 3)), 0.1),
                ot.entropic_ot_stack(w, wp, rng.random((2, 4, 3)), 0.1)[1]):
        assert "coupling" not in vars(res)
        first = res.coupling
        assert res.coupling is first
        assert first.plan is res.plan
        expected = Coupling(res.plan, w, wp)
        assert np.array_equal(first.plan, expected.plan)
        assert np.array_equal(first.row_marginal, expected.row_marginal)
        assert np.array_equal(first.col_marginal, expected.col_marginal)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solve", ["sinkhorn", "entropic_ot", "entropic_ot_stack"])
def test_entropic_solvers_reject_a_non_finite_plan(solve):
    """An eps far below the cost's rounding overflows the plan; the result
    refuses it with the text a Coupling gives."""
    C = 1e10 * np.random.default_rng(0).random((4, 3))
    w, wp = uniform_histogram(4), uniform_histogram(3)
    call = {"sinkhorn": lambda: sinkhorn(w, wp, C, 1e-300),
            "entropic_ot": lambda: entropic_ot(w, wp, C, 1e-300),
            "entropic_ot_stack": lambda: ot.entropic_ot_stack(w, wp, C[None], 1e-300)}[solve]
    with pytest.raises(DomainError,
                       match=r"^coupling plan: entries must be finite \(no NaN/Inf\)$"):
        call()


@pytest.mark.parametrize("solve", ["sinkhorn", "entropic_ot", "entropic_ot_stack"])
@pytest.mark.parametrize("max_iter", [2.5, 3.0, "3"])
def test_entropic_solvers_reject_a_non_integer_iteration_cap(solve, max_iter):
    C = np.random.default_rng(1).random((4, 3))
    w, wp = uniform_histogram(4), uniform_histogram(3)
    call = {"sinkhorn": lambda: sinkhorn(w, wp, C, 0.1, max_iter=max_iter),
            "entropic_ot": lambda: entropic_ot(w, wp, C, 0.1, max_iter=max_iter),
            "entropic_ot_stack": lambda: ot.entropic_ot_stack(w, wp, C[None], 0.1,
                                                              max_iter=max_iter)}[solve]
    with pytest.raises(DomainError, match="^max_iter must be an integer, got "):
        call()


def test_entropic_solvers_take_a_numpy_integer_iteration_cap():
    C = np.random.default_rng(2).random((4, 3))
    w, wp = uniform_histogram(4), uniform_histogram(3)
    for solve in (sinkhorn, entropic_ot):
        got, expected = solve(w, wp, C, 0.1, max_iter=np.int64(7)), solve(w, wp, C, 0.1, max_iter=7)
        assert got.plan.tobytes() == expected.plan.tobytes()
        assert got.iterations == expected.iterations
    got = ot.entropic_ot_stack(w, wp, C[None], 0.1, max_iter=np.int32(7))[0]
    assert got.plan.tobytes() == entropic_ot(w, wp, C, 0.1, max_iter=7).plan.tobytes()
