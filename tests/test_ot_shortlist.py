"""Certified exact transport: the shortlist LP above the size threshold, the
certificate on every LP result, and the repair of uncertified full LPs."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from coopt import (
    LOSSES,
    SQUARED_EUCLIDEAN,
    Side,
    contract,
    exact_ot,
    uniform_histogram,
    validate_coupling,
)
from coopt import ot


def _random_weights(rng, n):
    w = rng.uniform(0.1, 1, n)
    return w / w.sum()


def _reference_lp(w, wp, C):
    """The full transport LP by ``linprog``'s dual simplex: plan, iterations,
    and the minimum reduced cost ``C - u - v`` over all cells relative to
    ``max|C|``, from ``linprog``'s own duals."""
    n, m = C.shape
    rows = sp.kron(sp.eye(n), np.ones((1, m)))
    cols = sp.kron(np.ones((1, n)), sp.eye(m)).tocsr()[:-1]
    res = linprog(C.ravel(), A_eq=sp.vstack([rows, cols]).tocsc(),
                  b_eq=np.concatenate([w, wp[:-1]]), bounds=(0, None), method="highs-ds",
                  options={"presolve": False})
    y = res.eqlin.marginals
    red = C - y[:n, None]
    red[:, :-1] -= y[n:]
    top = np.abs(C).max() or 1.0
    return np.maximum(res.x.reshape(n, m), 0.0), res.nit, red.min() / top


def _product_start_feature_cost():
    """The first feature-side LP of an exact COOT solve from the product
    coupling, on a 200x50 vs 150x40 pair: a highly degenerate 50x40 cost on
    which HiGHS's absolute 1e-7 dual tolerance stops short of the optimum."""
    rng = np.random.default_rng([1, 0])
    X, Y = rng.random((200, 50)), rng.random((150, 40))
    ps = np.outer(uniform_histogram(200), uniform_histogram(150))
    return contract(X, Y, ps, SQUARED_EUCLIDEAN, Side.FEATURE)


def test_lp_certificate_is_linprogs_minimum_reduced_cost():
    """Below the threshold the certificate is what ``linprog``'s duals give
    for the same plan; a Hungarian result reports 0."""
    rng = np.random.default_rng(5)
    for n, m in [(1, 4), (4, 1), (3, 5), (20, 15), (50, 40)]:
        w, wp = _random_weights(rng, n), _random_weights(rng, m)
        for C in (rng.random((n, m)), rng.integers(0, 4, (n, m)).astype(float),
                  np.zeros((n, m)), -1e8 * rng.random((n, m))):
            res = exact_ot(w, wp, C)
            plan, _, certificate = _reference_lp(w, wp, C)
            assert np.array_equal(res.coupling.plan, plan)
            assert abs(res.certificate - certificate) <= 1e-13
            assert -1e-9 <= res.certificate <= 1e-13
    u = uniform_histogram(6)
    assert exact_ot(u, u, rng.random((6, 6))).certificate == 0.0


def test_uncertified_full_lp_is_repaired_and_the_next_cold_solve_is_linprogs():
    """The repair re-solves warm at the tight tolerance, on costs scaled so
    that the tolerance stays above HiGHS's floor, then puts the default
    back: a repeat call gives the same result, and the next LP on the same
    model is ``linprog``'s bit for bit."""
    w, wp = uniform_histogram(50), uniform_histogram(40)
    rng = np.random.default_rng(9)
    other = rng.random((50, 40))
    for scale in (1.0, 2.0**-20):
        C = scale * _product_start_feature_cost()
        plan, nit, certificate = _reference_lp(w, wp, C)
        assert certificate < -1e-9

        def run():
            return exact_ot(w, wp, C), exact_ot(w, wp, C), exact_ot(w, wp, other)

        with ThreadPoolExecutor(1) as pool:
            repaired, again, after = pool.submit(run).result(timeout=60)
        assert repaired.certificate >= -1e-9
        assert repaired.iterations > nit
        assert repaired.cost < float((C * plan).sum())
        assert validate_coupling(repaired.coupling.plan, w, wp, 1e-9)
        assert again.coupling.plan.tobytes() == repaired.coupling.plan.tobytes()
        assert again.iterations == repaired.iterations
        plan, nit, _ = _reference_lp(w, wp, other)
        assert np.array_equal(after.coupling.plan, plan)
        assert after.iterations == nit


def test_shortlist_lp_leaves_no_model_in_the_cache():
    rng = np.random.default_rng(11)

    def run():
        exact_ot(_random_weights(rng, 20), _random_weights(rng, 15), rng.random((20, 15)))
        exact_ot(_random_weights(rng, 200), _random_weights(rng, 150), rng.random((200, 150)))
        return [cols.size for _, cols in ot._models.cache.values()]

    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(run).result(timeout=60) == [300]


def test_shortlist_lp_on_threads_matches_serial_calls():
    rng = np.random.default_rng(13)
    instances = []
    for k, (n, m) in enumerate([(80, 60), (60, 80), (120, 30), (30, 120), (70, 70), (90, 45)]):
        w = uniform_histogram(n) if k == 4 else _random_weights(rng, n)
        C = rng.integers(0, 4, (n, m)).astype(float) if k % 2 else rng.random((n, m))
        instances.append((w, _random_weights(rng, m), C))
    serial = [exact_ot(*args) for args in instances]
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(lambda args: exact_ot(*args), instances))
    for a, b in zip(serial, threaded):
        assert a.coupling.plan.tobytes() == b.coupling.plan.tobytes()
        assert (a.iterations, a.certificate, a.cost) == (b.iterations, b.certificate, b.cost)


def test_shortlist_lp_prices_in_cells_far_from_its_first_list():
    """Every row's cheapest cells lie in the first six columns and every
    column's in the first six rows, so the cheapest cells alone cannot carry
    the other rows' mass: only the north-west staircase keeps the first LP
    feasible. The optimum away from that cross follows the anti-diagonal,
    so pricing must bring in cells that neither list holds."""
    rng = np.random.default_rng(17)
    n, m = 90, 70
    i, j = np.indices((n, m))
    C = 2.0 + np.abs(i / n + j / m - 1.0)
    C[:, :6] = 0.01 * rng.random((n, 6))
    C[:6, :] = 0.01 * rng.random((6, m))
    w, wp = _random_weights(rng, n), uniform_histogram(m)
    res = exact_ot(w, wp, C)
    plan, _, _ = _reference_lp(w, wp, C)
    full = float((C * plan).sum())
    assert res.certificate >= -1e-9
    assert validate_coupling(res.coupling.plan, w, wp, 1e-9)
    assert res.cost <= full + 1e-12 * abs(full)
    far = (i >= 6) & (j >= 6) & (np.abs(i / n - j / m) > 0.25)
    assert (res.coupling.plan[far] > 0).any()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(short=st.integers(2, 40), extra=st.integers(0, 30), tall=st.booleans(),
       uniform=st.booleans(),
       kind=st.sampled_from(["random", "integer", "constant", "zero", "1e8", "1e-6", "low-rank"]),
       seed=st.integers(0, 2**32 - 1))
def test_shortlist_lp_property_certified_and_no_dearer_than_full_lp(short, extra, tall, uniform,
                                                                    kind, seed):
    """Above the threshold, on both orientations, uniform and random weights
    and degenerate costs: feasible to 1e-9, a vertex, certified at -1e-9,
    and no dearer than the full LP within 1e-12 relative. Costs of rank 2, like the
    contractions exact COOT feeds it, take the most pricing rounds; costs at
    1e-6 scale need the power-of-two scaling of HiGHS's absolute tolerance."""
    long = max(short, ot._SHORTLIST_CELLS // short + 1) + extra
    n, m = (long, short) if tall else (short, long)
    rng = np.random.default_rng(seed)
    w, wp = ((uniform_histogram(n), uniform_histogram(m)) if uniform
             else (_random_weights(rng, n), _random_weights(rng, m)))
    C = {"random": lambda: rng.random((n, m)),
         "integer": lambda: rng.integers(0, 3, (n, m)).astype(float),
         "constant": lambda: np.full((n, m), rng.uniform(-2, 2)),
         "zero": lambda: np.zeros((n, m)),
         "1e8": lambda: 1e8 * rng.random((n, m)),
         "1e-6": lambda: 1e-6 * rng.random((n, m)),
         "low-rank": lambda: -rng.random((n, 2)) @ rng.random((2, m))}[kind]()
    res = exact_ot(w, wp, C)
    assert validate_coupling(res.coupling.plan, w, wp, 1e-9)
    assert np.count_nonzero(res.plan) <= n + m - 1  # a vertex: at most a basis is nonzero
    assert res.certificate >= -1e-9
    plan, _, _ = _reference_lp(w, wp, C)
    full = float((C * plan).sum())
    assert res.cost <= full + 1e-12 * abs(full)


def _assert_potentials_price_the_plan(res, w, wp, C):
    """The result's Kantorovich potentials ``(f, g)``: every reduced cost
    ``C - f - g`` at least ``-1e-9 max|C|``, ``g`` 0 on the last column, and
    the dual value ``<w, f> + <w', g>`` equal to the cost within ``1e-9
    max|C|``."""
    f, g = res.potentials
    assert f.shape == w.shape and g.shape == wp.shape and g[-1] == 0.0
    top = np.abs(C).max()
    assert (C - f[:, None] - g).min() >= -1e-9 * top
    assert abs(w @ f + wp @ g - res.cost) <= 1e-9 * top


_COSTS = ["random", "integer", "low-rank", "1e8", "1e-6"]


def _cost(kind, rng, n, m):
    return {"random": lambda: rng.random((n, m)),
            "integer": lambda: rng.integers(0, 3, (n, m)).astype(float),
            "low-rank": lambda: -rng.random((n, 2)) @ rng.random((2, m)),
            "1e8": lambda: 1e8 * rng.random((n, m)),
            "1e-6": lambda: 1e-6 * rng.random((n, m))}[kind]()


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(short=st.integers(2, 40), extra=st.integers(0, 10), tall=st.booleans(),
       uniform=st.booleans(), kind=st.sampled_from(_COSTS), seed=st.integers(0, 2**32 - 1))
def test_shortlist_lp_property_warm_starts_are_certified_and_as_cheap(short, extra, tall,
                                                                      uniform, kind, seed):
    """Above the threshold, a shortlist LP listed from warm potentials ends
    certified, feasible and at the cold call's cost within ``1e-9 max|C|``,
    whether the potentials come from a slightly perturbed cost, from an
    unrelated cost or are zero; every LP result's potentials price its plan."""
    long = max(short, ot._SHORTLIST_CELLS // short + 1) + extra
    n, m = (long, short) if tall else (short, long)
    rng = np.random.default_rng(seed)
    w, wp = ((uniform_histogram(n), uniform_histogram(m)) if uniform
             else (_random_weights(rng, n), _random_weights(rng, m)))
    C = _cost(kind, rng, n, m)
    top = np.abs(C).max()
    cold = exact_ot(w, wp, C)
    perturbed = exact_ot(w, wp, C + 1e-3 * top * rng.random((n, m)))
    unrelated = exact_ot(w, wp, _cost(kind, rng, n, m))
    _assert_potentials_price_the_plan(cold, w, wp, C)
    for warm in (perturbed.potentials, unrelated.potentials, (np.zeros(n), np.zeros(m))):
        res = exact_ot(w, wp, C, warm)
        assert res.certificate >= -1e-9
        assert validate_coupling(res.coupling.plan, w, wp, 1e-9)
        assert abs(res.cost - cold.cost) <= 1e-9 * top
        _assert_potentials_price_the_plan(res, w, wp, C)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), m=st.integers(1, 40), uniform=st.booleans(),
       kind=st.sampled_from(_COSTS), seed=st.integers(0, 2**32 - 1))
def test_full_lp_property_ignores_warm_potentials(n, m, uniform, kind, seed):
    """At or below the threshold, a warmed call is the cold call bit for bit,
    in plan and iterations, and its potentials price its plan; a Hungarian
    result (uniform square) carries none."""
    rng = np.random.default_rng(seed)
    w, wp = ((uniform_histogram(n), uniform_histogram(m)) if uniform
             else (_random_weights(rng, n), _random_weights(rng, m)))
    C = _cost(kind, rng, n, m)
    cold = exact_ot(w, wp, C)
    warm = exact_ot(w, wp, C, exact_ot(w, wp, C + rng.random((n, m))).potentials
                    or (rng.normal(size=n), rng.normal(size=m)))
    assert warm.coupling.plan.tobytes() == cold.coupling.plan.tobytes()
    assert (warm.iterations, warm.certificate) == (cold.iterations, cold.certificate)
    if ot._is_uniform_square(w, wp):
        assert cold.potentials is None and warm.potentials is None
    else:
        _assert_potentials_price_the_plan(cold, w, wp, C)
        assert [p.tobytes() for p in warm.potentials] == [p.tobytes() for p in cold.potentials]


def test_repaired_full_lp_potentials_are_in_the_units_of_the_cost():
    """The repair re-solves on costs scaled by a power of two; the potentials
    it returns are scaled back, so they price the plan in ``C``'s units."""
    w, wp = uniform_histogram(50), uniform_histogram(40)
    for scale in (1.0, 2.0**-20, 0.3):
        C = scale * _product_start_feature_cost()
        with ThreadPoolExecutor(1) as pool:
            res = pool.submit(exact_ot, w, wp, C).result(timeout=60)
        assert _reference_lp(w, wp, C)[2] < -1e-9 <= res.certificate
        _assert_potentials_price_the_plan(res, w, wp, C)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(uniform=st.booleans(), kind=st.sampled_from(["sq", "abs", "kl", "integer"]),
       seed=st.integers(0, 2**32 - 1))
def test_full_lp_property_certified_on_degenerate_costs(uniform, kind, seed):
    """Every full LP (at most 3,000 cells) is certified, feasible at 1e-9,
    no dearer than the product coupling and repeatable bit for bit, on
    degenerate costs: the first feature-side cost of an exact COOT solve
    from the product coupling, for each loss, or integer ties. The more
    sample rows, the closer the costs tie and the more full LPs miss the
    certificate and are repaired. Uniform square shapes go to the Hungarian
    solver and are left out; the unfactored ``abs`` loss keeps to 40 rows.
    Shapes and row counts are drawn from the seed, uniformly: Hypothesis's
    own integers lean to the small shapes that never need a repair."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 61))
    m = min(int(rng.integers(2, 61)), ot._SHORTLIST_CELLS // n)
    if uniform and n == m:
        m -= 1
    w, wp = ((uniform_histogram(n), uniform_histogram(m)) if uniform
             else (_random_weights(rng, n), _random_weights(rng, m)))
    if kind == "integer":
        C = rng.integers(0, 3, (n, m)).astype(float)
    else:
        r, r2 = rng.integers(2, 41 if kind == "abs" else 251, 2)
        X, Y = rng.random((r, n)), rng.random((r2, m)) + 1e-3
        start = np.outer(uniform_histogram(r), uniform_histogram(r2))
        C = contract(X, Y, start, LOSSES[kind], Side.FEATURE)
    res = exact_ot(w, wp, C)
    assert res.converged and res.certificate >= -1e-9
    assert validate_coupling(res.coupling.plan, w, wp, 1e-9)
    bound = float((C * np.outer(w, wp)).sum())
    assert res.cost <= bound + 1e-12 * abs(bound)
    again = exact_ot(w, wp, C)
    assert again.plan.tobytes() == res.plan.tobytes()
    assert (again.iterations, again.certificate) == (res.iterations, res.certificate)
    assert [p.tobytes() for p in again.potentials] == [p.tobytes() for p in res.potentials]
