"""Hypothesis property tests on generated inputs, with bounded example counts
so the suite stays fast; derandomized, so every run draws the same inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopt import (
    LOSSES,
    CootProblem,
    PreparedContraction,
    Side,
    bap_oracle,
    contract,
    contract_naive,
    coot_objective,
    entropic_ot,
    exact_ot,
    gw_coot_equivalence_check,
    random_coupling,
    sinkhorn,
    solve_coot,
    uniform_histogram,
    validate_coupling,
)


def _random_weights(rng, n):
    w = rng.uniform(0.1, 1, n)
    return w / w.sum()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       scale_exp=st.floats(-3, 8), ratio_exp=st.floats(-1, 3.5))
def test_entropic_ot_property_feasible_and_matches_sinkhorn(n, m, seed, scale_exp, ratio_exp):
    """Feasible at ``tol`` on every draw, and the plan Sinkhorn reaches wherever
    Sinkhorn converges within its cap. The tight ``tol`` leaves room for the
    1e-10 agreement bound."""
    rng = np.random.default_rng(seed)
    w, wp = _random_weights(rng, n), _random_weights(rng, m)
    scale = 10.0**scale_exp
    C = scale * rng.random((n, m))
    eps = scale / 10.0**ratio_exp
    res = entropic_ot(w, wp, C, eps=eps, tol=1e-12)
    assert res.converged and res.marginal_error <= 1e-12
    assert validate_coupling(res.coupling.plan, w, wp, 1e-12)
    ref = sinkhorn(w, wp, C, eps=eps, max_iter=2000, tol=1e-12)
    if ref.converged:
        np.testing.assert_allclose(res.coupling.plan, ref.coupling.plan, atol=1e-10, rtol=0)
        assert abs(res.cost - ref.cost) <= 1e-10 * max(abs(ref.cost), scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(*[st.integers(1, 12)] * 4), seed=st.integers(0, 2**32 - 1),
       loss_name=st.sampled_from(sorted(LOSSES)), floor_exp=st.floats(-8, 0))
def test_prepared_contraction_property_equals_contract_and_naive(shape, seed, loss_name,
                                                                 floor_exp):
    """Bitwise :func:`contract` and within 1e-10 of the quadruple sum, on both
    sides, each side contracted twice so the second call reuses the prepared
    factors. ``X'`` entries reach down to ``10**floor_exp``, near the edge of
    the KL domain."""
    n, d, n2, d2 = shape
    rng = np.random.default_rng(seed)
    loss = LOSSES[loss_name]
    X = rng.random((n, d))
    X2 = rng.random((n2, d2)) + 10.0**floor_exp
    prepared = PreparedContraction(X, X2, loss)
    sides = [(Side.FEATURE, (n, n2), (d, d2)), (Side.SAMPLE, (d, d2), (n, n2))]
    for side, plan_shape, cost_shape in sides * 2:
        pi = rng.random(plan_shape)
        got = prepared.contract(pi, side)
        assert got.shape == cost_shape
        assert got.tobytes() == contract(X, X2, pi, loss, side).tobytes()
        naive = contract_naive(X, X2, pi, loss, side).matrix
        np.testing.assert_allclose(got, naive, atol=1e-10, rtol=0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), m=st.integers(1, 12), line=st.sampled_from([None, "row", "col"]),
       uniform=st.booleans(), kind=st.sampled_from(["random", "constant", "1e8", "integer"]),
       seed=st.integers(0, 2**32 - 1))
def test_exact_ot_property_feasible_and_below_other_plans(n, m, line, uniform, kind, seed):
    """Feasible to 1e-9, and no dearer than the product coupling or a random
    feasible plan, within 1e-12 relative, on generated shapes (one row or
    column forced on a third of the draws), weights and degenerate costs."""
    n, m = (1 if line == "row" else n), (1 if line == "col" else m)
    rng = np.random.default_rng(seed)
    w, wp = ((uniform_histogram(n), uniform_histogram(m)) if uniform
             else (_random_weights(rng, n), _random_weights(rng, m)))
    C = {"random": lambda: rng.random((n, m)),
         "constant": lambda: np.full((n, m), rng.uniform(-2, 2)),
         "1e8": lambda: 1e8 * rng.random((n, m)),
         "integer": lambda: rng.integers(0, 3, (n, m)).astype(float)}[kind]()
    res = exact_ot(w, wp, C)
    assert validate_coupling(res.coupling.plan, w, wp, 1e-9)
    for other in (np.outer(w, wp), random_coupling(w, wp, rng)):
        bound = float((C * other).sum())
        assert res.cost <= bound + 1e-12 * abs(bound)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), d=st.integers(1, 4),
       kind=st.sampled_from(["random", "constant", "1e8", "integer"]),
       loss_name=st.sampled_from(["sq", "abs"]), eps=st.sampled_from([0.0, 0.05]),
       restarts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_solve_coot_property_reports_its_cost_and_respects_the_oracle(n, d, kind, loss_name,
                                                                      eps, restarts, seed):
    """The reported cost is the objective of the returned couplings within
    1e-12 relative. Whenever the solve reports ``converged``, both couplings
    are feasible at 1e-9 and the cost is no lower than the exhaustive
    optimum, on uniform square instances up to 4x4 with random, constant,
    tied (integer) and 1e8-scaled data."""
    rng = np.random.default_rng(seed)
    data = {"random": lambda: rng.random((n, d)),
            "constant": lambda: np.full((n, d), rng.uniform(-2, 2)),
            "1e8": lambda: 1e8 * rng.random((n, d)),
            "integer": lambda: rng.integers(0, 3, (n, d)).astype(float)}[kind]
    X, X2 = data(), data()
    loss = LOSSES[loss_name]
    sol = solve_coot(CootProblem(X, X2, loss=loss, eps_samples=eps, eps_features=eps),
                     restarts=restarts, seed=seed)
    ps, pv = sol.sample_coupling.plan, sol.feature_coupling.plan
    objective = coot_objective(X, X2, ps, pv, loss)
    assert abs(sol.cost - objective) <= 1e-12 * abs(objective)
    if sol.converged:
        assert sol.sample_coupling.feasible(1e-9) and sol.feature_coupling.feasible(1e-9)
        oracle = bap_oracle(X, X2, loss).cost
        assert sol.cost >= oracle - 1e-12 * max(1.0, abs(oracle))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), d=st.integers(1, 3), d2=st.integers(1, 3),
       scale_exp=st.floats(-2, 3), repeat=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gw_coot_equivalence_property_holds_at_every_scale(n, d, d2, scale_exp, repeat, seed):
    """The paper's relation between COOT and GW on squared-Euclidean
    matrices of generated clouds of up to 4 points, at coordinate scales
    1e-2 to 1e3: COOT <= GW, the two are equal, and the tied pair of the
    optimal permutation attains COOT. On some draws a point repeats."""
    rng = np.random.default_rng(seed)
    scale = 10.0**scale_exp
    P, Q = scale * rng.random((n, d)), scale * rng.random((n, d2))
    if repeat and n > 1:
        P[-1] = P[0]
    report = gw_coot_equivalence_check(P, Q)
    assert report["coot_leq_gw"], report
    assert report["values_equal"], report
    assert report["tied_pair_attains_coot"], report


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(*[st.integers(1, 7)] * 4), loss_name=st.sampled_from(["sq", "abs"]),
       weighted=st.booleans(), restarts=st.integers(1, 3), scale_exp=st.floats(-2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_exact_solve_property_traces_never_increase(shape, loss_name, weighted, restarts,
                                                    scale_exp, seed):
    """With exact inner solves each half-step can only lower the objective, so
    the returned trace never rises by more than the LP certificate's 1e-9
    relative slack, on generated shapes (one row or column included),
    weights, losses and data scales."""
    n, d, n2, d2 = shape
    rng = np.random.default_rng(seed)
    scale = 10.0**scale_exp
    X, X2 = scale * rng.random((n, d)), scale * rng.random((n2, d2))
    weights = {}
    if weighted:
        weights = dict(w=_random_weights(rng, n), wp=_random_weights(rng, n2),
                       v=_random_weights(rng, d), vp=_random_weights(rng, d2))
    sol = solve_coot(CootProblem(X, X2, loss=LOSSES[loss_name], **weights),
                     restarts=restarts, seed=seed)
    trace = sol.objective_trace
    slack = 1e-9 * max(abs(t) for t in trace)
    assert all(later <= earlier + slack for earlier, later in zip(trace, trace[1:]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 4),
       eps=st.tuples(*[st.sampled_from([0.0, 0.05])] * 2),
       weighted=st.booleans(), loss_name=st.sampled_from(["sq", "abs"]),
       restarts=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_converged_solve_property_returns_feasible_couplings(shape, eps, weighted, loss_name,
                                                             restarts, seed):
    """Whenever a solve reports ``converged``, each returned coupling is
    nonnegative and on its marginals in L1 within its side's stated
    tolerance: 1e-9 for an exact side, ``sinkhorn_tol`` for an entropic
    one, on generated non-square shapes, weights and mixed sides."""
    n, d, n2, d2 = shape
    rng = np.random.default_rng(seed)
    X, X2 = rng.random((n, d)), rng.random((n2, d2))
    weights = {}
    if weighted:
        weights = dict(w=_random_weights(rng, n), wp=_random_weights(rng, n2),
                       v=_random_weights(rng, d), vp=_random_weights(rng, d2))
    problem = CootProblem(X, X2, loss=LOSSES[loss_name], eps_samples=eps[0],
                          eps_features=eps[1], **weights)
    sol = solve_coot(problem, restarts=restarts, seed=seed)
    if sol.converged:
        for coupling, side_eps in ((sol.sample_coupling, eps[0]), (sol.feature_coupling, eps[1])):
            tol = problem.sinkhorn_tol if side_eps > 0 else 1e-9
            assert coupling.plan.min() >= 0
            assert coupling.marginal_error() <= tol


# (loss, eps) of the swap and permutation properties; exact absolute-loss
# solves fail them and are pinned by the xfail test that follows
_REORIENTED_CASES = [("sq", 0.0), ("sq", 0.05), ("abs", 0.05)]


def _one_start(X, X2, loss_name, eps):
    problem = CootProblem(X, X2, loss=LOSSES[loss_name], eps_samples=eps, eps_features=eps)
    return solve_coot(problem, restarts=1)


def _assert_reoriented(sol, other, ps, pv, loss_name, eps):
    """``other`` solved a reoriented problem, and ``ps``, ``pv`` are its
    couplings mapped back onto ``sol``'s. The costs agree within 1e-12
    relative (exact) or 1e-9 (entropic). With squared loss, exact solves and
    no one-entry side the plans agree within 1e-12 too; elsewhere tied
    optima let equal costs come with different plans."""
    rtol = 1e-12 if eps == 0 else 1e-9
    assert abs(other.cost - sol.cost) <= rtol * abs(sol.cost)
    if loss_name == "sq" and eps == 0 and min(ps.shape + pv.shape) >= 2:
        np.testing.assert_allclose(ps, sol.sample_coupling.plan, atol=1e-12, rtol=0)
        np.testing.assert_allclose(pv, sol.feature_coupling.plan, atol=1e-12, rtol=0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 4), case=st.sampled_from(_REORIENTED_CASES),
       seed=st.integers(0, 2**32 - 1))
def test_swapping_the_inputs_property_transposes_both_couplings(shape, case, seed):
    """The objective is symmetric in X and X' for squared and absolute loss,
    so one start solved on (X', X) gives the transposed couplings and the
    same cost, on generated non-square shapes (one-entry sides included)."""
    n, d, n2, d2 = shape
    rng = np.random.default_rng(seed)
    X, X2 = rng.random((n, d)), rng.random((n2, d2))
    sol, swapped = _one_start(X, X2, *case), _one_start(X2, X, *case)
    _assert_reoriented(sol, swapped, swapped.sample_coupling.plan.T,
                       swapped.feature_coupling.plan.T, *case)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 4), case=st.sampled_from(_REORIENTED_CASES),
       seed=st.integers(0, 2**32 - 1))
def test_permuting_x2_property_permutes_the_couplings(shape, case, seed):
    """Permuting the rows and columns of X' permutes the columns of the
    sample and feature couplings the same way and keeps the cost."""
    n, d, n2, d2 = shape
    rng = np.random.default_rng(seed)
    X, X2 = rng.random((n, d)), rng.random((n2, d2))
    rows, cols = rng.permutation(n2), rng.permutation(d2)
    sol, permuted = _one_start(X, X2, *case), _one_start(X, X2[rows][:, cols], *case)
    _assert_reoriented(sol, permuted, permuted.sample_coupling.plan[:, np.argsort(rows)],
                       permuted.feature_coupling.plan[:, np.argsort(cols)], *case)


@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: an exact absolute-loss solve "
                   "depends on the orientation of its inputs")
@pytest.mark.parametrize("reorient", ["swap", "reverse"])
@pytest.mark.parametrize("seed", [333, 1253])
def test_exact_absolute_loss_solve_keeps_its_cost_when_reoriented(seed, reorient):
    """The first feature LP of these instances has tied optima; the swapped
    (or reversed) problem picks another of them, and the alternation goes on
    to a partial optimum 6-11% apart."""
    rng = np.random.default_rng(seed)
    n, d, n2, d2 = rng.integers(1, 7, 4)
    X, X2 = rng.random((n, d)), rng.random((n2, d2))
    sol = _one_start(X, X2, "abs", 0.0)
    if reorient == "swap":
        other = _one_start(X2, X, "abs", 0.0)
        ps, pv = other.sample_coupling.plan.T, other.feature_coupling.plan.T
    else:
        other = _one_start(X, X2[::-1, ::-1], "abs", 0.0)
        ps, pv = other.sample_coupling.plan[:, ::-1], other.feature_coupling.plan[:, ::-1]
    _assert_reoriented(sol, other, ps, pv, "abs", 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(*[st.integers(2, 6)] * 4), line=st.integers(0, 3),
       loss_name=st.sampled_from(sorted(LOSSES)), eps=st.sampled_from([0.0, 0.1]),
       floor_exp=st.floats(-300, 0), restarts=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_degenerate_inputs_property_report_their_cost_and_feasible_couplings(
        shape, line, loss_name, eps, floor_exp, restarts, seed):
    """One of the four sizes is 1 (one row or one column) against a wider
    side, and KL data spread down to ``10**floor_exp``, as far as 1e-300,
    exact and at eps 0.1: the reported cost is the recomputed objective
    within 1e-12 relative, and a converged solve returns nonnegative
    couplings on their marginals within 1e-9 in L1."""
    dims = list(shape)
    dims[line] = 1
    n, d, n2, d2 = dims
    rng = np.random.default_rng(seed)
    if loss_name == "kl":
        X, X2 = (10.0 ** rng.uniform(floor_exp, 0, size) for size in ((n, d), (n2, d2)))
    else:
        X, X2 = rng.random((n, d)), rng.random((n2, d2))
    loss = LOSSES[loss_name]
    problem = CootProblem(X, X2, loss=loss, eps_samples=eps, eps_features=eps)
    sol = solve_coot(problem, restarts=restarts, seed=seed)
    ps, pv = sol.sample_coupling.plan, sol.feature_coupling.plan
    objective = coot_objective(X, X2, ps, pv, loss)
    assert abs(sol.cost - objective) <= 1e-12 * abs(objective)
    if sol.converged:
        tol = problem.sinkhorn_tol if eps > 0 else 1e-9
        for coupling in (sol.sample_coupling, sol.feature_coupling):
            assert coupling.plan.min() >= 0
            assert coupling.marginal_error() <= tol
