"""Hypothesis property tests on generated inputs, with bounded example counts
so the suite stays fast; derandomized, so every run draws the same inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from coopt import (
    LOSSES,
    PreparedContraction,
    Side,
    contract,
    contract_naive,
    entropic_ot,
    sinkhorn,
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
