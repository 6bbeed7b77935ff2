"""Unit tests for the naive and factored cost contractions."""

import time

import numpy as np
import pytest

from coopt import (
    ABSOLUTE,
    DimensionError,
    DomainError,
    KULLBACK_LEIBLER,
    SQUARED_EUCLIDEAN,
    PreparedContraction,
    Side,
    UnsupportedLossError,
    contract,
    contract_factored,
    contract_naive,
    coot_objective,
    uniform_histogram,
)
from coopt import tensorcost


def quadruple_loop(X, X2, pi, loss, side):
    """Independent reference implementation with explicit Python loops."""
    n, d = X.shape
    n2, d2 = X2.shape
    if side is Side.FEATURE:
        out = np.zeros((d, d2))
        for k in range(d):
            for l in range(d2):
                for i in range(n):
                    for j in range(n2):
                        out[k, l] += float(loss.pair(X[i, k], X2[j, l])) * pi[i, j]
        return out
    out = np.zeros((n, n2))
    for i in range(n):
        for j in range(n2):
            for k in range(d):
                for l in range(d2):
                    out[i, j] += float(loss.pair(X[i, k], X2[j, l])) * pi[k, l]
    return out


def product_couplings(n, d, n2, d2):
    ps = np.outer(uniform_histogram(n), uniform_histogram(n2))
    pv = np.outer(uniform_histogram(d), uniform_histogram(d2))
    return ps, pv


def test_contract_naive_zero_matrices():
    ps, _ = product_couplings(3, 2, 4, 5)
    out = contract_naive(np.zeros((3, 2)), np.zeros((4, 5)), ps, SQUARED_EUCLIDEAN, Side.FEATURE)
    np.testing.assert_array_equal(out.matrix, np.zeros((2, 5)))


def test_contract_naive_single_entry():
    out = contract_naive([[2.0]], [[5.0]], [[1.0]], SQUARED_EUCLIDEAN, Side.FEATURE)
    assert out.matrix.tolist() == [[9.0]]


def test_contract_naive_matches_quadruple_loop():
    rng = np.random.default_rng(31)
    X = rng.random((3, 4))
    X2 = rng.random((2, 3))
    ps, pv = product_couplings(3, 4, 2, 3)
    for side, pi in ((Side.FEATURE, ps), (Side.SAMPLE, pv)):
        got = contract_naive(X, X2, pi, SQUARED_EUCLIDEAN, side).matrix
        want = quadruple_loop(X, X2, pi, SQUARED_EUCLIDEAN, side)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_factored_equals_naive_on_seeded_instances():
    rng = np.random.default_rng(32)
    for loss in (SQUARED_EUCLIDEAN, KULLBACK_LEIBLER):
        for _ in range(10):
            n, d, n2, d2 = rng.integers(2, 7, 4)
            X = rng.random((n, d)) + (0.05 if loss is KULLBACK_LEIBLER else 0.0)
            X2 = rng.random((n2, d2)) + (0.05 if loss is KULLBACK_LEIBLER else 0.0)
            ps, pv = product_couplings(n, d, n2, d2)
            for side, pi in ((Side.FEATURE, ps), (Side.SAMPLE, pv)):
                fast = contract_factored(X, X2, pi, loss, side).matrix
                ref = contract_naive(X, X2, pi, loss, side).matrix
                np.testing.assert_allclose(fast, ref, atol=1e-10, rtol=0)


def test_factored_squared_euclidean_closed_form():
    """Feature-side matrix equals the rank-one-plus-product expansion."""
    rng = np.random.default_rng(33)
    X = rng.random((5, 3))
    X2 = rng.random((4, 2))
    ps, _ = product_couplings(5, 3, 4, 2)
    w = ps.sum(axis=1)
    wp = ps.sum(axis=0)
    ones_d2 = np.ones(2)
    ones_d = np.ones(3)
    closed = (
        np.outer((X * X).T @ w, ones_d2)
        + np.outer(ones_d, wp @ (X2 * X2))
        - 2.0 * X.T @ ps @ X2
    )
    got = contract_factored(X, X2, ps, SQUARED_EUCLIDEAN, Side.FEATURE).matrix
    naive = contract_naive(X, X2, ps, SQUARED_EUCLIDEAN, Side.FEATURE).matrix
    np.testing.assert_allclose(got, closed, atol=1e-12, rtol=0)
    np.testing.assert_allclose(naive, closed, atol=1e-10, rtol=0)


def test_factored_refuses_absolute_loss():
    ps, _ = product_couplings(2, 2, 2, 2)
    with pytest.raises(UnsupportedLossError):
        contract_factored(np.eye(2), np.eye(2), ps, ABSOLUTE, Side.FEATURE)


def test_kl_contraction_rejects_nonpositive_second_argument():
    ps, _ = product_couplings(2, 2, 2, 2)
    with pytest.raises(DomainError):
        contract_naive(np.ones((2, 2)), np.zeros((2, 2)), ps, KULLBACK_LEIBLER, Side.FEATURE)


def test_contracted_entries_stay_above_rounding_floor():
    rng = np.random.default_rng(34)
    for _ in range(20):
        X = rng.random((4, 3))
        X2 = rng.random((5, 2))
        ps, pv = product_couplings(4, 3, 5, 2)
        f = contract_factored(X, X2, ps, SQUARED_EUCLIDEAN, Side.FEATURE).matrix
        s = contract_factored(X, X2, pv, SQUARED_EUCLIDEAN, Side.SAMPLE).matrix
        assert f.min() >= -1e-10
        assert s.min() >= -1e-10


def test_objective_zero_on_identical_data_identity_couplings():
    rng = np.random.default_rng(35)
    X = rng.random((3, 4))
    ps = np.eye(3) / 3
    pv = np.eye(4) / 4
    assert abs(coot_objective(X, X, ps, pv, SQUARED_EUCLIDEAN)) <= 1e-12


def test_objective_zero_at_aligning_permutation():
    # X' is X with its rows swapped, so (row-swap, identity) aligns all
    # entries exactly; so does (identity, column-swap) by symmetry of X.
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    X2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    anti = np.array([[0.0, 0.5], [0.5, 0.0]])
    ident = np.eye(2) / 2
    assert coot_objective(X, X2, anti, ident, SQUARED_EUCLIDEAN) == 0.0
    assert coot_objective(X, X2, ident, anti, SQUARED_EUCLIDEAN) == 0.0


def test_objective_matches_quadruple_loop():
    rng = np.random.default_rng(36)
    X = rng.random((3, 3))
    X2 = rng.random((3, 3))
    ps, pv = product_couplings(3, 3, 3, 3)
    brute = sum(
        float(SQUARED_EUCLIDEAN.pair(X[i, k], X2[j, l])) * ps[i, j] * pv[k, l]
        for i in range(3)
        for j in range(3)
        for k in range(3)
        for l in range(3)
    )
    assert coot_objective(X, X2, ps, pv, SQUARED_EUCLIDEAN) == pytest.approx(brute, abs=1e-12)


def test_objective_contraction_order_symmetry():
    """Contracting the sample coupling first or second gives the same value."""
    from coopt.tensorcost import contract

    rng = np.random.default_rng(37)
    X = rng.random((4, 6))
    X2 = rng.random((5, 3))
    ps, pv = product_couplings(4, 6, 5, 3)
    feature_first = float(np.sum(contract(X, X2, ps, SQUARED_EUCLIDEAN, Side.FEATURE) * pv))
    sample_first = float(np.sum(contract(X, X2, pv, SQUARED_EUCLIDEAN, Side.SAMPLE) * ps))
    assert abs(feature_first - sample_first) <= 1e-10


def test_objective_transpose_symmetry():
    rng = np.random.default_rng(38)
    X = rng.random((4, 3))
    X2 = rng.random((5, 2))
    ps, pv = product_couplings(4, 3, 5, 2)
    forward = coot_objective(X, X2, ps, pv, SQUARED_EUCLIDEAN)
    backward = coot_objective(X2, X, ps.T, pv.T, SQUARED_EUCLIDEAN)
    assert abs(forward - backward) <= 1e-10


def test_product_coupling_contraction_is_expectation():
    """With product couplings, each entry is the mean loss under both marginals."""
    rng = np.random.default_rng(39)
    X = rng.random((3, 2))
    X2 = rng.random((4, 2))
    w = uniform_histogram(3)
    wp = uniform_histogram(4)
    got = contract_naive(X, X2, np.outer(w, wp), SQUARED_EUCLIDEAN, Side.FEATURE).matrix
    for k in range(2):
        for l in range(2):
            expect = sum(
                w[i] * wp[j] * (X[i, k] - X2[j, l]) ** 2 for i in range(3) for j in range(4)
            )
            assert got[k, l] == pytest.approx(expect, abs=1e-12)


def test_factored_path_is_faster_at_scale():
    """Informative wall-clock check on a 512x64 vs 512x64 instance."""
    rng = np.random.default_rng(40)
    X = rng.random((512, 64))
    X2 = rng.random((512, 64))
    pi = np.outer(uniform_histogram(512), uniform_histogram(512))
    start = time.perf_counter()
    fast = contract_factored(X, X2, pi, SQUARED_EUCLIDEAN, Side.FEATURE).matrix
    fast_time = time.perf_counter() - start
    start = time.perf_counter()
    ref = contract_naive(X, X2, pi, SQUARED_EUCLIDEAN, Side.FEATURE).matrix
    naive_time = time.perf_counter() - start
    np.testing.assert_allclose(fast, ref, atol=1e-9, rtol=0)
    assert naive_time >= 5.0 * fast_time


@pytest.mark.parametrize("shape, shape2", [((4, 3), (5, 2)), ((1, 4), (3, 2)), ((3, 1), (2, 1))])
def test_feature_side_is_sample_side_of_transposed_data(shape, shape2):
    rng = np.random.default_rng(39)
    X = rng.random(shape) + 0.1
    X2 = rng.random(shape2) + 0.1
    ps = rng.random((shape[0], shape2[0]))
    for loss in (SQUARED_EUCLIDEAN, ABSOLUTE, KULLBACK_LEIBLER):
        kernels = [contract_naive] + ([contract_factored] if loss.has_decomposition else [])
        for kernel in kernels:
            feature = kernel(X, X2, ps, loss, Side.FEATURE).matrix
            sample = kernel(X.T, X2.T, ps, loss, Side.SAMPLE).matrix
            assert np.array_equal(feature, sample), (loss.name, kernel.__name__)


@pytest.mark.parametrize("n, d, n2, d2", [(12, 10, 3, 3), (40, 40, 30, 30), (5, 9, 4, 2)])
def test_objective_is_the_sample_side_contraction(n, d, n2, d2):
    rng = np.random.default_rng(44)
    X = rng.random((n, d)) + 0.1
    X2 = rng.random((n2, d2)) + 0.1
    ps = rng.random((n, n2)) / (n * n2)
    pv = rng.random((d, d2)) / (d * d2)
    for loss in (SQUARED_EUCLIDEAN, KULLBACK_LEIBLER, ABSOLUTE):
        want = float(np.sum(contract(X, X2, pv, loss, Side.SAMPLE) * ps))
        assert coot_objective(X, X2, ps, pv, loss) == want, loss.name


@pytest.mark.parametrize("loss", [SQUARED_EUCLIDEAN, ABSOLUTE])
def test_contract_takes_one_coupling_only(loss):
    """A stack of plans goes through :class:`PreparedContraction`; the one-off
    :func:`contract` rejects it, on both the factored and the naive path."""
    rng = np.random.default_rng(3)
    X, X2 = rng.random((3, 2)), rng.random((4, 2))
    with pytest.raises(DimensionError, match="expected a non-empty 2-D array"):
        contract(X, X2, rng.random((2, 2, 2)), loss, Side.SAMPLE)


@pytest.mark.parametrize("loss", [SQUARED_EUCLIDEAN, ABSOLUTE])
def test_one_off_calls_check_each_plan_once(loss, monkeypatch):
    """:func:`contract` and :func:`coot_objective` check each 2-D plan once,
    with the errors they gave before, and still refuse a stack of plans."""
    checked = []
    real = tensorcost.plan_array

    def counted(pi):
        checked.append(pi)
        return real(pi)

    monkeypatch.setattr(tensorcost, "plan_array", counted)
    rng = np.random.default_rng(4)
    X, X2 = rng.random((3, 2)), rng.random((4, 5))
    ps, pv = np.full((3, 4), 1 / 12), np.full((2, 5), 0.1)
    got = contract(X, X2, pv, loss, Side.SAMPLE)
    assert len(checked) == 1
    coot_objective(X, X2, ps, pv, loss)
    assert len(checked) == 3
    assert np.array_equal(got, PreparedContraction(X, X2, loss).contract(pv, Side.SAMPLE))
    with pytest.raises(DimensionError, match=r"^coupling: expected a non-empty 2-D array, "
                                             r"got shape \(2, 2, 5\)$"):
        contract(X, X2, rng.random((2, 2, 5)), loss, Side.SAMPLE)
    with pytest.raises(DomainError, match=r"^coupling: entries must be finite"):
        contract(X, X2, np.full((2, 5), np.nan), loss, Side.SAMPLE)
    with pytest.raises(DimensionError, match=r"^sample-side contraction needs a \(2, 5\) "
                                             r"coupling, got \(5, 2\)$"):
        coot_objective(X, X2, ps, pv.T, loss)
