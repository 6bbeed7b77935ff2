"""Unit tests for the shared types: histograms, losses, couplings."""

import numpy as np
import pytest

from coopt import (
    ABSOLUTE,
    Coupling,
    DimensionError,
    DomainError,
    KULLBACK_LEIBLER,
    SQUARED_EUCLIDEAN,
    as_histogram,
    as_matrix,
    loss_eval,
    uniform_histogram,
    validate_coupling,
)


def test_uniform_histogram_single_bin():
    assert uniform_histogram(1).tolist() == [1.0]


def test_uniform_histogram_four_bins():
    assert uniform_histogram(4).tolist() == [0.25, 0.25, 0.25, 0.25]


def test_uniform_histogram_three_bins_sums_to_one_exactly():
    h = uniform_histogram(3)
    np.testing.assert_allclose(h, 1.0 / 3.0)
    assert h.sum() == 1.0


def test_uniform_histogram_rejects_zero_bins():
    with pytest.raises(DimensionError):
        uniform_histogram(0)


def test_uniform_histogram_sum_within_tolerance_for_many_sizes():
    for n in range(1, 200):
        assert abs(uniform_histogram(n).sum() - 1.0) <= 1e-12


def test_loss_eval_examples():
    assert loss_eval(SQUARED_EUCLIDEAN, 3, 1) == 4.0
    assert loss_eval(ABSOLUTE, -2, 1) == 3.0
    assert loss_eval(KULLBACK_LEIBLER, 1, 1) == 0.0


def test_loss_eval_kl_domain():
    with pytest.raises(DomainError):
        loss_eval(KULLBACK_LEIBLER, 1.0, 0.0)
    with pytest.raises(DomainError):
        loss_eval(KULLBACK_LEIBLER, 1.0, -2.0)
    with pytest.raises(DomainError):
        loss_eval(KULLBACK_LEIBLER, -0.5, 1.0)
    # a = 0 is allowed (0 log 0 := 0)
    assert loss_eval(KULLBACK_LEIBLER, 0.0, 2.0) == 2.0


def test_losses_nonnegative_and_zero_on_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(-5, 5)
        assert loss_eval(SQUARED_EUCLIDEAN, a, a) == 0.0
        assert loss_eval(ABSOLUTE, a, a) == 0.0
        b = rng.uniform(-5, 5)
        assert loss_eval(SQUARED_EUCLIDEAN, a, b) >= 0.0
        assert loss_eval(ABSOLUTE, a, b) >= 0.0
        p, q = rng.uniform(1e-3, 5), rng.uniform(1e-3, 5)
        assert loss_eval(KULLBACK_LEIBLER, p, p) == 0.0
        assert loss_eval(KULLBACK_LEIBLER, p, q) >= -1e-15


@pytest.mark.parametrize("loss", [SQUARED_EUCLIDEAN, KULLBACK_LEIBLER])
def test_decomposition_matches_direct_formula(loss):
    """f1(a) + f2(b) - h1(a) h2(b) agrees with the pointwise loss."""
    rng = np.random.default_rng(7)
    if loss is KULLBACK_LEIBLER:
        a = rng.uniform(0, 10, 1000)
        b = rng.uniform(1e-6, 10, 1000)
    else:
        a = rng.uniform(-10, 10, 1000)
        b = rng.uniform(-10, 10, 1000)
    direct = loss.pair(a, b)
    split = loss.f1(a) + loss.f2(b) - loss.h1(a) * loss.h2(b)
    np.testing.assert_allclose(split, direct, atol=1e-12, rtol=0)


def test_absolute_loss_has_no_decomposition():
    assert not ABSOLUTE.has_decomposition
    assert SQUARED_EUCLIDEAN.has_decomposition
    assert KULLBACK_LEIBLER.has_decomposition


def test_validate_coupling_product_and_permutation():
    w = uniform_histogram(3)
    wp = uniform_histogram(4)
    assert validate_coupling(np.outer(w, wp), w, wp, 1e-9)
    u = uniform_histogram(4)
    assert validate_coupling(np.eye(4) / 4, u, u, 1e-9)


def test_validate_coupling_rejects_zero_plan():
    u = uniform_histogram(2)
    assert not validate_coupling(np.zeros((2, 2)), u, u, 1e-9)


def test_validate_coupling_dim_mismatch():
    with pytest.raises(DimensionError):
        validate_coupling(np.ones((2, 2)) / 4, uniform_histogram(2), uniform_histogram(3), 1e-9)


def test_outer_product_of_random_histograms_is_feasible():
    rng = np.random.default_rng(3)
    for _ in range(25):
        w = rng.uniform(0.1, 1.0, rng.integers(1, 9))
        w /= w.sum()
        wp = rng.uniform(0.1, 1.0, rng.integers(1, 9))
        wp /= wp.sum()
        assert validate_coupling(np.outer(w, wp), w, wp, 1e-9)


def test_histogram_rejects_nonpositive_and_bad_sums():
    with pytest.raises(DomainError):
        as_histogram([0.5, 0.5, 0.0])
    with pytest.raises(DomainError):
        as_histogram([0.7, -0.1, 0.4])
    with pytest.raises(DomainError):
        as_histogram([0.5, 0.6])


def test_matrix_rejects_nonfinite_and_empty():
    with pytest.raises(DomainError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(DomainError):
        as_matrix([[np.inf]])
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])


def test_coupling_object_checks_shape_and_sign():
    w = uniform_histogram(2)
    c = Coupling(np.eye(2) / 2, w, w)
    assert c.feasible(1e-9)
    assert c.marginal_error() <= 1e-15
    with pytest.raises(DomainError):
        Coupling(-np.eye(2) / 2, w, w)
    with pytest.raises(DimensionError):
        Coupling(np.eye(3) / 3, w, w)


_BAD_MATRICES = [
    ([[1.0, np.nan]], DomainError, "X: entries must be finite (no NaN/Inf)"),
    ([[np.inf, 0.0]], DomainError, "X: entries must be finite (no NaN/Inf)"),
    ([[0.0], [-np.inf]], DomainError, "X: entries must be finite (no NaN/Inf)"),
    ([[np.inf, -np.inf]], DomainError, "X: entries must be finite (no NaN/Inf)"),
    ([1.0, 2.0], DimensionError, "X: expected a non-empty 2-D array, got shape (2,)"),
    (np.ones((2, 2, 1)), DimensionError,
     "X: expected a non-empty 2-D array, got shape (2, 2, 1)"),
    (3.0, DimensionError, "X: expected a non-empty 2-D array, got shape ()"),
    (np.zeros((0, 3)), DimensionError, "X: expected a non-empty 2-D array, got shape (0, 3)"),
    (np.zeros((3, 0)), DimensionError, "X: expected a non-empty 2-D array, got shape (3, 0)"),
    (np.full((0, 1), np.nan), DimensionError,
     "X: expected a non-empty 2-D array, got shape (0, 1)"),
]


@pytest.mark.parametrize("value, error, message", _BAD_MATRICES)
def test_matrix_errors_keep_their_class_and_message(value, error, message):
    with pytest.raises(error) as excinfo:
        as_matrix(value, "X")
    assert type(excinfo.value) is error and str(excinfo.value) == message


@pytest.mark.parametrize("value", [[[0.0, -1.0]], [[1e308, 1e308]], [[-1e308, -1e308]], [[7]]])
def test_matrix_accepts_zero_negative_and_huge_finite_entries(value):
    m = as_matrix(value, "X")
    assert m.dtype == np.float64 and np.array_equal(m, np.asarray(value, dtype=np.float64))


_BAD_HISTOGRAMS = [
    ([0.5, np.nan, 0.5], DomainError, "w: entries must be finite"),
    ([0.5, np.inf], DomainError, "w: entries must be finite"),
    ([-np.inf, 0.5], DomainError, "w: entries must be finite"),
    ([np.inf, -np.inf], DomainError, "w: entries must be finite"),
    ([np.nan, -0.5], DomainError, "w: entries must be finite"),
    ([0.5, 0.5, 0.0], DomainError, "w: entries must be strictly positive"),
    ([0.7, -0.1, 0.4], DomainError, "w: entries must be strictly positive"),
    ([-1.0, 0.0], DomainError, "w: entries must be strictly positive"),
    ([0.5, 0.6], DomainError, f"w: entries must sum to 1 (got {np.float64(1.1)!r})"),
    ([1e308, 1e308], DomainError, f"w: entries must sum to 1 (got {np.float64(np.inf)!r})"),
    ([0.5, 0.5 - 1e-11], DomainError,
     f"w: entries must sum to 1 (got {np.float64(0.5) + np.float64(0.5 - 1e-11)!r})"),
    ([[0.5, 0.5]], DimensionError, "w: expected a non-empty 1-D array, got shape (1, 2)"),
    (1.0, DimensionError, "w: expected a non-empty 1-D array, got shape ()"),
    ([], DimensionError, "w: expected a non-empty 1-D array, got shape (0,)"),
]


@pytest.mark.parametrize("value, error, message", _BAD_HISTOGRAMS)
def test_histogram_errors_keep_their_class_and_message(value, error, message):
    with pytest.raises(error) as excinfo, np.errstate(over="ignore"):
        as_histogram(value, "w")
    assert type(excinfo.value) is error and str(excinfo.value) == message


@pytest.mark.parametrize("value", [[1.0], [0.25, 0.75], [0.5, 0.5 + 5e-13], [1 / 3] * 3])
def test_histogram_accepts_positive_weights_summing_to_one(value):
    h = as_histogram(value, "w")
    assert h.dtype == np.float64 and np.array_equal(h, np.asarray(value, dtype=np.float64))


_U2 = [0.5, 0.5]
_BAD_COUPLINGS = [
    (np.array([[0.5, np.nan], [0.0, 0.5]]), _U2, _U2, DomainError,
     "coupling plan: entries must be finite (no NaN/Inf)"),
    (np.array([[np.inf, -0.5], [0.0, 0.5]]), _U2, _U2, DomainError,
     "coupling plan: entries must be finite (no NaN/Inf)"),
    (np.zeros((0, 2)), _U2, _U2, DimensionError,
     "coupling plan: expected a non-empty 2-D array, got shape (0, 2)"),
    (np.full(2, 0.5), _U2, _U2, DimensionError,
     "coupling plan: expected a non-empty 2-D array, got shape (2,)"),
    (np.eye(2) / 2, [0.5, np.nan], _U2, DomainError, "row marginal: entries must be finite"),
    (np.eye(2) / 2, _U2, [0.0, 1.0], DomainError,
     "col marginal: entries must be strictly positive"),
    (np.eye(2) / 2, [0.5, 0.6], _U2, DomainError,
     f"row marginal: entries must sum to 1 (got {np.float64(1.1)!r})"),
    (np.eye(2) / 2, [[0.5, 0.5]], _U2, DimensionError,
     "row marginal: expected a non-empty 1-D array, got shape (1, 2)"),
    (np.eye(2) / 2, _U2, [], DimensionError,
     "col marginal: expected a non-empty 1-D array, got shape (0,)"),
    (np.eye(3) / 3, _U2, _U2, DimensionError,
     "coupling plan (3, 3) does not match marginals (2, 2)"),
    (-np.eye(2) / 2, _U2, _U2, DomainError, "coupling plan must be nonnegative"),
    (np.array([[0.5, -0.0], [-1e-300, 0.5]]), _U2, _U2, DomainError,
     "coupling plan must be nonnegative"),
    # the first failing check wins: marginals before shape, shape before sign
    (-np.eye(3), [0.5, -0.5], _U2, DomainError, "row marginal: entries must be strictly positive"),
    (-np.eye(3), _U2, _U2, DimensionError, "coupling plan (3, 3) does not match marginals (2, 2)"),
]


@pytest.mark.parametrize("plan, w, wp, error, message", _BAD_COUPLINGS)
def test_coupling_errors_keep_their_class_and_message(plan, w, wp, error, message):
    with pytest.raises(error) as excinfo:
        Coupling(plan, w, wp)
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_coupling_accepts_negative_zero_entries():
    plan = np.array([[0.5, -0.0], [0.0, 0.5]])
    assert Coupling(plan, [0.5, 0.5], [0.5, 0.5]).plan is not None
