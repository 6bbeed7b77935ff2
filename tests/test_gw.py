"""Unit tests for the similarity-matrix objective and tied-coupling solver."""

import numpy as np
import pytest

from coopt import (
    DimensionError,
    DomainError,
    SQUARED_EUCLIDEAN,
    SimilarityKind,
    SimilarityMatrix,
    coot_objective,
    exact_ot,
    gw_coot_equivalence_check,
    gw_gradient,
    gw_objective,
    gw_permutation_oracle,
    bap_oracle,
    solve_gw_dc,
    sqeuclid_matrix,
    uniform_histogram,
)
from coopt.tensorcost import Side, contract


def test_sqeuclid_one_dimensional_points():
    C = sqeuclid_matrix([[0.0], [1.0]])
    np.testing.assert_array_equal(C.matrix, [[0.0, 1.0], [1.0, 0.0]])
    assert C.kind is SimilarityKind.SQUARED_EUCLIDEAN


def test_sqeuclid_three_four_five():
    C = sqeuclid_matrix([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_array_equal(C.matrix, [[0.0, 25.0], [25.0, 0.0]])


def test_sqeuclid_matches_double_loop():
    rng = np.random.default_rng(61)
    P = rng.random((4, 3))
    C = sqeuclid_matrix(P).matrix
    want = np.array([[np.sum((P[i] - P[j]) ** 2) for j in range(4)] for i in range(4)])
    np.testing.assert_allclose(C, want, atol=1e-12, rtol=0)


def test_similarity_matrix_validation():
    with pytest.raises(DomainError):
        SimilarityMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DomainError):
        SimilarityMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]), SimilarityKind.SQUARED_EUCLIDEAN)


def test_gw_objective_zero_on_identity():
    rng = np.random.default_rng(62)
    C = sqeuclid_matrix(rng.random((4, 2)))
    pi = np.eye(4) / 4
    assert abs(gw_objective(C, C, pi)) <= 1e-12


def test_gw_objective_two_point_sets_same_distance():
    C = sqeuclid_matrix([[0.0], [1.0]])
    anti = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert abs(gw_objective(C, C, anti)) <= 1e-15


def test_gw_objective_matches_quadruple_loop():
    rng = np.random.default_rng(63)
    C = sqeuclid_matrix(rng.random((3, 2))).matrix
    C2 = sqeuclid_matrix(rng.random((3, 2))).matrix
    pi = np.outer(uniform_histogram(3), uniform_histogram(3))
    brute = sum(
        (C[i, k] - C2[j, l]) ** 2 * pi[i, j] * pi[k, l]
        for i in range(3)
        for j in range(3)
        for k in range(3)
        for l in range(3)
    )
    assert gw_objective(C, C2, pi) == pytest.approx(brute, abs=1e-12)


def test_gw_objective_is_tied_coot_objective():
    rng = np.random.default_rng(64)
    C = sqeuclid_matrix(rng.random((3, 2))).matrix
    C2 = sqeuclid_matrix(rng.random((4, 2))).matrix
    pi = np.outer(uniform_histogram(3), uniform_histogram(4))
    assert gw_objective(C, C2, pi) == coot_objective(C, C2, pi, pi, SQUARED_EUCLIDEAN)


def test_dc_identity_biased_start_finds_zero_on_self():
    rng = np.random.default_rng(65)
    for n in (2, 3, 4):
        C = sqeuclid_matrix(rng.random((n, 3)))
        sol = solve_gw_dc(C, C, restarts=2, seed=0)  # product + identity-biased
        assert abs(sol.cost) <= 1e-9


def test_dc_restarts_match_permutation_enumeration():
    rng = np.random.default_rng(66)
    for trial in range(5):
        C = sqeuclid_matrix(rng.random((3, 2)))
        C2 = sqeuclid_matrix(rng.random((3, 2)))
        oracle = gw_permutation_oracle(C, C2)
        sol = solve_gw_dc(C, C2, restarts=20, seed=trial)
        assert sol.cost == pytest.approx(oracle, abs=1e-9)


def test_dc_trace_monotone_without_regularization():
    rng = np.random.default_rng(67)
    C = sqeuclid_matrix(rng.random((5, 3)))
    C2 = sqeuclid_matrix(rng.random((4, 3)))
    sol = solve_gw_dc(C, C2)
    trace = sol.objective_trace
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def finite_difference_gradient(C, C2, pi, h=0.25):
    """Exact gradient of the quadratic objective via central differences."""
    grad = np.zeros_like(pi)
    for i in range(pi.shape[0]):
        for j in range(pi.shape[1]):
            bump = np.zeros_like(pi)
            bump[i, j] = h
            grad[i, j] = (
                gw_objective(C, C2, pi + bump) - gw_objective(C, C2, pi - bump)
            ) / (2 * h)
    return grad


def test_gradient_is_twice_the_contracted_cost():
    """The conditional-gradient cost is exactly double the fixed-point cost,
    so the shared inner solver returns the same plan for both schemes."""
    rng = np.random.default_rng(68)
    C = sqeuclid_matrix(rng.random((3, 2))).matrix
    C2 = sqeuclid_matrix(rng.random((3, 2))).matrix
    u = uniform_histogram(3)
    pi = np.outer(u, u)
    dc_cost = contract(C, C2, pi, SQUARED_EUCLIDEAN, Side.SAMPLE)
    grad = gw_gradient(C, C2, pi)
    fd = finite_difference_gradient(C, C2, pi)
    scale = max(1.0, np.abs(fd).max())
    np.testing.assert_allclose(grad, fd, atol=1e-9 * scale, rtol=0)
    np.testing.assert_allclose(grad, 2.0 * dc_cost, atol=1e-12, rtol=0)
    plan_dc = exact_ot(u, u, dc_cost).coupling.plan
    plan_fw = exact_ot(u, u, grad).coupling.plan
    np.testing.assert_array_equal(plan_dc, plan_fw)


def test_equivalence_check_identical_clouds():
    rng = np.random.default_rng(69)
    P = rng.random((3, 2))
    report = gw_coot_equivalence_check(P, P)
    assert report["coot_value"] == 0.0
    assert report["gw_value"] == 0.0
    assert report["values_equal"] and report["coot_leq_gw"]


def test_equivalence_check_seeded_clouds():
    rng = np.random.default_rng(70)
    for _ in range(5):
        P = rng.random((3, 2))
        Q = rng.random((3, 2))
        report = gw_coot_equivalence_check(P, Q)
        assert report["coot_leq_gw"]
        assert report["values_equal"]
        assert report["tied_pair_attains_coot"]


def test_generic_symmetric_keeps_inequality_direction():
    rng = np.random.default_rng(71)
    strict = 0
    for _ in range(50):
        A = rng.random((3, 3))
        B = rng.random((3, 3))
        C = (A + A.T) / 2
        C2 = (B + B.T) / 2
        coot_value = bap_oracle(C, C2).cost
        gw_value = gw_permutation_oracle(C, C2)
        assert coot_value <= gw_value + 1e-9
        if coot_value < gw_value - 1e-9:
            strict += 1
    assert strict > 0  # the gap can be genuinely strict off the Euclidean case


def test_entropic_dc_runs_and_stays_feasible():
    rng = np.random.default_rng(72)
    C = sqeuclid_matrix(rng.random((4, 2)))
    C2 = sqeuclid_matrix(rng.random((4, 2)))
    sol = solve_gw_dc(C, C2, eps=0.1, restarts=3, seed=1)
    assert sol.coupling.feasible(1e-6)


def test_dc_rejects_zero_restarts():
    C = sqeuclid_matrix([[0.0], [1.0], [3.0]])
    with pytest.raises(DomainError):
        solve_gw_dc(C, C, restarts=0)


def test_dc_rejects_non_square_matrices():
    with pytest.raises(DimensionError):
        solve_gw_dc(np.ones((3, 4)), np.ones((3, 4)))


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_dc_cost_is_the_objective_of_the_returned_coupling(eps):
    rng = np.random.default_rng(68)
    C = sqeuclid_matrix(rng.random((5, 2)))
    C2 = sqeuclid_matrix(rng.random((5, 2)))
    sol = solve_gw_dc(C, C2, eps=eps, restarts=3, seed=4)
    assert sol.cost == gw_objective(C, C2, sol.coupling.plan)
    assert sol.objective_trace[-1] == sol.cost
