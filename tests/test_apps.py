"""Unit tests for co-clustering, label propagation and election distance."""

import itertools

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2

import coopt.apps
from coopt import (
    BLOCK_PRESETS,
    BlockConfig,
    ConfigError,
    CootProblem,
    DimensionError,
    DomainError,
    cce,
    cocluster,
    election_distance,
    generate_blocks,
    hda_pipeline,
    mask_semisupervised_cost,
    misclassification_rate,
    one_hot_labels,
    propagate_labels,
    summary_update,
    uniform_histogram,
)
from coopt.apps import as_election, class_mismatch_mask
from coopt.coot import random_coupling


def block_matrix(values, row_sizes, col_sizes):
    zr = np.repeat(np.arange(len(row_sizes)), row_sizes)
    zc = np.repeat(np.arange(len(col_sizes)), col_sizes)
    return np.asarray(values, dtype=float)[np.ix_(zr, zc)], zr, zc


# ---------------------------------------------------------------------------
# prototype update


def dense_quadratic_minimizer(X, ps, pv):
    """Per-cell scalar quadratic minimizer, accumulated by explicit loops."""
    g, m = ps.shape[1], pv.shape[1]
    n, d = X.shape
    out = np.zeros((g, m))
    for j in range(g):
        for l in range(m):
            weight = 0.0
            target = 0.0
            for i in range(n):
                for k in range(d):
                    c = ps[i, j] * pv[k, l]
                    weight += c
                    target += c * X[i, k]
            out[j, l] = target / weight
    return out


def test_summary_update_equals_dense_minimizer():
    rng = np.random.default_rng(80)
    X = rng.random((6, 4))
    ps = random_coupling(uniform_histogram(6), uniform_histogram(2), rng)
    pv = random_coupling(uniform_histogram(4), uniform_histogram(2), rng)
    got = summary_update(X, ps, pv)
    want = dense_quadratic_minimizer(X, ps, pv)
    np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


def test_summary_update_uniform_marginals_reduce_to_scaled_product():
    rng = np.random.default_rng(81)
    X = rng.random((5, 6))
    ps = random_coupling(uniform_histogram(5), uniform_histogram(2), rng)
    pv = random_coupling(uniform_histogram(6), uniform_histogram(3), rng)
    np.testing.assert_allclose(
        summary_update(X, ps, pv), 2 * 3 * (ps.T @ X @ pv), atol=1e-10, rtol=0
    )


# ---------------------------------------------------------------------------
# co-clustering


def test_cocluster_recovers_constant_blocks_exact_mode():
    # balanced clusters: with uniform weights a zero-cost summary exists
    # only when every cluster carries the same mass
    X, zr, zc = block_matrix([[1.0, 5.0], [9.0, 3.0]], [6, 6], [4, 4])
    result = cocluster(X, 2, 2, eps1=0.0, eps2=0.0, seed=0)
    assert cce(result.row_labels, zr, result.col_labels, zc) == 0.0
    np.testing.assert_allclose(
        np.sort(result.summary.ravel()), [1.0, 3.0, 5.0, 9.0], atol=1e-8
    )


def test_cocluster_outer_trace_monotone_exact_mode():
    rng = np.random.default_rng(82)
    X = rng.random((12, 9))
    result = cocluster(X, 3, 2, eps1=0.0, eps2=0.0, seed=3, outer_iter=10)
    trace = result.objective_trace
    assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))


def test_cocluster_rejects_too_many_clusters():
    with pytest.raises(DimensionError):
        cocluster(np.zeros((3, 3)) + np.eye(3), 4, 2, seed=0)


# ---------------------------------------------------------------------------
# co-clustering error


def test_cce_identical_partitions():
    labels = np.array([0, 0, 1, 1, 2])
    assert cce(labels, labels, labels, labels) == 0.0


def test_cce_formula_with_one_perfect_side():
    rows = np.array([0, 0, 1, 1])
    cols_pred = np.array([0, 1, 0, 1])
    cols_true = np.array([0, 0, 1, 1])
    # columns: best relabeling still misclassifies half
    assert misclassification_rate(cols_pred, cols_true) == 0.5
    assert cce(rows, rows, cols_pred, cols_true) == 0.5


def test_misclassification_matches_exhaustive_relabeling():
    rng = np.random.default_rng(83)
    for _ in range(20):
        pred = rng.integers(0, 3, 8)
        true = rng.integers(0, 3, 8)
        k = 3
        best = min(
            np.mean(np.array([p[x] for x in pred]) != true)
            for p in itertools.permutations(range(k))
        )
        assert misclassification_rate(pred, true) == pytest.approx(best)


def test_cce_symmetric_and_bounded():
    rng = np.random.default_rng(84)
    for _ in range(20):
        a = rng.integers(0, 4, 10)
        b = rng.integers(0, 4, 10)
        c = rng.integers(0, 3, 7)
        d = rng.integers(0, 3, 7)
        v = cce(a, b, c, d)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(cce(b, a, d, c))


def test_cce_zero_iff_matching_partitions():
    a = np.array([0, 0, 1, 2])
    relabeled = np.array([2, 2, 0, 1])  # same partition, different names
    assert cce(a, relabeled, a, relabeled) == 0.0
    different = np.array([0, 1, 1, 2])
    assert cce(a, different, a, relabeled) > 0.0


# ---------------------------------------------------------------------------
# block generator


def test_presets_match_documented_shapes():
    d1 = BLOCK_PRESETS["D1"]
    assert (d1.n, d1.d, d1.row_clusters, d1.col_clusters) == (600, 300, 3, 3)
    assert d1.separation == 4.0
    d4 = BLOCK_PRESETS["D4"]
    assert (d4.n, d4.d, d4.row_clusters, d4.col_clusters) == (300, 300, 5, 4)
    assert d4.separation == 1.0
    assert len(set(d4.row_proportions)) > 1  # unequal


def test_generate_blocks_shapes_and_determinism():
    config = BLOCK_PRESETS["D3"]
    X1, r1, c1 = generate_blocks(config, seed=9)
    X2, r2, c2 = generate_blocks(config, seed=9)
    assert X1.shape == (300, 200)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(r1, r2)
    assert np.bincount(r1).tolist() == [150, 150]
    assert np.bincount(c1).tolist() == [50, 50, 50, 50]


def test_generate_blocks_rejects_bad_proportions():
    with pytest.raises(ConfigError):
        BlockConfig(10, 10, 2, 2, (0.7, 0.7), (0.5, 0.5), 1.0)


def test_high_separation_rows_recoverable_by_kmeans():
    config = BlockConfig(90, 40, 3, 2, (1 / 3,) * 3, (0.5, 0.5), separation=50.0)
    X, zr, _ = generate_blocks(config, seed=4)
    _, labels = kmeans2(X, 3, minit="++", seed=11)
    assert misclassification_rate(labels, zr) == 0.0


# ---------------------------------------------------------------------------
# label propagation


def test_propagate_identity_coupling_keeps_labels():
    Y = one_hot_labels([0, 1, 2])
    scores, labels = propagate_labels(np.eye(3) / 3, Y)
    np.testing.assert_array_equal(labels, [0, 1, 2])
    np.testing.assert_allclose(scores, Y / 3)


def test_propagate_permutation_coupling_relabels():
    Y = one_hot_labels([0, 1, 0, 1])
    perm = [2, 0, 3, 1]
    plan = np.zeros((4, 4))
    plan[np.arange(4), perm] = 0.25  # source i -> target perm[i]
    _, labels = propagate_labels(plan, Y)
    want = np.empty(4, dtype=int)
    want[perm] = [0, 1, 0, 1]
    np.testing.assert_array_equal(labels, want)


def test_propagate_soft_coupling_example():
    plan = np.array([[0.4, 0.1], [0.1, 0.4]])
    Y = np.eye(2)
    scores, labels = propagate_labels(plan, Y)
    np.testing.assert_allclose(scores, [[0.4, 0.1], [0.1, 0.4]])
    np.testing.assert_array_equal(labels, [0, 1])


def test_propagate_flags_unreachable_targets():
    Y = one_hot_labels([-1, -1], num_classes=2)  # nothing labeled
    _, labels = propagate_labels(np.full((2, 2), 0.25), Y)
    np.testing.assert_array_equal(labels, [-1, -1])


def test_propagate_scale_invariance_of_argmax():
    rng = np.random.default_rng(85)
    plan = rng.random((5, 4))
    Y = one_hot_labels(rng.integers(0, 3, 5))
    _, base = propagate_labels(plan, Y)
    for c in (0.1, 3.0, 1e6):
        _, scaled = propagate_labels(c * plan, Y)
        np.testing.assert_array_equal(base, scaled)


def test_mask_untouched_without_target_labels():
    cost = np.arange(6, dtype=float).reshape(2, 3)
    Ys = one_hot_labels([0, 1])
    Yt = one_hot_labels([-1, -1, -1], num_classes=2)
    np.testing.assert_array_equal(mask_semisupervised_cost(cost, Ys, Yt, 10.0), cost)


def test_mask_raises_every_entry_when_all_classes_differ():
    cost = np.zeros((2, 2))
    Ys = one_hot_labels([0, 0], num_classes=2)
    Yt = one_hot_labels([1, 1], num_classes=2)
    np.testing.assert_array_equal(mask_semisupervised_cost(cost, Ys, Yt, 7.0), np.full((2, 2), 7.0))


def test_mask_single_labeled_target():
    cost = np.zeros((2, 2))
    Ys = one_hot_labels([0, 1])
    Yt = one_hot_labels([-1, 1])  # only second target labeled, class 1
    got = mask_semisupervised_cost(cost, Ys, Yt, 5.0)
    np.testing.assert_array_equal(got, [[0.0, 5.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        mask_semisupervised_cost(cost, Ys, Yt, 0.0)


def test_hda_pipeline_recovers_permuted_labels():
    rng = np.random.default_rng(86)
    for trial in range(5):
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        Xs = rng.random((n, d))
        sigma = rng.permutation(n)
        tau = rng.permutation(d)
        Xt = Xs[sigma][:, tau]
        ys = rng.integers(0, 2, n)
        result = hda_pipeline(Xs, Xt, ys, num_classes=2, restarts=20, seed=trial)
        np.testing.assert_array_equal(result.labels, ys[sigma])
        assert result.solution.cost <= 1e-9


def test_hda_pipeline_semisupervised_mask_keeps_accuracy():
    rng = np.random.default_rng(87)
    Xs = rng.random((4, 3))
    sigma = rng.permutation(4)
    Xt = Xs[sigma][:, rng.permutation(3)]
    ys = np.array([0, 1, 0, 1])
    truth = ys[sigma]
    partial = -np.ones(4, dtype=int)
    for cls in (0, 1):
        partial[np.argmax(truth == cls)] = cls
    result = hda_pipeline(Xs, Xt, ys, target_labels=partial, num_classes=2,
                          restarts=20, seed=5)
    np.testing.assert_array_equal(result.labels, truth)


def test_entropic_masked_hda_inner_solves_converge(entropic_calls):
    """The auto penalty prices masked cells at 1e3 x the largest unmasked
    cost, so C/eps runs into the thousands."""
    rng = np.random.default_rng(4)
    ys = np.repeat(np.arange(4), 10)
    Xs = rng.normal(0.0, 3.0, (4, 10))[ys] + rng.normal(size=(40, 10))
    sigma = rng.permutation(40)
    Xt = Xs[sigma][:, rng.permutation(10)]
    partial = np.full(40, -1)
    known = rng.choice(40, 5, replace=False)
    partial[known] = ys[sigma][known]
    result = hda_pipeline(Xs, Xt, ys, target_labels=partial, eps1=0.1, eps2=0.1,
                          restarts=2, seed=0)
    assert entropic_calls and all(res.converged for res in entropic_calls)
    np.testing.assert_array_equal(result.labels, ys[sigma])


def test_class_mismatch_mask_shape_check():
    with pytest.raises(DimensionError):
        class_mismatch_mask(one_hot_labels([0, 1]), one_hot_labels([2]))


def test_label_matrix_validation():
    from coopt import as_label_matrix

    as_label_matrix([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        as_label_matrix([[0.5, 0.5]])
    with pytest.raises(DomainError):
        as_label_matrix([[1.0, 1.0]])
    with pytest.raises(DomainError):
        propagate_labels(np.eye(2) / 2, [[0.3, 0.7], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# election distance


def election_enumeration(E, E2):
    """Distance by brute force over all voter and candidate permutation pairs."""
    n, m = E.shape
    best = np.inf
    for nu in itertools.permutations(range(n)):
        Y = E2[list(nu), :]
        for sigma in itertools.permutations(range(m)):
            best = min(best, float(np.abs(E - Y[:, list(sigma)]).sum()))
    return best


def test_election_distance_zero_on_identical():
    E = np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=float)
    assert election_distance(E, E, restarts=5, seed=0) == pytest.approx(0.0, abs=1e-12)


def test_election_distance_zero_on_isomorphic():
    E = np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=float)
    E2 = E[[2, 0, 1]][:, [1, 2, 0]]
    assert election_distance(E, E2, restarts=20, seed=1) == pytest.approx(0.0, abs=1e-12)


def test_election_distance_matches_enumeration():
    rng = np.random.default_rng(88)
    for trial in range(5):
        E = np.array([rng.permutation(3) + 1 for _ in range(3)], dtype=float)
        E2 = np.array([rng.permutation(3) + 1 for _ in range(3)], dtype=float)
        got = election_distance(E, E2, restarts=20, seed=trial)
        assert got == pytest.approx(election_enumeration(E, E2), abs=1e-9)


def test_election_validation():
    as_election([[1, 2, 3], [3, 2, 1]])
    as_election([[0, 1, 2], [2, 1, 0]])
    with pytest.raises(DomainError):
        as_election([[1, 1, 2], [1, 2, 3]])
    with pytest.raises(DomainError):
        as_election([[1.5, 2.0, 3.0], [1.0, 2.0, 3.0]])
    with pytest.raises(DimensionError):
        election_distance(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("penalty", [-10.0, 0.0, float("nan"), float("inf")])
def test_mask_penalty_must_be_finite_and_positive(penalty):
    X = np.arange(6.0).reshape(3, 2)
    with pytest.raises(DomainError):
        CootProblem(X, X, sample_cost_mask=np.zeros((3, 3)), mask_penalty=penalty)
    with pytest.raises(DomainError):
        hda_pipeline(X, X, [0, 1, 0], target_labels=[0, -1, -1], penalty=penalty)


def test_cocluster_summary_is_the_refit_of_the_final_plans():
    config = BlockConfig(60, 30, 3, 3, (1 / 3,) * 3, (1 / 3,) * 3, 4.0)
    X, _, _ = generate_blocks(config, 3)
    result = cocluster(X, 3, 3, seed=0)
    sol = result.solution
    refit = summary_update(X, sol.sample_coupling.plan, sol.feature_coupling.plan)
    assert np.array_equal(result.summary, refit)


def test_cocluster_entropic_inner_solves_converge_on_d1(entropic_calls):
    X, rows, cols = generate_blocks(BLOCK_PRESETS["D1"], seed=0)
    result = cocluster(X, 3, 3, seed=0)
    assert entropic_calls and all(res.converged for res in entropic_calls)
    assert cce(result.row_labels, rows, result.col_labels, cols) == 0.0


def test_hda_pipeline_checks_label_counts_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the label counts were checked")

    monkeypatch.setattr(coopt.apps, "solve_coot", no_solve)
    rng = np.random.default_rng(12)
    Xs, Xt = rng.random((40, 5)), rng.random((30, 4))
    with pytest.raises(DimensionError, match="got 39 source labels for 40 source rows"):
        hda_pipeline(Xs, Xt, np.arange(39) % 3)
    with pytest.raises(DimensionError, match="got 29 target labels for 30 target rows"):
        hda_pipeline(Xs, Xt, np.arange(40) % 3, target_labels=np.full(29, -1))


@pytest.mark.parametrize("separation", [np.inf, -np.inf, np.nan])
def test_block_config_rejects_non_finite_separation(separation):
    with pytest.raises(ConfigError, match="separation must be finite"):
        BlockConfig(10, 6, 2, 2, (0.5, 0.5), (0.5, 0.5), separation)


def test_cocluster_and_generate_blocks_reject_a_negative_seed():
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        cocluster(np.random.default_rng(1).random((6, 4)), 2, 2, seed=-1)
    config = BlockConfig(10, 6, 2, 2, (0.5, 0.5), (0.5, 0.5), 4.0)
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        generate_blocks(config, -1)


def test_election_distance_is_zero_across_rank_bases():
    """A 0-based election is the same rankings as its 1-based form."""
    E = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    assert np.array_equal(as_election(E - 1), E)
    assert election_distance(E, E - 1, restarts=5) == 0.0


@pytest.mark.parametrize("num_classes", [None, 2])
def test_empty_labels_are_a_dimension_error(num_classes):
    with pytest.raises(DimensionError, match="non-empty 1-D"):
        one_hot_labels([], num_classes)
    rng = np.random.default_rng(55)
    with pytest.raises(DimensionError, match="non-empty 1-D"):
        hda_pipeline(rng.random((4, 3)), rng.random((5, 2)), [], num_classes=num_classes)


@pytest.mark.parametrize("bad", [0.5, -0.5, np.nan, np.inf])
def test_labels_must_be_integers(bad):
    with pytest.raises(DomainError, match="^labels must be integers, got "):
        one_hot_labels([bad, 1])
    rng = np.random.default_rng(56)
    with pytest.raises(DomainError, match="^labels must be integers, got "):
        hda_pipeline(rng.random((2, 3)), rng.random((3, 2)), [bad, 1])
    with pytest.raises(DomainError, match="^labels must be integers, got "):
        hda_pipeline(rng.random((2, 3)), rng.random((3, 2)), [0, 1], target_labels=[1, -1, bad])


def test_integer_valued_float_labels_are_their_integers():
    assert np.array_equal(one_hot_labels([1.0, -1.0, 0.0]), one_hot_labels([1, -1, 0]))
    assert np.array_equal(one_hot_labels(np.array([2, 0], dtype=np.uint8)),
                          one_hot_labels([2, 0]))


@pytest.mark.parametrize("name", ["g", "m", "outer_iter", "seed", "inner_iter"])
def test_cocluster_non_integer_counts_and_seed_are_a_domain_error(name):
    kwargs = dict(g=2, m=2, outer_iter=2, seed=0, inner_iter=2)
    kwargs[name] = 1.5
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got 1.5$"):
        cocluster(np.random.default_rng(57).random((8, 6)), **kwargs)


def test_cocluster_takes_numpy_integers():
    X = np.random.default_rng(58).random((8, 6))
    got = cocluster(X, np.int64(2), np.int32(2), outer_iter=np.int64(2), seed=np.uint8(3))
    want = cocluster(X, 2, 2, outer_iter=2, seed=3)
    assert np.array_equal(got.summary, want.summary)


@pytest.mark.parametrize("num_classes", [2.5, 3.0, "3"])
def test_one_hot_non_integer_class_count_is_a_domain_error(num_classes):
    with pytest.raises(DomainError, match="^num_classes must be an integer, got "):
        one_hot_labels([0, 1], num_classes=num_classes)


def test_one_hot_takes_a_numpy_integer_class_count():
    assert np.array_equal(one_hot_labels([0, 1], num_classes=np.int64(3)),
                          one_hot_labels([0, 1], num_classes=3))


@pytest.mark.filterwarnings("error")  # an overflowing int64 cast warns
@pytest.mark.parametrize("label", [1e20, 2.0**63])
def test_one_hot_label_beyond_int64_is_a_domain_error(label):
    with pytest.raises(DomainError, match="is beyond the int64 range"):
        one_hot_labels([0, label], num_classes=3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label", [-1e20, -2.0**63 - 4096])
def test_one_hot_label_below_int64_is_out_of_range(label):
    with pytest.raises(DomainError, match="^labels must be >= -1"):
        one_hot_labels([0, label])
