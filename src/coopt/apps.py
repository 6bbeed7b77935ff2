"""Downstream procedures built on the co-optimal transport solver.

Co-clustering summarizes a data matrix by a small prototype matrix learned
jointly with the two couplings; hard assignments are the row-wise argmax of
each coupling. Label propagation pushes one-hot source labels through the
sample coupling for heterogeneous domain adaptation, with an optional
class-mismatch penalty on the sample cost when a few target labels are
known. The election distance embeds two preference profiles as rank
matrices and scales the transport objective back to a rank-disagreement
count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ABSOLUTE,
    ConfigError,
    DimensionError,
    DomainError,
    Loss,
    SQUARED_EUCLIDEAN,
    as_matrix,
    check_integer,
    plan_array,
)
from .coot import CootProblem, CootSolution, _solve_single, solve_coot
from .ot import linear_sum_assignment
from .tensorcost import coot_objective

__all__ = [
    "CoClustering",
    "cocluster",
    "summary_update",
    "cce",
    "misclassification_rate",
    "BlockConfig",
    "equal_proportions",
    "ramped_proportions",
    "BLOCK_PRESETS",
    "generate_blocks",
    "as_label_matrix",
    "one_hot_labels",
    "propagate_labels",
    "mask_semisupervised_cost",
    "HdaResult",
    "hda_pipeline",
    "as_election",
    "election_distance",
    "election_solution",
]


# ---------------------------------------------------------------------------
# co-clustering


@dataclass(frozen=True)
class CoClustering:
    row_labels: np.ndarray
    col_labels: np.ndarray
    summary: np.ndarray  # learned prototype matrix, g x m
    solution: CootSolution
    objective_trace: List[float] = field(repr=False)
    # the prototype loop stopped by its tolerance and every round's solve converged
    converged: bool = False


def summary_update(X, sample_plan, feature_plan) -> np.ndarray:
    """Closed-form minimizer of the squared loss over the prototype matrix.

    Entry (j, l) is the plan-weighted mean of X over the cell:
    ``(pi_s^T X pi_v)_jl / (colmass_s_j * colmass_v_l)``. With uniform
    marginals the denominators are 1/(g m), recovering the g*m-scaled form.
    """
    X = as_matrix(X, "X")
    ps = plan_array(sample_plan)
    pv = plan_array(feature_plan)
    col_mass_s = ps.sum(axis=0)
    col_mass_v = pv.sum(axis=0)
    if np.any(col_mass_s <= 0) or np.any(col_mass_v <= 0):
        raise DomainError("summary update needs strictly positive cluster masses")
    return (ps.T @ X @ pv) / np.outer(col_mass_s, col_mass_v)


def cocluster(
    X,
    g: int,
    m: int,
    eps1: float = 0.1,
    eps2: float = 0.1,
    outer_iter: int = 30,
    seed: int = 0,
    inner_iter: int = 20,
) -> CoClustering:
    """Joint row/column clustering by alternating coupling solves and
    prototype refits.

    The prototype matrix starts from seeded Gaussian noise matched to the
    data's mean and spread. Each round re-solves the transport pair warm
    started from the previous round's couplings (which is what makes the
    outer objective trace non-increasing with exact inner solvers), then
    refits the prototype; the loop stops when no prototype entry moves by
    more than 1e-8 or after ``outer_iter`` rounds. The loss is squared
    Euclidean (the refit, :func:`summary_update`, is its minimizer) and each
    entropic inner solve stops after at most 500 Newton steps. All four
    weight vectors are uniform. ``converged`` holds only if the prototype
    loop met its tolerance and every round's solve converged: a round
    stopped at ``inner_iter`` alternations, or by an unconverged inner
    solve, leaves the clustering unconverged even when the last round is not.
    """
    X = as_matrix(X, "X")
    n, d = X.shape
    check_integer(g=g, m=m, outer_iter=outer_iter, seed=seed, inner_iter=inner_iter)
    if not (1 <= g <= n) or not (1 <= m <= d):
        raise DimensionError(f"need 1 <= g <= n and 1 <= m <= d, got g={g}, m={m}")
    if outer_iter < 1:
        raise ConfigError("outer_iter must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    scale = float(X.std())
    summary = rng.normal(float(X.mean()), scale if scale > 0 else 1.0, (g, m))
    init = None
    trace: List[float] = []
    solution: Optional[CootSolution] = None
    converged = False
    rounds_ok = True  # every round's solve so far converged
    for _ in range(outer_iter):
        problem = CootProblem(
            X, summary, eps_samples=eps1, eps_features=eps2,
            max_iter=inner_iter, sinkhorn_max_iter=500,
        )
        solution = _solve_single(problem, init)
        rounds_ok = rounds_ok and solution.converged
        ps = solution.sample_coupling.plan
        pv = solution.feature_coupling.plan
        init = (ps, pv)
        trace.append(solution.cost)
        new_summary = summary_update(X, ps, pv)
        delta = float(np.max(np.abs(new_summary - summary)))
        summary = new_summary
        if delta <= 1e-8:
            converged = rounds_ok
            break
    # final couplings against the final prototype
    final = dataclasses.replace(
        solution, cost=coot_objective(X, summary, ps, pv, SQUARED_EUCLIDEAN))
    return CoClustering(
        row_labels=np.argmax(final.sample_coupling.plan, axis=1),
        col_labels=np.argmax(final.feature_coupling.plan, axis=1),
        summary=summary,
        solution=final,
        objective_trace=trace,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# co-clustering error


def misclassification_rate(pred, true) -> float:
    """Smallest error rate over one-to-one relabelings of predicted clusters.

    Optimal assignment on the square confusion matrix over the union of
    labels; the counts are integers, so the optimum is exact.
    """
    pred = np.asarray(pred, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise DimensionError("assignments must be 1-D and the same length")
    labels = np.unique(np.concatenate([pred, true]))
    k = labels.size
    conf = np.zeros((k, k))
    np.add.at(conf, (np.searchsorted(labels, pred), np.searchsorted(labels, true)), 1.0)
    rows, cols = linear_sum_assignment(-conf)
    best = conf[rows, cols].sum()
    return float(1.0 - best / pred.size)


def cce(pred_rows, true_rows, pred_cols, true_cols) -> float:
    """Co-clustering error: composed row and column misclassification,
    ``e_r + e_c - e_r * e_c``, each after optimal cluster relabeling."""
    e_r = misclassification_rate(pred_rows, true_rows)
    e_c = misclassification_rate(pred_cols, true_cols)
    return e_r + e_c - e_r * e_c


# ---------------------------------------------------------------------------
# simulated block data


@dataclass(frozen=True)
class BlockConfig:
    n: int
    d: int
    row_clusters: int
    col_clusters: int
    row_proportions: Tuple[float, ...]
    col_proportions: Tuple[float, ...]
    separation: float

    def __post_init__(self):
        check_integer(n=self.n, d=self.d, row_clusters=self.row_clusters,
                      col_clusters=self.col_clusters)
        if self.n < self.row_clusters or self.d < self.col_clusters:
            raise ConfigError("fewer rows/columns than clusters")
        if not np.isfinite(self.separation):
            raise ConfigError(f"separation must be finite, got {self.separation}")
        for name, props, k in (
            ("row", self.row_proportions, self.row_clusters),
            ("col", self.col_proportions, self.col_clusters),
        ):
            if len(props) != k:
                raise ConfigError(f"{name}_proportions must have {k} entries")
            if any(p <= 0 for p in props) or abs(sum(props) - 1.0) > 1e-9:
                raise ConfigError(f"{name}_proportions must be positive and sum to 1")


def equal_proportions(k: int) -> Tuple[float, ...]:
    return tuple(1.0 / k for _ in range(k))


def ramped_proportions(k: int) -> Tuple[float, ...]:
    # ramp splits in the spirit of 0.2/0.3/0.5
    weights = np.arange(1, k + 1, dtype=np.float64)
    return tuple(weights / weights.sum())


# sizes, cluster counts, overlap degree and proportions of the four
# simulated regimes; separation 4 = well-separated, 1 = ill-separated
BLOCK_PRESETS = {
    "D1": BlockConfig(600, 300, 3, 3, equal_proportions(3), equal_proportions(3), 4.0),
    "D2": BlockConfig(600, 300, 3, 3, ramped_proportions(3), ramped_proportions(3), 4.0),
    "D3": BlockConfig(300, 200, 2, 4, equal_proportions(2), equal_proportions(4), 1.0),
    "D4": BlockConfig(300, 300, 5, 4, ramped_proportions(5), ramped_proportions(4), 1.0),
}


def _cluster_sizes(k: int, proportions: Sequence[float], total: int) -> np.ndarray:
    # largest-remainder rounding so sizes always sum to the total
    raw = np.asarray(proportions) * total
    sizes = np.floor(raw).astype(int)
    order = np.argsort(-(raw - sizes))
    for i in range(total - sizes.sum()):
        sizes[order[i % k]] += 1
    if np.any(sizes < 1):
        raise ConfigError("a cluster received no members; adjust proportions or sizes")
    return sizes


def generate_blocks(config: BlockConfig, seed: int):
    """Gaussian block model: entry (i, k) ~ Normal(mu[row_cluster, col_cluster], 1).

    Block means sit on a seeded permutation of the integer grid
    ``{0, ..., g*m - 1}`` scaled by ``separation``, so every block is
    distinct and overlap is controlled by separation vs the unit noise.

    Returns ``(X, row_labels, col_labels)``; deterministic for a fixed seed.
    """
    check_integer(seed=seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    g, m = config.row_clusters, config.col_clusters
    rng = np.random.default_rng(seed)
    means = config.separation * rng.permutation(g * m).reshape(g, m).astype(np.float64)
    row_labels = np.repeat(np.arange(g), _cluster_sizes(g, config.row_proportions, config.n))
    col_labels = np.repeat(np.arange(m), _cluster_sizes(m, config.col_proportions, config.d))
    X = rng.normal(means[np.ix_(row_labels, col_labels)], 1.0)
    return X, row_labels, col_labels


# ---------------------------------------------------------------------------
# label propagation / heterogeneous adaptation


def as_label_matrix(onehot, name: str = "labels") -> np.ndarray:
    """Validate a one-hot label matrix: 0/1 entries, rows summing to 0 or 1
    (an all-zero row is an unlabeled sample)."""
    Y = as_matrix(onehot, name)
    if not np.all((Y == 0.0) | (Y == 1.0)):
        raise DomainError(f"{name}: entries must be 0 or 1")
    sums = Y.sum(axis=1)
    if not np.all((sums == 0.0) | (sums == 1.0)):
        raise DomainError(f"{name}: each row must be one-hot or all zero")
    return Y


def one_hot_labels(labels, num_classes: Optional[int] = None) -> np.ndarray:
    """One-hot matrix from integer labels; -1 marks unlabeled (all-zero row).
    Integer-valued floats are read as their integers; other values raise."""
    values = np.asarray(labels, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise DimensionError(f"labels must be a non-empty 1-D array, got shape {values.shape}")
    bad = ~np.isfinite(values) | (values != np.round(values))
    if bad.any():
        raise DomainError(f"labels must be integers, got {values[bad][0]:g}")
    if values.min() < -1:
        raise DomainError("labels must be >= -1 (-1 means unlabeled)")
    if values.max() >= 2.0**63:
        raise DomainError(f"label {values.max():g} is beyond the int64 range")
    labels = values.astype(np.int64)
    if num_classes is not None:
        check_integer(num_classes=num_classes)
    k = int(labels.max()) + 1 if num_classes is None else num_classes
    if k < 1:
        raise DomainError("at least one class is required")
    if labels.max() >= k:
        raise DomainError(f"label {labels.max()} out of range for {k} classes")
    out = np.zeros((labels.size, k))
    mask = labels >= 0
    out[np.nonzero(mask)[0], labels[mask]] = 1.0
    return out


def propagate_labels(sample_plan, source_onehot) -> Tuple[np.ndarray, np.ndarray]:
    """Push one-hot source labels through the sample coupling.

    ``scores = plan^T @ Y`` (the plan couples sources to targets, so the
    transpose is the dimension-consistent product); predicted label is the
    row argmax with ties to the lowest class index. Rows with zero score
    (all coupled mass unlabeled) get label -1.
    """
    plan = plan_array(sample_plan)
    Y = as_label_matrix(source_onehot, "source labels")
    if Y.shape[0] != plan.shape[0]:
        raise DimensionError(
            f"label matrix rows ({Y.shape[0]}) must match coupling rows ({plan.shape[0]})"
        )
    scores = plan.T @ Y
    labels = np.argmax(scores, axis=1)
    labels[scores.sum(axis=1) <= 0] = -1
    return scores, labels


def mask_semisupervised_cost(cost, source_onehot, target_onehot, penalty: float) -> np.ndarray:
    """Add ``penalty`` where a labeled source meets a labeled target of a
    different class; unlabeled rows/columns are untouched."""
    cost = as_matrix(cost, "cost")
    mask = class_mismatch_mask(source_onehot, target_onehot)
    if mask.shape != cost.shape:
        raise DimensionError(f"cost {cost.shape} vs label mask {mask.shape}")
    if penalty <= 0:
        raise DomainError("penalty must be > 0")
    return cost + penalty * mask


def class_mismatch_mask(source_onehot, target_onehot) -> np.ndarray:
    """0/1 matrix marking (labeled source, labeled target) pairs whose
    classes differ."""
    Ys = as_label_matrix(source_onehot, "source labels")
    Yt = as_label_matrix(target_onehot, "target labels")
    if Ys.shape[1] != Yt.shape[1]:
        raise DimensionError("label matrices must share the class axis")
    labeled = np.outer(Ys.sum(axis=1) > 0, Yt.sum(axis=1) > 0)
    same_class = (Ys @ Yt.T) > 0
    return (labeled & ~same_class).astype(np.float64)


@dataclass(frozen=True)
class HdaResult:
    scores: np.ndarray
    labels: np.ndarray
    solution: CootSolution


def hda_pipeline(
    Xs,
    Xt,
    source_labels,
    target_labels: Optional[np.ndarray] = None,
    num_classes: Optional[int] = None,
    loss: Loss = SQUARED_EUCLIDEAN,
    eps1: float = 0.0,
    eps2: float = 0.0,
    restarts: int = 20,
    seed: int = 0,
    jobs: int = 1,
    penalty: Optional[float] = None,
) -> HdaResult:
    """Solve the cross-domain coupling and propagate source labels.

    ``target_labels`` (integers, -1 for unlabeled) switch on the
    semi-supervised mask: the class-mismatch indicator is added to the
    sample-side cost inside every iteration, scaled by ``penalty`` (auto
    when None). Each label array needs one entry per row of its data.
    """
    Xs, Xt = as_matrix(Xs, "X"), as_matrix(Xt, "X'")
    Ys = one_hot_labels(source_labels, num_classes)
    if len(Ys) != len(Xs):
        raise DimensionError(f"got {len(Ys)} source labels for {len(Xs)} source rows")
    mask = None
    if target_labels is not None:
        Yt = one_hot_labels(target_labels, Ys.shape[1])
        if len(Yt) != len(Xt):
            raise DimensionError(f"got {len(Yt)} target labels for {len(Xt)} target rows")
        mask = class_mismatch_mask(Ys, Yt)
    problem = CootProblem(
        Xs, Xt, loss=loss, eps_samples=eps1, eps_features=eps2,
        sample_cost_mask=mask, mask_penalty=penalty,
    )
    solution = solve_coot(problem, restarts=restarts, seed=seed, jobs=jobs)
    scores, labels = propagate_labels(solution.sample_coupling, Ys)
    return HdaResult(scores=scores, labels=labels, solution=solution)


# ---------------------------------------------------------------------------
# election isomorphism distance


def as_election(positions) -> np.ndarray:
    """Validate a voter-by-candidate rank matrix.

    Every row must be a permutation of {1..m}, or every row one of
    {0..m-1}; a 0-based matrix is returned as ``E + 1``, so elections of
    either base compare as the same rankings.
    """
    E = as_matrix(positions, "election")
    m = E.shape[1]
    if np.any(E != np.round(E)):
        raise DomainError("election positions must be integers")
    sorted_rows = np.sort(E, axis=1)
    one_based = np.arange(1, m + 1, dtype=np.float64)
    zero_based = np.arange(m, dtype=np.float64)
    if np.all(sorted_rows == one_based):
        return E
    if np.all(sorted_rows == zero_based):
        return E + 1.0
    raise DomainError("every voter row must rank all candidates exactly once")


def election_solution(
    E,
    E2,
    restarts: int = 50,
    seed: int = 0,
    jobs: int = 1,
) -> Tuple[float, CootSolution]:
    """Distance plus the witnessing couplings (voter and candidate matchings)."""
    E = as_election(E)
    E2 = as_election(E2)
    if E.shape != E2.shape:
        raise DimensionError(f"elections must have equal shape, got {E.shape} vs {E2.shape}")
    n, m = E.shape
    problem = CootProblem(E, E2, loss=ABSOLUTE)
    solution = solve_coot(problem, restarts=restarts, seed=seed, jobs=jobs)
    return n * m * solution.cost, solution


def election_distance(E, E2, restarts: int = 50, seed: int = 0) -> float:
    """Minimal total rank disagreement over joint voter and candidate
    matchings: n*m times the co-optimal transport value with absolute loss
    and uniform weights."""
    distance, _ = election_solution(E, E2, restarts=restarts, seed=seed)
    return distance
