"""Co-optimal transport solver and small-instance ground-truth oracle.

The solver alternates two exact (or entropic) transport subproblems: update
the feature coupling against the cost contracted with the current sample
coupling, then update the sample coupling against the cost contracted with
the fresh feature coupling. With exact inner solvers each half-step can only
decrease the objective, so the trace is monotone. Gromov-Wasserstein
(:mod:`coopt.gw`) runs on the same driver as the tied case: one coupling on
both slots, so only the sample half-step is solved.

The problem is a non-convex bilinear program; alternation converges to a
partial optimum that depends on the starting point. Starts, in order: the
product coupling; in the tied case with equal sides, an identity-biased plan;
then seeded heavy-tailed perturbations of the product coupling projected
back onto the polytope. The best restart (lowest cost, then lowest restart
index) is returned.

:func:`bap_oracle` enumerates all row/column permutation pairs, which is the
exact optimum for uniform square instances since an optimal pair of vertices
always exists; it is the reference the solver is certified against in tests.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Coupling,
    DimensionError,
    DomainError,
    Loss,
    SQUARED_EUCLIDEAN,
    as_histogram,
    as_matrix,
    uniform_histogram,
)
from .ot import OtResult, entropic_ot, exact_ot
from .ot import sinkhorn  # noqa: F401 -- wrapped by name in bench/spans.py
from .tensorcost import PreparedContraction, Side
from .tensorcost import contract, coot_objective  # noqa: F401 -- wrapped by name in bench/spans.py

__all__ = [
    "CootProblem",
    "CootSolution",
    "solve_coot",
    "random_coupling",
    "BapResult",
    "bap_oracle",
    "ORACLE_MAX_SIZE",
    "permutation_equal",
    "coot_distance_checks",
]

ORACLE_MAX_SIZE = 6


@dataclass(frozen=True)
class CootProblem:
    """Instance data plus solver knobs for one co-optimal transport solve.

    ``eps_samples``/``eps_features`` switch the corresponding inner update
    between the exact LP (0) and the entropic solve (> 0, by
    :func:`~coopt.ot.entropic_ot`). ``sample_cost_mask`` is an
    optional 0/1 matrix added (scaled by ``mask_penalty``) to the sample-side
    contracted cost each iteration; ``mask_penalty`` is a finite number > 0,
    or None for auto: 1e3 times the max entry of the unmasked cost,
    recomputed per iteration. ``max_iter >= 0`` caps the outer iterations (0
    returns the starting couplings); ``sinkhorn_max_iter >= 1`` caps the
    Newton steps of each entropic call. The entropic strengths must be finite
    and ``tol`` (on the feature coupling's change per iteration) must be >= 0;
    NaN fails both.
    """

    X: np.ndarray
    X2: np.ndarray
    w: Optional[np.ndarray] = None
    wp: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    vp: Optional[np.ndarray] = None
    loss: Loss = SQUARED_EUCLIDEAN
    eps_samples: float = 0.0
    eps_features: float = 0.0
    max_iter: int = 50
    tol: float = 1e-7
    sinkhorn_max_iter: int = 10000
    sample_cost_mask: Optional[np.ndarray] = None
    mask_penalty: Optional[float] = None
    sinkhorn_tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        X = as_matrix(self.X, "X")
        X2 = as_matrix(self.X2, "X'")
        n, d = X.shape
        n2, d2 = X2.shape
        w = uniform_histogram(n) if self.w is None else as_histogram(self.w, "w")
        wp = uniform_histogram(n2) if self.wp is None else as_histogram(self.wp, "w'")
        v = uniform_histogram(d) if self.v is None else as_histogram(self.v, "v")
        vp = uniform_histogram(d2) if self.vp is None else as_histogram(self.vp, "v'")
        if (w.size, v.size) != (n, d) or (wp.size, vp.size) != (n2, d2):
            raise DimensionError("weight lengths do not match matrix dimensions")
        if not (0 <= self.eps_samples < np.inf and 0 <= self.eps_features < np.inf):
            raise DomainError("entropic strengths must be finite and >= 0, got "
                              f"{self.eps_samples} and {self.eps_features}")
        if not self.tol >= 0:
            raise DomainError(f"tol must be >= 0, got {self.tol}")
        if self.max_iter < 0 or self.sinkhorn_max_iter < 1:
            raise DomainError("need max_iter >= 0 and sinkhorn_max_iter >= 1, got "
                              f"{self.max_iter} and {self.sinkhorn_max_iter}")
        penalty = self.mask_penalty
        if penalty is not None and not (np.isfinite(penalty) and penalty > 0):
            raise DomainError(f"mask penalty must be a finite number > 0, got {penalty!r}")
        mask = self.sample_cost_mask
        if mask is not None:
            mask = as_matrix(mask, "sample cost mask")
            if mask.shape != (n, n2):
                raise DimensionError(f"sample cost mask must be {(n, n2)}, got {mask.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "X2", X2)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "wp", wp)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "vp", vp)
        object.__setattr__(self, "sample_cost_mask", mask)


@dataclass(frozen=True)
class CootSolution:
    """Best coupling pair found, with the unregularized objective trace.

    ``cost`` excludes the entropic terms so sweeps over ``eps`` stay
    comparable. ``objective_trace[0]`` is the value at the initialization and
    one entry follows per completed iteration.
    """

    sample_coupling: Coupling
    feature_coupling: Coupling
    cost: float
    objective_trace: List[float] = field(repr=False)
    iterations: int = 0
    converged: bool = False
    restart_index: int = 0


def random_coupling(w, wp, rng: np.random.Generator) -> np.ndarray:
    """Seeded positive perturbation of the product coupling, projected back
    onto the polytope by alternate marginal scaling.

    The multiplicative noise is heavy-tailed (log-normal, sigma=2) so the
    projected plans land in genuinely different basins of attraction; mild
    noise tends to fall back into the product coupling's basin.
    """
    w = as_histogram(w, "w")
    wp = as_histogram(wp, "w'")
    return _scale_to_marginals(_perturbed(w, wp, rng)[None], w, wp)[0]


def _perturbed(w: np.ndarray, wp: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.outer(w, wp) * rng.lognormal(0.0, 2.0, (w.size, wp.size))


def _scale_to_marginals(plans: np.ndarray, w: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """Scale each plan of the ``(R, n, m)`` stack onto the marginals, in place.

    Rows, then columns, per sweep, until the plan's L1 marginal residual is
    <= 1e-13 or 500 sweeps. A plan that has stopped is multiplied by exactly
    1.0 from then on, so every plan ends bitwise where it would stop alone,
    and the stack is never copied.
    """
    rows = plans.sum(axis=2)
    active = np.ones(len(plans), dtype=bool)
    for _ in range(500):
        if not active.any():
            break
        factor = w / rows
        factor[~active] = 1.0
        plans *= factor[:, :, None]
        factor = wp / plans.sum(axis=1)
        factor[~active] = 1.0
        plans *= factor[:, None, :]
        rows = plans.sum(axis=2)
        # core.marginal_residual of each plan
        residual = np.abs(rows - w).sum(axis=1) + np.abs(plans.sum(axis=1) - wp).sum(axis=1)
        active &= ~(residual <= 1e-13)
    return plans


def _starts(problem: CootProblem, restarts: int, seed: int, tied: bool) -> list:
    """Start couplings in restart order (see :func:`_best_restart`), None for
    the product coupling. The noise is drawn in the order of one
    :func:`random_coupling` per plan, sample side first, and each side's
    plans are projected in one stack."""
    w, wp, v, vp = problem.w, problem.wp, problem.v, problem.vp
    biased = int(tied and w.size == wp.size and restarts > 1)
    seeded = restarts - 1 - biased
    sample = np.empty((biased + seeded, w.size, wp.size))
    feature = np.empty((0 if tied else seeded, v.size, vp.size))
    if biased:
        sample[0] = np.eye(w.size) * w.size + 1.0
    for r in range(1, seeded + 1):
        rng = np.random.default_rng([seed, r])
        sample[biased + r - 1] = _perturbed(w, wp, rng)
        if not tied:
            feature[r - 1] = _perturbed(v, vp, rng)
    _scale_to_marginals(sample, w, wp)
    _scale_to_marginals(feature, v, vp)
    pairs = [(ps, ps) for ps in sample] if tied else list(zip(sample, feature))
    return [None] + pairs


def _inner_ot(w, wp, cost, eps, problem: CootProblem, warm) -> OtResult:
    if eps > 0:
        return entropic_ot(w, wp, cost, eps, max_iter=problem.sinkhorn_max_iter,
                           tol=problem.sinkhorn_tol, init_potentials=warm)
    return exact_ot(w, wp, cost)


def _masked(cost: np.ndarray, problem: CootProblem) -> np.ndarray:
    if problem.sample_cost_mask is None:
        return cost
    penalty = problem.mask_penalty
    if penalty is None:
        top = float(cost.max())
        penalty = 1e3 * top if top > 0 else 1.0
    return cost + penalty * problem.sample_cost_mask


def _solve_single(problem: CootProblem,
                  init: Optional[Tuple[np.ndarray, np.ndarray]],
                  restart_index: int = 0, tied: bool = False) -> CootSolution:
    # tied: one coupling on both slots (GW), no feature half-step. ``cost`` is
    # the sample-side contraction of ``pv``: it prices the sample step and,
    # summed against ``ps``, is the objective.
    contraction = PreparedContraction(problem.X, problem.X2, problem.loss)
    w, wp, v, vp = problem.w, problem.wp, problem.v, problem.vp
    if init is None:
        ps = np.outer(w, wp)
        pv = np.outer(v, vp)
    else:
        ps = np.array(init[0], dtype=np.float64)
        pv = np.array(init[1], dtype=np.float64)
    if tied:
        pv = ps
    cost = contraction.contract(pv, Side.SAMPLE)
    trace = [float((cost * ps).sum())]
    warm_v = warm_s = None
    iterations = 0
    converged = False
    for _ in range(problem.max_iter):
        pv_prev = pv
        if not tied:
            feat_cost = contraction.contract(ps, Side.FEATURE)
            res_v = _inner_ot(v, vp, feat_cost, problem.eps_features, problem, warm_v)
            pv, warm_v = res_v.coupling.plan, res_v.potentials
            cost = contraction.contract(pv, Side.SAMPLE)
        res_s = _inner_ot(w, wp, _masked(cost, problem), problem.eps_samples, problem, warm_s)
        ps, warm_s = res_s.coupling.plan, res_s.potentials
        if tied:
            pv = ps
            cost = contraction.contract(pv, Side.SAMPLE)
        trace.append(float((cost * ps).sum()))
        iterations += 1
        if float(np.linalg.norm(pv - pv_prev)) <= problem.tol:
            converged = True
            break
    return CootSolution(
        sample_coupling=Coupling(ps, w, wp),
        feature_coupling=Coupling(pv, v, vp),
        cost=trace[-1],
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        restart_index=restart_index,
    )


def _best_restart(problem: CootProblem, restarts: int, seed: int,
                  jobs: int = 1, tied: bool = False) -> CootSolution:
    """Best of ``restarts`` solves: lowest cost, ties to the lowest restart
    index, independent of ``jobs``. Starts, in order: the product coupling;
    if ``tied`` with equal sides and ``restarts > 1``, an identity-biased
    plan; then :func:`random_coupling` seeded ``(seed, r)``, r = 1, 2, ..."""
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    if jobs < 1:
        raise DomainError("jobs must be >= 1")
    starts = _starts(problem, restarts, seed, tied)

    def run(indexed):
        return _solve_single(problem, indexed[1], indexed[0], tied)

    if jobs > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            solutions = list(pool.map(run, enumerate(starts)))
    else:
        solutions = [run(indexed) for indexed in enumerate(starts)]
    return min(solutions, key=lambda s: (s.cost, s.restart_index))


def solve_coot(
    problem: CootProblem,
    restarts: int = 1,
    seed: int = 0,
    jobs: int = 1,
) -> CootSolution:
    """Alternating minimization for the co-optimal transport problem.

    Restart 0 starts from the product couplings; restart ``r >= 1`` starts
    from :func:`random_coupling` seeded with ``(seed, r)``. The returned
    solution is the lowest-cost restart, ties broken by lowest restart index,
    independent of ``jobs``.
    """
    return _best_restart(problem, restarts, seed, jobs)


@dataclass(frozen=True)
class BapResult:
    cost: float
    row_perm: Tuple[int, ...]
    col_perm: Tuple[int, ...]


def bap_oracle(X, X2, loss: Loss = SQUARED_EUCLIDEAN) -> BapResult:
    """Exhaustive minimum of ``(1/(n d)) sum_ik L(X_ik, X'_s1(i),s2(k))``
    over all permutation pairs.

    Factorial-time by design; refuses instances beyond n, d = 6. For uniform
    weights this equals the co-optimal transport optimum, because the
    objective is bilinear and some optimal pair of polytope vertices
    (permutation matrices scaled by 1/n and 1/d) always exists.
    """
    X = as_matrix(X, "X")
    X2 = as_matrix(X2, "X'")
    n, d = X.shape
    if X2.shape != (n, d):
        raise DimensionError(f"oracle needs equal shapes, got {X.shape} vs {X2.shape}")
    if n > ORACLE_MAX_SIZE or d > ORACLE_MAX_SIZE:
        raise DimensionError(
            f"oracle enumerates (n!)(d!) pairs and refuses n or d > {ORACLE_MAX_SIZE}"
        )
    loss.check_domain(X, X2)
    row_perms = list(itertools.permutations(range(n)))
    col_perms = list(itertools.permutations(range(d)))
    # cost of (s1, s2) = <vec(P1), D vec(P2)> with D[(i,j),(k,l)] = L(X_ik, X'_jl)
    tensor = loss.pair(X[:, None, :, None], X2[None, :, None, :])  # (n, n, d, d)
    flat = tensor.reshape(n * n, d * d)
    rows = np.zeros((len(row_perms), n * n))
    for a, s1 in enumerate(row_perms):
        rows[a, np.arange(n) * n + np.array(s1)] = 1.0
    cols = np.zeros((len(col_perms), d * d))
    for b, s2 in enumerate(col_perms):
        cols[b, np.arange(d) * d + np.array(s2)] = 1.0
    table = rows @ flat @ cols.T / (n * d)
    a, b = np.unravel_index(np.argmin(table), table.shape)
    return BapResult(float(table[a, b]), row_perms[a], col_perms[b])


def permutation_equal(X, X2) -> bool:
    """True iff some row and column permutation maps ``X2`` onto ``X``
    exactly. Enumerative; same size bounds as the oracle."""
    X = as_matrix(X, "X")
    X2 = as_matrix(X2, "X'")
    if X.shape != X2.shape:
        return False
    n, d = X.shape
    if n > ORACLE_MAX_SIZE or d > ORACLE_MAX_SIZE:
        raise DimensionError(f"enumeration refuses n or d > {ORACLE_MAX_SIZE}")
    for s1 in itertools.permutations(range(n)):
        Y = X2[list(s1), :]
        for s2 in itertools.permutations(range(d)):
            if np.array_equal(X, Y[:, list(s2)]):
                return True
    return False


def coot_distance_checks(
    triples: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    loss: Loss,
) -> dict:
    """Check the metric axioms on oracle values over a batch of triples.

    For each triple (A, B, C): symmetry gap |d(A,B) - d(B,A)|, the triangle
    slack d(A,C) - d(A,B) - d(B,C), and agreement between "distance is zero"
    and "equal up to a permutation pair" for every pair in the triple.
    """
    sym_gap = 0.0
    tri_slack = -np.inf
    violations = 0
    indiscernible_ok = True
    for A, B, C in triples:
        d_ab = bap_oracle(A, B, loss).cost
        d_ba = bap_oracle(B, A, loss).cost
        d_bc = bap_oracle(B, C, loss).cost
        d_ac = bap_oracle(A, C, loss).cost
        sym_gap = max(sym_gap, abs(d_ab - d_ba))
        slack = d_ac - (d_ab + d_bc)
        tri_slack = max(tri_slack, slack)
        if slack > 1e-9:
            violations += 1
        for U, V, duv in ((A, B, d_ab), (B, C, d_bc), (A, C, d_ac)):
            if (duv == 0.0) != permutation_equal(U, V):
                indiscernible_ok = False
    return {
        "triples": len(triples),
        "max_symmetry_gap": sym_gap,
        "max_triangle_slack": float(tri_slack),
        "triangle_violations": violations,
        "indiscernibles_ok": indiscernible_ok,
    }
