"""Co-optimal transport solver and small-instance ground-truth oracle.

The solver alternates two exact (or entropic) transport subproblems: update
the feature coupling against the cost contracted with the current sample
coupling, then update the sample coupling against the cost contracted with
the fresh feature coupling. With exact inner solvers each half-step can only
decrease the objective, so the trace is monotone. Gromov-Wasserstein
(:mod:`coopt.gw`) runs on the same driver as the tied case: one coupling on
both slots, so only the sample half-step is solved, and its exact steps that
move take the assignment path of :func:`~coopt.ot.exact_ot`. An exact half-step
whose cost equals the previous one up to rounding (``max|C - C_prev| <=
2**-40 max|C|``) keeps its previous plan instead of re-solving the LP; that
plan is within ``2 max|C - C_prev|`` of optimal. Otherwise each side starts
from the potentials of its previous result in the same restart; an exact
side's Kantorovich potentials list its next shortlist LP's first cells.

The problem is a non-convex bilinear program; alternation converges to a
partial optimum that depends on the starting point. Starts, in order: the
product coupling; in the tied case with equal sides, an identity-biased plan;
then seeded heavy-tailed perturbations of the product coupling projected
back onto the polytope. The best restart (lowest cost, then lowest restart
index) is returned.

The restarts are cut into shares (see :func:`_best_restart`), and each share
advances in lockstep, as one ``(R, ...)`` stack: each half-step contracts
all running restarts' couplings in one call, an entropic side solves them in
one :func:`~coopt.ot.entropic_ot_stack` call, and an exact side solves their
LPs one after another. A restart that has converged drops out, keeping only
its plans; every solver returns plans that own their memory, so none pins a
stack. The driver reads each inner result's plan alone: the two couplings of
each returned solution are the only :class:`~coopt.core.Coupling` objects a
solve builds. Each restart is bitwise what it gives solved alone, so results
do not depend on ``jobs``.

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
    check_integer,
    uniform_histogram,
)
from .ot import OtResult, entropic_ot_stack, exact_ot
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

    ``X`` and ``X'`` are checked when the problem is built, in the loss's
    domain too, by the :class:`~coopt.tensorcost.PreparedContraction` every
    solve of it contracts through. ``eps_samples``/``eps_features`` switch
    the inner updates between the exact LP (0) and the entropic solve (> 0,
    by :func:`~coopt.ot.entropic_ot`). ``sample_cost_mask`` is an optional
    0/1 matrix added (scaled by ``mask_penalty``) to the sample-side
    contracted cost each iteration; ``mask_penalty`` is a finite number > 0,
    or None for auto: 1e3 times the max entry of the unmasked cost,
    recomputed per iteration. The integer ``max_iter >= 0`` caps the outer
    iterations (0 returns the starting couplings); the integer
    ``sinkhorn_max_iter >= 1`` caps the Newton steps of each entropic call.
    The entropic strengths must be finite and ``tol`` (on the feature
    coupling's change per iteration) must be >= 0; NaN fails both.
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
        contraction = PreparedContraction(self.X, self.X2, self.loss)
        X, X2 = contraction.X, contraction.X2
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
        check_integer(max_iter=self.max_iter, sinkhorn_max_iter=self.sinkhorn_max_iter)
        if self.max_iter < 0 or self.sinkhorn_max_iter < 1:
            raise DomainError("need max_iter >= 0 and sinkhorn_max_iter >= 1 (the cap on "
                              "Newton steps per entropic solve), got "
                              f"{self.max_iter} and {self.sinkhorn_max_iter}")
        penalty = self.mask_penalty
        if penalty is not None and not (np.isfinite(penalty) and penalty > 0):
            raise DomainError(f"mask penalty must be a finite number > 0, got {penalty!r}")
        mask = self.sample_cost_mask
        if mask is not None:
            mask = as_matrix(mask, "sample cost mask")
            if mask.shape != (n, n2):
                raise DimensionError(f"sample cost mask must be {(n, n2)}, got {mask.shape}")
            if not np.isin(mask, (0.0, 1.0)).all():
                raise DomainError("sample cost mask entries must be 0 or 1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "X2", X2)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "wp", wp)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "vp", vp)
        object.__setattr__(self, "sample_cost_mask", mask)
        object.__setattr__(self, "_contraction", contraction)


@dataclass(frozen=True)
class CootSolution:
    """Best coupling pair found, with the unregularized objective trace.

    ``cost`` excludes the entropic terms so sweeps over ``eps`` stay
    comparable. ``objective_trace[0]`` is the value at the initialization and
    one entry follows per completed iteration. ``converged``: the last
    iteration met ``tol`` and every inner result the restart took converged.
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
    <= 1e-13 or 500 sweeps. A plan that has stopped leaves the sweeps: the
    plans still going are gathered into a copy, scaled there and scattered
    back when the next one stops, so each plan ends bitwise where it would
    stop alone. The residual's column part is summed only for the plans
    whose row part alone is within the bound, since it can only add to it.
    """
    add = np.add.reduce  # ndarray.sum without its Python wrapper, bitwise
    going = np.arange(len(plans))
    sub = plans
    rows = add(sub, axis=2)
    for _ in range(500):
        if going.size == 0:
            break
        sub *= (w / rows)[:, :, None]
        sub *= (wp / add(sub, axis=1))[:, None, :]
        rows = add(sub, axis=2)
        # core.marginal_residual of each plan that may pass
        residual = add(np.abs(rows - w), axis=1)
        near = residual <= 1e-13
        if not np.count_nonzero(near):
            continue
        # all column sums, not those of a gathered copy: as fast, and no copy
        residual[near] += add(np.abs(add(sub, axis=1)[near] - wp), axis=1)
        keep = ~(residual <= 1e-13)
        if not keep.all():
            if sub is not plans:
                plans[going] = sub
            going, sub, rows = going[keep], sub[keep], rows[keep]
    if sub is not plans:
        plans[going] = sub
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


_REUSE_RTOL = 2.0**-40


def _inner_ot(w, wp, cost, prev, current=None) -> OtResult:
    """One exact side's inner solve for one restart; ``prev`` is that side's
    previous ``(cost, result)`` pair, or None, and ``current`` the plan that
    priced ``cost`` when the step may take :func:`~coopt.ot.exact_ot`'s
    assignment path (a tied exact step), or None.

    It returns the previous result itself when ``max|cost - prev cost| <=
    2**-40 max|cost|``: the cost moved only by rounding, as in the last
    iteration of a converged solve, where the couplings repeat and the LP
    would only confirm its previous plan. That plan is within ``2 max|cost -
    prev cost|`` of optimal, far below the ``1e-9 max|cost|`` to which
    :func:`exact_ot` certifies a fresh plan. Otherwise the LP is solved warm
    from the previous result's Kantorovich potentials, which only a
    shortlist LP (above 3,000 cells) reads: they pick its first cells, and
    the plan is certified as a cold one is.
    """
    if prev is not None and np.abs(cost - prev[0]).max() <= _REUSE_RTOL * np.abs(cost).max():
        return prev[1]
    # positional, so that a stand-in taking ``*args`` sees the warm start too
    return exact_ot(w, wp, cost, None if prev is None else prev[1].potentials, current)


def _masked(costs: np.ndarray, problem: CootProblem) -> np.ndarray:
    """The stack of sample costs plus each one's mask penalty."""
    if problem.sample_cost_mask is None:
        return costs
    penalty = problem.mask_penalty
    if penalty is None:
        top = costs.max(axis=(1, 2))
        penalty = np.where(top > 0, 1e3 * top, 1.0)[:, None, None]
    return costs + penalty * problem.sample_cost_mask


def _stack(arrays: list) -> np.ndarray:
    """The arrays as one ``(R, ...)`` stack; a single array as a view of one."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _solve_stack(problem: CootProblem, starts: Sequence, tied: bool = False,
                 first_index: int = 0) -> List[CootSolution]:
    """Alternating solves from each of ``starts`` (None: the product
    couplings), advanced in lockstep; solution ``r`` has restart index
    ``first_index + r``.

    Every iteration contracts the couplings of all restarts still running
    as one stack; ``half_step``, which every inner result passes through,
    solves an entropic side's stack in one call and an exact side by
    :func:`_inner_ot` per restart. A restart that has converged drops out.
    Each numpy call computes every slice as it would alone, so solution
    ``r`` is bitwise the solve of ``starts[r]`` on its own. Memory grows with
    the number of restarts, so each stack is dropped once written back,
    except the ``pv`` stack, kept for the next change norm; a stopped
    restart drops its previous costs, which are stack slices.

    Each exact side remembers its last cost and result per restart, and
    :func:`_inner_ot` reuses an exact result when the new cost is the old
    one up to rounding, ``max|C - C_prev| <= 2**-40 max|C|``, so the
    iteration that only confirms a fixed point runs no LP there; the cost
    arrays are compared, not copied.

    A tied exact step passes :func:`~coopt.ot.exact_ot` the restart's
    current plan, so a uniform non-square step that moves is solved as an
    assignment on the lcm expansion. Such a plan is neither returned nor
    reused: the step that repeats its support is the fixed point, solved by
    the LP, and the restart passes no plan from then on. A restart that
    stops right after an assignment step (at ``max_iter``, or within a
    ``tol`` that large) solves that step's cost again by the LP and takes
    its plan and objective. Untied solves pass no plan, so they stay on the
    LP: there the converging iteration reuses a sample result, which must
    be an LP's to be returned.
    """
    # tied: one coupling on both slots (GW), no feature half-step. ``costs`` is
    # the sample-side contraction of the running restarts' ``pv``: it prices the
    # sample step and, summed against ``ps``, is the objective; the tied case
    # carries it over to price its next sample step.
    contraction = problem._contraction
    w, wp, v, vp = problem.w, problem.wp, problem.v, problem.vp
    ps = [np.outer(w, wp) if init is None else np.array(init[0], dtype=np.float64)
          for init in starts]
    pv = ps if tied else [np.outer(v, vp) if init is None else
                          np.array(init[1], dtype=np.float64) for init in starts]
    pvs = _stack(pv)  # the running restarts' pv
    costs = contraction.contract(pvs, Side.SAMPLE)
    traces = [[float((c * p).sum())] for c, p in zip(costs, ps)]
    # each side's previous (cost, result) per restart; an entropic side needs
    # only the result's potentials, so it keeps no cost
    prev_v = [None] * len(starts)
    prev_s = [None] * len(starts)
    converged = [False] * len(starts)
    inner_ok = [True] * len(starts)  # every inner result so far converged
    active = list(range(len(starts)))

    def half_step(marginals, costs, eps, prev, plans):
        # one side's inner solves for the running restarts, written back
        if eps > 0:
            # the restarts of a stack are at the same iteration: all or none are warm
            warm = None if prev[active[0]] is None else [prev[r][1].potentials for r in active]
            results = entropic_ot_stack(*marginals, costs, eps, max_iter=problem.sinkhorn_max_iter,
                                        tol=problem.sinkhorn_tol, init_potentials=warm)
        else:
            # a tied restart offers its current plan, and so the assignment path,
            # until a step repeats that plan's support and the LP solves it
            results = [_inner_ot(*marginals, c, prev[r], plans[r] if tied and
                                 (prev[r] is None or prev[r][1].kind == "assignment") else None)
                       for r, c in zip(active, costs)]
        for r, c, res in zip(active, costs, results):
            prev[r] = c if eps == 0 else None, res
            plans[r] = res.plan
            inner_ok[r] = inner_ok[r] and res.converged

    def stop(r):
        # a restart whose last sample plan came from the assignment path
        # re-solves that cost cold, so that it returns the LP's plan
        last = prev_s[r]
        if last is not None and last[1].kind == "assignment":
            res = _inner_ot(w, wp, last[0], None)
            ps[r] = res.plan
            inner_ok[r] = inner_ok[r] and res.converged
            cost = contraction.contract(res.plan[None], Side.SAMPLE)[0]
            traces[r][-1] = float((cost * res.plan).sum())
        # its plans own their memory; the previous costs it drops are slices
        prev_s[r] = prev_v[r] = None

    for _ in range(problem.max_iter):
        if not active:
            break
        if not tied:
            half_step((v, vp), contraction.contract(_stack([ps[r] for r in active]), Side.FEATURE),
                      problem.eps_features, prev_v, pv)
            stacked = _stack([pv[r] for r in active])
            costs = contraction.contract(stacked, Side.SAMPLE)
        half_step((w, wp), _masked(costs, problem), problem.eps_samples, prev_s, ps)
        if tied:
            stacked = _stack([pv[r] for r in active])
            costs = contraction.contract(stacked, Side.SAMPLE)
        # each restart's ||pv - its previous pv||, summed as np.linalg.norm sums it
        moved = (stacked - pvs).reshape(len(active), -1)
        moved = np.sqrt(np.vecdot(moved, moved))
        for i, r in enumerate(active):
            traces[r].append(float((costs[i] * ps[r]).sum()))
            if moved[i] <= problem.tol:
                converged[r] = True
                stop(r)
        going = [i for i, r in enumerate(active) if not converged[r]]
        active = [active[i] for i in going]
        pvs = stacked[going]
        costs = costs[going] if tied else None
        del stacked
    for r in active:
        stop(r)
    return [CootSolution(sample_coupling=Coupling(ps[r], w, wp),
                         feature_coupling=Coupling(pv[r], v, vp),
                         cost=traces[r][-1], objective_trace=traces[r],
                         iterations=len(traces[r]) - 1, converged=converged[r] and inner_ok[r],
                         restart_index=first_index + r)
            for r in range(len(starts))]


def _solve_single(problem: CootProblem,
                  init: Optional[Tuple[np.ndarray, np.ndarray]],
                  restart_index: int = 0, tied: bool = False) -> CootSolution:
    """One alternating solve from ``init`` (None: the product couplings): the
    one-restart case of :func:`_solve_stack`."""
    return _solve_stack(problem, [init], tied, restart_index)[0]


def _best_restart(problem: CootProblem, restarts: int, seed: int,
                  jobs: int = 1, tied: bool = False) -> CootSolution:
    """Best of ``restarts`` solves: lowest cost, ties to the lowest restart
    index, independent of ``jobs``. Starts, in order: the product coupling;
    if ``tied`` with equal sides and ``restarts > 1``, an identity-biased
    plan; then :func:`random_coupling` seeded ``(seed, r)``, r = 1, 2, ...

    The restarts are cut into shares, contiguous slices of the starts, and
    each share is one lockstep stack (:func:`_solve_stack`). At ``jobs ==
    1``, or with one restart, there is one share, solved on the calling
    thread. At ``jobs > 1``, ``min(jobs, restarts)`` threads solve as many
    near-equal shares if every side solved is entropic, and otherwise pull
    one restart at a time, in order, so restarts overlap in the LP solver,
    which runs outside the interpreter lock.
    """
    check_integer(restarts=restarts, seed=seed, jobs=jobs)
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    if jobs < 1:
        raise DomainError("jobs must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    starts = _starts(problem, restarts, seed, tied)
    threads = min(jobs, len(starts))
    if threads == 1:
        cuts = [0, len(starts)]
    elif problem.eps_samples > 0 and (tied or problem.eps_features > 0):
        cuts = [len(starts) * k // threads for k in range(threads + 1)]
    else:
        cuts = range(len(starts) + 1)
    # one share runs on the calling thread, which keeps its cached HiGHS models
    with ThreadPoolExecutor(threads) as pool:
        shares = (map if threads == 1 else pool.map)(
            lambda lo, hi: _solve_stack(problem, starts[lo:hi], tied, lo), cuts[:-1], cuts[1:])
        solutions = [sol for share in shares for sol in share]
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
    independent of ``jobs``: with ``jobs=1`` all restarts run as one lockstep
    stack; with more, ``jobs`` threads each run a share of the restarts as a
    stack when both sides are entropic, and otherwise pull one restart at a
    time. An entropic inner solve stopped at its Newton cap above its
    tolerance leaves the solution unconverged, as the outer cap does.

    Results are bitwise the same for one BLAS library and BLAS thread count,
    whatever ``jobs`` is. The thread count can move them: 1 against 2
    OpenBLAS 0.3.31 threads (2 vCPU) at 300x200 vs 250x180 moved the
    entropic plans (eps 0.05) on 3 of 3 seeds; exact plans kept their bytes.

    ``jobs > 1`` speeds up exact problems and large entropic ones but slows
    small entropic ones: with 2 vCPU, one BLAS thread and eps 0.05 on both
    sides, 20x12 vs 15x7 with 10 restarts ran 2.6-2.7x slower at
    ``jobs=2`` than at ``jobs=1``, and 600x100 vs 400x80 with 6 restarts
    1.6-1.8x faster.
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
