"""Inner solvers for the discrete transport subproblems.

Three entry points solve ``min <C, pi>`` over the transport polytope
``Pi(w, w')``:

* :func:`exact_ot`: LP-exact; the returned plan is a vertex of the polytope,
  certified optimal to ``1e-9 max|C|`` in reduced cost.
* :func:`sinkhorn`: entropic smoothing with strength ``eps``, run entirely in
  the log domain so large ``C/eps`` ratios never surface as NaN or overflow.
* :func:`entropic_ot`: the same entropic problem by Newton's method on the
  semi-dual over the shorter side, with eps-continuation; it converges
  where Sinkhorn crawls (tall-thin costs with large ``C/eps``).

All are safe to call concurrently on distinct inputs. They are pure but
for one cache: for LPs of at most 3,000 cells,
:func:`exact_ot` keeps, per thread, the HiGHS models of the last two
marginal pairs it solved on, so a sequence of small LPs on fixed marginals
builds each model once. Larger LPs are solved on a shortlist of cells with
a model built per call, which is dropped on return. The cache changes no
result.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize import linprog  # noqa: F401 -- wrapped by name in bench/spans.py
from scipy.optimize._highspy import _core as highs

from .core import (
    Coupling,
    DimensionError,
    DomainError,
    as_histogram,
    as_matrix,
    marginal_residual,
)

__all__ = ["OtResult", "exact_ot", "sinkhorn", "entropic_ot"]


@dataclass(frozen=True)
class OtResult:
    """Solution of one transport subproblem.

    ``cost`` is the linear part ``<C, plan>`` only; for the entropic solvers
    the entropic term is excluded so values stay comparable across ``eps``.
    ``potentials`` holds the final log-domain duals ``(f, g)`` of an entropic
    run and can warm-start either entropic solver on a nearby cost matrix.
    ``certificate`` is an LP result's minimum reduced cost relative to
    ``max|C|`` (see :func:`exact_ot`); the other results report 0.
    """

    coupling: Coupling
    cost: float
    iterations: int
    converged: bool
    marginal_error: float = 0.0
    potentials: Optional[Tuple[np.ndarray, np.ndarray]] = None
    certificate: float = 0.0


def _check_inputs(w, wp, C):
    w = as_histogram(w, "w")
    wp = as_histogram(wp, "w'")
    C = as_matrix(C, "cost")
    if C.shape != (w.size, wp.size):
        raise DimensionError(f"cost shape {C.shape} does not match weights ({w.size}, {wp.size})")
    return w, wp, C


def _check_potentials(potentials, w, wp):
    """Warm potentials ``(f, g)``, when given, must match the weights' shapes."""
    if potentials is not None:
        shapes = tuple(np.shape(p) for p in potentials)
        if shapes != (w.shape, wp.shape):
            raise DimensionError(f"warm potentials {shapes} do not match weights "
                                 f"({w.size},) and ({wp.size},)")


def _is_uniform_square(w: np.ndarray, wp: np.ndarray) -> bool:
    return w.size == wp.size and (w == w[0]).all() and (wp == w[0]).all()


# Per-thread HiGHS models of the full transport LP, keyed by the marginals'
# bytes, most recently used last; see _lp_model.
_models = threading.local()
_MODELS_PER_THREAD = 2

# An LP with more than _SHORTLIST_CELLS cells is solved on a shortlist
# (_shortlist_lp): the _SHORTLIST_K cheapest cells of every row and column
# first, then up to _PRICE_PER_ROW violating cells per row and round. On LPs
# recorded from exact COOT solves (2 vCPU, one BLAS thread), the full LP was
# as fast up to about 2,700 cells and the shortlist faster from 3,850 on
# (1.6x at 7,500 cells, 2.5x at 30,000); of k = 4, 6 and 8, 6 was fastest at
# 30,000 cells.
_SHORTLIST_CELLS = 3000
_SHORTLIST_K = 6
_PRICE_PER_ROW = 3
# An LP result is certified when no cell has a reduced cost below
# -_CERTIFY max|C|.
_CERTIFY = 1e-9


def _highs_model(w: np.ndarray, wp: np.ndarray, i: np.ndarray, j: np.ndarray, costs):
    """A HiGHS model of the transport LP on ``(w, wp)`` whose columns are the
    cells ``(i, j)``, set for cold dual simplex with presolve off.

    The marginal equalities, less the redundant last column sum, are the
    incidence matrix of a bipartite graph: cell ``(i, j)`` has a 1 in rows
    ``i`` and ``n + j``, except the dropped row ``n + m - 1``. It goes to
    HiGHS column-wise through the array form of ``passModel``, as
    ``linprog(..., method="highs-ds")`` builds it.
    """
    n, m = w.size, wp.size
    start, index = _incidence(i, j, n, m)
    b = np.concatenate([w, wp[:-1]])
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("presolve", "off")
    h.setOptionValue("solver", "simplex")
    h.setOptionValue("simplex_strategy",
                     highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    # integrality must be given per column; an empty array is rejected
    passed = h.passModel(i.size, n + m - 1, index.size, highs.MatrixFormat.kColwise,
                         highs.ObjSense.kMinimize, 0.0, costs, np.zeros(i.size),
                         np.full(i.size, np.inf), b, b, start, index, np.ones(index.size),
                         np.zeros(i.size, dtype=np.int32))
    if passed == highs.HighsStatus.kError:
        raise DomainError("exact transport LP failed: HiGHS rejected the model")
    return h


def _incidence(i: np.ndarray, j: np.ndarray, n: int, m: int):
    """Column starts and row indices of the cells ``(i, j)``' constraint columns."""
    start = np.zeros(i.size + 1, dtype=np.int32)
    np.cumsum(np.where(j < m - 1, 2, 1), out=start[1:])
    index = np.column_stack([i, n + j]).ravel().astype(np.int32)
    return start, index[index < n + m - 1]


def _lp_model(w: np.ndarray, wp: np.ndarray):
    """This thread's model of the full transport LP on ``(w, wp)``, column
    ``i*m + j`` for cell ``(i, j)``, built with zero costs on first use.

    A thread keeps its ``_MODELS_PER_THREAD`` most recently used models, one
    per side of the COOT alternation, and drops them when it exits.
    """
    cache = getattr(_models, "cache", None)
    if cache is None:
        cache = _models.cache = {}
    key = (w.tobytes(), wp.tobytes())
    model = cache.pop(key, None)
    if model is None:
        n, m = w.size, wp.size
        cols = np.arange(n * m, dtype=np.int32)
        model = (_highs_model(w, wp, *np.divmod(cols, np.int32(m)), np.zeros(n * m)), cols)
        if len(cache) >= _MODELS_PER_THREAD:
            del cache[next(iter(cache))]
    cache[key] = model
    return model


def _solve(h) -> int:
    """Run HiGHS on ``h``; its simplex iterations, or DomainError unless optimal."""
    h.run()
    status = h.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise DomainError(f"exact transport LP failed: {h.modelStatusToString(status)}")
    # getInfo would copy the whole info record: 11 us a call against 1 us here
    return h.getInfoValue("simplex_iteration_count")[1]


def _solution(h, C: np.ndarray):
    """The solved model's column values, and the reduced costs ``C - u - v``
    of every cell from its row duals (``v`` is 0 on the dropped last column)."""
    sol = h.getSolution()
    y = np.asarray(sol.row_dual)
    red = C - y[:C.shape[0], None]
    red[:, :-1] -= y[C.shape[0]:]
    return np.asarray(sol.col_value), red


def _scaled(C: np.ndarray):
    """``C`` times the power of two that puts ``max|C|`` in [0.5, 1), which is
    exact, and that maximum; an all-zero ``C`` as is, with 1."""
    top = float(np.abs(C).max())
    if top == 0.0:
        return C, 1.0
    e = int(np.frexp(top)[1])
    return np.ldexp(C, -e), np.ldexp(top, -e)


def _transport_lp(w: np.ndarray, wp: np.ndarray, C: np.ndarray):
    """Vertex plan of the full transport LP by HiGHS dual simplex, its
    iteration count and its certificate.

    Runs on this thread's model for ``(w, wp)`` (:func:`_lp_model`) with the
    solver state cleared and the costs replaced, so every solve starts cold:
    plans and iteration counts are bitwise those of a fresh model, and so of
    ``linprog(..., method="highs-ds")``. HiGHS stops at an absolute dual
    tolerance of 1e-7; a plan that misses the certificate bound is re-solved
    warm on the scaled costs with the bound as tolerance, which is then put
    back for the next cold solve.
    """
    h, cols = _lp_model(w, wp)
    h.clearSolver()
    h.changeColsCost(cols.size, cols, C.ravel())
    nit = _solve(h)
    x, red = _solution(h, C)
    top = float(np.abs(C).max()) or 1.0
    if red.min() < -_CERTIFY * top:
        C, top = _scaled(C)
        h.changeColsCost(cols.size, cols, C.ravel())
        tol = h.getOptionValue("dual_feasibility_tolerance")[1]
        h.setOptionValue("dual_feasibility_tolerance", _CERTIFY * top)
        try:
            nit += _solve(h)
        finally:
            h.setOptionValue("dual_feasibility_tolerance", tol)
        x, red = _solution(h, C)
    return x.reshape(C.shape), nit, float(red.min()) / top


def _shortlist_lp(w: np.ndarray, wp: np.ndarray, C: np.ndarray):
    """Vertex plan of the transport LP by column generation on a shortlist,
    its iteration count and its certificate.

    The first model holds the ``_SHORTLIST_K`` cheapest cells of every row and
    of every column, and the north-west-corner staircase, so it is feasible;
    it is solved by dual simplex. Each round then prices every cell from the
    row duals, adds up to ``_PRICE_PER_ROW`` of the most negative reduced
    costs per row and re-solves warm by primal simplex, until no cell is
    below ``-_CERTIFY max|C|`` (Gottschlich & Schuhmacher, PLoS ONE 2014).
    HiGHS's dual tolerance is absolute and bounded below, so the costs are
    scaled by a power of two first. The model is built per call and dropped
    on return.
    """
    n, m = C.shape
    C, top = _scaled(C)
    stop = _CERTIFY * top
    listed = np.zeros((n, m), dtype=bool)
    k = min(_SHORTLIST_K, m)
    listed[np.arange(n)[:, None], np.argpartition(C, k - 1, axis=1)[:, :k]] = True
    k = min(_SHORTLIST_K, n)
    listed[np.argpartition(C, k - 1, axis=0)[:k], np.arange(m)] = True
    # each staircase cell with its neighbours below and to the right, so that
    # rounding in the cumulative sums cannot leave a gap
    a, b = np.cumsum(w)[:-1], np.cumsum(wp)[:-1]
    t = np.concatenate([[0.0], a, b])
    i, j = np.searchsorted(a, t, "right"), np.searchsorted(b, t, "right")
    listed[i, j] = True
    listed[np.minimum(i + 1, n - 1), j] = True
    listed[i, np.minimum(j + 1, m - 1)] = True
    cells = np.flatnonzero(listed)
    h = _highs_model(w, wp, *np.divmod(cells, m), C.ravel()[cells])
    h.setOptionValue("dual_feasibility_tolerance", stop)
    nit = 0
    while True:
        nit += _solve(h)
        x, red = _solution(h, C)
        worst = float(red.min())
        if worst >= -stop:
            break
        red[listed] = 0.0
        rows = np.flatnonzero(red.min(axis=1) < -stop)
        if rows.size == 0:
            break  # only listed cells price out, by rounding; the certificate shows it
        p = min(_PRICE_PER_ROW, m)
        pick = np.argpartition(red[rows], p - 1, axis=1)[:, :p]
        r, c = np.nonzero(np.take_along_axis(red[rows], pick, axis=1) < -stop)
        i, j = rows[r], pick[r, c]
        listed[i, j] = True
        new = i * m + j
        cells = np.concatenate([cells, new])
        start, index = _incidence(i, j, n, m)
        h.addCols(new.size, C.ravel()[new], np.zeros(new.size), np.full(new.size, np.inf),
                  index.size, start, index, np.ones(index.size))
        h.setOptionValue("simplex_strategy",
                         highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)
    plan = np.zeros(n * m)
    plan[cells] = x
    return plan.reshape(n, m), nit, worst / top


def exact_ot(w, wp, C) -> OtResult:
    """Solve the transport LP exactly.

    Uniform square instances dispatch to the Hungarian algorithm (the optimal
    vertex is a permutation matrix scaled by 1/n); everything else goes
    through HiGHS simplex with presolve off, which also returns a basic
    (vertex) solution. The constraint matrix is sparse, two nonzeros per
    column, and goes straight to scipy's bundled HiGHS binding (scipy >=
    1.17): ``linprog``'s validation and result assembly would cost about as
    much as the solve. The solve runs outside the interpreter lock, so
    restarts on threads overlap in it. There are two regimes:

    * Up to 3,000 cells, the full LP by dual simplex, bitwise
      ``linprog(..., method="highs-ds")``. Each thread keeps the models of
      the last two ``(w, wp)`` pairs it solved on, built once with zero
      costs; a call clears the solver state, sets the costs and solves
      cold, so results are bitwise those of a fresh model. Pool threads drop
      theirs when they exit.
    * Above that, a shortlist LP (:func:`_shortlist_lp`): the few cheapest
      cells of every row and column, then every cell priced from the duals
      and the violators added until none is left. Its model is built per
      call, so no large model stays resident.

    ``certificate`` is the minimum reduced cost ``C_ij - u_i - v_j`` over all
    cells, computed from the row duals, divided by ``max|C|`` (by 1 when
    ``C`` is all zero); the plan is optimal when it is >= 0. HiGHS's own
    dual tolerance is an absolute 1e-7, so a full-LP plan below ``-1e-9`` is
    re-solved warm with that bound as HiGHS's tolerance, as the shortlist LP
    is solved throughout. A Hungarian result is optimal by construction and
    reports 0.
    """
    w, wp, C = _check_inputs(w, wp, C)
    n, m = C.shape
    if _is_uniform_square(w, wp):
        rows, cols = linear_sum_assignment(C)
        plan = np.zeros((n, m))
        plan[rows, cols] = w[0]
        cost = float((C * plan).sum())
        return OtResult(Coupling(plan, w, wp), cost, iterations=1, converged=True)

    lp = _shortlist_lp if n * m > _SHORTLIST_CELLS else _transport_lp
    x, nit, certificate = lp(w, wp, C)
    plan = np.maximum(x, 0.0)
    cost = float((C * plan).sum())
    coupling = Coupling(plan, w, wp)
    return OtResult(coupling, cost, iterations=int(nit), converged=True,
                    marginal_error=coupling.marginal_error(), certificate=certificate)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)), axis=axis)


def sinkhorn(
    w,
    wp,
    C,
    eps: float,
    max_iter: int = 10000,
    tol: float = 1e-9,
    init_potentials: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> OtResult:
    """Entropic transport ``min <C, pi> + eps * H(pi | w w'^T)``.

    ``H`` is the relative entropy against the product coupling, so the plan
    has the form ``pi_ij = w_i w'_j exp((f_i + g_j - C_ij) / eps)``. Updates
    alternate exact row and column dual maximizations via log-sum-exp; the
    stopping rule is total L1 marginal deviation <= ``tol``.

    Parameters
    ----------
    eps : regularization strength, finite and > 0.
    max_iter : cap on full (row, column) update sweeps, >= 1.
    tol : L1 marginal residual target.
    init_potentials : optional ``(f, g)`` warm start from a previous run.

    Returns
    -------
    OtResult with ``converged=False`` when the cap is hit first; the plan is
    still the best available iterate and carries its ``marginal_error``.
    """
    w, wp, C = _check_inputs(w, wp, C)
    if not 0 < eps < np.inf:
        raise DomainError(f"sinkhorn needs eps > 0, got {eps}")
    if max_iter < 1:
        raise DomainError(f"sinkhorn needs max_iter >= 1, got {max_iter}")
    _check_potentials(init_potentials, w, wp)
    log_w = np.log(w)
    log_wp = np.log(wp)
    kernel = -C / eps
    if init_potentials is not None:
        f, g = (np.array(p, dtype=np.float64, copy=True) for p in init_potentials)
    else:
        f = np.zeros(w.size)
        g = np.zeros(wp.size)

    for it in range(1, max_iter + 1):
        f = -eps * _logsumexp(kernel + (log_wp + g / eps)[None, :], axis=1)
        g = -eps * _logsumexp(kernel + (log_w + f / eps)[:, None], axis=0)
        plan = np.exp((log_w + f / eps)[:, None] + (log_wp + g / eps)[None, :] + kernel)
        err = marginal_residual(plan, w, wp)
        if err <= tol:
            break
    converged = err <= tol
    cost = float(np.sum(C * plan))
    return OtResult(
        Coupling(plan, w, wp),
        cost,
        iterations=it,
        converged=converged,
        marginal_error=err,
        potentials=(f, g),
    )


# Newton on the semi-dual: the step is capped at _STEP_CAP * eps in sup-norm
# (uncapped, the first steps of a large-C/eps instance overshoot into regions
# where the plan saturates and the line search stalls); each continuation
# stage divides eps by _STAGE_FACTOR, and stages above the target eps stop at
# the loose residual _STAGE_TOL.
_STEP_CAP = 8.0
_STAGE_FACTOR = 4.0
_STAGE_TOL = 1e-3
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30


def _semi_dual(kernel, wl, log_ws, g, eps):
    """Long-side potential ``f`` in closed form for the short-side ``g``, and
    the plan the pair makes; its row sums are ``wl`` by construction."""
    a = kernel + (log_ws + g / eps)[None, :]
    top = a.max(axis=1, keepdims=True)
    e = np.exp(a - top)
    s = e.sum(axis=1, keepdims=True)
    return -eps * (top[:, 0] + np.log(s[:, 0])), wl[:, None] * (e / s)


def _newton_stage(C, wl, ws, eps, tol, g, budget, near=False):
    """Ascend the concave semi-dual ``F(g) = <wl, f(g)> + <ws, g>`` at one eps
    until the marginal residual is <= ``tol``, ``budget`` steps are taken or
    the line search stalls; with ``near``, a step that has to be capped also
    counts as a stall. ``g[-1]`` stays 0 (``F`` is flat along ones).

    Returns ``(g, f, plan, steps, stalled)``.
    """
    kernel = -C / eps
    log_ws = np.log(ws)
    # keeps the solve defined where the plan saturates (each row on a single
    # column) and the Hessian vanishes; the capped step then follows the gradient
    ridge = 1e-12 * np.eye(ws.size - 1)
    f, plan = _semi_dual(kernel, wl, log_ws, g, eps)
    value = wl @ f + ws @ g
    err = marginal_residual(plan, wl, ws)
    steps = 0
    while err > tol and steps < budget:
        col = plan.sum(axis=0)
        grad = ws - col
        # -eps * Hessian of F: diag(P^T 1) - P^T diag(1/wl) P, positive semi-definite
        hess = np.diag(col) - (plan / wl[:, None]).T @ plan
        d = np.zeros_like(g)
        d[:-1] = eps * np.linalg.solve(hess[:-1, :-1] + ridge, grad[:-1])
        shrink = _STEP_CAP * eps / np.max(np.abs(d))
        if shrink < 1.0:
            if near:
                return g, f, plan, steps, True
            d *= shrink
        slope = grad @ d
        # F is summed from terms of size |f| and |g|; gains below that
        # rounding count as none, and then the residual must fall
        noise = 1e-14 * (wl @ np.abs(f) + ws @ np.abs(g))
        t = 1.0
        while True:
            g_try = g + t * d
            f_try, plan_try = _semi_dual(kernel, wl, log_ws, g_try, eps)
            gain = wl @ f_try + ws @ g_try - value
            err_try = marginal_residual(plan_try, wl, ws)
            if gain >= _ARMIJO * t * slope or (gain >= -noise and err_try < err):
                break
            t /= 2.0
            if t < _MIN_STEP:
                return g, f, plan, steps, True
        g, f, plan, value, err = g_try, f_try, plan_try, value + gain, err_try
        steps += 1
    return g, f, plan, steps, False


def entropic_ot(
    w,
    wp,
    C,
    eps: float,
    max_iter: int = 10000,
    tol: float = 1e-9,
    init_potentials: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> OtResult:
    """The entropic transport problem of :func:`sinkhorn`, solved by Newton's
    method on the semi-dual over the shorter side.

    The longer side's potential is the closed-form log-sum-exp of the
    shorter side's, so that marginal holds by construction and a smooth
    concave problem in ``min(n, m)`` variables is left (Cuturi & Peyre, SIAM
    J. Imaging Sci. 2016). Its Hessian is ``min(n, m)`` square and built in
    ``O(n m min(n, m))``; steps use an Armijo line search and are capped at a
    few ``eps`` in sup-norm. Cold starts run eps-continuation: eps starts at
    ``max(C) - min(C)`` and falls 4x per stage down to ``eps``, carrying the
    potential across stages. Warm potentials are tried at ``eps`` first; the
    continuation takes over if the line search stalls or a step has to be
    capped, since a warm start that far off takes more capped steps than the
    continuation takes stages. A side of size 1 and a constant cost have
    closed-form plans.

    The contract is :func:`sinkhorn`'s: ``cost`` is ``<C, plan>``;
    ``converged`` means the L1 marginal residual ``marginal_error`` is <=
    ``tol``; ``potentials`` are ``(f, g)`` with ``pi_ij = w_i w'_j exp((f_i +
    g_j - C_ij) / eps)``, so they warm-start either solver. ``iterations``
    counts Newton steps over all stages, at most ``max_iter`` (>= 1).
    """
    w, wp, C = _check_inputs(w, wp, C)
    if not 0 < eps < np.inf:
        raise DomainError(f"entropic_ot needs eps > 0, got {eps}")
    if max_iter < 1:
        raise DomainError(f"entropic_ot needs max_iter >= 1, got {max_iter}")
    _check_potentials(init_potentials, w, wp)
    flip = C.shape[0] < C.shape[1]
    # rows of Cl are the long side, columns (potential g) the short side
    wl, ws, Cl = (wp, w, C.T) if flip else (w, wp, C)
    spread = float(Cl.max() - Cl.min())
    steps = 0
    if ws.size == 1 or spread == 0.0:
        g = np.zeros(ws.size)
        f = _semi_dual(-Cl / eps, wl, np.log(ws), g, eps)[0]
        plan = np.outer(wl, ws)
    else:
        stalled = True
        if init_potentials is not None:
            g = np.array(init_potentials[0 if flip else 1], dtype=np.float64)
            g, f, plan, steps, stalled = _newton_stage(
                Cl, wl, ws, eps, tol, g - g[-1], max_iter, near=True)
        if stalled:
            g = np.zeros(ws.size)
            stage_eps = spread
            while stage_eps > eps:
                g, f, plan, taken, _ = _newton_stage(
                    Cl, wl, ws, stage_eps, max(tol, _STAGE_TOL), g, max_iter - steps)
                steps += taken
                stage_eps /= _STAGE_FACTOR
            g, f, plan, taken, _ = _newton_stage(Cl, wl, ws, eps, tol, g, max_iter - steps)
            steps += taken
    if flip:
        f, g, plan = g, f, plan.T
    plan = np.ascontiguousarray(plan)
    err = marginal_residual(plan, w, wp)
    return OtResult(
        Coupling(plan, w, wp),
        float((C * plan).sum()),
        iterations=steps,
        converged=err <= tol,
        marginal_error=err,
        potentials=(f, g),
    )
