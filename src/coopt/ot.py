"""Inner solvers for the discrete transport subproblems.

Three entry points solve ``min <C, pi>`` over the transport polytope
``Pi(w, w')``:

* :func:`exact_ot`: LP-exact; the returned plan is a vertex of the polytope.
* :func:`sinkhorn`: entropic smoothing with strength ``eps``, run entirely in
  the log domain so large ``C/eps`` ratios never surface as NaN or overflow.
* :func:`entropic_ot`: the same entropic problem by Newton's method on the
  semi-dual over the shorter side, with eps-continuation; it converges
  where Sinkhorn crawls (tall-thin costs with large ``C/eps``).

All are safe to call concurrently on distinct inputs. They are pure but
for one cache: :func:`exact_ot` keeps, per thread, the HiGHS models of the
last two marginal pairs it solved on, so a sequence of LPs on fixed
marginals builds each model once. The cache changes no result.
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
    """

    coupling: Coupling
    cost: float
    iterations: int
    converged: bool
    marginal_error: float = 0.0
    potentials: Optional[Tuple[np.ndarray, np.ndarray]] = None


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


# Per-thread HiGHS models of the transport LP, keyed by the marginals'
# bytes, most recently used last; see _lp_model.
_models = threading.local()
_MODELS_PER_THREAD = 2


def _lp_model(w: np.ndarray, wp: np.ndarray):
    """This thread's HiGHS model of the transport LP on ``(w, wp)``, with all
    column indices, built with zero costs on first use.

    The marginal equalities, less the redundant last column sum, are the
    incidence matrix of a bipartite graph: column ``i*m + j`` has a 1 in rows
    ``i`` and ``n + j``, except the dropped row ``n + m - 1``. It goes to HiGHS
    column-wise through the array form of ``passModel``, as ``linprog(...,
    method="highs-ds")`` builds it. A thread keeps its
    ``_MODELS_PER_THREAD`` most recently used models, one per side of the
    COOT alternation, and drops them when it exits.
    """
    cache = getattr(_models, "cache", None)
    if cache is None:
        cache = _models.cache = {}
    key = (w.tobytes(), wp.tobytes())
    model = cache.pop(key, None)
    if model is None:
        n, m = w.size, wp.size
        cols = np.arange(n * m, dtype=np.int32)
        i, j = np.divmod(cols, np.int32(m))
        index = np.column_stack([i, n + j]).ravel()
        index = index[index < n + m - 1]
        start = np.zeros(n * m + 1, dtype=np.int32)
        np.cumsum(np.where(j < m - 1, 2, 1), out=start[1:])
        b = np.concatenate([w, wp[:-1]])
        h = highs._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        h.setOptionValue("solver", "simplex")
        h.setOptionValue("simplex_strategy",
                         highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        # integrality must be given per column; an empty array is rejected
        passed = h.passModel(n * m, n + m - 1, index.size, highs.MatrixFormat.kColwise,
                             highs.ObjSense.kMinimize, 0.0, np.zeros(n * m), np.zeros(n * m),
                             np.full(n * m, np.inf), b, b, start, index, np.ones(index.size),
                             np.zeros(n * m, dtype=np.int32))
        if passed == highs.HighsStatus.kError:
            raise DomainError("exact transport LP failed: HiGHS rejected the model")
        model = (h, cols)
        if len(cache) >= _MODELS_PER_THREAD:
            del cache[next(iter(cache))]
    cache[key] = model
    return model


def _transport_lp(w: np.ndarray, wp: np.ndarray, C: np.ndarray) -> Tuple[np.ndarray, int]:
    """Vertex plan of the transport LP by HiGHS dual simplex, and its iteration count.

    Runs on this thread's model for ``(w, wp)`` (:func:`_lp_model`) with the
    solver state cleared and the costs replaced, so every solve starts cold:
    plans and iteration counts are bitwise those of a fresh model, and so of
    ``linprog(..., method="highs-ds")``.
    """
    h, cols = _lp_model(w, wp)
    h.clearSolver()
    h.changeColsCost(cols.size, cols, C.ravel())
    h.run()
    status = h.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise DomainError(f"exact transport LP failed: {h.modelStatusToString(status)}")
    x = np.asarray(h.getSolution().col_value)
    return x.reshape(C.shape), h.getInfo().simplex_iteration_count


def exact_ot(w, wp, C) -> OtResult:
    """Solve the transport LP exactly.

    Uniform square instances dispatch to the Hungarian algorithm (the optimal
    vertex is a permutation matrix scaled by 1/n); everything else goes
    through HiGHS dual simplex with presolve off, which also returns a basic
    (vertex) solution. The constraint matrix is sparse, two nonzeros per
    column, and goes straight to scipy's bundled HiGHS binding (scipy >=
    1.17): ``linprog``'s validation and result assembly would cost about as
    much as the solve. The solve runs outside the interpreter lock, so
    restarts on threads overlap in it.

    Each thread keeps the models of the last two ``(w, wp)`` pairs it solved
    on, built once with zero costs; a call clears the solver state, sets the
    costs and solves cold, so results are bitwise those of a fresh model. The
    memory kept is at most two models per live thread, each with its ``n m``
    columns, ``2 n m`` nonzeros and the solver's work arrays: a few MB at
    200x150. Pool threads drop theirs when they exit.
    """
    w, wp, C = _check_inputs(w, wp, C)
    n, m = C.shape
    if _is_uniform_square(w, wp):
        rows, cols = linear_sum_assignment(C)
        plan = np.zeros((n, m))
        plan[rows, cols] = w[0]
        cost = float((C * plan).sum())
        return OtResult(Coupling(plan, w, wp), cost, iterations=1, converged=True)

    x, nit = _transport_lp(w, wp, C)
    plan = np.maximum(x, 0.0)
    cost = float((C * plan).sum())
    coupling = Coupling(plan, w, wp)
    return OtResult(coupling, cost, iterations=int(nit), converged=True,
                    marginal_error=coupling.marginal_error())


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
