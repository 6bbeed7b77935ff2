"""Inner solvers for the discrete transport subproblems.

Two entry points solve ``min <C, pi>`` over the transport polytope
``Pi(w, w')``:

* :func:`exact_ot`: LP-exact; the returned plan is a vertex of the polytope.
* :func:`sinkhorn`: entropic smoothing with strength ``eps``, run entirely in
  the log domain so large ``C/eps`` ratios never surface as NaN or overflow.

Both are pure functions and safe to call concurrently on distinct inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csc_array

from .core import (
    Coupling,
    DimensionError,
    DomainError,
    as_histogram,
    as_matrix,
    marginal_residual,
)

__all__ = ["OtResult", "exact_ot", "sinkhorn"]


@dataclass(frozen=True)
class OtResult:
    """Solution of one transport subproblem.

    ``cost`` is the linear part ``<C, plan>`` only; for :func:`sinkhorn` the
    entropic term is excluded so values stay comparable across ``eps``.
    ``potentials`` holds the final log-domain duals of a Sinkhorn run and can
    warm-start a subsequent call on a nearby cost matrix.
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


def _is_uniform_square(w: np.ndarray, wp: np.ndarray) -> bool:
    return w.size == wp.size and np.all(w == w[0]) and np.all(wp == w[0])


def exact_ot(w, wp, C) -> OtResult:
    """Solve the transport LP exactly.

    Uniform square instances dispatch to the Hungarian algorithm (the optimal
    vertex is a permutation matrix scaled by 1/n); everything else goes
    through the HiGHS dual simplex, which also returns a basic (vertex)
    solution. The marginal equalities, less the redundant last column sum,
    are the incidence matrix of a bipartite graph: two nonzeros per column,
    so they are built sparse (dense, they take (n+m-1) x nm floats). HiGHS
    presolve is off: on these LPs it costs more time than it saves.
    """
    w, wp, C = _check_inputs(w, wp, C)
    n, m = C.shape
    if _is_uniform_square(w, wp):
        rows, cols = linear_sum_assignment(C)
        plan = np.zeros((n, m))
        plan[rows, cols] = w[0]
        cost = float(np.sum(C * plan))
        return OtResult(Coupling(plan, w, wp), cost, iterations=1, converged=True)

    # Column i*m + j has a 1 in rows i and n + j, except the dropped row n + m - 1.
    i, j = np.divmod(np.arange(n * m), m)
    rows = np.column_stack([i, n + j]).ravel()
    indptr = np.concatenate([[0], np.cumsum(np.where(j < m - 1, 2, 1))])
    a_eq = csc_array((np.ones(indptr[-1]), rows[rows < n + m - 1], indptr),
                     shape=(n + m - 1, n * m))
    res = linprog(C.ravel(), A_eq=a_eq, b_eq=np.concatenate([w, wp[:-1]]), method="highs-ds",
                  options={"presolve": False})
    if res.status != 0:
        raise DomainError(f"exact transport LP failed: {res.message}")
    plan = np.maximum(res.x.reshape(n, m), 0.0)
    cost = float(np.sum(C * plan))
    coupling = Coupling(plan, w, wp)
    return OtResult(coupling, cost, iterations=int(res.nit), converged=True,
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
    eps : regularization strength, > 0.
    max_iter : cap on full (row, column) update sweeps, >= 1.
    tol : L1 marginal residual target.
    init_potentials : optional ``(f, g)`` warm start from a previous run.

    Returns
    -------
    OtResult with ``converged=False`` when the cap is hit first; the plan is
    still the best available iterate and carries its ``marginal_error``.
    """
    w, wp, C = _check_inputs(w, wp, C)
    if eps <= 0:
        raise DomainError(f"sinkhorn needs eps > 0, got {eps}")
    if max_iter < 1:
        raise DomainError(f"sinkhorn needs max_iter >= 1, got {max_iter}")
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
