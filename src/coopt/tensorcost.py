"""Contracted cost matrices driving each alternating-minimization step.

For data matrices ``X (n x d)`` and ``X' (n' x d')`` and a pointwise loss
``L``, the four-index tensor ``L(X_ik, X'_jl)`` contracted with a coupling
gives the effective cost of the complementary transport problem:

* feature side: ``M_kl = sum_ij L(X_ik, X'_jl) pi_ij`` with a sample coupling
  ``pi (n x n')``, giving the ``d x d'`` cost for the feature transport step;
* sample side: ``M_ij = sum_kl L(X_ik, X'_jl) pi_kl`` with a feature coupling
  ``pi (d x d')``, giving the ``n x n'`` cost for the sample transport step.

The feature side of ``(X, X')`` is computed as the sample side of
``(X^T, X'^T)``, so each kernel has a single, sample-side body.

:func:`contract_naive` realizes the quadruple-sum semantics directly (the
reference path, O(n n' d d') work). :func:`contract_factored` uses the
``L(a,b) = f1(a) + f2(b) - h1(a) h2(b)`` split, turning the contraction into
three matrix products whose association order is chosen by comparing flop
counts. :func:`coot_objective` is the sample-side contraction summed against
the sample coupling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionError,
    Loss,
    UnsupportedLossError,
    as_matrix,
    plan_array,
)

__all__ = [
    "Side",
    "ContractedCost",
    "contract_naive",
    "contract_factored",
    "contract",
    "coot_objective",
]


class Side(enum.Enum):
    """Which coupling is being contracted away.

    Explicit rather than inferred from shapes: on square instances (n == d)
    both readings would type-check and a silent transposition is the failure
    mode this guards against.
    """

    FEATURE = "feature"  # contract a sample coupling, produce the d x d' cost
    SAMPLE = "sample"  # contract a feature coupling, produce the n x n' cost


@dataclass(frozen=True)
class ContractedCost:
    matrix: np.ndarray
    side: Side


def _check_contract_inputs(X, X2, pi, loss: Loss, side: Side):
    X = as_matrix(X, "X")
    X2 = as_matrix(X2, "X'")
    pi = plan_array(pi)
    if side is Side.FEATURE:
        X, X2 = X.T, X2.T
    elif side is not Side.SAMPLE:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown side {side!r}")
    expected = (X.shape[1], X2.shape[1])
    if pi.shape != expected:
        raise DimensionError(
            f"{side.value}-side contraction needs a {expected} coupling, got {pi.shape}"
        )
    loss.check_domain(X, X2)
    return X, X2, pi


def contract_naive(X, X2, pi, loss: Loss, side: Side) -> ContractedCost:
    """Reference contraction with explicit quadruple-sum semantics.

    Work is chunked along the first output axis so memory stays at one
    three-index slice; the reduction order is fixed, so results are
    deterministic for a fixed input.
    """
    X, X2, pi = _check_contract_inputs(X, X2, pi, loss, side)
    out = np.empty((X.shape[0], X2.shape[0]))
    for i in range(X.shape[0]):
        # slab[k, l, j] = L(X_ik, X'_jl), aggregated over (k, l) weighted by pi_kl
        slab = loss.pair(X[i, :][:, None, None], X2.T[None, :, :])
        out[i, :] = np.einsum("kl,klj->j", pi, slab)
    return ContractedCost(out, side)


def _h_term(A: np.ndarray, pi: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ pi @ B`` with the cheaper association order."""
    p, q = pi.shape
    r = A.shape[0]
    c = B.shape[1]
    left_first = r * p * q + r * q * c
    right_first = p * q * c + r * p * c
    if left_first <= right_first:
        return (A @ pi) @ B
    return A @ (pi @ B)


def contract_factored(X, X2, pi, loss: Loss, side: Side) -> ContractedCost:
    """Fast contraction via the loss decomposition.

    Equals :func:`contract_naive` within 1e-10 entrywise. The constant part
    uses the coupling's own marginals, so the identity holds for any
    nonnegative matrix ``pi``, feasible or not.
    """
    if not loss.has_decomposition:
        raise UnsupportedLossError(
            f"{loss.name} loss has no (f1, f2, h1, h2) decomposition; use contract_naive"
        )
    X, X2, pi = _check_contract_inputs(X, X2, pi, loss, side)
    row_mass = pi.sum(axis=1)
    col_mass = pi.sum(axis=0)
    const = (loss.f1(X) @ row_mass)[:, None] + (loss.f2(X2) @ col_mass)[None, :]
    cross = _h_term(loss.h1(X), pi, loss.h2(X2).T)
    return ContractedCost(const - cross, side)


def contract(X, X2, pi, loss: Loss, side: Side) -> np.ndarray:
    """Contracted cost matrix, factored when the loss allows it."""
    if loss.has_decomposition:
        return contract_factored(X, X2, pi, loss, side).matrix
    return contract_naive(X, X2, pi, loss, side).matrix


def coot_objective(X, X2, sample_plan, feature_plan, loss: Loss) -> float:
    """Doubly contracted objective ``sum L(X_ik, X'_jl) pi^s_ij pi^v_kl``."""
    X = as_matrix(X, "X")
    X2 = as_matrix(X2, "X'")
    ps = plan_array(sample_plan)
    pv = plan_array(feature_plan)
    n, d = X.shape
    n2, d2 = X2.shape
    if ps.shape != (n, n2) or pv.shape != (d, d2):
        raise DimensionError(
            f"couplings {ps.shape}/{pv.shape} do not match data ({n}x{d} vs {n2}x{d2})"
        )
    return float(np.sum(contract(X, X2, pv, loss, Side.SAMPLE) * ps))
