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

:class:`PreparedContraction` holds one data pair and loss: it checks the data
and evaluates the loss factors once, then contracts any number of couplings
through the same bodies as :func:`contract`, bitwise.
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
    "PreparedContraction",
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


def _oriented(side: Side, *arrays):
    """The arrays as they are for the sample side, transposed for the feature side."""
    return tuple(a.T for a in arrays) if side is Side.FEATURE else arrays


def _check_shape(pi: np.ndarray, X: np.ndarray, X2: np.ndarray, side: Side) -> None:
    if side is Side.SAMPLE:
        expected = (X.shape[1], X2.shape[1])
    elif side is Side.FEATURE:
        expected = (X.shape[0], X2.shape[0])
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown side {side!r}")
    if pi.shape != expected:
        raise DimensionError(
            f"{side.value}-side contraction needs a {expected} coupling, got {pi.shape}"
        )


def _check_contract_inputs(X, X2, pi, loss: Loss, side: Side):
    X = as_matrix(X, "X")
    X2 = as_matrix(X2, "X'")
    pi = plan_array(pi)
    _check_shape(pi, X, X2, side)
    loss.check_domain(X, X2)
    return X, X2, pi


def _naive(X: np.ndarray, X2: np.ndarray, pi: np.ndarray, loss: Loss) -> np.ndarray:
    out = np.empty((X.shape[0], X2.shape[0]))
    for i in range(X.shape[0]):
        # slab[k, l, j] = L(X_ik, X'_jl), aggregated over (k, l) weighted by pi_kl
        slab = loss.pair(X[i, :][:, None, None], X2.T[None, :, :])
        out[i, :] = np.einsum("kl,klj->j", pi, slab)
    return out


def _factors(X: np.ndarray, X2: np.ndarray, loss: Loss):
    """``(f1(X), f2(X'), h1(X), h2(X'))``. The factors act entrywise, so
    transposed they are the factors of the transposed data."""
    return loss.f1(X), loss.f2(X2), loss.h1(X), loss.h2(X2)


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


def _factored(factors, pi: np.ndarray) -> np.ndarray:
    # factors of sample-side oriented data; the constant part uses the
    # coupling's own marginals, so the identity holds for any nonnegative pi,
    # feasible or not
    f1, f2, h1, h2 = factors
    row_mass = pi.sum(axis=1)
    col_mass = pi.sum(axis=0)
    const = (f1 @ row_mass)[:, None] + (f2 @ col_mass)[None, :]
    return const - _h_term(h1, pi, h2.T)


class PreparedContraction:
    """The contractions of one data pair ``(X, X')`` under one loss.

    The data are checked once, when the object is built: finite, 2-D and in
    the loss's domain. The loss factors ``f1/f2/h1/h2`` are evaluated then
    too, once for both sides. :meth:`contract` checks only the coupling and
    returns bitwise the matrix :func:`contract` gives for the same
    arguments: factored when the loss allows it, naive otherwise. An
    alternating solve contracts a fresh coupling every half-step, so it
    prepares once per solve. The object is not changed after it is built,
    so threads may share it.
    """

    def __init__(self, X, X2, loss: Loss):
        X = as_matrix(X, "X")
        X2 = as_matrix(X2, "X'")
        loss.check_domain(X, X2)
        self.X = X
        self.X2 = X2
        self.loss = loss
        self._factors = _factors(X, X2, loss) if loss.has_decomposition else None

    def contract(self, pi, side: Side) -> np.ndarray:
        """Contracted cost matrix of the coupling ``pi`` (a plan or a
        :class:`~coopt.core.Coupling`) on ``side``."""
        pi = plan_array(pi)
        _check_shape(pi, self.X, self.X2, side)
        if self._factors is None:
            return _naive(*_oriented(side, self.X, self.X2), pi, self.loss)
        return _factored(_oriented(side, *self._factors), pi)


def contract_naive(X, X2, pi, loss: Loss, side: Side) -> ContractedCost:
    """Reference contraction with explicit quadruple-sum semantics.

    Work is chunked along the first output axis so memory stays at one
    three-index slice; the reduction order is fixed, so results are
    deterministic for a fixed input.
    """
    X, X2, pi = _check_contract_inputs(X, X2, pi, loss, side)
    return ContractedCost(_naive(*_oriented(side, X, X2), pi, loss), side)


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
    return ContractedCost(_factored(_oriented(side, *_factors(X, X2, loss)), pi), side)


def contract(X, X2, pi, loss: Loss, side: Side) -> np.ndarray:
    """Contracted cost matrix, factored when the loss allows it: the one-off
    form of :meth:`PreparedContraction.contract`."""
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
