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
through the same bodies as :func:`contract`, bitwise. It is the one place
contraction inputs are checked: every function here builds one and checks
its couplings through it, so all raise the same errors for the same inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionError,
    DomainError,
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


def _plan_stack(pi: np.ndarray) -> np.ndarray:
    """An ``(R, p, q)`` stack of plans as float64, checked finite and non-empty."""
    stack = np.asarray(pi, dtype=np.float64)
    if 0 in stack.shape:
        raise DimensionError(f"coupling stack: expected non-empty plans, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise DomainError("coupling stack: entries must be finite (no NaN/Inf)")
    return stack


def _naive(X: np.ndarray, X2: np.ndarray, pi: np.ndarray, loss: Loss) -> np.ndarray:
    # pi is an (R, p, q) stack; each slab serves every plan in one einsum
    out = np.empty((len(pi), X.shape[0], X2.shape[0]))
    for i in range(X.shape[0]):
        # slab[k, l, j] = L(X_ik, X'_jl), aggregated over (k, l) weighted by pi_kl
        slab = loss.pair(X[i, :][:, None, None], X2.T[None, :, :])
        out[:, i, :] = np.einsum("rkl,klj->rj", pi, slab)
    return out


def _factors(X: np.ndarray, X2: np.ndarray, loss: Loss):
    """``(f1(X), f2(X'), h1(X), h2(X'))``. The factors act entrywise, so
    transposed they are the factors of the transposed data."""
    return loss.f1(X), loss.f2(X2), loss.h1(X), loss.h2(X2)


def _h_term(A: np.ndarray, pi: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ pi @ B`` for each plan of the stack ``pi``, with the cheaper
    association order."""
    p, q = pi.shape[1:]
    r = A.shape[0]
    c = B.shape[1]
    left_first = r * p * q + r * q * c
    right_first = p * q * c + r * p * c
    if left_first <= right_first:
        return (A @ pi) @ B
    return A @ (pi @ B)


def _factored(factors, pi: np.ndarray) -> np.ndarray:
    # factors of sample-side oriented data, pi an (R, p, q) stack; the
    # constant part uses each coupling's own marginals, so the identity holds
    # for any nonnegative pi, feasible or not. Each matrix-vector product is
    # broadcast over the stack, so every slice is the product of its plan alone
    f1, f2, h1, h2 = factors
    row_mass = pi.sum(axis=2)
    col_mass = pi.sum(axis=1)
    const = (f1 @ row_mass[:, :, None]) + (f2 @ col_mass[:, :, None]).transpose(0, 2, 1)
    return const - _h_term(h1, pi, h2.T)


class PreparedContraction:
    """The contractions of one data pair ``(X, X')`` under one loss.

    The data are checked once, when the object is built: finite, 2-D and in
    the loss's domain. The loss factors ``f1/f2/h1/h2`` are evaluated then
    too, once for both sides. :meth:`contract` checks only the coupling and
    returns bitwise the matrix :func:`contract` gives for the same
    arguments: factored when the loss allows it, naive otherwise. An
    alternating solve contracts a fresh coupling every half-step, so a
    :class:`~coopt.coot.CootProblem` prepares once, when it is built, and
    every solve of it contracts through that object. The object is not
    changed after it is built, so threads may share it.
    """

    def __init__(self, X, X2, loss: Loss):
        X = as_matrix(X, "X")
        X2 = as_matrix(X2, "X'")
        loss.check_domain(X, X2)
        self.X = X
        self.X2 = X2
        self.loss = loss
        self._factors = _factors(X, X2, loss) if loss.has_decomposition else None

    def _plans(self, pi, side: Side, stacked: bool) -> np.ndarray:
        """The coupling ``pi`` as an ``(R, p, q)`` stack checked for ``side``:
        ``pi`` itself if ``stacked``, else the stack of the one plan (or
        :class:`~coopt.core.Coupling`) ``pi``."""
        stack = _plan_stack(pi) if stacked else plan_array(pi)[None]
        X, X2 = _oriented(side, self.X, self.X2)
        expected = (X.shape[1], X2.shape[1])
        if stack.shape[1:] != expected:
            raise DimensionError(f"{side.value}-side contraction needs a {expected} coupling, "
                                 f"got {stack.shape[1:]}")
        return stack

    def contract(self, pi, side: Side) -> np.ndarray:
        """Contracted cost matrix of the coupling ``pi`` (a plan or a
        :class:`~coopt.core.Coupling`) on ``side``.

        ``pi`` may also be an ``(R, p, q)`` array of plans; the result is the
        ``(R, ...)`` stack of their costs, each bitwise the cost of its plan
        contracted alone.
        """
        stacked = isinstance(pi, np.ndarray) and pi.ndim == 3
        out = self._contract(self._plans(pi, side, stacked), side)
        return out if stacked else out[0]

    def _contract(self, stack: np.ndarray, side: Side) -> np.ndarray:
        """The costs of a stack checked by :meth:`_plans`."""
        if self._factors is None:
            return _naive(*_oriented(side, self.X, self.X2), stack, self.loss)
        return _factored(_oriented(side, *self._factors), stack)


def contract_naive(X, X2, pi, loss: Loss, side: Side) -> ContractedCost:
    """Reference contraction with explicit quadruple-sum semantics.

    Work is chunked along the first output axis so memory stays at one
    three-index slice; the reduction order is fixed, so results are
    deterministic for a fixed input.
    """
    prep = PreparedContraction(X, X2, loss)
    stack = prep._plans(pi, side, False)
    return ContractedCost(_naive(*_oriented(side, prep.X, prep.X2), stack, loss)[0], side)


def contract_factored(X, X2, pi, loss: Loss, side: Side) -> ContractedCost:
    """Fast contraction via the loss decomposition: :func:`contract` on a
    loss that has one.

    Equals :func:`contract_naive` within 1e-10 entrywise. The constant part
    uses the coupling's own marginals, so the identity holds for any
    nonnegative matrix ``pi``, feasible or not.
    """
    if not loss.has_decomposition:
        raise UnsupportedLossError(
            f"{loss.name} loss has no (f1, f2, h1, h2) decomposition; use contract_naive"
        )
    return ContractedCost(contract(X, X2, pi, loss, side), side)


def contract(X, X2, pi, loss: Loss, side: Side) -> np.ndarray:
    """Contracted cost matrix of one coupling, factored when the loss allows
    it: the one-off form of :meth:`PreparedContraction.contract` for a 2-D
    ``pi``, which is checked once."""
    prep = PreparedContraction(X, X2, loss)
    return prep._contract(prep._plans(pi, side, False), side)[0]


def coot_objective(X, X2, sample_plan, feature_plan, loss: Loss) -> float:
    """Doubly contracted objective ``sum L(X_ik, X'_jl) pi^s_ij pi^v_kl``."""
    prep = PreparedContraction(X, X2, loss)
    ps = prep._plans(sample_plan, Side.FEATURE, False)[0]
    pv = prep._plans(feature_plan, Side.SAMPLE, False)
    return float(np.sum(prep._contract(pv, Side.SAMPLE)[0] * ps))
