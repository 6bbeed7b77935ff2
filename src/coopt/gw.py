"""Gromov-Wasserstein objective and the tied-coupling fixed-point solver.

Comparing two intra-domain similarity matrices with a single coupling on
both slots of the doubly contracted objective is the degenerate case of the
two-coupling problem. For squared Euclidean distance matrices the quadratic
form is concave over the polytope, so iterating

    pi <- OT(w, w', contracted_cost(pi))

minimizes a linear majorization each step (a difference-of-convex scheme)
and the objective can only decrease. The same iteration coincides with the
conditional-gradient update whose exact line search is always a full step:
the gradient is twice the contracted cost, and scaling a transport cost does
not change its minimizer. The iteration is the tied case of the alternating
driver and restart routine in :mod:`coopt.coot`, which also builds the
starts; this module only builds the problem and wraps the result.

For whitened data compared through cosine-similarity matrices, the optimum
here also agrees with transport formulations that optimize a linear feature
map (invariant-transport style); no such solver is provided.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .core import Coupling, DimensionError, DomainError, Loss, SQUARED_EUCLIDEAN, as_matrix
from .coot import ORACLE_MAX_SIZE, CootProblem, _best_restart, bap_oracle
from .ot import exact_ot, sinkhorn  # noqa: F401 -- wrapped by name in bench/spans.py
from .tensorcost import Side, contract, coot_objective

__all__ = [
    "SimilarityKind",
    "SimilarityMatrix",
    "sqeuclid_matrix",
    "gw_objective",
    "gw_gradient",
    "GwSolution",
    "solve_gw_dc",
    "gw_permutation_oracle",
    "gw_coot_equivalence_check",
]

_EQUIVALENCE_TOL = 1e-9  # relative slack of the gw_coot_equivalence_check comparisons


class SimilarityKind(enum.Enum):
    SQUARED_EUCLIDEAN = "squared_euclidean"
    GENERIC = "generic"


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square symmetric matrix of pairwise similarities between samples."""

    matrix: np.ndarray
    kind: SimilarityKind = SimilarityKind.GENERIC

    def __post_init__(self):
        m = as_matrix(self.matrix, "similarity matrix")
        if m.shape[0] != m.shape[1]:
            raise DimensionError(f"similarity matrix must be square, got {m.shape}")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise DomainError("similarity matrix must be symmetric within 1e-12")
        if self.kind is SimilarityKind.SQUARED_EUCLIDEAN:
            if np.any(np.abs(np.diag(m)) > 0) or np.any(m < 0):
                raise DomainError(
                    "squared-Euclidean similarity needs a zero diagonal and nonnegative entries"
                )
        object.__setattr__(self, "matrix", m)


def _sim_array(C) -> np.ndarray:
    if isinstance(C, SimilarityMatrix):
        return C.matrix
    return as_matrix(C, "similarity matrix")


def sqeuclid_matrix(points) -> SimilarityMatrix:
    """Pairwise squared Euclidean distances of the rows of ``points``.

    Uses the rank-one expansion ``x 1^T + 1 x^T - 2 X X^T`` with
    ``x = diag(X X^T)``; the result is symmetrized and clipped at zero to
    absorb cancellation at the 1e-16 scale.
    """
    X = as_matrix(points, "points")
    sq_norms = np.einsum("ij,ij->i", X, X)
    C = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (X @ X.T)
    C = np.maximum((C + C.T) / 2.0, 0.0)
    np.fill_diagonal(C, 0.0)
    return SimilarityMatrix(C, SimilarityKind.SQUARED_EUCLIDEAN)


def gw_objective(C, C2, pi, loss: Loss = SQUARED_EUCLIDEAN) -> float:
    """Doubly contracted objective with the same coupling on both slots.

    Shares the code path of :func:`coopt.tensorcost.coot_objective` exactly,
    so the two agree bitwise on tied couplings.
    """
    return coot_objective(_sim_array(C), _sim_array(C2), pi, pi, loss)


def gw_gradient(C, C2, pi, loss: Loss = SQUARED_EUCLIDEAN) -> np.ndarray:
    """Gradient of the quadratic objective: twice the contracted cost."""
    return 2.0 * contract(_sim_array(C), _sim_array(C2), pi, loss, Side.SAMPLE)


@dataclass(frozen=True)
class GwSolution:
    coupling: Coupling
    cost: float
    objective_trace: List[float] = field(repr=False)
    iterations: int = 0
    converged: bool = False
    restart_index: int = 0


def _dc_single(problem: CootProblem, restarts: int, seed: int) -> GwSolution:
    sol = _best_restart(problem, restarts, seed, tied=True)
    return GwSolution(sol.sample_coupling, sol.cost, sol.objective_trace,
                      sol.iterations, sol.converged, sol.restart_index)


def solve_gw_dc(
    C,
    C2,
    loss: Loss = SQUARED_EUCLIDEAN,
    eps: float = 0.0,
    max_iter: int = 100,
    tol: float = 1e-9,
    restarts: int = 1,
    seed: int = 0,
) -> GwSolution:
    """Tied-coupling fixed-point iteration for the quadratic transport problem.

    ``eps=0`` uses the exact inner solver; ``eps>0`` runs the entropic inner
    solver, which reproduces the projected-gradient scheme for the entropic
    quadratic problem. Both sides carry uniform weights. Restarts: product
    coupling first, then an identity-biased start when the two sides have
    equal size, then seeded heavy-tailed perturbations; lowest cost wins,
    ties to the lowest index.

    With ``eps=0`` and sides of different sizes whose lcm is at most 240,
    each step that moves the coupling is solved as an assignment on the
    lcm expansion (see :func:`~coopt.ot.exact_ot`). The step that repeats
    its plan's support is the fixed point and is solved by the LP, as is
    every later step of that restart, so the returned coupling is bitwise
    ``linprog``'s plan on the last cost, also when a restart stops at
    ``max_iter``. With ``tol=0`` a restart may take one iteration more than
    on the LP alone: the fixed point's LP plan differs from the assignment
    plan before it in the last bits.
    """
    C = SimilarityMatrix(_sim_array(C)).matrix
    C2 = SimilarityMatrix(_sim_array(C2)).matrix
    problem = CootProblem(C, C2, loss=loss, eps_samples=eps, max_iter=max_iter, tol=tol)
    return _dc_single(problem, restarts, seed)


def gw_permutation_oracle(C, C2, loss: Loss = SQUARED_EUCLIDEAN) -> float:
    """Exhaustive tied-permutation minimum ``(1/n^2) sum_ik L(C_ik, C'_s(i)s(k))``.

    Exact for squared Euclidean inputs with uniform weights, where the
    quadratic program is concave and attains its minimum at a vertex; for
    generic symmetric inputs it upper-bounds the polytope minimum.
    """
    C = _sim_array(C)
    C2 = _sim_array(C2)
    n = C.shape[0]
    if C2.shape[0] != n:
        raise DimensionError("tied-permutation enumeration needs equal sizes")
    if n > ORACLE_MAX_SIZE:
        raise DimensionError(f"enumeration refuses n > {ORACLE_MAX_SIZE}")
    best = np.inf
    for s in itertools.permutations(range(n)):
        s = list(s)
        best = min(best, float(np.sum(loss.pair(C, C2[np.ix_(s, s)])) / (n * n)))
    return best


def gw_coot_equivalence_check(points, points2) -> dict:
    """Certify agreement of the tied and two-coupling optima on squared
    Euclidean matrices built from two point clouds (enumeration-sized).

    Checks, all via brute force: the two-coupling value never exceeds the
    tied value; the two are equal here; and the tied pair built from the
    optimal single permutation attains the two-coupling optimum. Each holds
    up to a slack of ``1e-9 max(1, |GW value|)``.
    """
    C = sqeuclid_matrix(as_matrix(points, "points")).matrix
    C2 = sqeuclid_matrix(as_matrix(points2, "points'")).matrix
    n, n2 = C.shape[0], C2.shape[0]
    if n != n2:
        raise DimensionError("equivalence check needs equal sample counts")
    if n > 4:
        raise DimensionError("equivalence check enumerates (n!)^2 pairs; n <= 4 only")
    gw_value = gw_permutation_oracle(C, C2)
    coot = bap_oracle(C, C2)
    # evaluate the tied pair built from the optimal single permutation
    # through the factored objective, independent of the enumeration sums
    best_perm = min(
        itertools.permutations(range(n)),
        key=lambda s: float(np.sum(SQUARED_EUCLIDEAN.pair(C, C2[np.ix_(list(s), list(s))]))),
    )
    plan = np.zeros((n, n))
    plan[np.arange(n), list(best_perm)] = 1.0 / n
    tied_pair_value = coot_objective(C, C2, plan, plan, SQUARED_EUCLIDEAN)
    slack = _EQUIVALENCE_TOL * max(1.0, abs(gw_value))
    return {
        "coot_value": coot.cost,
        "gw_value": gw_value,
        "coot_leq_gw": coot.cost <= gw_value + slack,
        "values_equal": abs(coot.cost - gw_value) <= slack,
        "tied_pair_attains_coot": abs(tied_pair_value - coot.cost) <= slack,
    }
