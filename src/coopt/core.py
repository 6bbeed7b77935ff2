"""Shared dense types: data matrices, simplex weights, couplings and losses.

Everything is plain float64 numpy. Arrays returned by the validators in this
module are treated as immutable by the rest of the package; solvers copy
before mutating.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CooptError",
    "DimensionError",
    "DomainError",
    "UnsupportedLossError",
    "ConfigError",
    "as_matrix",
    "as_histogram",
    "uniform_histogram",
    "Loss",
    "SQUARED_EUCLIDEAN",
    "ABSOLUTE",
    "KULLBACK_LEIBLER",
    "LOSSES",
    "loss_eval",
    "Coupling",
    "marginal_residual",
    "validate_coupling",
]


class CooptError(Exception):
    """Base class for all package errors."""


class DimensionError(CooptError):
    """Shapes or sizes are inconsistent or out of supported range."""


class DomainError(CooptError):
    """A numeric input lies outside the valid domain of an operation."""


class UnsupportedLossError(CooptError):
    """The requested code path needs a loss decomposition that does not exist."""


class ConfigError(CooptError):
    """A configuration object is internally inconsistent."""


def check_integer(**values):
    """DomainError naming the first of ``values`` that is no integer (a
    Python or numpy one) by :func:`operator.index`."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise DomainError(f"{name} must be an integer, got {value!r}") from None


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a finite float64 2-D array with at least one row and column."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.size < 1:
        raise DimensionError(f"{name}: expected a non-empty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError(f"{name}: entries must be finite (no NaN/Inf)")
    return m


def as_histogram(a, name: str = "weights") -> np.ndarray:
    """Return ``a`` as a strictly positive float64 vector summing to 1 within 1e-12.

    Zero-mass atoms are rejected; callers must drop them before constructing
    the histogram.
    """
    h = np.asarray(a, dtype=np.float64)
    if h.ndim != 1 or h.size < 1:
        raise DimensionError(f"{name}: expected a non-empty 1-D array, got shape {h.shape}")
    # a valid histogram passes on one min and one sum (NaN fails the min's
    # test, +inf the sum's); the checks below only pick the error, and
    # reaching the last one means the sum was taken. The ufuncs' reduce is
    # what ndarray.min and .sum call, without their Python wrappers
    if np.minimum.reduce(h) > 0:
        total = np.add.reduce(h)
        if abs(total - 1.0) <= 1e-12:
            return h
    if not np.isfinite(h).all():
        raise DomainError(f"{name}: entries must be finite")
    if h.min() <= 0:
        raise DomainError(f"{name}: entries must be strictly positive")
    raise DomainError(f"{name}: entries must sum to 1 (got {total!r})")


def uniform_histogram(n: int) -> np.ndarray:
    """Uniform weight vector with ``n`` bins, renormalized to sum to 1."""
    check_integer(n=n)
    if n < 1:
        raise DimensionError(f"histogram needs at least one bin, got n={n}")
    h = np.full(n, 1.0 / n)
    return h / h.sum()


@dataclass(frozen=True)
class Loss:
    """Pointwise divergence ``L(a, b) >= 0`` between scalar entries.

    ``f1, f2, h1, h2`` are the optional factored pieces with
    ``L(a, b) = f1(a) + f2(b) - h1(a) * h2(b)``; they enable the fast
    contraction kernels. All callables are numpy-vectorized.

    ``a_min``/``b_min`` describe the valid domain: entries on the first
    slot must be >= a_min, and entries on the second slot > b_min.
    """

    name: str
    pair: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    a_min: Optional[float] = None
    b_min: Optional[float] = None

    @property
    def has_decomposition(self) -> bool:
        return self.f1 is not None

    def check_domain(self, a: np.ndarray, b: np.ndarray) -> None:
        if self.a_min is not None and np.any(np.asarray(a) < self.a_min):
            raise DomainError(f"{self.name} loss: first argument must be >= {self.a_min}")
        if self.b_min is not None and np.any(np.asarray(b) <= self.b_min):
            raise DomainError(f"{self.name} loss: second argument must be > {self.b_min}")

    def __repr__(self) -> str:  # keep solver reprs short
        return f"Loss({self.name!r})"


def _xlogx(a: np.ndarray) -> np.ndarray:
    # 0 * log(0) := 0
    a = np.asarray(a, dtype=np.float64)
    safe = np.where(a > 0, a, 1.0)
    return np.where(a > 0, a * np.log(safe), 0.0)


SQUARED_EUCLIDEAN = Loss(
    name="squared_euclidean",
    pair=lambda a, b: (a - b) ** 2,
    f1=lambda a: a**2,
    f2=lambda b: b**2,
    h1=lambda a: a,
    h2=lambda b: 2.0 * b,
)

ABSOLUTE = Loss(
    name="absolute",
    pair=lambda a, b: np.abs(a - b),
)

KULLBACK_LEIBLER = Loss(
    name="kullback_leibler",
    pair=lambda a, b: _xlogx(a) - a * np.log(b) - a + b,
    f1=lambda a: _xlogx(a) - a,
    f2=lambda b: b,
    h1=lambda a: a,
    h2=lambda b: np.log(b),
    a_min=0.0,
    b_min=0.0,
)

LOSSES = {
    "sq": SQUARED_EUCLIDEAN,
    "abs": ABSOLUTE,
    "kl": KULLBACK_LEIBLER,
}


def loss_eval(loss: Loss, a: float, b: float) -> float:
    """Evaluate ``loss`` on a scalar pair, checking its domain."""
    loss.check_domain(a, b)
    return float(loss.pair(np.float64(a), np.float64(b)))


@dataclass(frozen=True)
class Coupling:
    """Nonnegative transport plan with prescribed row/column marginals.

    Construction checks shapes and nonnegativity. Marginal agreement is a
    solver-dependent tolerance, checked explicitly with
    :func:`validate_coupling` or :meth:`feasible`.
    """

    plan: np.ndarray
    row_marginal: np.ndarray = field(repr=False)
    col_marginal: np.ndarray = field(repr=False)

    def __post_init__(self):
        plan = as_matrix(self.plan, "coupling plan")
        w = as_histogram(self.row_marginal, "row marginal")
        wp = as_histogram(self.col_marginal, "col marginal")
        if plan.shape != (w.size, wp.size):
            raise DimensionError(
                f"coupling plan {plan.shape} does not match marginals ({w.size}, {wp.size})"
            )
        if plan.min() < 0:  # as_matrix has ruled out NaN
            raise DomainError("coupling plan must be nonnegative")
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "row_marginal", w)
        object.__setattr__(self, "col_marginal", wp)

    @property
    def shape(self) -> tuple:
        return self.plan.shape

    def marginal_error(self) -> float:
        """Total L1 deviation of the plan's marginals from the prescribed ones."""
        return marginal_residual(self.plan, self.row_marginal, self.col_marginal)

    def feasible(self, tol: float = 1e-7) -> bool:
        return validate_coupling(self.plan, self.row_marginal, self.col_marginal, tol)


def marginal_residual(plan: np.ndarray, w: np.ndarray, wp: np.ndarray) -> float:
    """Total L1 deviation of the row and column sums of ``plan`` from ``w`` and ``wp``."""
    add = np.add.reduce  # ndarray.sum without its Python wrapper, bitwise
    return float(add(np.abs(add(plan, 1) - w)) + add(np.abs(add(plan, 0) - wp)))


def validate_coupling(plan, w, wp, tol: float) -> bool:
    """True iff ``plan`` is entrywise >= 0 with both marginals within ``tol``."""
    plan = as_matrix(plan, "plan")
    w = as_histogram(w, "row marginal")
    wp = as_histogram(wp, "col marginal")
    if plan.shape != (w.size, wp.size):
        raise DimensionError(
            f"plan shape {plan.shape} does not match marginals ({w.size}, {wp.size})"
        )
    if np.any(plan < 0):
        return False
    return bool(
        np.all(np.abs(plan.sum(axis=1) - w) <= tol)
        and np.all(np.abs(plan.sum(axis=0) - wp) <= tol)
    )


def plan_array(pi) -> np.ndarray:
    """Accept a Coupling or a raw array and return the underlying plan."""
    if isinstance(pi, Coupling):
        return pi.plan
    return as_matrix(pi, "coupling")
