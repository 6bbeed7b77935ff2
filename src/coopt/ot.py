"""Inner solvers for the discrete transport subproblems.

Three entry points solve ``min <C, pi>`` over the transport polytope
``Pi(w, w')``:

* :func:`exact_ot`: LP-exact; the returned plan is a vertex of the polytope
  (an LP basis, or a permutation on uniform square marginals), certified
  optimal to ``1e-9 max|C|`` in reduced cost.
* :func:`sinkhorn`: entropic smoothing with strength ``eps``, run entirely in
  the log domain so large ``C/eps`` ratios never surface as NaN or overflow.
* :func:`entropic_ot`: the same entropic problem by Newton's method on the
  semi-dual over the shorter side, with eps-continuation; it converges
  where Sinkhorn crawls (tall-thin costs with large ``C/eps``).

Each returns an :class:`OtResult` that holds its plan; the checked
:class:`~coopt.core.Coupling` is built only if read. All are safe to call
concurrently on distinct inputs. They are pure but for one cache: for LPs
of at most 3,000 cells, :func:`exact_ot` keeps, per thread, the HiGHS
models of the last two marginal pairs it solved on, so a sequence of small
LPs on fixed marginals builds each model once. Larger LPs, and full LPs
that miss the certificate bound, are solved on a shortlist of cells with a
model built per call, which is dropped on return. A cached model only ever
has its costs changed, so the cache changes no result.

The exact solvers need two compiled scipy modules, the HiGHS binding
``scipy.optimize._highspy._core`` and the Hungarian solver
``scipy.optimize._lsap``. They are loaded straight from their files, without
the ``scipy.optimize`` package, whose init (linalg, fft, f2py, linprog, ...)
made ``import coopt`` take 0.27 s and 78 MB of RSS against 0.07 s and
34.5 MB now (2 vCPU). Both are registered in ``sys.modules`` under their own
names, so a later ``import scipy.optimize`` reuses the same module objects.
If a scipy release moves either file, ``import coopt`` raises an
``ImportError`` that names it and the ``scipy>=1.17`` floor.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import PathFinder
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Coupling,
    DimensionError,
    DomainError,
    as_histogram,
    as_matrix,
    check_integer,
    marginal_residual,
)

__all__ = ["OtResult", "exact_ot", "sinkhorn", "entropic_ot", "entropic_ot_stack"]


def _scipy_binary(name: str):
    """scipy's compiled module ``scipy.optimize.<name>``, loaded from its file
    without running ``scipy.optimize``'s package init, and registered under
    its own name, so a later ``import scipy.optimize`` reuses it."""
    full = f"scipy.optimize.{name}"
    if full not in sys.modules:
        optimize = importlib.util.find_spec("scipy.optimize").submodule_search_locations[0]
        where = os.path.join(optimize, *name.split(".")[:-1])
        spec = PathFinder.find_spec(full, [where])
        if spec is None:
            raise ImportError(f"coopt needs scipy's compiled {full} (scipy>=1.17), "
                              f"not found in {where}")
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
    return sys.modules[full]


highs = _scipy_binary("_highspy._core")
linear_sum_assignment = _scipy_binary("_lsap").linear_sum_assignment

# The small solves reduce through the ufuncs' reduce, which ndarray.sum, .max
# and .min call after a Python-level wrapper: the same result without the
# wrapper's half microsecond, on thousands of small arrays per pass.
_sum, _max, _min = np.add.reduce, np.maximum.reduce, np.minimum.reduce


def __getattr__(name):
    # ``linprog`` is bound only for bench/spans.py, which wraps it by name;
    # importing it on first read keeps scipy.optimize out of every other run
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class OtResult:
    """Solution of one transport subproblem.

    ``cost`` is the linear part ``<C, plan>`` only; for the entropic solvers
    the entropic term is excluded so values stay comparable across ``eps``.
    ``potentials`` holds the duals ``(f, g)``: the final log-domain duals of
    an entropic run, which warm-start either entropic solver on a nearby
    cost matrix, or the Kantorovich potentials of an LP result, which
    warm-start :func:`exact_ot`; a Hungarian result has None.
    ``certificate`` is an LP result's minimum reduced cost relative to
    ``max|C|`` (see :func:`exact_ot`); the other results report 0. An LP
    result is ``converged`` when its certificate is >= -1e-9 and its
    ``marginal_error`` <= 1e-9. ``kind`` names the solver that made the
    plan: ``"lp"`` (HiGHS, full or shortlist) or ``"hungarian"``, the two
    kinds :func:`exact_ot` returns, each plan a vertex; ``"entropic"``; or
    ``"assignment"``, a tied step of :mod:`coopt.coot`'s driver solved on the
    lcm expansion, which need not be a vertex.
    ``plan``, on the call's weights ``row_marginal`` and ``col_marginal``, is
    finite: the constructor checks it, and the solvers check an entropic
    stack's plans at once or build finite ones. ``coupling`` checks the three
    as a Coupling on first read.
    """

    plan: np.ndarray
    row_marginal: np.ndarray = field(repr=False)
    col_marginal: np.ndarray = field(repr=False)
    cost: float
    iterations: int
    converged: bool
    kind: str
    marginal_error: float = 0.0
    potentials: Optional[Tuple[np.ndarray, np.ndarray]] = None
    certificate: float = 0.0

    def __post_init__(self):
        _check_finite(self.plan)

    @cached_property
    def coupling(self) -> Coupling:
        return Coupling(self.plan, self.row_marginal, self.col_marginal)


def _result(plan, w, wp, cost, iterations, converged, kind, marginal_error=0.0,
            potentials=None, certificate=0.0) -> OtResult:
    """The :class:`OtResult` of these fields for a plan that is finite by
    construction or was checked with its stack, set without the dataclass's
    ``__init__``: its frozen field writes and finiteness check cost about
    4 us, more than a small Hungarian solve's bookkeeping."""
    result = object.__new__(OtResult)
    result.__dict__.update(plan=plan, row_marginal=w, col_marginal=wp, cost=cost,
                           iterations=iterations, converged=converged, kind=kind,
                           marginal_error=marginal_error, potentials=potentials,
                           certificate=certificate)
    return result


def _check_finite(plan: np.ndarray) -> None:
    # a tiny eps can overflow an entropic plan; nothing else checks it
    if not np.isfinite(plan).all():
        raise DomainError("coupling plan: entries must be finite (no NaN/Inf)")


def _check_inputs(w, wp, C):
    w = as_histogram(w, "w")
    wp = as_histogram(wp, "w'")
    C = as_matrix(C, "cost")
    if C.shape != (w.size, wp.size):
        raise DimensionError(f"cost shape {C.shape} does not match weights ({w.size}, {wp.size})")
    return w, wp, C


def _check_potentials(pairs, w, wp):
    """Warm potentials, None or one ``(f, g)`` pair per cost, must match the
    weights' shapes and be finite; all pairs are checked for finiteness at once.
    Returns None, or the pairs as one ``(len(pairs), n + m)`` stack whose row
    ``r`` is ``f`` then ``g`` of pair ``r``."""
    if pairs is None:
        return None
    want = (w.shape, wp.shape)
    for potentials in pairs:
        # np.shape costs an array-function dispatch per call
        shapes = tuple([p.shape if type(p) is np.ndarray else np.shape(p) for p in potentials])
        if shapes != want:
            raise DimensionError(f"warm potentials {shapes} do not match weights "
                                 f"({w.size},) and ({wp.size},)")
    stack = np.concatenate([p for pair in pairs for p in pair], dtype=np.float64)
    if not np.isfinite(stack).all():
        raise DomainError("warm potentials: entries must be finite (no NaN/Inf)")
    return stack.reshape(len(pairs), -1)


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


def _solution(h, C: np.ndarray, e: int = 0):
    """The solved model's column values, the reduced costs ``C - u - v`` of
    every cell from its row duals (``v`` is 0 on the dropped last column),
    and those duals as potentials ``(u, v)`` for the costs ``2**e C``."""
    sol = h.getSolution()
    y = np.asarray(sol.row_dual)
    n = C.shape[0]
    red = C - y[:n, None]
    red[:, :-1] -= y[n:]
    if e:
        y = np.ldexp(y, e)
    # each read of col_value builds a Python list; fromiter copies it faster
    # than asarray, which first probes it as a sequence of sequences
    x = np.fromiter(sol.col_value, np.float64)
    return x, red, (y[:n], np.concatenate((y[n:], [0.0])))


def _scaled(C: np.ndarray):
    """``C`` times the power of two ``2**-e`` that puts ``max|C|`` in [0.5, 1),
    which is exact, that maximum and ``e``; an all-zero ``C`` as is, 1 and 0."""
    top = float(np.abs(C).max())
    if top == 0.0:
        return C, 1.0, 0
    e = int(np.frexp(top)[1])
    return np.ldexp(C, -e), np.ldexp(top, -e), e


def _transport_lp(w: np.ndarray, wp: np.ndarray, C: np.ndarray):
    """Vertex plan of the full transport LP by HiGHS dual simplex, its
    iteration count, its certificate and its potentials.

    Runs on this thread's model for ``(w, wp)`` (:func:`_lp_model`) with the
    solver state cleared and the costs replaced, so every solve starts cold:
    plans and iteration counts are bitwise those of a fresh model, and so of
    ``linprog(..., method="highs-ds")``. HiGHS stops at an absolute dual
    tolerance of 1e-7; a plan that misses the certificate bound is solved
    again by :func:`_shortlist_lp`, listing cells from this solve's
    potentials, and the iterations of both solves are counted.
    """
    h, cols = _lp_model(w, wp)
    h.clearSolver()
    h.changeColsCost(cols.size, cols, C.ravel())
    nit = _solve(h)
    x, red, duals = _solution(h, C)
    top = float(_max(np.abs(C), axis=None)) or 1.0
    worst = float(_min(red, axis=None))
    if worst < -_CERTIFY * top:
        x, more, certificate, duals = _shortlist_lp(w, wp, C, duals)
        return x, nit + more, certificate, duals
    return x.reshape(C.shape), nit, worst / top, duals


def _shortlist_lp(w: np.ndarray, wp: np.ndarray, C: np.ndarray, potentials):
    """Vertex plan of the transport LP by column generation on a shortlist,
    its iteration count, its certificate and its potentials.

    The first model holds the ``_SHORTLIST_K`` cells of every row and of
    every column that are cheapest in reduced cost ``C - f - g`` under the
    warm ``potentials`` ``(f, g)``, in ``C`` itself without them, and the
    north-west-corner staircase, so it is feasible; it is solved by dual
    simplex. The previous duals of a cost that drifted a little price its
    new optimal cells low, so fewer of them are left to price in (Schmitzer,
    SIAM J. Sci. Comput. 2016). Each round then prices every cell from the
    row duals, adds up to ``_PRICE_PER_ROW`` of the most negative reduced
    costs per row and re-solves warm by primal simplex, until no cell is
    below ``-_CERTIFY max|C|`` (Gottschlich & Schuhmacher, PLoS ONE 2014).
    HiGHS's dual tolerance is absolute and bounded below, so the costs are
    scaled by a power of two first. The model is built per call and dropped
    on return.
    """
    n, m = C.shape
    Cs, top, e = _scaled(C)
    # a power of two keeps the order of C - f - g, so it is listed unscaled
    key = Cs if potentials is None else C - np.add.outer(*potentials)
    C = Cs
    stop = _CERTIFY * top
    listed = np.zeros((n, m), dtype=bool)
    k = min(_SHORTLIST_K, m)
    listed[np.arange(n)[:, None], np.argpartition(key, k - 1, axis=1)[:, :k]] = True
    k = min(_SHORTLIST_K, n)
    listed[np.argpartition(key, k - 1, axis=0)[:k], np.arange(m)] = True
    del key
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
        x, red, duals = _solution(h, C, e)
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
    return plan.reshape(n, m), nit, worst / top, duals


def exact_ot(w, wp, C,
             init_potentials: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> OtResult:
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

    Every LP result carries its Kantorovich potentials ``(u, v)``, the row
    duals in the units of ``C`` with ``v`` 0 on the last column, as
    ``potentials``: ``C - u - v`` are the reduced costs, and ``<w, u> + <w',
    v>`` is the cost. ``init_potentials`` takes such a pair from the LP of a
    nearby cost: the shortlist LP then lists the cells cheapest in reduced
    cost under them instead of in ``C``. The full LP ignores them, so it
    stays ``linprog``'s; so does the Hungarian path, whose results carry
    None.

    ``certificate`` is the minimum reduced cost ``C_ij - u_i - v_j`` over all
    cells, computed from the row duals, divided by ``max|C|`` (by 1 when
    ``C`` is all zero); the plan is optimal when it is >= 0. HiGHS's own
    dual tolerance is an absolute 1e-7, so a full-LP plan below ``-1e-9`` is
    solved again by the shortlist LP from its own potentials; ``iterations``
    counts both solves. An LP result is ``converged`` when its certificate
    is >= -1e-9 and its ``marginal_error`` <= 1e-9. A Hungarian result is
    optimal by construction, reports 0 for both and is converged.
    """
    w, wp, C = _check_inputs(w, wp, C)
    if init_potentials is not None:
        _check_potentials([init_potentials], w, wp)
    n, m = C.shape
    # every plan below is finite by construction: a permutation or HiGHS's
    # optimal values
    if _is_uniform_square(w, wp):
        rows, cols = linear_sum_assignment(C)
        plan = np.zeros((n, m))
        plan[rows, cols] = w[0]
        return _result(plan, w, wp, float(_sum(C * plan, axis=None)), 1, True, "hungarian")
    if n * m > _SHORTLIST_CELLS:
        x, nit, certificate, potentials = _shortlist_lp(w, wp, C, init_potentials)
    else:
        x, nit, certificate, potentials = _transport_lp(w, wp, C)
    plan = np.maximum(x, 0.0, out=x)
    cost = float(_sum(C * plan, axis=None))
    err = marginal_residual(plan, w, wp)
    return _result(plan, w, wp, cost, int(nit),
                   bool(err <= _CERTIFY and certificate >= -_CERTIFY), "lp", err, potentials,
                   certificate)


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
    tol : L1 marginal residual target, >= 0.
    init_potentials : optional ``(f, g)`` warm start from a previous run.

    Returns
    -------
    OtResult with ``converged=False`` when the cap is hit first; the plan is
    still the best available iterate and carries its ``marginal_error``.
    """
    w, wp, C = _check_inputs(w, wp, C)
    _check_entropic(eps, max_iter, tol, "sinkhorn")
    _check_potentials(None if init_potentials is None else [init_potentials], w, wp)
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
    return OtResult(plan, w, wp, cost, iterations=it, converged=converged, kind="entropic",
                    marginal_error=err, potentials=(f, g))


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


# numpy reduces a last axis of fewer than 8 entries row by row, left to right,
# one inner-loop call per row. From _COLUMN_LOOP_ROWS rows per column on, a
# loop over the columns does the same operations in the same order in fewer
# calls: at 600x3 (2 vCPU, one BLAS thread) a row maximum takes 4 us instead
# of 32, a row sum 4 instead of 13.
_COLUMN_LOOP_ROWS = 64


def _by_columns(a: np.ndarray) -> bool:
    width = a.shape[-1]
    return width < 8 and a.size >= _COLUMN_LOOP_ROWS * width * width


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, bitwise: a maximum does not depend on the order."""
    if not _by_columns(a):
        return _max(a, axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j], out=out)
    return out


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)``, bitwise: short rows are summed left to right."""
    if not _by_columns(a):
        return _sum(a, axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def _semi_dual(kernel, wl, log_ws, g, eps):
    """Long-side potentials ``f`` in closed form for the short-side ``g``, and
    the plans the pairs make, for stacks of ``(kernel, g, eps)``; each plan's
    row sums are ``wl`` by construction."""
    a = kernel + (log_ws + g / eps[:, None])[:, None, :]
    top = _row_max(a)
    a -= top[:, :, None]
    e = np.exp(a, out=a)
    s = _row_sum(e)
    e /= s[:, :, None]
    e *= wl[:, None]
    return -eps[:, None] * (top + np.log(s)), e


def _residuals(plan, wl, ws):
    """:func:`~coopt.core.marginal_residual` of each plan of the stack, and
    the plans' column sums."""
    col = _sum(plan, axis=1)
    return _sum(np.abs(_row_sum(plan) - wl), axis=1) + _sum(np.abs(col - ws), axis=1), col


def _rows(idx: np.ndarray, n: int):
    """The sorted row indices ``idx`` of an ``n``-row stack as an index: the
    full slice when they are all rows, so reads are views, not copies."""
    return slice(None) if idx.size == n else idx


def _newton_stage(C, wl, ws, log_ws, eps, tol, g, limit, ridge, near=False):
    """Ascend the concave semi-dual ``F(g) = <wl, f(g)> + <ws, g>`` of each
    cost ``C[r]`` at its own ``eps[r]``, all in lockstep, until the cost's
    marginal residual is <= ``tol[r]``, ``limit[r]`` steps are taken or its
    line search stalls; with ``near``, a step that has to be capped also
    counts as a stall. ``g[:, -1]`` stays 0 (``F`` is flat along ones).
    ``limit`` is used up: a stalled cost's entry drops to -1.

    A cost that has stopped keeps its state while the others go on, and each
    numpy call works on the costs still going, so every result is bitwise
    that of its cost solved alone. Returns ``(g, f, plan, steps, stalled,
    err)``, ``err`` the plans' marginal residuals.
    """
    # C / -eps is -C / eps bitwise: division rounds the magnitude alone
    kernel = C / -eps[:, None, None]
    n, k = g.shape
    f, plan = _semi_dual(kernel, wl, log_ws, g, eps)
    # vecdot, not a matrix-vector product: each row is the 1-D dot bitwise
    value = np.vecdot(wl, f) + np.vecdot(ws, g)
    err, col = _residuals(plan, wl, ws)
    steps = np.zeros(n, dtype=np.int64)
    while True:
        live = err > tol
        live &= steps < limit
        m = np.count_nonzero(live)
        if m == 0:
            break
        # positions in the stack of the costs going, None while that is all
        going = None if m == n else np.flatnonzero(live)
        at = slice(None) if going is None else going
        P, G, E = plan[at], g[at], eps[at]
        grad = ws - col[at]
        # -eps * Hessian of F: diag(P^T 1) - P^T diag(1/wl) P, positive semi-definite
        hess = np.zeros((m, k, k))
        hess.reshape(m, k * k)[:, ::k + 1] = col[at]
        hess -= (P / wl[:, None]).transpose(0, 2, 1) @ P
        d = np.zeros((m, k))
        d[:, :-1] = E[:, None] * np.linalg.solve(hess[:, :-1, :-1] + ridge,
                                                 grad[:, :-1, None])[:, :, 0]
        shrink = _STEP_CAP * E / _max(np.abs(d), axis=1)
        if near:
            capped = shrink < 1.0
            if np.count_nonzero(capped):
                limit[np.flatnonzero(live)[capped]] = -1
                continue  # the others take this step again, without them
        else:
            d *= np.minimum(shrink, 1.0)[:, None]
        slope = np.vecdot(grad, d)
        K, V, R, noise = kernel[at], value[at], err[at], None
        # the first trial is the full step (t = 1) for every cost going;
        # trying holds the positions among those still searching, None for all
        t = trying = None
        while True:
            part = slice(None) if trying is None else trying
            g_try = G[part] + (d if t is None else t[:, None] * d[part])
            f_try, plan_try = _semi_dual(K[part], wl, log_ws, g_try, E[part])
            gain = np.vecdot(wl, f_try) + np.vecdot(ws, g_try) - V[part]
            err_try, col_try = _residuals(plan_try, wl, ws)
            ok = gain >= (_ARMIJO * slope if t is None else _ARMIJO * t * slope[part])
            accepted = np.count_nonzero(ok)
            if accepted < len(ok):
                if noise is None:
                    # F is summed from terms of size |f| and |g|; gains below
                    # that rounding count as none, and then the residual must fall
                    noise = 1e-14 * (np.vecdot(wl, np.abs(f[at])) + np.vecdot(ws, np.abs(G)))
                ok |= (gain >= -noise[part]) & (err_try < R[part])
                accepted = np.count_nonzero(ok)
            if accepted == n:
                # the whole stack steps at once: take the trial arrays as they are
                g, f, plan, col, err = g_try, f_try, plan_try, col_try, err_try
                value = V + gain
                steps += 1
                break
            tried = np.arange(m) if trying is None else trying
            if accepted:
                done = tried[ok] if going is None else going[tried[ok]]
                g[done], f[done], plan[done] = g_try[ok], f_try[ok], plan_try[ok]
                col[done], err[done] = col_try[ok], err_try[ok]
                value[done] = V[tried[ok]] + gain[ok]
                steps[done] += 1
            rejected = ~ok
            t = np.full(len(ok), 0.5)[rejected] if t is None else t[rejected] / 2.0
            trying = tried[rejected]
            low = t < _MIN_STEP
            if np.count_nonzero(low):
                limit[trying[low] if going is None else going[trying[low]]] = -1
                trying, t = trying[~low], t[~low]
            if trying.size == 0:
                break
    return g, f, plan, steps, limit < 0, err


def _entropic(w, wp, C, eps, max_iter, tol, warm):
    """The body of :func:`entropic_ot_stack` on checked inputs; ``warm`` is
    None or the warm potentials as :func:`_check_potentials` stacks them."""
    flip = C.shape[1] < C.shape[2]
    # rows of each Cl are the long side, columns (potential g) the short side;
    # Cl is C-contiguous, so every slice of it has one memory layout
    wl, ws = (wp, w) if flip else (w, wp)
    Cl = np.ascontiguousarray(C.transpose(0, 2, 1) if flip else C)
    R, nl, ns = Cl.shape
    spread = _max(Cl, axis=(1, 2)) - _min(Cl, axis=(1, 2))
    # keeps the solve defined where the plan saturates (each row on a single
    # column) and the Hessian vanishes; the capped step then follows the gradient
    ridge = 1e-12 * np.eye(ns - 1)
    g = np.zeros((R, ns))
    f = np.empty((R, nl))
    plan = np.empty((R, nl, ns))
    err = np.empty(R)
    steps = np.zeros(R, dtype=np.int64)
    log_ws = np.log(ws)
    # a side of size 1 and a constant cost have closed-form plans
    closed = (spread == 0.0) | (ns == 1)
    solve = np.flatnonzero(~closed)
    if solve.size < R:
        at = np.flatnonzero(closed)
        f[at] = _semi_dual(Cl[at] / -eps, wl, log_ws, g[at], np.full(at.size, eps))[0]
        plan[at] = np.outer(wl, ws)
        err[at] = _residuals(plan[at], wl, ws)[0]

    def stage(rows, eps_rows, tol_rows, g_rows, near=False):
        # one Newton stage of the costs ``rows``; the whole stack (a slice)
        # takes the stage's arrays as they are, a part is written back
        g_, f_, plan_, taken, stalled, err_ = _newton_stage(
            Cl[rows], wl, ws, log_ws, eps_rows, tol_rows, g_rows, max_iter - steps[rows],
            ridge, near=near)
        nonlocal g, f, plan, err
        if isinstance(rows, slice):
            g, f, plan, err = g_, f_, plan_, err_
        else:
            g[rows], f[rows], plan[rows], err[rows] = g_, f_, plan_, err_
        steps[rows] += taken
        return stalled, taken

    if warm is not None and solve.size:
        g0 = warm[solve, :w.size] if flip else warm[solve, w.size:]
        stalled = stage(_rows(solve, R), np.full(solve.size, eps), np.full(solve.size, tol),
                        g0 - g0[:, -1:], near=True)[0]
        solve = solve[stalled]
        g[solve] = 0.0
    # eps-continuation: each cost descends its own ladder from its spread by
    # _STAGE_FACTOR to eps; stage k of every cost runs in the same call. A
    # stage above eps that takes no step goes straight to eps
    stage_eps = spread[solve]
    while solve.size:
        rows = _rows(solve, R)
        above = stage_eps > eps
        taken = stage(rows, np.where(above, stage_eps, eps),
                      np.where(above, max(tol, _STAGE_TOL), tol), g[rows])[1]
        solve, stage_eps = solve[above], np.where(taken[above] == 0, eps,
                                                  stage_eps[above] / _STAGE_FACTOR)
    if flip:
        # the residuals of the stages summed the long side in another order
        f, g = g, f
        plan = np.ascontiguousarray(plan.transpose(0, 2, 1))
        err = _residuals(plan, w, wp)[0]
    _check_finite(plan)
    cost = _sum(C * plan, axis=(1, 2)).tolist()
    err, steps = err.tolist(), steps.tolist()
    # each result owns its plan, so that none keeps the whole stack alive
    return [_result(plan[r] if R == 1 else plan[r].copy(), w, wp, cost[r], steps[r],
                    bool(err[r] <= tol), "entropic", err[r], (f[r], g[r]))
            for r in range(R)]


def _check_entropic(eps, max_iter, tol, name):
    if not 0 < eps < np.inf:
        raise DomainError(f"{name} needs eps > 0, got {eps}")
    check_integer(max_iter=max_iter)
    if max_iter < 1:
        raise DomainError(f"{name} needs max_iter >= 1, got {max_iter}")
    if not tol >= 0:
        raise DomainError(f"{name} needs tol >= 0, got {tol}")


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
    potential across stages; a stage that takes no step is followed by the
    stage at ``eps`` itself. Warm potentials are tried at ``eps`` first; the
    continuation takes over if the line search stalls or a step has to be
    capped, since a warm start that far off takes more capped steps than the
    continuation takes stages. A side of size 1 and a constant cost have
    closed-form plans.

    The contract is :func:`sinkhorn`'s: ``cost`` is ``<C, plan>``;
    ``converged`` means the L1 marginal residual ``marginal_error`` is <=
    ``tol``; ``potentials`` are ``(f, g)`` with ``pi_ij = w_i w'_j exp((f_i +
    g_j - C_ij) / eps)``, so they warm-start either solver. ``iterations``
    counts Newton steps over all stages, at most ``max_iter`` (>= 1).

    This is the one-cost case of :func:`entropic_ot_stack`, which runs the
    same Newton body on a stack of costs.
    """
    w, wp, C = _check_inputs(w, wp, C)
    _check_entropic(eps, max_iter, tol, "entropic_ot")
    warm = _check_potentials(None if init_potentials is None else [init_potentials], w, wp)
    return _entropic(w, wp, C[None], eps, max_iter, tol, warm)[0]


def entropic_ot_stack(
    w,
    wp,
    C,
    eps: float,
    max_iter: int = 10000,
    tol: float = 1e-9,
    init_potentials: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
) -> List[OtResult]:
    """:func:`entropic_ot` on every cost of the ``(R, n, m)`` stack ``C``.

    ``init_potentials`` is None or one ``(f, g)`` pair per cost. The costs
    advance in lockstep, so each numpy call serves all of them, which is
    what makes many small solves cheap; every per-cost decision (the warm
    try, the line search, the continuation stages, stopping) is taken per
    cost. Result ``r`` is bitwise ``entropic_ot(w, wp, C[r], eps, max_iter,
    tol, init_potentials[r])`` and owns its plan (a copy out of the stack
    when there are several), so keeping it keeps no other cost's plan alive.
    """
    w = as_histogram(w, "w")
    wp = as_histogram(wp, "w'")
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 3 or len(C) < 1 or C.shape[1:] != (w.size, wp.size):
        raise DimensionError(f"cost stack shape {C.shape} does not match weights "
                             f"({w.size}, {wp.size})")
    if not np.isfinite(C).all():
        raise DomainError("cost: entries must be finite (no NaN/Inf)")
    _check_entropic(eps, max_iter, tol, "entropic_ot_stack")
    if init_potentials is not None and len(init_potentials) != len(C):
        raise DimensionError(f"{len(init_potentials)} warm potential pairs for "
                             f"{len(C)} costs")
    warm = _check_potentials(init_potentials, w, wp)
    return _entropic(w, wp, C, eps, max_iter, tol, warm)
