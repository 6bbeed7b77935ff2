"""The assignment path of tied exact steps: a uniform non-square step that
moves is solved as an assignment on the lcm(n, m) expansion, and the step
that repeats its plan's support is solved by the LP, so every returned plan
is ``linprog``'s."""

from collections import Counter
from math import lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from coopt import (
    CootProblem,
    DomainError,
    coot,
    exact_ot,
    solve_coot,
    solve_gw_dc,
    sqeuclid_matrix,
    uniform_histogram,
    validate_coupling,
)
from coopt.tensorcost import Side


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 30), m=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "ties", "constant", "large"]))
def test_assignment_plan_is_feasible_and_optimal(n, m, seed, kind):
    """Within the lcm bound, the assignment plan is feasible at 1e-9 and its
    cost is the cold LP's within 1e-12 relative, on random, integer-tied,
    constant and 1e8-scale costs. An empty current plan never repeats a
    support, so every draw takes the assignment path."""
    assume(n != m and lcm(n, m) <= coot._ASSIGNMENT_LCM)
    rng = np.random.default_rng(seed)
    C = {"random": lambda: rng.random((n, m)),
         "ties": lambda: rng.integers(0, 3, (n, m)).astype(float),
         "constant": lambda: np.full((n, m), 2.5),
         "large": lambda: 1e8 * rng.random((n, m))}[kind]()
    w, wp = uniform_histogram(n), uniform_histogram(m)
    res = coot._inner_ot(w, wp, C, None, np.zeros((n, m)))
    assert res.kind == "assignment" and res.converged and res.potentials is None
    assert validate_coupling(res.plan, w, wp, 1e-9)
    cold = exact_ot(w, wp, C)
    assert cold.kind == "lp"
    assert abs(res.cost - cold.cost) <= 1e-12 * max(abs(cold.cost), 1e-300)


def test_assignment_path_declines_outside_its_case():
    """Square, non-uniform and over-the-bound steps, and a step whose
    assignment repeats the current support, are solved by the LP (or the
    Hungarian algorithm), bitwise as without a current plan."""
    rng = np.random.default_rng(3)
    big = coot._ASSIGNMENT_LCM + 1
    cases = [(uniform_histogram(6), uniform_histogram(6)),
             (uniform_histogram(6), np.array([0.5, 0.3, 0.2])),
             (uniform_histogram(big), uniform_histogram(2))]
    for w, wp in cases:
        C = rng.random((w.size, wp.size))
        got = coot._inner_ot(w, wp, C, None, np.zeros(C.shape))
        want = exact_ot(w, wp, C)
        assert got.kind == want.kind != "assignment"
        assert np.array_equal(_bits(got.plan), _bits(want.plan))
    w, wp = uniform_histogram(6), uniform_histogram(4)
    C = rng.random((6, 4))
    moved = coot._inner_ot(w, wp, C, None, np.zeros((6, 4)))
    repeated = coot._inner_ot(w, wp, C, None, moved.plan)
    assert moved.kind == "assignment" and repeated.kind == "lp"
    assert np.array_equal(_bits(repeated.plan), _bits(exact_ot(w, wp, C).plan))


def test_a_non_finite_tied_cost_is_a_domain_error():
    """On 1e80-scale clouds the squared GW cost overflows; the first step,
    an assignment step, rejects it as any exact solve does."""
    rng = np.random.default_rng(0)
    C, C2 = sqeuclid_matrix(1e80 * rng.random((6, 2))), sqeuclid_matrix(1e80 * rng.random((4, 2)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match="cost: entries must be finite"):
        solve_gw_dc(C, C2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 16), m=st.integers(3, 16), seed=st.integers(0, 2**32 - 1))
def test_gw_results_do_not_depend_on_the_assignment_path(n, m, seed):
    """On random 2-D clouds the coupling, cost and iteration count are
    bitwise those of the LP at every step, and the trace agrees to rounding:
    an assignment plan holds ``count / lcm(n, m)`` correctly rounded, where
    HiGHS's vertex carries its own last bits. Sides of at least 3 points
    keep the product start's cost free of ties (with 2 points it prices
    every plan alike)."""
    assume(n != m)
    rng = np.random.default_rng(seed)
    C, C2 = sqeuclid_matrix(rng.random((n, 2))), sqeuclid_matrix(rng.random((m, 2)))
    got = solve_gw_dc(C, C2, restarts=3, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coot, "_assignment", lambda w, wp, C: None)
        want = solve_gw_dc(C, C2, restarts=3, seed=seed)
    assert np.array_equal(_bits(got.coupling.plan), _bits(want.coupling.plan))
    assert (got.cost, got.iterations, got.converged, got.restart_index) == \
        (want.cost, want.iterations, want.converged, want.restart_index)
    assert got.objective_trace[-1] == want.objective_trace[-1]
    np.testing.assert_allclose(got.objective_trace, want.objective_trace, rtol=1e-12, atol=0)


def _grid_case(n, m, seed):
    rng = np.random.default_rng(seed)
    return (sqeuclid_matrix(rng.integers(0, 4, (n, 2)).astype(float)),
            sqeuclid_matrix(rng.integers(0, 4, (m, 2)).astype(float)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(2, 14), m=st.integers(2, 14), seed=st.integers(0, 2**32 - 1),
       max_iter=st.sampled_from([1, 2, 3, 100]))
def test_gw_on_tied_distances_returns_the_cold_lp_plan(exact_calls, n, m, seed, max_iter):
    """Integer-grid clouds have tied distances, where an assignment plan need
    not be a vertex. The solve still stops, converged or at ``max_iter``, and
    the plan it returns is bitwise a fresh cold ``exact_ot`` on its last
    sample cost, never an assignment plan."""
    assume(n != m)
    C, C2 = _grid_case(n, m, seed)
    exact_calls.clear()
    sol = solve_gw_dc(C, C2, max_iter=max_iter)
    assert sol.iterations <= max_iter
    last = exact_calls[-1]
    assert last.kind == "lp"
    fresh = exact_ot(uniform_histogram(n), uniform_histogram(m), last.cost)
    assert np.array_equal(_bits(fresh.plan), _bits(sol.coupling.plan))
    assert sol.cost == sol.objective_trace[-1]


def test_gw_op_takes_one_lp_per_restart(exact_calls):
    """One bench ``cli-small`` ``gw`` operation's shape (40 vs 30 points in
    the unit square, 5 restarts): each restart solves its fixed point by
    the LP, and every other step is an assignment."""
    rng = np.random.default_rng(0)
    C, C2 = sqeuclid_matrix(rng.random((40, 2))), sqeuclid_matrix(rng.random((30, 2)))
    sol = solve_gw_dc(C, C2, restarts=5, seed=0)
    kinds = Counter(call.kind for call in exact_calls)
    assert sol.converged
    assert kinds["lp"] == 5 and kinds["assignment"] == len(exact_calls) - 5 > 0


def test_a_capped_restart_resolves_its_assignment_step_cold(exact_calls):
    """A restart stopped at ``max_iter`` right after an assignment step
    solves that step's cost again by the LP: one extra exact call, and the
    returned plan and cost are the LP's."""
    rng = np.random.default_rng(1)
    C, C2 = sqeuclid_matrix(rng.random((12, 2))), sqeuclid_matrix(rng.random((9, 2)))
    sol = solve_gw_dc(C, C2, max_iter=1)
    assert [call.kind for call in exact_calls] == ["assignment", "lp"]
    first, last = exact_calls
    assert np.array_equal(_bits(last.cost), _bits(first.cost)) and not sol.converged
    assert np.array_equal(_bits(sol.coupling.plan), _bits(last.result.plan))
    pi = last.result.plan
    contraction = CootProblem(C.matrix, C2.matrix)._contraction
    assert sol.cost == float((contraction.contract(pi, Side.SAMPLE) * pi).sum())


def test_untied_solves_stay_on_the_lp(exact_calls):
    """The two-coupling driver never offers a current plan: every exact step
    of a uniform non-square ``solve_coot`` is an LP or a reused result."""
    rng = np.random.default_rng(57)
    solve_coot(CootProblem(rng.random((12, 5)), rng.random((9, 4))), restarts=3)
    kinds = {call.kind for call in exact_calls}
    assert kinds <= {"lp", "reused"} and "lp" in kinds
