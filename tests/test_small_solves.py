"""The bookkeeping around small solves: the start projection, the entropic
stack's stages and results, and the exact solver's result assembly.

Each shortcut is checked against the general computation it stands in for,
bit for bit, and a call-count guard pins the inner solves of two
``cli-small``-shaped operations, so that no shortcut hides extra work.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coopt import CootProblem, entropic_ot, solve_coot
from coopt import coot, ot
from coopt.core import marginal_residual
from coopt.ot import entropic_ot_stack


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _weights(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


def _reference_scale(plans, w, wp):
    """The stacked projection as it was before the row residual came first:
    both residual parts of every plan going, every sweep."""
    going = np.arange(len(plans))
    sub = plans
    rows = sub.sum(axis=2)
    for _ in range(500):
        if going.size == 0:
            break
        sub *= (w / rows)[:, :, None]
        sub *= (wp / sub.sum(axis=1))[:, None, :]
        rows = sub.sum(axis=2)
        residual = np.abs(rows - w).sum(axis=1) + np.abs(sub.sum(axis=1) - wp).sum(axis=1)
        keep = ~(residual <= 1e-13)
        if not keep.all():
            if sub is not plans:
                plans[going] = sub
            going, sub, rows = going[keep], sub[keep], rows[keep]
    if sub is not plans:
        plans[going] = sub
    return plans


def _capped_plan(n, m):
    """A plan on a diagonal support that cannot carry skewed marginals: the
    sweeps swap between the row and the column sums and never meet 1e-13."""
    plan = np.full((n, m), 1e-300)
    k = min(n, m)
    plan[np.arange(k), np.arange(k)] = 1.0
    return plan


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(R=st.integers(1, 20), n=st.integers(1, 9), m=st.integers(1, 9),
       line=st.sampled_from([None, "row", "col"]), uniform=st.booleans(),
       kinds=st.lists(st.sampled_from(["noise", "noise", "product", "capped"]), min_size=20,
                      max_size=20),
       seed=st.integers(0, 2**32 - 1))
@example(R=1, n=6, m=8, line=None, uniform=False, kinds=["noise"] * 20, seed=706)
@example(R=1, n=6, m=8, line=None, uniform=False, kinds=["noise"] * 20, seed=1675)
def test_scale_to_marginals_property_equals_the_reference_loop(R, n, m, line, uniform, kinds,
                                                               seed):
    """Bitwise the stacked loop that summed both residual parts every sweep,
    on stacks of 1 to 20 plans with one row or column on a third of the
    draws, uniform or random weights, and plans of three kinds mixed in one
    stack: seeded noise (the starts), the product coupling (stops at sweep
    1) and a plan on a support too narrow for the weights (runs all 500
    sweeps). In the two examples the column part decides the stop: the row
    part alone is within 1e-13 one sweep before the whole residual is."""
    n, m = (1 if line == "row" else n), (1 if line == "col" else m)
    rng = np.random.default_rng(seed)
    w, wp = ((np.full(n, 1.0 / n), np.full(m, 1.0 / m)) if uniform
             else (_weights(rng, n), _weights(rng, m)))
    plans = np.empty((R, n, m))
    for r, kind in enumerate(kinds[:R]):
        plans[r] = {"noise": lambda: np.outer(w, wp) * rng.lognormal(0.0, 2.0, (n, m)),
                    "product": lambda: np.outer(w, wp),
                    "capped": lambda: _capped_plan(n, m)}[kind]()
    expected = _reference_scale(plans.copy(), w, wp)
    got = coot._scale_to_marginals(plans, w, wp)
    assert got is plans
    assert _bits(got) == _bits(expected)


def test_scale_to_marginals_covers_a_first_sweep_stop_and_the_cap():
    """The two ends the property draws: a product plan is on its marginals
    after one sweep, and the narrow-support plan is still off them after
    500."""
    w, wp = np.array([0.7, 0.2, 0.1]), np.array([0.5, 0.5])
    product = np.outer(w, wp)
    capped = _capped_plan(3, 2)
    plans = coot._scale_to_marginals(np.stack([product, capped]), w, wp)
    assert _bits(plans[0]) == _bits(_reference_scale(product[None].copy(), w, wp)[0])
    assert marginal_residual(plans[0], w, wp) <= 1e-13
    assert marginal_residual(plans[1], w, wp) > 1e-3


def _warm_stack_with_stall_and_constant(rng, n, m, eps):
    """A stack of four costs: two warm from a nearby cost, one with warm
    potentials far off (its try stalls and the continuation takes over) and
    one constant cost (closed form)."""
    w, wp = _weights(rng, n), _weights(rng, m)
    C = rng.random((4, n, m))
    C[3] = 0.7
    warm = [entropic_ot(w, wp, c * 1.01, eps).potentials for c in C]
    warm[1] = (rng.normal(0.0, 100 * eps, n), rng.normal(0.0, 100 * eps, m))
    return w, wp, C, warm


@pytest.mark.parametrize("shape", [(12, 9), (600, 3), (9, 12)])
def test_stack_residuals_are_those_recomputed_from_the_plans(shape):
    """A stack's marginal errors come from its Newton stages (or, flipped,
    are summed again on the returned plans); either way each is bitwise the
    residual recomputed from the returned plan, for warm costs, a warm try
    that stalls into the continuation and a closed-form cost alike."""
    rng = np.random.default_rng(list(shape))
    w, wp, C, warm = _warm_stack_with_stall_and_constant(rng, *shape, 0.05)
    results = entropic_ot_stack(w, wp, C, 0.05, init_potentials=warm)
    assert results[1].iterations > results[0].iterations
    plans = np.stack([res.plan for res in results])
    recomputed = ot._residuals(plans, w, wp)[0]
    for res, err in zip(results, recomputed):
        assert res.marginal_error == err == marginal_residual(res.plan, w, wp)
        assert res.converged == (err <= 1e-9)


def test_warm_stack_takes_integer_potentials_as_floats():
    """The warm pairs are stacked as float64, so integer potentials warm-start
    as the same values in floating point do."""
    rng = np.random.default_rng(71)
    w, wp = _weights(rng, 7), _weights(rng, 5)
    C = rng.random((2, 7, 5))
    ints = [(np.arange(7) % 2, np.arange(5) % 3)] * 2
    floats = [(f.astype(float), g.astype(float)) for f, g in ints]
    for a, b in zip(entropic_ot_stack(w, wp, C, 0.5, init_potentials=ints),
                    entropic_ot_stack(w, wp, C, 0.5, init_potentials=floats)):
        assert _bits(a.plan) == _bits(b.plan) and a.iterations == b.iterations


def test_results_built_without_init_equal_constructed_ones():
    """``ot._result`` sets the same fields an ``OtResult(...)`` sets: same
    field values, repr and coupling."""
    rng = np.random.default_rng(72)
    w, wp = _weights(rng, 4), _weights(rng, 3)
    plan = np.outer(w, wp)
    fields = (plan, w, wp, 0.25, 3, True, "lp", 1e-17, (np.zeros(4), np.ones(3)), -2e-10)
    fast = ot._result(*fields)
    slow = ot.OtResult(*fields)
    assert type(fast) is ot.OtResult
    assert vars(fast).keys() == vars(slow).keys()
    assert all(vars(fast)[k] is vars(slow)[k] for k in vars(slow))
    assert repr(fast) == repr(slow)
    assert _bits(fast.coupling.plan) == _bits(slow.coupling.plan)
    assert fast.coupling is fast.coupling


def test_a_stage_that_takes_no_step_goes_straight_to_eps(monkeypatch):
    """On block costs (each row far from two of the three columns) the first
    continuation stage, at the cost's spread, takes no step, and the next
    stage is at the target eps. Every stage of the full ladder skipped in
    between would have taken no step from the same potentials, so the
    result is bitwise the full ladder's: one stage at eps from g = 0."""
    stages = []
    stage = ot._newton_stage

    def recording(C, wl, ws, log_ws, eps, *args, **kwargs):
        out = stage(C, wl, ws, log_ws, eps, *args, **kwargs)
        stages.append((float(eps[0]), int(out[3][0])))
        return out

    monkeypatch.setattr(ot, "_newton_stage", recording)
    rng = np.random.default_rng(73)
    n, eps = 60, 0.1
    C = 100.0 * (np.arange(3)[None, :] != (np.arange(n) % 3)[:, None]) + rng.random((n, 3))
    w, wp = np.full(n, 1.0 / n), np.full(3, 1.0 / 3)
    res = entropic_ot(w, wp, C, eps)
    spread = C.max() - C.min()
    assert stages[0] == (spread, 0) and [e for e, _ in stages] == [spread, eps]

    def run(stage_eps, tol):
        return stage(C[None], w, wp, np.log(wp), np.array([stage_eps]), np.array([tol]),
                     np.zeros((1, 3)), np.array([10000]), 1e-12 * np.eye(2))

    skipped = spread / 4.0 ** np.arange(1, 8)
    assert all(run(e, 1e-3)[3][0] == 0 for e in skipped[skipped > eps])
    g, f, plan, steps = run(eps, 1e-9)[:4]
    assert _bits(res.plan) == _bits(plan[0]) and res.iterations == steps[0]
    assert _bits(res.potentials[0]) == _bits(f[0]) and _bits(res.potentials[1]) == _bits(g[0])


def _cli_small_pair():
    """The inputs of a bench ``cli-small`` ``coot`` operation on seed 0."""
    rng = np.random.default_rng([0, 0])
    return rng.random((20, 12)), rng.random((15, 7))


@pytest.mark.parametrize("eps, kinds, runs, stacks, work", [
    (0.0, {"lp": 110, "reused": 12}, 110, 0, 3804),
    (0.05, {}, 0, 56, 795),
])
def test_cli_small_shaped_solves_make_the_same_inner_calls(exact_calls, monkeypatch,
                                                           eps, kinds, runs, stacks, work):
    """A ``cli-small``-shaped ``coot`` (exact) and ``coot-entropic`` (eps 0.05)
    solve, 10 restarts: the exact calls by kind, the HiGHS runs, the
    entropic stack calls and the simplex iterations or Newton steps, as
    counted before the per-call bookkeeping was cut."""
    counts = Counter()
    solve_lp, stack = ot._solve, coot.entropic_ot_stack

    def counting_lp(h):
        counts["runs"] += 1
        return solve_lp(h)

    def counting_stack(*args, **kwargs):
        results = stack(*args, **kwargs)
        counts["stacks"] += 1
        counts["steps"] += sum(res.iterations for res in results)
        return results

    monkeypatch.setattr(ot, "_solve", counting_lp)
    monkeypatch.setattr(coot, "entropic_ot_stack", counting_stack)
    X, Y = _cli_small_pair()
    sol = solve_coot(CootProblem(X, Y, eps_samples=eps, eps_features=eps), restarts=10, seed=0)
    assert sol.converged
    assert dict(Counter(call.kind for call in exact_calls)) == kinds
    assert (counts["runs"], counts["stacks"]) == (runs, stacks)
    simplex = sum(call.result.iterations for call in exact_calls if call.kind == "lp")
    assert (simplex if eps == 0 else counts["steps"]) == work
