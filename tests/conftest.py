"""Shared fixtures."""

from typing import NamedTuple

import numpy as np
import pytest

import coopt.coot


@pytest.fixture
def entropic_calls(monkeypatch):
    """Every result of an entropic inner solve made by the alternating solver:
    its entropic sides solve a stack of restarts per call, one result each."""
    calls = []
    solve = coopt.coot.entropic_ot_stack

    def record(*args, **kwargs):
        results = solve(*args, **kwargs)
        calls.extend(results)
        return results

    monkeypatch.setattr(coopt.coot, "entropic_ot_stack", record)
    return calls


class ExactCall(NamedTuple):
    kind: str
    cost: np.ndarray
    result: object


@pytest.fixture
def exact_calls(monkeypatch):
    """Every exact inner result the alternating solver takes, in order, as an
    ``ExactCall(kind, cost, result)``: ``kind`` is the result's own (``"lp"``,
    ``"assignment"`` or ``"hungarian"``), or ``"reused"`` when the driver
    kept the previous result because its cost repeated."""
    calls = []
    solve = coopt.coot._inner_ot

    def record(w, wp, cost, prev, *args):
        result = solve(w, wp, cost, prev, *args)
        reused = prev is not None and result is prev[1]
        calls.append(ExactCall("reused" if reused else result.kind, cost, result))
        return result

    monkeypatch.setattr(coopt.coot, "_inner_ot", record)
    return calls
