"""Shared fixtures."""

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
