"""Shared fixtures."""

import pytest

import coopt.coot


@pytest.fixture
def entropic_calls(monkeypatch):
    """Every result of an entropic inner solve made by the alternating solver."""
    calls = []
    solve = coopt.coot.entropic_ot

    def record(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append(res)
        return res

    monkeypatch.setattr(coopt.coot, "entropic_ot", record)
    return calls
