"""The declared dependency floors cover what the source calls."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_floor_has_vecdot():
    """``np.vecdot`` first shipped in numpy 2.0. The floor is read with a
    regex because ``tomllib`` needs Python 3.11 and the project allows 3.10."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy\s*>=\s*(\d+)(?:\.(\d+))?', text)
    assert floor is not None, "pyproject.toml declares no numpy floor"
    calls = [p.name for p in sorted((ROOT / "src" / "coopt").glob("*.py"))
             if "np.vecdot" in p.read_text(encoding="utf-8")]
    if calls:
        assert (int(floor[1]), int(floor[2] or 0)) >= (2, 0), (
            f"{calls} call np.vecdot, which needs numpy >= 2.0")


def test_scipy_floor_is_the_one_the_binary_loader_names():
    """The ``ImportError`` for a missing scipy binary names the floor that
    ``pyproject.toml`` declares, so the two cannot drift apart."""
    from coopt import ot

    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"(scipy\s*>=\s*[\d.]+)"', text)
    assert floor is not None, "pyproject.toml declares no scipy floor"
    try:
        ot._scipy_binary("_no_such_binary")
    except ImportError as error:
        message = str(error)
    else:
        raise AssertionError("a missing scipy binary raised no ImportError")
    assert f"({floor[1].replace(' ', '')})" in message, message
