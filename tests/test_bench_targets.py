"""The benchmark tracer wraps coopt names by module and attribute; each one
must still exist, or traced bench runs fail. Conversely, a name the package
binds only for the tracer must still be wrapped by it, or it can go."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
TRACER_ONLY = "wrapped by name in bench/spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans()._targets()
    assert targets
    missing = []
    for module, attr, _, _ in targets:
        owner = importlib.import_module(f"coopt.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"coopt.{module}.{attr}")
    assert not missing, missing


def _tracer_only_bindings():
    """(module, name) of every binding the package keeps only for the tracer:
    the imports marked ``# noqa: F401 -- wrapped by name in bench/spans.py``,
    and the ``linprog`` that ``ot``'s module ``__getattr__`` binds."""
    bindings = []
    for path in sorted((ROOT / "src" / "coopt").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and TRACER_ONLY in lines[node.end_lineno - 1]:
                bindings += [(path.stem, alias.asname or alias.name) for alias in node.names]
    if "__getattr__" in vars(importlib.import_module("coopt.ot")):
        bindings.append(("ot", "linprog"))
    return bindings


def test_every_tracer_only_binding_is_still_traced():
    """Fails once the tracer stops wrapping a name, listing each binding
    that can then be deleted from the package."""
    traced = {(module, attr) for module, attr, _, _ in _load_spans()._targets()}
    untraced = [f"coopt.{module}.{name}" for module, name in _tracer_only_bindings()
                if (module, name) not in traced]
    assert not untraced, untraced
