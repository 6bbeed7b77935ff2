"""The benchmark tracer wraps coopt names by module and attribute; each one
must still exist, or traced bench runs fail."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
