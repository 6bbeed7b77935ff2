"""coopt loads scipy's two compiled solver modules from their files.

The exact solvers need only the HiGHS binding ``scipy.optimize._highspy._core``
and the Hungarian solver ``scipy.optimize._lsap``; ``coopt.ot`` loads both
without importing the ``scipy.optimize`` package. Import order matters for
these checks, so each runs in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coopt.ot as ot

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coopt"

# exact_ot on a full LP (10x8, non-uniform), a shortlist LP (80x60 = 4,800
# cells) and a Hungarian solve (uniform 6x6); prints each plan's bytes as hex
SOLVES = """
import numpy as np
from coopt import ot

rng = np.random.default_rng(7)
def weights(k):
    w = rng.random(k) + 0.5
    return w / w.sum()
full = ot.exact_ot(weights(10), weights(8), rng.random((10, 8)))
shortlist = ot.exact_ot(weights(80), weights(60), rng.random((80, 60)))
hungarian = ot.exact_ot(np.full(6, 1 / 6), np.full(6, 1 / 6), rng.random((6, 6)))
plans = [r.plan.tobytes().hex() for r in (full, shortlist, hungarian)]
"""


def _python(code, *args):
    """Run ``code`` in a fresh interpreter on this checkout; its last line of
    standard output, read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_command_imports_scipy_optimize(tmp_path):
    code = SOLVES + """
import json, sys
from pathlib import Path
from coopt.apps import cocluster, misclassification_rate
from coopt.cli import main
from coopt.fileio import write_labels_csv, write_matrix_csv

assert shortlist.iterations > 0 and full.iterations > 0
cocluster(rng.random((12, 8)), 2, 2, outer_iter=3)
misclassification_rate([0, 0, 1, 2], [1, 1, 0, 2])
tmp = Path(sys.argv[1])
x, y, ys = tmp / "x.csv", tmp / "y.csv", tmp / "ys.csv"
write_matrix_csv(x, rng.random((6, 4)))
write_matrix_csv(y, rng.random((5, 3)))
write_labels_csv(ys, [0, 1, 0, 1, 1, 0])
e = tmp / "e.csv"
write_matrix_csv(e, np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=float))
codes = [main([*argv, "--seed", "0", "--out", str(tmp / argv[0])]) for argv in (
    ["coot", "--x", str(x), "--y", str(y), "--restarts", "2"],
    ["gw", "--x", str(x), "--y", str(y), "--points", "--restarts", "2"],
    ["hda", "--xs", str(x), "--xt", str(x), "--ys", str(ys), "--restarts", "2"],
    ["election", "--x", str(e), "--y", str(e), "--restarts", "2"],
)]
print(json.dumps({"codes": codes, "loaded": "scipy.optimize" in sys.modules}))
"""
    assert _python(code, tmp_path) == {"codes": [0, 0, 0, 0], "loaded": False}


def test_both_import_orders_give_scipys_modules_and_the_same_plans():
    plans = []
    for first in ("coopt", "scipy.optimize"):
        code = f"import {first}\n" + SOLVES + """
import json, sys
registered = sys.modules["scipy.optimize._highspy._core"] is ot.highs
import scipy.optimize
from scipy.optimize._highspy import _core

print(json.dumps({"registered": registered, "highs": ot.highs is _core,
                  "lsap": ot.linear_sum_assignment is scipy.optimize.linear_sum_assignment,
                  "plans": plans}))
"""
        got = _python(code)
        assert got["registered"] and got["highs"] and got["lsap"], (first, got)
        plans.append(got["plans"])
    assert plans[0] == plans[1]


def test_a_missing_binary_names_its_file_and_the_scipy_floor():
    with pytest.raises(ImportError, match=r"scipy\.optimize\._no_such_binary \(scipy>=1\.17\)"):
        ot._scipy_binary("_no_such_binary")
    assert "scipy.optimize._no_such_binary" not in sys.modules


def _import_time_imports(tree):
    """Modules named by the import statements that run when the module is
    imported: everything but the bodies of functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from ((f"{node.module}.{alias.name}", node.lineno) for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_optimize_at_import_time():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{line} imports {name}"
                      for name, line in _import_time_imports(tree)
                      if name == "scipy.optimize" or name.startswith("scipy.optimize.")]
    assert not offenders, offenders
