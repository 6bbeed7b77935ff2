"""No module of the package reaches into another module's private names.

Scans the source of every ``coopt`` module for ``from .m import _x`` and for
``m._x`` where ``m`` is another package module bound by an import. Dunder
names are not private. The entries in ``ALLOWED`` are the known exceptions,
each with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coopt"

# (importing module, owning module, private name): reason
ALLOWED = {
    ("apps", "coot", "_solve_single"):
        "cocluster runs one warm start; bench/spans.py wraps it by name in apps",
    ("gw", "coot", "_best_restart"):
        "GW is the tied case of the alternating driver and its restart routine",
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _owner(node):
    """Package module named by an import node's ``from`` part, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("coopt."):
        return node.module.split(".", 1)[1]
    return None


def _reach_ins(path):
    here = path.stem
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = _owner(node)
            package_level = (node.level == 1 and node.module is None) or (
                node.level == 0 and node.module == "coopt")
            for alias in node.names:
                if package_level:
                    modules[alias.asname or alias.name] = alias.name
                elif owner is not None and owner != here and _private(alias.name):
                    found.append((here, owner, alias.name, node.lineno))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("coopt.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)
                and modules[node.value.id] != here):
            found.append((here, modules[node.value.id], node.attr, node.lineno))
    return found


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for here, owner, name, line in _reach_ins(path):
            if (here, owner, name) not in ALLOWED:
                offenders.append(f"{here}.py:{line} uses {owner}.{name}")
    assert not offenders, offenders


def test_every_allowed_reach_in_is_still_used():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        used.update(entry[:3] for entry in _reach_ins(path))
    assert set(ALLOWED) <= used, sorted(set(ALLOWED) - used)
