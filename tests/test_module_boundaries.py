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


# the one reason a module may import a name it neither uses nor exports
TRACED = "# noqa: F401 -- wrapped by name in bench/spans.py"


def _unused_imports(path):
    """(name, line) of every name a module imports at module level without
    using it, listing it in ``__all__`` or marking its line with ``TRACED``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and not lines[alias.lineno - 1].endswith(TRACED):
                    unused.append((name, alias.lineno))
    return unused


def test_every_module_level_import_is_used_exported_or_traced():
    """No linter runs on the package, so this stands in for its unused-import
    rule: a name imported only for the bench tracer to wrap says so."""
    offenders = [f"{path.name}:{line} imports {name}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
                 for name, line in _unused_imports(path)]
    assert not offenders, offenders
