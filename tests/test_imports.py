"""Static guards over the package (no linter is installed): no unused
module-level imports in the package or its tests, and no package name that
only the tests use."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "rwsnsim"
BENCH = TESTS.parent / "bench"
FILES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import and never read in the module."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a.b import c as d\nfrom e import f\nf(d)\n") == []
    assert unused_imports("from __future__ import annotations\nimport x.y\nx.y.z()\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_simulator_does_not_import_the_mdp():
    # the scenario ships the ehmdp chooser, so the slot loop needs no solver
    imported = set()   # modules, and names imported from them (`from . import mdp`)
    for node in ast.walk(ast.parse((PACKAGE / "simulator.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name for alias in node.names}
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "core" in imported   # the scan sees the relative imports
    assert [name for name in imported if name.split(".")[-1] == "mdp"] == []


def _names_read(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def bench_names(sources: list[str]) -> set[str]:
    """Package names the benchmark reaches: imported, read as attributes, or
    patched by name (as string constants)."""
    out: set[str] = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("rwsnsim"):
                out |= {alias.name for alias in n.names}
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.add(n.value)
    return out


def unreachable_names(modules: dict[str, str], roots: set[str]) -> list[str]:
    """Public module-level definitions no path of references reaches from `roots`.

    A module-level definition (def, class or assignment) refers to the names
    it reads; any other module-level statement, and each root, is live. So a
    name that only other dead names use is dead too. Names are matched by
    spelling across modules, which errs on the side of calling a name live.
    """
    refs: dict[str, set[str]] = {}
    live = set(roots)
    defined = []
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names = _bound_names(stmt)
            if not names:
                live |= _names_read(stmt)
            for name in names:
                refs.setdefault(name, set()).update(_names_read(stmt) - {name})
                if not name.startswith("_"):
                    defined.append(f"{module}.{name}")
    todo = list(live)
    while todo:
        for ref in refs.get(todo.pop(), ()):
            if ref not in live:
                live.add(ref)
                todo.append(ref)
    return [name for name in defined if name.split(".")[1] not in live]


def test_detector_flags_names_only_dead_code_uses():
    modules = {
        "a": "def main():\n    return helper()\n\ndef helper():\n    return 1\n",
        "b": "LIMIT = 3\n\ndef orphan():\n    return LIMIT + twin()\n\ndef twin():\n    return 2\n",
    }
    assert unreachable_names(modules, {"main"}) == ["b.LIMIT", "b.orphan", "b.twin"]
    assert unreachable_names(modules, {"main", "orphan"}) == []


def test_every_package_name_is_used_by_the_program():
    # the roots: the CLI entry point and what the benchmark imports or patches
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    roots = {"main"} | bench_names([p.read_text() for p in sorted(BENCH.glob("*.py"))])
    assert unreachable_names(modules, roots) == []
