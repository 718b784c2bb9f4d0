"""Static checks of the package surface, read from the source with ``ast``:
every exported name exists, and no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src/splinetraj"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree):
    """The string entries of a module's top-level ``__all__``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return None


def imported(tree):
    """Top-level names bound by import statements, ``__future__`` aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def defined(tree):
    """Every name bound at the top level of a module."""
    names = set(imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    tree = parse(path)
    names = exported(tree)
    if names is None:
        pytest.skip(f"{path.stem} has no __all__")
    missing = sorted(set(names) - defined(tree))
    assert not missing, f"{path.stem}.__all__ names undefined: {missing}"
    assert len(names) == len(set(names)), f"{path.stem}.__all__ repeats a name"


def test_package_exports_exist_in_their_modules():
    """Each name ``__init__`` imports from a sibling module is defined there."""
    trees = {p.stem: parse(p) for p in MODULES}
    missing = []
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            home = defined(trees[node.module])
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in home]
    assert not missing, missing


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_top_level_imports(path):
    tree = parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(exported(tree) or [])
    unused = {name: line for name, line in imported(tree).items() if name not in used}
    assert not unused, f"{path.stem}: unused imports {unused}"
