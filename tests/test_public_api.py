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


ROOT = PACKAGE.parents[1]
REFERENCE_DIRS = ("src", "tests", "tools", "perfbench")


def references(tree):
    """(name, line) of every use of a name: a variable, an attribute, an
    imported name, or a string that is an identifier (``__all__`` entries
    and the attribute names perfbench patches)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_definition_is_referenced():
    """Each function, class, method and property of the package is used by
    name somewhere outside its own definition; dunders are exempt."""
    used = {}
    for folder in REFERENCE_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, line in references(parse(path)):
                used.setdefault(name, []).append((path, line))
    dead = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside
                       for p, line in used.get(node.name, [])):
                dead.append(f"{path.stem}:{node.lineno} {node.name}")
    assert not dead, f"defined but never referenced: {dead}"
