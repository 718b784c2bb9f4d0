"""List the package functions that no program path enters, and the
statements that none runs.

This runs the command line as a user does, under ``sys.settrace``, and
records every function entry and, in package frames only, every line
run:

- ``splinetraj solve`` of each scenario on ``output_digest.py``'s list:
  the same names and ``+hyperplane``/``+limits``/``+upper``/``+polytope``/
  ``+still``/``+prismatic``/``+retract``/``+depth2``/``+blocked`` variants,
  or the names given on the command line, each written to a temporary
  scenario file;
- ``splinetraj verify`` of the first plan's stored solution, and of
  the first ``+hyperplane`` plan's when the list has one, so that
  reading stored planes counts;
- ``splinetraj bench bench2d --counts 1 --trials 1``.

Then, for each function or method defined in ``src/splinetraj/*.py``,
it prints one line if the definition was never entered:

    <module>:<line> <qualified name> (<n> lines) [perfbench]

and otherwise, if some of its statements never ran, a heading and under
it the first line of each run of consecutive statements that never ran:

    <module>:<line> <qualified name>: <k> of <n> statements never run
        <module>:<line> <source line> (<m> statements)

``[perfbench]`` marks the callables that ``perfbench/layers.py`` patches.
The benchmark's tracer looks those up by name, so they can only go in a
change to the benchmark.  A definition nested in a listed one is counted
in its lines and not listed apart.  A statement counts for the
definition whose body holds it, not for one it is nested in; one
nested in a statement that never ran is counted with it and not listed
apart.  Error paths are left out, since they are expected not to run:
``raise`` statements, every ``if`` branch or ``except`` handler that ends
in one (with the statements before it, which build its message), and
statements that hold nothing but those.  So are
docstrings, ``pass``, ``global`` and ``nonlocal``, which run no code.
Code that only the tests call is listed by design: it is reached by no
program path.  The commands' own output goes to stderr.

    python3 tools/reachability.py            # the default list, about 28 s
    python3 tools/reachability.py mobile2d   # one plan, 3 s

Those times are wall seconds on a 2-core x86-64 host with one BLAS
thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import contextlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

TREE = Path(__file__).resolve().parents[1]
PACKAGE = TREE / "src" / "splinetraj"


def definitions(path: Path) -> list[tuple]:
    """(first line, qualified name, line count, enclosing function's first
    line or None, node) of every function in the module at ``path``.  The
    first line is the first decorator's, as in the function's code
    object."""
    out = []

    def walk(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((first, name, child.end_lineno - first + 1, parent,
                            child))
                walk(child, f"{name}.<locals>.", first)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", parent)
            else:
                walk(child, prefix, parent)

    walk(ast.parse(path.read_text(), filename=str(path)), "", None)
    return out


DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _silent(stmt) -> bool:
    """A statement that runs no code of its own (a docstring or other bare
    constant, ``pass``, ``global``, ``nonlocal``)."""
    return isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def _error_path(block) -> bool:
    """A statement list that ends in a ``raise``."""
    return bool(block) and isinstance(block[-1], ast.Raise)


def _blocks(stmt) -> list[list]:
    """The statement lists nested in ``stmt`` but error paths: the
    branches of an ``if`` and the ``except`` handlers that end in a
    ``raise``.  None in a definition, whose body belongs to itself."""
    if isinstance(stmt, DEFINITION):
        return []
    blocks = [getattr(stmt, key, None) for key in ("body", "orelse",
                                                   "finalbody")]
    if isinstance(stmt, ast.If):
        blocks = [b for b in blocks if not _error_path(b)]
    blocks += [h.body for h in getattr(stmt, "handlers", [])
               if not _error_path(h.body)]
    blocks += [c.body for c in getattr(stmt, "cases", [])]
    return [b for b in blocks if b]


def _raises_only(stmt) -> bool:
    """A ``raise``, or an ``if`` whose every branch is an error path or
    holds only such statements."""
    return isinstance(stmt, ast.Raise) or (
        isinstance(stmt, ast.If) and all(_raises_only(s) for b in _blocks(stmt)
                                         for s in b))


def _own_lines(stmt) -> range:
    """The lines of ``stmt`` outside its nested statements: all of a
    simple statement, the header of a compound one (decorators included)."""
    first = min([stmt.lineno]
                + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body \
        else stmt.end_lineno
    return range(first, max(first, last) + 1)


def _counted(block) -> list:
    return [s for s in block if not _silent(s) and not _raises_only(s)]


def never_run(body, lines: set) -> tuple[int, list[tuple]]:
    """(statements counted, [(first statement, statements in the run)] for
    each run of consecutive counted statements that never ran) in the
    statement list ``body``, given the lines that ran.  A compound
    statement ran when its header or any statement nested in it did."""
    total = 0
    runs = []

    def size(stmt) -> int:
        return 1 + sum(size(s) for b in _blocks(stmt) for s in _counted(b))

    def ran(stmt) -> bool:
        return any(n in lines for n in _own_lines(stmt)) or any(
            ran(s) for b in _blocks(stmt) for s in b)

    def visit(block):
        nonlocal total
        current = None
        for stmt in _counted(block):
            if ran(stmt):
                current = None
                total += 1
                for inner in _blocks(stmt):
                    visit(inner)
                continue
            total += size(stmt)
            if current is None:
                current = [stmt, 0]
                runs.append(current)
            current[1] += size(stmt)

    visit(body)
    return total, [tuple(r) for r in runs]


class _PatchRecorder:
    """Stands in for perfbench's tracer and notes what ``install`` patches."""

    def __init__(self):
        self.targets = []

    def patch(self, owner, attr, *args):
        self.targets.append(getattr(owner, attr))


def patched_sites() -> set[tuple[str, int]]:
    """(file, first line) of each package function perfbench patches."""
    from perfbench.layers import install

    recorder = _PatchRecorder()
    install(recorder)
    sites = set()
    for target in recorder.targets:
        code = getattr(inspect.unwrap(target), "__code__", None)
        if code is not None:
            sites.add((str(Path(code.co_filename).resolve()), code.co_firstlineno))
    return sites


def run_commands(names: list[str], tmp: Path) -> None:
    """Every command of the module docstring, through ``cli.main``."""
    sys.path[:0] = [str(TREE / "src"), str(TREE)]
    from output_digest import plans
    from splinetraj.cli import main

    bundled = PACKAGE / "scenarios"
    solutions = {}
    for i, (label, obj) in enumerate(plans(TREE, names)):
        scenario = tmp / f"{i}.json"
        scenario.write_text(json.dumps(obj))
        out = tmp / f"out{i}"
        code = main(["solve", str(scenario), "--out", str(out)])
        print(f"solve {label}: exit {code}", file=sys.stderr)
        solutions[label] = [str(scenario), str(out / "solution.json")]
    first = next(iter(solutions))
    planes = next((label for label in solutions if "+hyperplane" in label),
                  None)
    commands = {f"verify {label}": ["verify", *solutions[label]]
                for label in (first, planes) if label is not None}
    commands["bench"] = ["bench", str(bundled / "bench2d.json"), "--counts",
                         "1", "--trials", "1", "--out", str(tmp / "bench.csv")]
    for label, argv in commands.items():
        print(f"{label}: exit {main(argv)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*",
                        help="names as output_digest.py takes them (default: "
                             "its list)")
    args = parser.parse_args(argv)

    entered = set()
    lines = set()
    in_package = {}
    package = PACKAGE.resolve()

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        code = frame.f_code
        entered.add(code)
        name = code.co_filename
        if name not in in_package:
            in_package[name] = Path(name).resolve().parent == package
        return line if in_package[name] else None

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        sys.settrace(call)
        try:
            run_commands(args.scenarios, Path(tmp))
        finally:
            sys.settrace(None)

    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
               for c in entered}
    ran = {(str(Path(f).resolve()), n) for f, n in lines}
    patched = patched_sites()
    total = listed = size = statements = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        key = str(path.resolve())
        source = path.read_text().splitlines()
        run_lines = {n for f, n in ran if f == key}
        for first, name, count, parent, node in definitions(path):
            total += 1
            if (key, first) in reached:
                counted, runs = never_run(node.body, run_lines)
                missed = sum(n for _, n in runs)
                statements += counted
                unrun += missed
                if runs:
                    print(f"{path.stem}:{first} {name}: {missed} of {counted} "
                          f"statements never run")
                for stmt, n in runs:
                    text = source[stmt.lineno - 1].strip()
                    print(f"    {path.stem}:{stmt.lineno} {text} "
                          f"({n} statement{'s' * (n > 1)})")
                continue
            if parent is not None and (key, parent) not in reached:
                continue
            listed += 1
            size += count
            mark = " [perfbench]" if (key, first) in patched else ""
            print(f"{path.stem}:{first} {name} ({count} lines){mark}")
    print(f"{listed} of {total} definitions never entered, {size} lines; "
          f"{unrun} of {statements} statements in entered definitions "
          f"never run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
