"""List the package functions that no program path enters.

This runs the command line as a user does, under ``sys.setprofile``, and
records every function entry:

- ``splinetraj solve`` of each scenario on ``output_digest.py``'s list:
  the same names and ``+hyperplane``/``+limits``/``+polytope`` variants,
  or the names given on the command line, each written to a temporary
  scenario file;
- ``splinetraj verify`` of the first plan's stored solution;
- ``splinetraj bench bench2d --counts 1 --trials 1``.

Then it prints each function or method defined in ``src/splinetraj/*.py``
that was never entered, one per line:

    <module>:<line> <qualified name> (<n> lines) [perfbench]

``[perfbench]`` marks the callables that ``perfbench/layers.py`` patches.
The benchmark's tracer looks those up by name, so they can only go in a
change to the benchmark.  A definition nested in a listed one is counted
in its lines and not listed apart.  Code that only the tests call is
listed by design: it is reached by no program path.  The commands'
own output goes to stderr.

    python3 tools/reachability.py            # the default list, 13 s
    python3 tools/reachability.py mobile2d   # one plan, 2 s

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
    line or None) of every function in the module at ``path``.  The first
    line is the first decorator's, as in the function's code object."""
    out = []

    def walk(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((first, name, child.end_lineno - first + 1, parent))
                walk(child, f"{name}.<locals>.", first)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", parent)
            else:
                walk(child, prefix, parent)

    walk(ast.parse(path.read_text(), filename=str(path)), "", None)
    return out


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
    solutions = []
    for i, (label, obj) in enumerate(plans(TREE, names)):
        scenario = tmp / f"{i}.json"
        scenario.write_text(json.dumps(obj))
        out = tmp / f"out{i}"
        code = main(["solve", str(scenario), "--out", str(out)])
        print(f"solve {label}: exit {code}", file=sys.stderr)
        solutions.append((scenario, out / "solution.json"))
    scenario, solution = solutions[0]
    commands = {
        "verify": ["verify", str(scenario), str(solution)],
        "bench": ["bench", str(bundled / "bench2d.json"), "--counts", "1",
                  "--trials", "1", "--out", str(tmp / "bench.csv")],
    }
    for label, argv in commands.items():
        print(f"{label}: exit {main(argv)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*",
                        help="names as output_digest.py takes them (default: "
                             "its list)")
    args = parser.parse_args(argv)

    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        sys.setprofile(record)
        try:
            run_commands(args.scenarios, Path(tmp))
        finally:
            sys.setprofile(None)

    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
               for c in entered}
    patched = patched_sites()
    total = listed = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        key = str(path.resolve())
        for first, name, count, parent in definitions(path):
            total += 1
            if (key, first) in reached or (
                    parent is not None and (key, parent) not in reached):
                continue
            listed += 1
            lines += count
            mark = " [perfbench]" if (key, first) in patched else ""
            print(f"{path.stem}:{first} {name} ({count} lines){mark}")
    print(f"{listed} of {total} definitions never entered, {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
