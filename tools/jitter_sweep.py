"""Plan one scenario from several nearly equal starts and print the spread.

The solver's iteration counts are chaotic: a relative change of 1e-12 in
the start moves the number of objective calls of a chain plan by tens of
percent, while the travel time T and the status stay put.  One plan's
time therefore mixes the cost of an objective call with the luck of its
iteration count.  This script separates the two.  It plans the scenario
through ``planner.solve(problem, guess)`` from the unjittered initial
guess and from K starts whose interior joint coefficients (all rows but
the three boundary rows at each end) are scaled by ``1 + 1e-12 N(0, 1)``,
seeded 0 .. K - 1.  It first prints the unjittered start's travel time
and the rest-to-rest bound of its initial-guess record (``-`` for a tree
whose record lacks it), equal when the start was clamped at the bound:

         start T <T> T_bound <bound>

then one line per start:

    <start> <status> <float.hex(T)> <outer> <inner> <objective calls>
        <CPU s> <CPU s per objective call>

then the medians of the last five columns.  BLAS runs on one thread, as
in the test suite and the benchmark.  The scenario is a bundled scenario
name, a scenario file path, a perfbench workload name (its first
scenario) or ``<workload>/<scenario name>``, the label that
``output_digest.py`` prints for one plan of a workload:

    python3 tools/jitter_sweep.py mobile_sdf/bench2d_slalom_5_0 -k 6

``--tree`` plans with the ``src/`` (and ``perfbench/``) of another
checkout, so one copy of this script compares two trees:

    python3 tools/jitter_sweep.py arm_dynamic -k 6 --tree ../parent
    python3 tools/jitter_sweep.py arm_dynamic -k 6

The ``arm_dynamic`` sweep at K = 6 took 11 s wall per tree on a 2-core
x86-64 host with one BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# Relative size of the jitter on the interior joint coefficients.
JITTER = 1e-12
# Boundary rows of the joint coefficients pinned at each end of the guess.
BOUNDARY_ROWS = 3


def scenario_dicts(tree: Path, name: str) -> list[dict]:
    """The bundled scenario ``name`` of ``tree``, or the scenario file at
    the path ``name``, as a one-item list; every scenario of the perfbench
    workload ``name``; or, for ``<workload>/<scenario name>``, that one
    scenario of the workload.  ``tree``'s ``src/`` and root must lead
    ``sys.path``."""
    for path in (tree / "src" / "splinetraj" / "scenarios" / f"{name}.json",
                 Path(name)):
        if path.is_file():
            return [json.loads(path.read_text())]
    from perfbench.workloads import WORKLOADS, generate

    workload, _, scenario = name.partition("/")
    if workload not in WORKLOADS:
        raise SystemExit(f"{name}: neither a bundled scenario nor a workload "
                         f"({', '.join(WORKLOADS)})")
    batch = generate(workload)
    if scenario:
        batch = [obj for obj in batch if obj["name"] == scenario]
        if not batch:
            raise SystemExit(f"{name}: workload {workload} has no scenario "
                             f"{scenario!r}")
    return batch


def plan(problem, guess) -> dict:
    """Solve from ``guess``; count objective calls and CPU seconds."""
    from splinetraj.planner import solve

    calls = 0
    objective = problem.objective

    def counted(x):
        nonlocal calls
        calls += 1
        return objective(x)

    problem.objective = counted
    try:
        t0 = time.process_time()
        sol = solve(problem, guess)
        cpu = time.process_time() - t0
    finally:
        del problem.objective
    return {"status": sol.status, "T": sol.objective, "outer": sol.outer_iterations,
            "inner": sol.inner_iterations, "calls": calls, "cpu_s": cpu,
            "s_per_call": cpu / max(calls, 1)}


def start_line(problem) -> str:
    """The line of the unjittered start's T and its rest-to-rest bound."""
    from splinetraj.planner import _seeded_guess

    guess, record = _seeded_guess(problem)
    bound = record.get("T_bound")
    return (f"{'start':>10} T {guess.T:.10g} T_bound "
            f"{'-' if bound is None else format(bound, '.10g')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="bundled scenario name, scenario file "
                                         "path, perfbench workload name or "
                                         "<workload>/<scenario name>")
    parser.add_argument("-k", type=int, default=6, help="jittered starts (default 6)")
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ is planned (default: this one)")
    args = parser.parse_args(argv)

    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import numpy as np
    from splinetraj import parse_scenario
    from splinetraj.planner import assemble, initial_guess

    problem = assemble(parse_scenario(scenario_dicts(tree, args.scenario)[0]))
    print(start_line(problem), flush=True)
    rows = []
    for start in range(-1, args.k):
        guess = initial_guess(problem)
        if start >= 0:
            rng = np.random.default_rng(start)
            inner = guess.joint_coeffs[BOUNDARY_ROWS:-BOUNDARY_ROWS]
            inner *= 1.0 + JITTER * rng.standard_normal(inner.shape)
        row = plan(problem, guess)
        rows.append(row)
        label = "unjittered" if start < 0 else f"seed{start}"
        print(f"{label:>10} {row['status']} {float(row['T']).hex()} {row['outer']} "
              f"{row['inner']} {row['calls']} {row['cpu_s']:.3f} "
              f"{row['s_per_call'] * 1e3:.4f}ms", flush=True)
    med = {key: statistics.median(r[key] for r in rows)
           for key in ("outer", "inner", "calls", "cpu_s", "s_per_call")}
    print(f"{'median':>10} outer {med['outer']:g} inner {med['inner']:g} "
          f"calls {med['calls']:g} cpu {med['cpu_s']:.3f}s "
          f"per-call {med['s_per_call'] * 1e3:.4f}ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
