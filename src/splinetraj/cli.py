"""Command-line pipeline: solve scenarios, verify solutions, benchmark, export.

Subcommands:
    solve <scenario> [--out DIR] [--samples N]
    verify <scenario> <solution.json> [--oversample N]
    bench <scenario> --counts 1,2,5,10,20 --trials N [--out DIR]

``--samples``, ``--oversample`` and ``--trials`` are integers >= 1 and
``--counts`` a comma-separated list of integers >= 0; a bad value, like
any other usage error, is invalid input and rejected before any work.

Exit codes: 0 converged / verified, 2 not converged / not verified,
3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from .collision import ObstaclePrimitive
from .nlp import SolveOutcome
from .planner import (STORED_OUTCOME, DecisionVector, PlanningProblem,
                      Solution, assemble, solve, verify)
from .scenario import (ChainRobot, Scenario, ScenarioError, _read_json,
                       _require_keys, load_scenario)

log = logging.getLogger("splinetraj")

__all__ = ["run", "export_trajectory", "benchmark_sdf_vs_hyperplane", "main",
           "RunReport"]


# Values the CSV writer turns into Python floats at a time.
CSV_CHUNK_VALUES = 4096


def _csv_rows(columns) -> list[str]:
    """The columns as CSV rows, each value formatted once, as its shortest
    round-trip form ``repr(float(v))``.  The table goes to Python floats
    (``tolist``) a block of rows at a time, never a wide table at once."""
    table = np.column_stack(columns)
    step = max(1, CSV_CHUNK_VALUES // table.shape[1])
    return [",".join(map(repr, row))
            for start in range(0, len(table), step)
            for row in table[start : start + step].tolist()]


def _write_csv(path: Path, header: list[str], rows: list[str]) -> None:
    path.write_text("\n".join([",".join(header)] + rows) + "\n")


@dataclass(kw_only=True)
class RunReport(SolveOutcome):
    """One scenario run: the solve's outcome (the ``Solution``'s own
    objects), the scenario's name, the solve's wall time in seconds and
    each verified family's worst dense violation."""

    name: str
    solve_time: float
    family_violations: dict[str, float]


def _output_path(path, file: bool = False) -> Path:
    """The directory ``path``, or with ``file`` the file's directory,
    created; ScenarioError naming ``path`` where that cannot be."""
    out = Path(path)
    try:
        (out.parent if file else out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    if file and out.is_dir():
        raise ScenarioError(f"{path}: is a directory")
    return out


def export_trajectory(solution: Solution, problem: PlanningProblem,
                      out_dir, samples: int = 1000) -> list[Path]:
    """Write the joint-space CSV, the Cartesian CSV and solution.json to out_dir.

    The joint CSV has columns tau, t, q1..qJ, dq1..dqJ: recovered joint
    angles and angular rates for chains (radians), positions and velocities
    for mobile robots (meters).  The Cartesian CSV tracks every cuboid
    vertex (chains) or the body center (mobile).
    """
    out = Path(out_dir)
    dv = solution.decision
    taus = np.linspace(0.0, 1.0, samples)
    traj = problem.samples(dv, taus)
    J = problem.layout.n_coords

    header = (
        ["tau", "t"]
        + [f"q{j + 1}" for j in range(J)]
        + [f"dq{j + 1}" for j in range(J)]
    )
    traj_rows = _csv_rows([taus, taus * dv.T, traj.joint(0), traj.joint(1)])
    traj_path = out / "trajectory.csv"
    _write_csv(traj_path, header, traj_rows)

    if isinstance(problem.scenario.robot, ChainRobot):
        cart_header = ["tau", "t"]
        blocks = []
        for body in problem.bodies:
            blocks.append(traj.positions(body).reshape(samples, -1))
            for v in range(body.verts.shape[0]):
                cart_header += [f"{body.name}_v{v + 1}_{ax}" for ax in "xyz"]
        cart_rows = _csv_rows([taus, taus * dv.T, *blocks])
    else:
        cart_header = ["tau", "t"] + [f"body_{ax}" for ax in "xyz"[:J]]
        # A mobile robot's positions are its coordinates: its Cartesian
        # rows are its trajectory rows without the rates.
        cart_rows = [row.rsplit(",", J)[0] for row in traj_rows]
    cart_path = out / "cartesian.csv"
    _write_csv(cart_path, cart_header, cart_rows)

    solution_path = out / "solution.json"
    solution_path.write_text(json.dumps(solution.to_json(), indent=2) + "\n")
    return [traj_path, cart_path, solution_path]


def run(scenario: Scenario, output_dir=None, samples: int = 1000,
        oversample: int = 10) -> RunReport:
    """Assemble, solve, verify, and export one scenario.

    With an output directory (created first), report.json records the
    verification, problem size, solver trace, block scales, the test that
    stopped the solve, how the initial guess was found, wall time of each
    phase and the numeric environment (``_environment``).
    """
    out = None if output_dir is None else _output_path(output_dir)
    t0 = time.perf_counter()
    problem = assemble(scenario)
    t1 = time.perf_counter()
    solution = solve(problem)
    t2 = time.perf_counter()
    solve_time = t2 - t1
    report = verify(solution.decision, problem, oversample=oversample)
    t3 = time.perf_counter()
    violations = {f.name: f.max_violation for f in report.families}
    if out is not None:
        export_trajectory(solution, problem, out, samples)
        timings = {"assemble_s": t1 - t0, "solve_s": solve_time,
                   "verify_s": t3 - t2, "export_s": time.perf_counter() - t3}
        (out / "report.json").write_text(
            json.dumps(
                {
                    "verification": report.to_json(),
                    "timings": timings,
                    "problem": problem.describe(),
                    "trace": solution.trace,
                    "block_scales": solution.block_scales,
                    "stop": solution.stop,
                    "initial_guess": solution.initial_guess,
                    "environment": _environment(),
                },
                indent=2,
            )
            + "\n"
        )
    return RunReport(**solution.outcome(), name=scenario.name,
                     solve_time=solve_time, family_violations=violations)


def _environment() -> dict:
    """The numpy, scipy and BLAS versions and BLAS thread variables."""
    try:  # numpy before 1.26 takes no mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            **{v: os.environ.get(v) for v in threads}}


def benchmark_obstacles(k: int) -> list[dict]:
    """Deterministic static circle layout for the benchmark harness."""
    out = []
    for i in range(k):
        x = 0.6 + 1.8 * ((i * 0.618034) % 1.0)
        y = (0.5 + 0.3 * ((i * 0.381966) % 1.0)) * (1 if i % 2 == 0 else -1)
        out.append(
            ObstaclePrimitive.sphere(np.array([round(x, 6), round(y, 6)]), 0.2)
        )
    return out


def benchmark_sdf_vs_hyperplane(base_scenario: Scenario, obstacle_counts,
                                trials: int = 5) -> list[dict]:
    """Solve each obstacle count with both static-obstacle formulations.

    Returns one row per count with the mean wall times, the time ratio
    of the means, the warm-up solve's outcome and the constraint counts
    of each formulation.  Rows where either formulation fails to
    converge are flagged so trend checks can exclude them.  The layout's
    circles are 2-D, so a chain robot, a 3-D robot or a moving obstacle
    in the base scenario is invalid input (ScenarioError).
    """
    robot = base_scenario.robot
    if isinstance(robot, ChainRobot) or robot.dimension != 2:
        raise ScenarioError("benchmark expects a 2-D mobile-robot base scenario")
    if any(not o.is_static for o in base_scenario.obstacles):
        raise ScenarioError("benchmark expects static obstacles only")
    rows = []
    for k in obstacle_counts:
        obstacles = tuple(benchmark_obstacles(k))
        row = {"count": k}
        for mode in ("sdf", "hyperplane"):
            scen = replace(
                base_scenario,
                obstacles=obstacles,
                collision=replace(base_scenario.collision, static_mode=mode),
            )
            problem = assemble(scen)
            first = solve(problem)  # untimed warm-up; solves are deterministic
            times = []
            for _ in range(trials):
                t0 = time.perf_counter()
                solve(problem)
                times.append(time.perf_counter() - t0)
            counts = problem.constraint_counts()
            row[f"t_{mode}"] = float(np.mean(times))
            row[f"status_{mode}"] = first.status
            row[f"objective_{mode}"] = first.objective
            row[f"inner_{mode}"] = first.inner_iterations
            row[f"constraints_{mode}"] = int(sum(counts.values()))
        row["ratio"] = row["t_hyperplane"] / row["t_sdf"]
        row["ok"] = (
            row["status_sdf"] == "converged"
            and row["status_hyperplane"] == "converged"
        )
        log.info(
            "bench k=%d: t_sdf=%.3fs t_hyp=%.3fs ratio=%.2f",
            k, row["t_sdf"], row["t_hyperplane"], row["ratio"],
        )
        rows.append(row)
    return rows


def write_benchmark_csv(rows, path) -> None:
    header = ["count", "t_sdf", "t_hyp", "ratio", "ok", "constraints_sdf",
              "constraints_hyp"]
    _write_csv(Path(path), header, [
        ",".join([str(r["count"]), repr(r["t_sdf"]), repr(r["t_hyperplane"]),
                  repr(r["ratio"]), str(int(r["ok"])),
                  str(r["constraints_sdf"]), str(r["constraints_hyperplane"])])
        for r in rows])


def _cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run(scenario, output_dir=args.out, samples=args.samples)
    print(f"{report.name}: {report.status}, T = {report.objective:.6f} s "
          f"({report.solve_time:.1f} s wall)")
    for name, viol in report.family_violations.items():
        print(f"  {name:32s} max violation {viol:.3e}")
    return 0 if report.converged else 2


def _cmd_verify(args) -> int:
    problem = assemble(load_scenario(args.scenario))
    obj = _read_json(args.solution)
    _require_keys(obj, "solution", ["decision", *STORED_OUTCOME])
    dv = DecisionVector.from_json(obj["decision"], problem.layout)
    report = verify(dv, problem, oversample=args.oversample)
    for fam in report.families:
        flag = "" if fam.passed else "  VIOLATED"
        print(f"  {fam.name:32s} {fam.kind:5s} max {fam.max_violation:.3e} "
              f"({fam.n_samples} samples){flag}")
    print("verification", "PASSED" if report.passed else "FAILED")
    return 0 if report.passed else 2


def _cmd_bench(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _output_path(args.out or "benchmark.csv", file=True)
    rows = benchmark_sdf_vs_hyperplane(scenario, args.counts, trials=args.trials)
    write_benchmark_csv(rows, out)
    print(f"{'count':>6} {'t_sdf':>9} {'t_hyp':>9} {'ratio':>7}")
    for r in rows:
        print(f"{r['count']:>6} {r['t_sdf']:>9.3f} {r['t_hyperplane']:>9.3f} "
              f"{r['ratio']:>7.2f}{'' if r['ok'] else '  (not converged)'}")
    print(f"wrote {out}")
    return 0 if all(r["ok"] for r in rows) else 2


def _integer(text: str, low: int) -> int:
    """``text`` as an integer >= ``low``, or an argparse type error."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {low}, got {text!r}")
    return value


def _positive(text: str) -> int:
    return _integer(text, 1)


def _counts(text: str) -> list[int]:
    return [_integer(part, 0) for part in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input (ScenarioError, exit 3), not
    argparse's exit 2, which here means "not converged / not verified"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splinetraj",
        description="Minimum-time B-spline trajectory planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario")
    p_solve.add_argument("scenario")
    p_solve.add_argument("--out", default=None, help="output directory")
    p_solve.add_argument("--samples", type=_positive, default=1000)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="re-verify a stored solution")
    p_verify.add_argument("scenario")
    p_verify.add_argument("solution")
    p_verify.add_argument("--oversample", type=_positive, default=10)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="signed distance field vs separating hyperplane timing"
    )
    p_bench.add_argument("scenario")
    p_bench.add_argument("--counts", type=_counts, default=[1, 2, 5, 10, 20])
    p_bench.add_argument("--trials", type=_positive, default=5)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        level = os.environ.get("SPLINETRAJ_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise ScenarioError(f"SPLINETRAJ_LOG: unknown level {level!r}")
        logging.basicConfig(level=level,
                            format="%(levelname)s %(name)s: %(message)s")
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ScenarioError, FileNotFoundError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
