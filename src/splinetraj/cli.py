"""Command-line pipeline: solve scenarios, verify solutions, benchmark, export.

Subcommands:
    solve <scenario> [--out DIR] [--samples N]
    verify <scenario> <solution.json>
    bench <scenario> --counts 1,2,5,10,20 --trials N [--out DIR]
    sdf build <scenario> --out FILE

Exit codes: 0 converged / verified, 2 not converged, 3 invalid input.
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

from .collision import ObstaclePrimitive, build_sdf, save_sdf
from .planner import (
    PlanningProblem,
    Solution,
    assemble,
    initial_guess,
    recovered_angles,
    solve,
    verify,
)
from .scenario import ChainRobot, Scenario, ScenarioError, load_scenario

log = logging.getLogger("splinetraj")

__all__ = ["run", "export_trajectory", "benchmark_sdf_vs_hyperplane", "main",
           "RunReport"]


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(value))


@dataclass
class RunReport:
    """Outcome of one scenario run."""

    name: str
    status: str
    objective: float
    solve_time: float
    family_violations: dict[str, float]
    samples: int
    output_dir: str | None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "objective": self.objective,
            "solve_time_s": self.solve_time,
            "family_violations": self.family_violations,
            "samples": self.samples,
        }


def export_trajectory(solution: Solution, problem: PlanningProblem,
                      out_dir, samples: int = 1000) -> list[Path]:
    """Write the joint-space CSV, the Cartesian vertex CSV and solution.json.

    The joint CSV has columns tau, t, q1..qJ, dq1..dqJ: recovered joint
    angles and angular rates for chains (radians), positions and velocities
    for mobile robots (meters).  The Cartesian CSV tracks every cuboid
    vertex (chains) or the body center (mobile).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dv = solution.decision
    scenario = problem.scenario
    taus = np.linspace(0.0, 1.0, samples)
    splines = problem.trajectory_splines(dv)
    is_chain = isinstance(scenario.robot, ChainRobot)
    J = problem.layout.n_coords

    qcols = recovered_angles(problem, dv, taus)
    if is_chain:
        rates = []
        for j, s in enumerate(splines):
            q = s.eval(taus)[:, 0]
            qd = s.derivative().eval(taus)[:, 0]
            depth = scenario.robot.halving_depths[j]
            rates.append((2.0**depth) * qd / (dv.T * (1.0 + q * q)))
        dcols = np.column_stack(rates)
    else:
        dcols = np.column_stack(
            [s.derivative().eval(taus)[:, 0] / dv.T for s in splines]
        )

    header = (
        ["tau", "t"]
        + [f"q{j + 1}" for j in range(J)]
        + [f"dq{j + 1}" for j in range(J)]
    )
    lines = [",".join(header)]
    for k, tau in enumerate(taus):
        row = [_fmt(tau), _fmt(tau * dv.T)]
        row += [_fmt(v) for v in qcols[k]]
        row += [_fmt(v) for v in dcols[k]]
        lines.append(",".join(row))
    traj_path = out / "trajectory.csv"
    traj_path.write_text("\n".join(lines) + "\n")

    if is_chain:
        nfk = problem.nfk
        qmat = np.column_stack([s.eval(taus)[:, 0] for s in splines])
        state = nfk.shared_state(qmat)
        cart_header = ["tau", "t"]
        blocks = []
        for body in problem.bodies:
            pos = nfk.body_positions(state, body.link_index, body.verts)
            blocks.append(pos)
            for v in range(body.verts.shape[0]):
                cart_header += [f"{body.name}_v{v + 1}_{ax}" for ax in "xyz"]
        cart_lines = [",".join(cart_header)]
        for k, tau in enumerate(taus):
            row = [_fmt(tau), _fmt(tau * dv.T)]
            for pos in blocks:
                row += [_fmt(c) for c in pos[k].reshape(-1)]
            cart_lines.append(",".join(row))
    else:
        pos = np.column_stack([s.eval(taus)[:, 0] for s in splines])
        axes = "xyz"[: pos.shape[1]]
        cart_header = ["tau", "t"] + [f"body_{ax}" for ax in axes]
        cart_lines = [",".join(cart_header)]
        for k, tau in enumerate(taus):
            row = [_fmt(tau), _fmt(tau * dv.T)] + [_fmt(c) for c in pos[k]]
            cart_lines.append(",".join(row))
    cart_path = out / "cartesian.csv"
    cart_path.write_text("\n".join(cart_lines) + "\n")

    solution_path = out / "solution.json"
    solution_path.write_text(json.dumps(solution.to_json(), indent=2) + "\n")
    return [traj_path, cart_path, solution_path]


def run(scenario: Scenario, output_dir=None, samples: int = 1000,
        oversample: int = 10) -> RunReport:
    """Assemble, solve, verify, and export one scenario.

    With an output directory, report.json records the verification, the
    problem size, the solver trace and the wall time of each phase.
    """
    t0 = time.perf_counter()
    problem = assemble(scenario)
    t1 = time.perf_counter()
    solution = solve(problem)
    t2 = time.perf_counter()
    solve_time = t2 - t1
    report = verify(solution, problem, oversample=oversample)
    t3 = time.perf_counter()
    violations = {f.name: f.max_violation for f in report.families}
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_trajectory(solution, problem, out, samples)
        timings = {"assemble_s": t1 - t0, "solve_s": solve_time,
                   "verify_s": t3 - t2, "export_s": time.perf_counter() - t3}
        (out / "report.json").write_text(
            json.dumps(
                {
                    "verification": report.to_json(),
                    "solve_time_s": solve_time,
                    "timings": timings,
                    "problem": problem.describe(),
                    "trace": solution.trace,
                },
                indent=2,
            )
            + "\n"
        )
    return RunReport(
        name=scenario.name,
        status=solution.status,
        objective=solution.objective,
        solve_time=solve_time,
        family_violations=violations,
        samples=samples,
        output_dir=str(output_dir) if output_dir else None,
    )


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

    Returns one row per count with mean and minimum wall times, the time
    ratio of the means, the inner iterations and the constraint counts of
    each formulation.  Rows where either formulation fails to converge are
    flagged so trend checks can exclude them.
    """
    if isinstance(base_scenario.robot, ChainRobot):
        raise ValueError("benchmark expects a mobile-robot base scenario")
    if any(not o.is_static for o in base_scenario.obstacles):
        raise ValueError("benchmark expects static obstacles only")
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
            solve(problem)  # warmup, untimed
            times = []
            solutions = []
            for _ in range(trials):
                t0 = time.perf_counter()
                solutions.append(solve(problem))
                times.append(time.perf_counter() - t0)
            counts = problem.constraint_counts()
            row[f"t_{mode}"] = float(np.mean(times))
            row[f"t_min_{mode}"] = float(min(times))
            row[f"status_{mode}"] = solutions[0].status
            row[f"objective_{mode}"] = solutions[0].objective
            row[f"inner_{mode}"] = solutions[0].inner_iterations
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
    header = "count,t_sdf,t_hyp,ratio,ok,constraints_sdf,constraints_hyp"
    lines = [header]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r["count"]),
                    _fmt(r["t_sdf"]),
                    _fmt(r["t_hyperplane"]),
                    _fmt(r["ratio"]),
                    str(int(r["ok"])),
                    str(r["constraints_sdf"]),
                    str(r["constraints_hyperplane"]),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run(scenario, output_dir=args.out, samples=args.samples)
    print(f"{report.name}: {report.status}, T = {report.objective:.6f} s "
          f"({report.solve_time:.1f} s wall)")
    for name, viol in report.family_violations.items():
        print(f"  {name:32s} max violation {viol:.3e}")
    return 0 if report.converged else 2


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    payload = json.loads(Path(args.solution).read_text())
    solution = Solution.from_json(payload)
    problem = assemble(scenario)
    report = verify(solution, problem, oversample=args.oversample)
    for fam in report.families:
        flag = "" if fam.passed else "  VIOLATED"
        print(f"  {fam.name:32s} {fam.kind:5s} max {fam.max_violation:.3e} "
              f"({fam.n_samples} samples){flag}")
    print("verification", "PASSED" if report.passed else "FAILED")
    return 0 if report.passed else 2


def _cmd_bench(args) -> int:
    scenario = load_scenario(args.scenario)
    counts = [int(c) for c in args.counts.split(",")]
    rows = benchmark_sdf_vs_hyperplane(scenario, counts, trials=args.trials)
    out = Path(args.out) if args.out else Path("benchmark.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_benchmark_csv(rows, out)
    print(f"{'count':>6} {'t_sdf':>9} {'t_hyp':>9} {'ratio':>7}")
    for r in rows:
        print(f"{r['count']:>6} {r['t_sdf']:>9.3f} {r['t_hyperplane']:>9.3f} "
              f"{r['ratio']:>7.2f}{'' if r['ok'] else '  (not converged)'}")
    print(f"wrote {out}")
    return 0 if all(r["ok"] for r in rows) else 2


def _cmd_sdf_build(args) -> int:
    scenario = load_scenario(args.scenario)
    statics = [o for o in scenario.obstacles if o.is_static]
    extent = float((scenario.workspace_max - scenario.workspace_min).max())
    cell = scenario.collision.cell_size or extent / 128.0
    field = build_sdf(statics, (scenario.workspace_min, scenario.workspace_max),
                      cell)
    save_sdf(field, args.out)
    print(f"wrote {args.out}: dims {field.dims}, cell {field.cell_size:.5f} m")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinetraj",
        description="Minimum-time B-spline trajectory planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario")
    p_solve.add_argument("scenario")
    p_solve.add_argument("--out", default=None, help="output directory")
    p_solve.add_argument("--samples", type=int, default=1000)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="re-verify a stored solution")
    p_verify.add_argument("scenario")
    p_verify.add_argument("solution")
    p_verify.add_argument("--oversample", type=int, default=10)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="signed distance field vs separating hyperplane timing"
    )
    p_bench.add_argument("scenario")
    p_bench.add_argument("--counts", default="1,2,5,10,20")
    p_bench.add_argument("--trials", type=int, default=5)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_sdf = sub.add_parser("sdf", help="signed distance field utilities")
    sdf_sub = p_sdf.add_subparsers(dest="sdf_command", required=True)
    p_build = sdf_sub.add_parser("build", help="build and save the field")
    p_build.add_argument("scenario")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_sdf_build)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("SPLINETRAJ_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
