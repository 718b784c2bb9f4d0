"""Scenario parsing, CSV exports, CLI commands, benchmark structure."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splinetraj
from splinetraj.cli import (
    benchmark_obstacles,
    export_trajectory,
    main,
    run,
    write_benchmark_csv,
)
from splinetraj.collision import load_sdf
from splinetraj.planner import Solution, assemble, initial_guess, solve
from splinetraj.scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    save_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src/splinetraj/scenarios"


def minimal_mobile(**overrides):
    base = {
        "name": "m",
        "robot": {"kind": "mobile", "dimension": 2, "radius": 0.1},
        "boundary": {"initial": [0, 0], "goal": [1, 0], "units": "m"},
        "limits": {"velocity": 1.0, "acceleration": 4.0},
        "workspace": {"min": [-1, -1], "max": [2, 1]},
    }
    base.update(overrides)
    return base


class TestParsing:
    def test_unknown_field_named(self):
        with pytest.raises(ScenarioError, match="scenario.turbo"):
            parse_scenario(minimal_mobile(turbo=True))

    def test_nested_unknown_field(self):
        obj = minimal_mobile()
        obj["robot"]["wheels"] = 4
        with pytest.raises(ScenarioError, match="robot.wheels"):
            parse_scenario(obj)

    def test_missing_required_field(self):
        obj = minimal_mobile()
        del obj["limits"]
        with pytest.raises(ScenarioError, match="limits"):
            parse_scenario(obj)

    def test_nonpositive_limits_rejected(self):
        obj = minimal_mobile(limits={"velocity": 0.0, "acceleration": 1.0})
        with pytest.raises(ScenarioError, match="velocity"):
            parse_scenario(obj)

    def test_obstacle_field_errors(self):
        obj = minimal_mobile(obstacles=[
            {"kind": "sphere", "center": [0, 0], "radius": -1.0}
        ])
        with pytest.raises(ScenarioError, match="obstacles\\[0\\]"):
            parse_scenario(obj)

    def test_degree_units_conversion(self):
        scn = load_scenario(SCENARIO_DIR / "threelink.json")
        np.testing.assert_allclose(scn.limits.velocity,
                                   np.full(3, 200 * np.pi / 180))
        np.testing.assert_allclose(scn.boundary_goal[0], 60 * np.pi / 180)

    def test_empty_obstacles_valid(self):
        scn = parse_scenario(minimal_mobile())
        assert scn.obstacles == ()

    def test_chain_range_validation(self):
        obj = minimal_mobile()
        obj["robot"] = {
            "kind": "chain",
            "base_pose": list(np.eye(4).reshape(-1)),
            "links": [{"a": 0.3, "alpha": 0.0, "d": 0.0}],
            "cuboids": [[[0, 0, 0]] * 8],
            "halving_depth": 1,
        }
        obj["boundary"] = {"initial": [200.0], "goal": [0.0], "units": "deg"}
        obj["limits"] = {"velocity": 90, "acceleration": 90, "units": "deg"}
        obj["workspace"] = {"min": [-1, -1, -1], "max": [1, 1, 1]}
        with pytest.raises(ScenarioError, match="recoverable"):
            parse_scenario(obj)


class TestBundledScenarios:
    def test_threelink_dh_table(self):
        scn = load_scenario(SCENARIO_DIR / "threelink.json")
        chain = scn.robot.chain
        assert [l.a for l in chain.links] == [0.5, 0.44, 0.35]
        np.testing.assert_allclose(
            [l.alpha for l in chain.links], [-np.pi / 2, np.pi, -np.pi / 2]
        )
        assert [l.d for l in chain.links] == [0.0, 0.0, 0.0]

    def test_fanuc_dh_table(self):
        scn = load_scenario(SCENARIO_DIR / "fanuc6_static.json")
        chain = scn.robot.chain
        assert chain.links[0].a == 0.05
        assert chain.links[3].d == -0.42
        assert chain.links[5].d == -0.19
        assert chain.links[2].a == 0.035
        assert len(chain) == 6

    def test_round_trip_all_bundled(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            scn = load_scenario(path)
            d1 = scenario_to_dict(scn)
            d2 = scenario_to_dict(parse_scenario(d1))
            assert d1 == d2, path.name

    def test_save_and_reload(self, tmp_path):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        out = tmp_path / "copy.json"
        save_scenario(scn, out)
        again = load_scenario(out)
        assert scenario_to_dict(again) == scenario_to_dict(scn)


class TestExport:
    def test_csv_schema_golden_header(self, tmp_path):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        prob = assemble(scn)
        sol = solve(prob)
        export_trajectory(sol, prob, tmp_path, samples=50)
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "tau,t,q1,q2,dq1,dq2"
        cart_header = (tmp_path / "cartesian.csv").read_text().splitlines()[0]
        assert cart_header == "tau,t,body_x,body_y"

    def test_row_count_and_monotone_tau(self, tmp_path):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        prob = assemble(scn)
        sol = solve(prob)
        export_trajectory(sol, prob, tmp_path, samples=77)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 78
        taus = [float(l.split(",")[0]) for l in lines[1:]]
        assert taus[0] == 0.0 and taus[-1] == 1.0
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_constant_trajectory_columns(self, tmp_path):
        scn = parse_scenario(minimal_mobile(
            boundary={"initial": [0.3, 0.4], "goal": [0.3, 0.4], "units": "m"}
        ))
        prob = assemble(scn)
        sol = solve(prob)
        export_trajectory(sol, prob, tmp_path, samples=20)
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        q1 = np.array([float(row.split(",")[2]) for row in rows])
        q2 = np.array([float(row.split(",")[3]) for row in rows])
        np.testing.assert_allclose(q1, 0.3, atol=1e-14)
        np.testing.assert_allclose(q2, 0.4, atol=1e-14)

    def test_chain_cartesian_matches_numeric_fk(self, tmp_path):
        scn = load_scenario(SCENARIO_DIR / "threelink.json")
        prob = assemble(scn)
        dv = initial_guess(prob)
        from splinetraj.planner import Solution

        sol = Solution(dv, "converged", dv.T, 0, 0, 0.0, 0.0, {})
        export_trajectory(sol, prob, tmp_path, samples=20)
        traj = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        cart = np.loadtxt(tmp_path / "cartesian.csv", delimiter=",", skiprows=1)
        chain = scn.robot.chain
        header = (tmp_path / "cartesian.csv").read_text().splitlines()[0].split(",")
        # check link3 vertex 1 against a fresh numeric FK of the exported angles
        col = header.index("link3_v1_x")
        for row_t, row_c in zip(traj, cart):
            thetas = row_t[2:5]
            T = chain.numeric_fk(thetas, 3)
            vert = np.append(chain.link_cuboids[2][0], 1.0)
            ref = (T @ vert)[:3]
            np.testing.assert_allclose(row_c[col : col + 3], ref, atol=1e-6)

    def test_determinism_byte_identical(self, tmp_path):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        for d in ("a", "b"):
            run(scn, output_dir=tmp_path / d, samples=200)
        for name in ("trajectory.csv", "cartesian.csv"):
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            assert b1 == b2, name


class TestRun:
    def test_report_and_outputs(self, tmp_path):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        report = run(scn, output_dir=tmp_path, samples=100)
        assert report.converged
        assert all(v == 0.0 for v in report.family_violations.values())
        for name in ("trajectory.csv", "cartesian.csv", "solution.json",
                     "report.json"):
            assert (tmp_path / name).exists()
        assert not (tmp_path / "metadata.json").exists()
        solution = json.loads((tmp_path / "solution.json").read_text())
        assert solution["status"] == "converged"
        families = json.loads((tmp_path / "report.json").read_text())[
            "verification"]["families"]
        assert all(f["tolerance"] == 0.0 for f in families)

    def test_report_carries_solver_trace(self, tmp_path, caplog):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        with caplog.at_level(logging.INFO, logger="splinetraj.nlp"):
            run(scn, output_dir=tmp_path, samples=100)
        report = json.loads((tmp_path / "report.json").read_text())
        solution = json.loads((tmp_path / "solution.json").read_text())
        trace = report["trace"]
        assert "trace" not in solution
        assert [e["outer"] for e in trace] == list(
            range(1, solution["outer_iterations"] + 1))
        assert sum(e["inner_iterations"] for e in trace) == solution[
            "inner_iterations"]
        for entry in trace:
            assert entry["lbfgsb_message"]
            assert set(entry["block_violations"]) == set(report["problem"][
                "constraints"])
        lines = [r for r in caplog.records if r.name == "splinetraj.nlp"]
        assert len(lines) == len(trace)
        assert set(report["timings"]) == {"assemble_s", "solve_s", "verify_s",
                                          "export_s"}


class TestCLI:
    def test_solve_exit_zero(self, tmp_path):
        code = main(["solve", str(SCENARIO_DIR / "mobile2d.json"),
                     "--out", str(tmp_path / "out"), "--samples", "50"])
        assert code == 0

    def test_invalid_input_exit_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_mobile(turbo=1)))
        assert main(["solve", str(bad)]) == 3

    def test_missing_file_exit_three(self):
        assert main(["solve", "/nonexistent/nope.json"]) == 3

    def test_verify_command(self, tmp_path):
        scn_path = SCENARIO_DIR / "mobile2d.json"
        assert main(["solve", str(scn_path), "--out", str(tmp_path)]) == 0
        code = main(["verify", str(scn_path), str(tmp_path / "solution.json")])
        assert code == 0

    def test_verify_rejects_dynamics_violation(self, tmp_path, capsys):
        # The initial guess at T = 10 is far from q' = T f(q): the dense
        # residual reads 10 while every limit holds, and verify must fail.
        scn_path = tmp_path / "dynamics.json"
        scn_path.write_text(json.dumps(minimal_mobile(
            dynamics={"poly": [[0.0, -0.5], [1.0]]},
        )))
        problem = assemble(load_scenario(scn_path))
        dv = initial_guess(problem)
        dv.T = 10.0
        sol_path = tmp_path / "solution.json"
        sol_path.write_text(json.dumps(
            Solution(dv, "converged", dv.T, 0, 0, 0.0, 0.0, {}).to_json()
        ))
        code = main(["verify", str(scn_path), str(sol_path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "verification FAILED" in out
        line = next(l for l in out.splitlines() if "dynamics_residual" in l)
        assert line.endswith("VIOLATED")

    def test_sdf_build(self, tmp_path):
        out = tmp_path / "field.sdf"
        code = main(["sdf", "build", str(SCENARIO_DIR / "mobile2d.json"),
                     "--out", str(out)])
        assert code == 0
        field = load_sdf(out)
        assert field.dim == 2
        # default grid resolution: max extent / 128
        assert field.cell_size == pytest.approx(4.0 / 128.0)

    def test_console_entry_point(self):
        # The child process imports the same splinetraj as this one.
        src = str(Path(splinetraj.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run(
            [sys.executable, "-m", "splinetraj.cli", "solve",
             str(SCENARIO_DIR / "unconstrained.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "converged" in proc.stdout


class TestBenchmarkStructure:
    def test_obstacles_deterministic(self):
        a = benchmark_obstacles(5)
        b = benchmark_obstacles(5)
        for oa, ob in zip(a, b):
            np.testing.assert_array_equal(oa.center, ob.center)

    def test_constraint_scaling(self):
        from dataclasses import replace

        base = load_scenario(SCENARIO_DIR / "bench2d.json")
        counts = {}
        for mode in ("sdf", "hyperplane"):
            for k in (2, 6):
                scn = replace(
                    base,
                    obstacles=tuple(benchmark_obstacles(k)),
                    collision=replace(base.collision, static_mode=mode),
                )
                total = sum(assemble(scn).constraint_counts().values())
                counts[(mode, k)] = total
        assert counts[("sdf", 2)] == counts[("sdf", 6)]
        assert counts[("hyperplane", 6)] > counts[("hyperplane", 2)]

    def test_csv_writer(self, tmp_path):
        rows = [{"count": 1, "t_sdf": 0.1, "t_hyperplane": 0.2, "ratio": 2.0,
                 "ok": True, "constraints_sdf": 10, "constraints_hyperplane": 20}]
        out = tmp_path / "bench.csv"
        write_benchmark_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("count,t_sdf,t_hyp,ratio")
        assert lines[1].split(",")[0] == "1"


class TestCLIExitCodes:
    def test_not_converged_exit_two(self, tmp_path):
        obj = minimal_mobile(
            boundary={"initial": [0.0, 0.0], "goal": [0.5, 0.0], "units": "m"},
            obstacles=[{"kind": "sphere", "center": [0.5, 0.0], "radius": 0.2}],
            solver={"max_outer": 8},
        )
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path)]) == 2
