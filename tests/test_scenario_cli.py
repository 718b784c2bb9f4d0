"""Scenario parsing, CSV exports, CLI commands, benchmark structure."""

import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import splinetraj
from splinetraj import cli
from splinetraj.bspline import BSpline, KnotVector
from splinetraj.cli import (
    _csv_rows,
    benchmark_obstacles,
    build_parser,
    export_trajectory,
    main,
    run,
    write_benchmark_csv,
)
from splinetraj import nlp
from splinetraj.collision import ObstaclePrimitive
from splinetraj.planner import (
    DecisionVector,
    Solution,
    assemble,
    initial_guess,
    solve,
    static_field,
)
from splinetraj.scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
)
from tests.test_kinematics import trig_fk

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


def moving_sphere(degree, knots, n_points):
    """A sphere of radius 0.25 at [1.5, 0.6] on a spline motion that
    returns to its start."""
    points = [[1.5, 0.6], [1.6, 0.7], [1.5, 0.6]][:n_points]
    return {"kind": "sphere", "center": [1.5, 0.6], "radius": 0.25,
            "motion": {"kind": "spline", "degree": degree, "knots": knots,
                       "control_points": points}}


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

    def test_degree_units_leave_prismatic_offsets(self):
        # Degrees convert revolute joints only: a prismatic joint's offsets,
        # offset limits and rates stay in meters.
        obj = json.loads((SCENARIO_DIR / "threelink.json").read_text())
        obj["robot"]["links"][2]["kind"] = "prismatic"
        obj["boundary"] = {"initial": [-60, 40, 0.1], "goal": [60, 40, 0.3],
                           "units": "deg"}
        obj["limits"].update(angle_min=[-200, -200, 0.0],
                             angle_max=[200, 200, 0.5])
        scn = parse_scenario(obj)
        deg = np.pi / 180
        assert scn.boundary_initial.tolist() == [-60 * deg, 40 * deg, 0.1]
        assert scn.boundary_goal.tolist() == [60 * deg, 40 * deg, 0.3]
        assert scn.limits.angle_min.tolist() == [-200 * deg, -200 * deg, 0.0]
        assert scn.limits.angle_max.tolist() == [200 * deg, 200 * deg, 0.5]
        assert scn.limits.velocity.tolist() == [200 * deg, 200 * deg, 200.0]
        assert scn.limits.acceleration.tolist() == [200 * deg, 200 * deg, 200.0]

    @pytest.mark.parametrize("block, key, value", [
        ("solver", "knot_refine", True),
        ("collision", "margin", 0.01),
        ("collision", "lipschitz_factor", 1.0),
    ])
    def test_removed_setting_rejected(self, block, key, value):
        # The SDF margin and its Lipschitz factor are always derived, and
        # there is no knot-refinement retry: the keys are unknown fields.
        with pytest.raises(ScenarioError, match=f"{block}.{key}: unknown field"):
            parse_scenario(minimal_mobile(**{block: {key: value}}))

    @pytest.mark.parametrize("value", [-0.05, 0, 0.0, float("nan"),
                                       float("inf"), "fine", [0.05], True, "0.05"])
    def test_bad_cell_size_rejected(self, value):
        # The grid spacing is derived from the workspace (static_field), so
        # every value, a valid size of old included, is an unknown field.
        with pytest.raises(ScenarioError, match="collision.cell_size: unknown field"):
            parse_scenario(minimal_mobile(collision={"cell_size": value}))

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


    @pytest.mark.parametrize("depth", [0, -1, 1.5, [1, 0, 1], [1, 2.5, 1],
                                       5, [1, 5, 1]])
    def test_bad_halving_depth_rejected(self, depth):
        # Depth 0 used to plan with q = tan(theta) but read each joint at
        # depth 1, twice its angle; -1 failed on the boundary range and 1.5
        # was read as 1.  Depth 5 used to be accepted, though the plane
        # rows' degree, and so their cost, doubles with each step of depth.
        obj = json.loads((SCENARIO_DIR / "threelink.json").read_text())
        obj["robot"]["halving_depth"] = depth
        with pytest.raises(ScenarioError, match="robot.halving_depth"):
            parse_scenario(obj)

    @pytest.mark.parametrize("block, key, value", [
        ("limits", "units", "degrees"),
        # The solver's settings are constants: each key is rejected by name.
        ("solver", "feas_tol", -1),
        ("solver", "feas_tol", 0.0),
        ("solver", "opt_tol", float("nan")),
        ("solver", "opt_tol", float("inf")),
        ("solver", "max_outer", 0),
        ("solver", "max_inner", -5),
        ("solver", "max_inner", 2.5),
        ("collision", "collocation_per_span", 2.7),
        ("robot", "dimension", 2.9),
        ("basis", "degree", 3.5),
        ("basis", "interior_knots", [0.2, 0.5, 0.5, 0.5, 0.7]),
        ("basis", "interior_knots", [0.5, 0.3]),
        ("basis", "interior_knots", [0.5, 1.0]),
    ])
    def test_bad_numeric_input_rejected(self, block, key, value):
        obj = minimal_mobile()
        obj.setdefault(block, {})[key] = value
        with pytest.raises(ScenarioError, match=f"{block}.{key}"):
            parse_scenario(obj)

    @pytest.mark.parametrize("base, where, value, key", [
        ("mobile", ("robot", "radius"), math.nan, "robot.radius"),
        ("mobile", ("robot", "radius"), math.inf, "robot.radius"),
        ("mobile", ("obstacles", 0, "radius"), math.nan, "obstacles[0].radius"),
        ("mobile", ("obstacles", 0, "radius"), math.inf, "obstacles[0].radius"),
        ("mobile", ("limits", "velocity"), math.nan, "limits.velocity"),
        ("mobile", ("limits", "velocity"), math.inf, "limits.velocity"),
        ("mobile", ("limits", "velocity"), True, "limits.velocity"),
        ("mobile", ("limits", "acceleration"), math.nan, "limits.acceleration"),
        ("mobile", ("limits", "acceleration"), math.inf, "limits.acceleration"),
        ("mobile", ("limits", "acceleration"), True, "limits.acceleration"),
        ("mobile", ("obstacles", 0, "motion", "degree"), "x",
         "obstacles[0].motion.degree"),
        ("mobile", ("obstacles", 0, "motion", "control_points", 1, 0), math.nan,
         "obstacles[0].motion.control_points"),
        ("mobile", ("obstacles", 0, "motion", "knots", 1), "x",
         "obstacles[0].motion.knots"),
        ("mobile", ("obstacles", 0, "motion", "control_points"), [],
         "obstacles[0].motion.control_points"),
        ("chain", ("robot", "links", 0, "a"), math.nan, "robot.links[0].a"),
        ("chain", ("robot", "links", 1, "alpha"), math.nan, "robot.links[1].alpha"),
        ("chain", ("robot", "links", 2, "d"), math.nan, "robot.links[2].d"),
        ("chain", ("robot", "links", 0, "theta0"), math.nan, "robot.links[0].theta0"),
        ("chain", ("robot", "links", 0, "theta0"), "x", "robot.links[0].theta0"),
        ("chain", ("robot", "links"), 5, "robot.links"),
        ("mobile", ("boundary", "initial"), ["0.5", 0], "boundary.initial"),
        ("mobile", ("boundary", "initial"), [True, 0], "boundary.initial"),
        ("mobile", ("workspace", "max"), [2, False], "workspace.max"),
        ("mobile", ("obstacles", 0, "motion", "knots", 2), True,
         "obstacles[0].motion.knots"),
        ("mobile", ("obstacles", 0, "motion", "control_points", 0, 0), True,
         "obstacles[0].motion.control_points"),
        ("mobile", ("name",), ["x"], "name: must be a string"),
        ("mobile", ("robot", "links"), [], "robot.links: unknown field"),
        ("mobile", ("robot", "halving_depth"), 1,
         "robot.halving_depth: unknown field"),
        ("chain", ("robot", "radius"), 0.1, "robot.radius: unknown field"),
        ("chain", ("robot", "dimension"), 3, "robot.dimension: unknown field"),
        ("mobile", ("obstacles", 0, "min"), [0.0, 0.0],
         "obstacles[0].min: unknown field"),
        ("mobile", ("obstacles", 0, "vertices"), [[0, 0], [1, 0], [0, 1]],
         "obstacles[0].vertices: unknown field"),
        ("mobile", ("obstacles", 0, "motion"),
         {"kind": "linear", "target": [1.0, 0.5], "degree": 1},
         "obstacles[0].motion.degree: unknown field"),
        ("mobile", ("obstacles", 0, "motion"),
         {"kind": "static", "target": [1.0, 0.5]},
         "obstacles[0].motion.target: unknown field"),
        ("mobile", ("obstacles", 0), {"kind": "sphere", "center": [0.5, 0.5]},
         "obstacles[0].radius: missing required field"),
        ("mobile", ("obstacles", 0, "motion", "knots", 1), 2.0,
         "obstacles[0]: knot vector must be non-decreasing"),
        ("mobile", ("obstacles", 0),
         {"kind": "polytope", "vertices": [[1, 0.5], [2, 0.5], [1, 0.500000000000001]]},
         "obstacles[0]: polytope vertices are too close to flat"),
        ("mobile2d", ("limits", "angle_max"), [2.0, 5.0], "boundary.goal"),
        ("mobile2d", ("limits", "angle_min"), [0.5, -1.0], "boundary.initial"),
        ("chain", ("limits", "angle_min"), 250,
         "limits.angle_min: must not exceed angle_max"),
        ("mobile2d", ("obstacles", 0), moving_sphere(2, [0, .2, .4, .6, .8, 1], 3),
         "obstacles[0]: motion knots must start and end with degree + 1"),
        ("mobile2d", ("obstacles", 0), moving_sphere(2, [0, 0, .3, .7, 1, 1], 3),
         "obstacles[0]: motion knots must start and end with degree + 1"),
        ("mobile2d", ("obstacles", 0), moving_sphere(2, [0, 0, 0, .5, 1, 1], 3),
         "obstacles[0]: motion knots must start and end with degree + 1"),
    ])
    def test_value_that_would_crash_the_solve_rejected(self, tmp_path, capsys,
                                                       base, where, value, key):
        # Each value used to parse and then end the plan in a non-finite
        # residual or an out-of-bounds SDF query, to leak a bare
        # TypeError/ValueError from the parser, or to be read as a number
        # (or, for the name, as a string).  Each key of another kind (a
        # chain's links on a mobile robot, a target on a static motion)
        # used to be accepted and ignored, a sphere without a radius to be
        # read as radius 0, and a polytope that passes the rank check but
        # is too flat for qhull to end the solve in a traceback (exit 1).
        # A one-sided box was accepted with its boundary unchecked, and a
        # reversed one named the goal, not the box.  A spline motion whose
        # knots are not clamped at both ends ended the solve in a traceback.
        if base != "mobile":  # a bundled scenario; "chain" is threelink
            name = "threelink" if base == "chain" else base
            obj = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        else:
            obj = minimal_mobile(
                obstacles=[{"kind": "sphere", "center": [0.5, 0.5], "radius": 0.2,
                            "motion": {"kind": "spline", "degree": 1,
                                       "knots": [0, 0, 1, 1],
                                       "control_points": [[0.5, 0.5], [0.6, 0.5]]}}],
            )
        node = obj
        for step in where[:-1]:
            node = node[step]
        node[where[-1]] = value
        with pytest.raises(ScenarioError, match=re.escape(key)):
            parse_scenario(obj)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path)]) == 3
        assert key in capsys.readouterr().err

    def test_one_sided_prismatic_range_rejected(self, tmp_path, capsys):
        # Only angle_max leaves the prismatic offset range infinite, which
        # bounds no SDF motion margin.
        obj = json.loads((SCENARIO_DIR / "threelink.json").read_text())
        obj["robot"]["links"][2]["kind"] = "prismatic"
        del obj["limits"]["angle_min"]
        with pytest.raises(ScenarioError, match="prismatic joint 3"):
            parse_scenario(obj)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path)]) == 3
        assert "prismatic joint 3" in capsys.readouterr().err

    def test_clamped_degree_zero_motion_plans(self, tmp_path):
        # At degree 0 one knot at each end clamps the motion: the sphere
        # steps from [1.5, 0.6] to [1.6, 0.7] at tau = 0.5, and the plan
        # goes round it.
        obj = json.loads((SCENARIO_DIR / "mobile2d.json").read_text())
        obj["obstacles"][0] = moving_sphere(0, [0, .5, 1], 2)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_integral_numbers_accepted(self):
        obj = json.loads((SCENARIO_DIR / "threelink.json").read_text())
        obj["robot"]["halving_depth"] = [1, 2.0, 1]
        obj["collision"] = {"collocation_per_span": 6.0}
        scn = parse_scenario(obj)
        assert scn.robot.halving_depths == (1, 2, 1)
        assert scn.collision.collocation_per_span == 6

    # Each kind's file fields and the classmethod arguments they stand for.
    SHAPES = {
        "sphere": ({"center": [1.5, 0.6], "radius": 0.25},
                   ([1.5, 0.6], 0.25)),
        "box": ({"min": [1.2, 0.3], "max": [1.7, 0.75]},
                ([1.2, 0.3], [1.7, 0.75])),
        "polytope": ({"vertices": [[1.0, 0.3], [1.7, 0.35], [1.2, 0.9]]},
                     ([[1.0, 0.3], [1.7, 0.35], [1.2, 0.9]],)),
    }

    @pytest.mark.parametrize("motion", ["linear", "spline"],
                             ids=["linear", "spline"])
    @pytest.mark.parametrize("kind", ["sphere", "box", "polytope"],
                             ids=["sphere", "box", "polytope"])
    def test_moving_obstacle_equals_its_classmethod_build(self, kind, motion):
        # The parser builds the shape the primitive's own way, and a linear
        # motion starts from the center the primitive computes.
        fields, args = self.SHAPES[kind]
        build = getattr(ObstaclePrimitive, kind)
        if motion == "linear":
            spec = {"kind": "linear", "target": [1.4, -0.5]}
            path = BSpline(1, KnotVector([0.0, 0.0, 1.0, 1.0]),
                           np.stack([build(*args).center, [1.4, -0.5]]))
        else:
            points = [[1.5, 0.6], [1.6, 0.7], [1.3, 0.2], [1.1, -0.4]]
            spec = {"kind": "spline", "degree": 2,
                    "knots": [0, 0, 0, 0.5, 1, 1, 1], "control_points": points}
            path = BSpline(2, KnotVector([0, 0, 0, 0.5, 1, 1, 1]), np.array(points))
        parsed = parse_scenario(minimal_mobile(obstacles=[
            {"kind": kind, **fields, "motion": spec}])).obstacles[0]
        expected = build(*args, motion=path)
        assert parsed.kind == expected.kind
        for name in ("center", "corners", "radius"):
            got, want = (np.asarray(getattr(o, name)) for o in (parsed, expected))
            assert got.tobytes() == want.tobytes(), name
        assert parsed.motion.degree == path.degree
        assert parsed.motion.knots == path.knots
        assert (parsed.motion.control_points.tobytes()
                == expected.motion.control_points.tobytes())


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

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_default_cell_is_a_128th_of_the_longest_side(self, path):
        scn = load_scenario(path)
        field = static_field(scn)
        extent = scn.workspace_max - scn.workspace_min
        assert field.cell_size == extent.max() / 128.0
        assert max(field.dims) == 129
        assert field.dims[int(np.argmax(extent))] == 129


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

        sol = Solution("converged", dv.T, 0, 0, 0.0, 0.0, decision=dv)
        export_trajectory(sol, prob, tmp_path, samples=20)
        traj = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        cart = np.loadtxt(tmp_path / "cartesian.csv", delimiter=",", skiprows=1)
        chain = scn.robot.chain
        header = (tmp_path / "cartesian.csv").read_text().splitlines()[0].split(",")
        # check link3 vertex 1 against a fresh numeric FK of the exported angles
        col = header.index("link3_v1_x")
        for row_t, row_c in zip(traj, cart):
            thetas = row_t[2:5]
            T = trig_fk(chain, thetas, 3)
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


SPECIAL_VALUES = [-0.0, 5e-324, 1e-05, 0.1 + 0.2, 1e16, 123456789.0]


def per_value_rows(table):
    return [",".join(repr(float(v)) for v in row) for row in table]


def reference_export_text(sol, prob, samples):
    """trajectory.csv and cartesian.csv as first written: every coordinate
    a spline evaluated on its own, every value formatted on its own."""
    dv, scn = sol.decision, prob.scenario
    taus = np.linspace(0.0, 1.0, samples)
    splines = [splinetraj.BSpline(prob.basis.degree, prob.basis.knots,
                                  dv.joint_coeffs[:, j : j + 1])
               for j in range(prob.layout.n_coords)]
    is_chain = not isinstance(scn.robot, splinetraj.MobileRobot)
    q = [s.eval(taus)[:, 0] for s in splines]
    qd = [s.derivative().eval(taus)[:, 0] for s in splines]
    if is_chain:
        angles, rates = [], []
        for j, s in enumerate(splines):
            if not scn.robot.revolute[j]:
                angles.append(q[j])
                rates.append(qd[j] / dv.T)
                continue
            depth = scn.robot.halving_depths[j]
            angles.append((2.0**depth) * np.arctan(q[j]))
            rates.append((2.0**depth) * qd[j] / (dv.T * (1.0 + q[j] * q[j])))
        state = prob.nfk.shared_state(np.column_stack(q))
        cart = [prob.nfk.body_positions(state, b.link_index, b.verts)
                .reshape(samples, -1) for b in prob.bodies]
    else:
        angles, rates = q, [d / dv.T for d in qd]
        cart = [np.column_stack(q)]
    traj_rows, cart_rows = [], []
    for k, tau in enumerate(taus):
        head = [repr(float(tau)), repr(float(tau * dv.T))]
        traj_rows.append(",".join(
            head + [repr(float(c[k])) for c in angles + rates]))
        cart_rows.append(",".join(
            head + [repr(float(v)) for block in cart for v in block[k]]))
    return traj_rows, cart_rows


class TestCsvText:
    """The export writes each value as repr(float(v)), the shortest
    round-trip form, whatever route the rows take."""

    @pytest.mark.parametrize("width", [6, 26], ids=["mobile", "chain"])
    def test_rows_equal_per_value_repr(self, width):
        rng = np.random.default_rng(width)
        table = rng.choice(SPECIAL_VALUES, size=(40, width))
        table[:, 0] = SPECIAL_VALUES * 6 + [-1e-300] * 4
        expected = per_value_rows(table)
        assert _csv_rows([table]) == expected
        assert _csv_rows([table[:, :2], table[:, 2:]]) == expected

    @pytest.mark.parametrize("name", ["threelink", "mobile2d"])
    def test_export_matches_per_value_reference(self, tmp_path, name):
        prob = assemble(load_scenario(SCENARIO_DIR / f"{name}.json"))
        dv = initial_guess(prob)
        rng = np.random.default_rng(8)
        dv.joint_coeffs[3:-3] += rng.uniform(-0.3, 0.3, dv.joint_coeffs[3:-3].shape)
        sol = Solution("converged", dv.T, 0, 0, 0.0, 0.0, decision=dv)
        export_trajectory(sol, prob, tmp_path, samples=120)
        traj_rows, cart_rows = reference_export_text(sol, prob, 120)
        assert (tmp_path / "trajectory.csv").read_text().splitlines()[1:] == traj_rows
        assert (tmp_path / "cartesian.csv").read_text().splitlines()[1:] == cart_rows


class TestRun:
    def test_outcome_passes_through(self, monkeypatch):
        # solve() hands on each outcome field of the solver's result as
        # that same object, and run() hands on the Solution's.
        prob = assemble(load_scenario(SCENARIO_DIR / "mobile2d.json"))
        result = nlp.SolverResult(
            "stalled", 2.5, 7, 1234, 0.25, 0.125, {"b": 0.25}, [{"outer": 1}],
            {"b": 2.0}, {"test": None}, x=prob.layout.pack(initial_guess(prob)))
        monkeypatch.setattr(nlp.AugmentedLagrangianSolver, "solve",
                            lambda self, x0: result)
        sol = solve(prob)
        names = [f.name for f in dataclasses.fields(nlp.SolveOutcome)]
        for name in names:
            assert getattr(sol, name) is getattr(result, name), name
        monkeypatch.setattr(cli, "solve", lambda problem: sol)
        report = run(prob.scenario)
        for name in names:
            assert getattr(report, name) is getattr(sol, name), name
        assert not report.converged and report.name == "mobile2d"

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
        stored = json.loads((tmp_path / "report.json").read_text())
        assert all(f["tolerance"] == 0.0
                   for f in stored["verification"]["families"])
        environment = stored["environment"]
        assert environment["numpy"] == np.__version__
        assert environment["scipy"] == scipy.__version__
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert environment[var] == os.environ.get(var)

    def test_environment_without_show_config_mode(self, monkeypatch):
        # numpy before 1.26 has no ``mode`` for show_config.
        def show_config(**kwargs):
            raise TypeError("show_config() got an unexpected keyword "
                            "argument 'mode'")

        monkeypatch.setattr(np, "show_config", show_config)
        environment = cli._environment()
        assert environment["blas"] == "unknown"
        assert environment["numpy"] == np.__version__

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
        # One line of block scales per solve, then one line per outer
        # iteration, then the stop line.
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "splinetraj.nlp"]
        assert len(lines) == len(trace) + 2
        scales = report["block_scales"]
        assert list(scales) == list(report["problem"]["constraints"])
        assert all(s > 0.0 for s in scales.values())
        assert lines[0] == "block scales: " + ", ".join(
            f"{name}={s:.3g}" for name, s in scales.items())
        assert all(line.startswith("outer ") for line in lines[1:-1])
        stop = report["stop"]
        assert set(stop) == {"test", "kkt_residual", "kkt_scale"}
        assert stop["test"] in ("kkt", "flat_objective")
        assert stop["kkt_residual"] == solution["kkt_residual"]
        assert lines[-1] == (f"stop: {stop['test']}, kkt residual "
                             f"{stop['kkt_residual']:.3e}, scale "
                             f"{stop['kkt_scale']:.3g}")
        assert set(report["timings"]) == {"assemble_s", "solve_s", "verify_s",
                                          "export_s"}


class TestCLI:
    def test_solve_exit_zero(self, tmp_path):
        code = main(["solve", str(SCENARIO_DIR / "mobile2d.json"),
                     "--out", str(tmp_path / "out"), "--samples", "50"])
        assert code == 0

    def test_invalid_input_exit_three(self, tmp_path, capsys):
        # dynamics and solver are removed keys: rejected even when null or
        # empty.
        bad = tmp_path / "bad.json"
        for key, value in (("turbo", 1), ("dynamics", None),
                           ("dynamics", {"poly": [[0.0, -0.5], [1.0]]}),
                           ("solver", {})):
            bad.write_text(json.dumps(minimal_mobile(**{key: value})))
            assert main(["solve", str(bad)]) == 3
            assert f"scenario.{key}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-0.05, 0, float("nan")])
    def test_bad_cell_size_exit_three(self, tmp_path, capsys, value):
        # Any cell_size is rejected now: the grid spacing is derived.
        obj = json.loads((SCENARIO_DIR / "mobile2d.json").read_text())
        obj.setdefault("collision", {})["cell_size"] = value
        bad = tmp_path / "cell.json"
        bad.write_text(json.dumps(obj))
        assert main(["solve", str(bad)]) == 3
        assert "collision.cell_size" in capsys.readouterr().err

    @pytest.mark.parametrize("name, block, key, value", [
        ("threelink", "robot", "halving_depth", 0),
        ("threelink", "limits", "units", "degrees"),
        # Any solver key is rejected now, by name: the settings are constants.
        ("mobile2d", "solver", "max_outer", 0),
        ("threelink", "robot", "halving_depth", 5),
        # A travel-time estimate of 4.5e200 s, whose square overflows.
        ("mobile2d", "limits", "velocity", 1e-200),
    ])
    def test_bad_numeric_input_exit_three(self, tmp_path, capsys, name, block,
                                          key, value):
        obj = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        obj.setdefault(block, {})[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["solve", str(bad)]) == 3
        assert f"{block}.{key}" in capsys.readouterr().err

    def test_huge_limits_exit_three(self, tmp_path, capsys):
        # The norm of [1e300, 1e300] overflows, so the body's workspace
        # speed bound, and with it the SDF motion margin, is not finite.
        obj = json.loads((SCENARIO_DIR / "mobile2d.json").read_text())
        obj["limits"].update(velocity=1e300, acceleration=1e300)
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(obj))
        with np.errstate(over="ignore"):
            assert main(["solve", str(bad)]) == 3
        assert "limits.velocity" in capsys.readouterr().err

    @pytest.mark.parametrize("block, value, message", [
        ("solver", {}, "scenario.solver: unknown field"),
        ("solver", {"max_outer": 50}, "solver.max_outer: unknown field"),
        ("collision", {"cell_size": 4.0 / 128.0}, "collision.cell_size: unknown field"),
        (None, None, "sdf"),
    ], ids=["solver", "solver.max_outer", "collision.cell_size", "sdf_build"])
    def test_removed_setting_exit_three(self, tmp_path, capsys, block, value,
                                        message):
        # The solver settings and the grid spacing are constants and the
        # sdf subcommand is gone: each old spelling, even with the value
        # the constant holds, is invalid input that writes nothing.
        obj = json.loads((SCENARIO_DIR / "mobile2d.json").read_text())
        if block is None:
            argv = ["sdf", "build", str(SCENARIO_DIR / "mobile2d.json")]
        else:
            obj[block] = {**obj.get(block, {}), **value}
            path = tmp_path / "old.json"
            path.write_text(json.dumps(obj))
            argv = ["solve", str(path)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert "invalid input: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["verify", "{scenario}", "{solution}", "--oversample", "0"], "--oversample"),
        (["verify", "{scenario}", "{solution}", "--oversample", "-3"], "--oversample"),
        (["solve", "{scenario}", "--samples", "-1"], "--samples"),
        (["bench", "{bench}", "--counts", "1,x"], "--counts"),
        (["bench", "{bench}", "--trials", "0"], "--trials"),
        (["solve", "{scenario}", "--samples", "ten"], "--samples"),
        (["plan", "{scenario}"], "plan"),
        (["sdf", "build", "{scenario}"], "sdf"),
    ], ids=["oversample_zero", "oversample_negative", "samples_negative",
            "counts_not_integers", "trials_zero", "samples_not_an_integer",
            "unknown_command", "sdf_build"])
    def test_bad_argument_exit_three(self, tmp_path, capsys, argv, name):
        # Rejected before any work as invalid input; exit 2 would read as
        # "not converged / not verified".
        scenario = SCENARIO_DIR / "unconstrained.json"
        assert main(["solve", str(scenario), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        paths = {"scenario": str(scenario), "bench": str(SCENARIO_DIR / "bench2d.json"),
                 "solution": str(tmp_path / "solution.json")}
        assert main([arg.format(**paths) for arg in argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid input: " in err and name in err

    def test_usage_error_is_invalid_input(self, capsys):
        # argparse reports every usage error through the parser's ``error``.
        with pytest.raises(ScenarioError, match="no such flag"):
            build_parser().error("no such flag")
        assert capsys.readouterr().err.startswith("usage: splinetraj")

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--samples" in capsys.readouterr().out

    def test_missing_file_exit_three(self):
        assert main(["solve", "/nonexistent/nope.json"]) == 3

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize("argv", [
        ["solve", "{bad}"],
        ["verify", "{bad}", "{solution}"],
        ["verify", "{scenario}", "{bad}"],
    ], ids=["solve_scenario", "verify_scenario", "verify_solution"])
    def test_unreadable_file_exit_three(self, tmp_path, capsys, argv, kind):
        # Each used to end in IsADirectoryError or UnicodeDecodeError, exit 1.
        scenario = SCENARIO_DIR / "mobile2d.json"
        dv = initial_guess(assemble(load_scenario(scenario)))
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps(
            Solution("converged", dv.T, 0, 0, 0.0, 0.0, decision=dv).to_json()))
        bad = tmp_path / kind
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"name": "\xff"}')
        paths = {"bad": bad, "scenario": scenario, "solution": solution}
        assert main([arg.format(**paths) for arg in argv]) == 3
        assert capsys.readouterr().err.startswith(f"invalid input: {bad}: ")

    def test_verify_command(self, tmp_path):
        scn_path = SCENARIO_DIR / "mobile2d.json"
        assert main(["solve", str(scn_path), "--out", str(tmp_path)]) == 0
        code = main(["verify", str(scn_path), str(tmp_path / "solution.json")])
        assert code == 0

    def test_verify_fails_a_negated_travel_time(self, tmp_path, capsys):
        # The limit checks read T as |q'/T| or T^2, so a negated T passed
        # every one of them.  A non-finite T is invalid input
        # (test_verify_malformed_solution_exit_three).
        scn_path = SCENARIO_DIR / "mobile2d.json"
        sol_path = tmp_path / "solution.json"
        assert main(["solve", str(scn_path), "--out", str(tmp_path)]) == 0
        obj = json.loads(sol_path.read_text())
        obj["decision"]["T"] = -obj["decision"]["T"]
        sol_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", str(scn_path), str(sol_path)]) == 2
        out = capsys.readouterr().out
        assert "verification FAILED" in out
        line = next(l for l in out.splitlines() if "endpoint_conditions" in l)
        assert line.endswith("VIOLATED")

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("end", ["initial", "goal"])
    def test_boundary_outside_workspace_exit_three(self, tmp_path, capsys,
                                                   command, end):
        obj = json.loads((SCENARIO_DIR / "mobile2d.json").read_text())
        obj["boundary"][end] = [0.0, 9.0]
        bad = tmp_path / "outside.json"
        bad.write_text(json.dumps(obj))
        argv = [command, str(bad)] + ([str(bad)] if command == "verify" else [])
        assert main(argv) == 3
        assert f"boundary.{end}: outside the workspace box" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["threelink", "moving_obstacle",
                                          "mobile3d"])
    def test_bench_rejects_its_base_scenario_exit_three(self, tmp_path, capsys,
                                                        scenario):
        # The benchmark places 2-D circles, so a 3-D robot is rejected
        # with the chain and the moving obstacle, before any solve.
        path = SCENARIO_DIR / f"{scenario}.json"
        if scenario == "moving_obstacle":
            obj = json.loads((SCENARIO_DIR / "mobile2d.json").read_text())
            obj["obstacles"][0]["motion"] = {"kind": "linear",
                                             "target": [1.5, 0.5]}
            path = tmp_path / "moving.json"
            path.write_text(json.dumps(obj))
        out = tmp_path / "bench.csv"
        assert main(["bench", str(path), "--counts", "1", "--trials", "1",
                     "--out", str(out)]) == 3
        assert "invalid input: benchmark expects" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, edit", [
        ("solution.decision.joint_coeffs",
         lambda dec: dec.update(joint_coeffs=dec["joint_coeffs"][:5])),
        ("solution.decision.T", lambda dec: dec.pop("T")),
        ("solution.decision.planes",
         lambda dec: dec["planes"].append({"a": [[0.0, 0.0]] * 13,
                                           "b": [0.0] * 13})),
        ("solution.decision.joint_coeffs",
         lambda dec: dec["joint_coeffs"][5].__setitem__(0, float("nan"))),
        ("solution.decision.T", lambda dec: dec.update(T=math.nan)),
        ("solution.decision.T", lambda dec: dec.update(T=math.inf)),
        ("solution.decision.T", lambda dec: dec.update(T=-math.inf)),
    ], ids=["five_rows", "missing_T", "extra_plane", "nan_coeff", "nan_T",
            "inf_T", "minus_inf_T"])
    def test_verify_malformed_solution_exit_three(self, tmp_path, capsys,
                                                  key, edit):
        # A solution.json that does not fit its scenario is invalid input,
        # named by its key, not a traceback from building the trajectory.
        scn_path = SCENARIO_DIR / "mobile2d.json"
        dv = initial_guess(assemble(load_scenario(scn_path)))
        obj = Solution("converged", dv.T, 0, 0, 0.0, 0.0, decision=dv).to_json()
        edit(obj["decision"])
        sol_path = tmp_path / "solution.json"
        sol_path.write_text(json.dumps(obj))
        assert main(["verify", str(scn_path), str(sol_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ")
        assert key in err

    @staticmethod
    def _mobile2d_planes(tmp_path) -> Path:
        """mobile2d in hyperplane mode: one stored plane per circle."""
        obj = json.loads((SCENARIO_DIR / "mobile2d.json").read_text())
        obj["collision"]["static_mode"] = "hyperplane"
        path = tmp_path / "mobile2d_planes.json"
        path.write_text(json.dumps(obj))
        return path

    def test_stored_planes_round_trip(self, tmp_path, monkeypatch):
        # The planes a hyperplane-mode plan writes are read back bit for
        # bit, and verify passes on them.
        scn_path = self._mobile2d_planes(tmp_path)
        solved = []

        def keep(problem):
            solved.append(solve(problem))
            return solved[-1]

        monkeypatch.setattr(cli, "solve", keep)
        out = tmp_path / "out"
        sol_path = out / "solution.json"
        assert main(["solve", str(scn_path), "--out", str(out)]) == 0
        assert main(["verify", str(scn_path), str(sol_path)]) == 0
        layout = assemble(load_scenario(scn_path)).layout
        stored = DecisionVector.from_json(
            json.loads(sol_path.read_text())["decision"], layout)
        planes = solved[0].decision.plane_coeffs
        assert len(planes) == 3
        assert len(stored.plane_coeffs) == len(planes)
        for got, want in zip(stored.plane_coeffs, planes):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_stored_chain_planes_round_trip(self, tmp_path):
        # Each fanuc6_dynamic plane is a (13, 4) [a | b] block in a 3-D
        # world.  The file holds the initial guess, written as export
        # writes a solution, so no solve is needed.
        scn_path = SCENARIO_DIR / "fanuc6_dynamic.json"
        prob = assemble(load_scenario(scn_path))
        dv = initial_guess(prob)
        obj = Solution("converged", dv.T, 0, 0, 0.0, 0.0, decision=dv).to_json()
        sol_path = tmp_path / "solution.json"
        sol_path.write_text(json.dumps(obj))
        stored = DecisionVector.from_json(
            json.loads(sol_path.read_text())["decision"], prob.layout)
        assert len(dv.plane_coeffs) == len(stored.plane_coeffs) > 0
        for got, want in zip(stored.plane_coeffs, dv.plane_coeffs):
            assert got.shape == want.shape == (13, 4)
            assert got.tobytes() == want.tobytes()
        assert main(["verify", str(scn_path), str(sol_path)]) != 3

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj.pop("status"), "solution.status: missing required field"),
        (lambda obj: obj.update(turbo=1), "solution.turbo: unknown field"),
    ], ids=["missing_status", "unknown_key"])
    def test_verify_checks_the_top_level_keys(self, tmp_path, capsys, edit,
                                              message):
        scn_path = SCENARIO_DIR / "mobile2d.json"
        dv = initial_guess(assemble(load_scenario(scn_path)))
        obj = Solution("converged", dv.T, 0, 0, 0.0, 0.0, decision=dv).to_json()
        edit(obj)
        sol_path = tmp_path / "solution.json"
        sol_path.write_text(json.dumps(obj))
        assert main(["verify", str(scn_path), str(sol_path)]) == 3
        assert message in capsys.readouterr().err

    def test_verify_reads_only_the_decision(self, tmp_path, capsys):
        # The outcome values are the solve's record, not the trajectory:
        # edited, the stored plan still verifies.
        scn_path = SCENARIO_DIR / "mobile2d.json"
        sol_path = tmp_path / "solution.json"
        assert main(["solve", str(scn_path), "--out", str(tmp_path)]) == 0
        obj = json.loads(sol_path.read_text())
        obj.update(status="stalled", objective=99.0)
        sol_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", str(scn_path), str(sol_path)]) == 0
        assert "verification PASSED" in capsys.readouterr().out

    def test_verify_plane_of_wrong_width_exit_three(self, tmp_path, capsys):
        scn_path = self._mobile2d_planes(tmp_path)
        dv = initial_guess(assemble(load_scenario(scn_path)))
        obj = Solution("converged", dv.T, 0, 0, 0.0, 0.0, decision=dv).to_json()
        plane = obj["decision"]["planes"][0]
        plane["a"] = [row[:1] for row in plane["a"]]
        sol_path = tmp_path / "solution.json"
        sol_path.write_text(json.dumps(obj))
        assert main(["verify", str(scn_path), str(sol_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ")
        assert "solution.decision.planes[0].a" in err

    def test_verify_malformed_json_exit_three(self, tmp_path, capsys):
        sol_path = tmp_path / "solution.json"
        sol_path.write_text('{"decision": ')
        code = main(["verify", str(SCENARIO_DIR / "mobile2d.json"), str(sol_path)])
        assert code == 3
        assert "malformed JSON" in capsys.readouterr().err

    @staticmethod
    def _child(argv, **env):
        """``splinetraj`` run in a child process that imports the same
        splinetraj as this one."""
        src = str(Path(splinetraj.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, **env,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        return subprocess.run([sys.executable, "-m", "splinetraj.cli", *argv],
                              capture_output=True, text=True, env=env)

    def test_console_entry_point(self):
        proc = self._child(["solve", str(SCENARIO_DIR / "unconstrained.json")])
        assert proc.returncode == 0
        assert "converged" in proc.stdout

    def test_bad_log_level_exit_three(self):
        # It used to end in basicConfig's ValueError, exit 1.  A child
        # process, since pytest's root handlers make basicConfig skip the
        # level here.
        proc = self._child(["solve", str(SCENARIO_DIR / "unconstrained.json")],
                           SPLINETRAJ_LOG="bogus")
        assert proc.returncode == 3
        assert proc.stderr.startswith("invalid input: SPLINETRAJ_LOG: ")

    @staticmethod
    def _no_plan(scenario):
        raise AssertionError("planning started")

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_solve_bad_out_exit_three_before_planning(self, tmp_path, capsys,
                                                      monkeypatch, out):
        # Each used to plan the whole scenario, then end in FileExistsError
        # or NotADirectoryError, exit 1.
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(cli, "assemble", self._no_plan)
        path = tmp_path / out
        assert main(["solve", str(SCENARIO_DIR / "mobile2d.json"),
                     "--out", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"invalid input: {path}: ")

    def test_bench_out_directory_exit_three_before_planning(self, tmp_path, capsys,
                                                            monkeypatch):
        # It used to run the whole benchmark, then end in IsADirectoryError.
        monkeypatch.setattr(cli, "assemble", self._no_plan)
        assert main(["bench", str(SCENARIO_DIR / "bench2d.json"), "--counts", "1",
                     "--trials", "1", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"invalid input: {tmp_path}: ")


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
    def test_not_converged_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nlp, "MAX_OUTER", 8)
        obj = minimal_mobile(
            boundary={"initial": [0.0, 0.0], "goal": [0.5, 0.0], "units": "m"},
            obstacles=[{"kind": "sphere", "center": [0.5, 0.0], "radius": 0.2}],
        )
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path)]) == 2
