"""Planner: assembly structure, relaxation soundness, solve/verify behavior."""

import json
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splinetraj import nlp
from splinetraj.bspline import BSpline, KnotVector, basis_matrix, clamp_knots
from splinetraj.cli import benchmark_obstacles, export_trajectory, run
from splinetraj.kinematics import NumericFK
from splinetraj.planner import (
    CUSHION,
    T_MIN,
    ChainRateFamily,
    CoeffBoxFamily,
    DecisionVector,
    PlaneRobotSideFamily,
    Solution,
    TrajectoryBasis,
    TrajectorySamples,
    _rest_to_rest_time,
    _seeded_guess,
    _straight_line,
    _time_heuristic,
    assemble,
    initial_guess,
    solve,
    verify,
)
from splinetraj.scenario import ScenarioError, load_scenario, parse_scenario
from splinetraj.spline_algebra import collocation_sites, elevated_union
from tests.test_kinematics import trig_fk

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src/splinetraj/scenarios"


def mobile_scenario(**overrides):
    base = {
        "name": "test_mobile",
        "robot": {"kind": "mobile", "dimension": 2, "radius": 0.15},
        "boundary": {"initial": [0.0, 0.0], "goal": [3.0, 0.0], "units": "m"},
        "limits": {"velocity": 1.5, "acceleration": 6.0},
        "workspace": {"min": [-0.5, -1.5], "max": [3.5, 1.5]},
        "obstacles": [
            {"kind": "sphere", "center": [1.5, 0.45], "radius": 0.25},
        ],
        "collision": {"collocation_per_span": 6},
    }
    base.update(overrides)
    return parse_scenario(base)


def families_by_name(report):
    """A verification report's family records, keyed by family name."""
    return {f.name: f for f in report.families}


def closed_form_derivative_map(knots, degree):
    """The first-written derivative coefficient map, kept as the reference:
    row i is p (e_{i+1} - e_i) / (u_{i+p+1} - u_{i+1}), zero over an empty
    span, and the derivative's knots drop the first and last knots."""
    u = knots.values
    n = len(u) - degree - 1
    D = np.zeros((n - 1, n))
    for i in range(n - 1):
        span = u[i + degree + 1] - u[i + 1]
        if span > 0.0:
            D[i, i] = -degree / span
            D[i, i + 1] = degree / span
    return D, KnotVector(u[1:-1])


def _bundled_interior(name):
    obj = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    return obj["basis"]["interior_knots"]


class TestTrajectoryBasis:
    @pytest.mark.parametrize("degree", [3, 4, 5])
    @pytest.mark.parametrize("interior", [
        _bundled_interior("threelink"),
        _bundled_interior("unconstrained"),
        [0.2, 0.4, 0.4, 0.7],
    ], ids=["bundled", "uneven", "double_knot"])
    def test_maps_equal_the_closed_form_bit_for_bit(self, degree, interior):
        basis = TrajectoryBasis(degree, clamp_knots(interior, degree))
        D1, knots1 = closed_form_derivative_map(basis.knots, degree)
        D2_from_1, knots2 = closed_form_derivative_map(knots1, degree - 1)
        D2 = D2_from_1 @ D1
        for got, want in ((basis.D1, D1), (basis.D2, D2),
                          (basis.knots1.values, knots1.values),
                          (basis.knots2.values, knots2.values)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("degree, interior, message", [
        (2, np.round(np.arange(0.1, 0.95, 0.1), 10),
         "basis.degree: must be an integer >= 3"),
        (3, [1 / 3, 2 / 3],
         "basis.interior_knots: need at least 7 coefficients "
         "(6 are pinned by the boundary conditions)"),
    ], ids=["degree2", "six_coefficients"])
    def test_hand_built_scenario_fails_as_its_file_would(self, degree, interior,
                                                          message):
        # A Scenario built in code skips parse_scenario; assemble names the
        # fault in the parser's words, with the same error type.
        scenario = replace(mobile_scenario(), basis_degree=degree,
                           basis_interior=np.asarray(interior))
        with pytest.raises(ScenarioError) as raised:
            assemble(scenario)
        assert str(raised.value) == message
        with pytest.raises(ScenarioError) as parsed:
            mobile_scenario(basis={"degree": degree,
                                   "interior_knots": list(interior)})
        assert str(parsed.value) == message


class PerCoordinateSamples(TrajectorySamples):
    """The trajectory as one one-column spline per coordinate, each
    differentiated and evaluated on its own: how verify and export sampled
    it before they read the joint-coefficient spline as a whole, kept as
    the byte-for-byte reference.  The rest of ``TrajectorySamples`` reads
    these values."""

    def __init__(self, problem, decision, taus):
        super().__init__(problem, decision, taus)
        trajectory = problem.trajectory(decision)
        self.splines = [BSpline(trajectory.degree, trajectory.knots,
                                trajectory.control_points[:, j : j + 1])
                        for j in range(trajectory.dim)]

    def _order(self, order):
        out = self.splines
        for _ in range(order):
            out = [s.derivative() for s in out]
        return out

    def columns(self, order=0):
        return [s.eval(self.taus)[:, 0] for s in self._order(order)]

    def values(self, order=0):
        return np.column_stack(self.columns(order))

    def basis(self, order=0):
        s = self._order(order)[0]
        return basis_matrix(s.knots, s.degree, self.taus)


class TestTrajectorySamples:
    @pytest.mark.parametrize("degree", [3, 4, 5])
    @pytest.mark.parametrize("interior", [
        _bundled_interior("threelink"),
        _bundled_interior("unconstrained"),
    ], ids=["bundled", "uneven"])
    def test_values_equal_per_coordinate_splines_bit_for_bit(self, degree, interior):
        knots = clamp_knots(interior, degree)
        # The samples read no more of the problem than its basis.
        problem = replace(assemble(mobile_scenario(obstacles=[])),
                          basis=TrajectoryBasis(degree, knots))
        rng = np.random.default_rng(degree)
        n = len(knots) - degree - 1
        for n_coords in (2, 3, 6):
            dv = DecisionVector(rng.uniform(-2.0, 2.0, (n, n_coords)), 1.0, [])
            taus = collocation_sites(knots, 80)
            samples = problem.samples(dv, taus)
            reference = PerCoordinateSamples(problem, dv, taus)
            for order in range(3):
                got = samples.values(order)
                assert got.shape == (taus.size, n_coords)
                for j, want in enumerate(reference.columns(order)):
                    assert got[:, j].tobytes() == want.tobytes(), (order, j)
                assert samples.basis(order).tobytes() == reference.basis(order).tobytes()

    def test_is_the_problem_trajectory(self):
        prob = assemble(load_scenario(SCENARIO_DIR / "threelink.json"))
        dv = initial_guess(prob)
        trajectory = prob.trajectory(dv)
        assert (trajectory.degree, trajectory.knots) == (prob.basis.degree, prob.basis.knots)
        assert trajectory.control_points.tobytes() == dv.joint_coeffs.tobytes()


    def test_one_forward_kinematics_pass_per_verify_and_export(self, tmp_path,
                                                               monkeypatch):
        # Every link's vertices come from one shared_state per call; the
        # per-link chain_state rebuilt the prefix products for each link.
        # The angles and rates are 2^n atan q and 2^n q' / (T (1 + q^2)),
        # written out as the export forms them.
        prob = assemble(load_scenario(SCENARIO_DIR / "threelink.json"))
        dv = initial_guess(prob)
        solution = Solution("converged", dv.T, 0, 0, 0.0, 0.0, decision=dv)
        calls = {"shared_state": 0, "chain_state": 0}
        for name in calls:
            def counted(self, *args, _name=name, _f=getattr(NumericFK, name)):
                calls[_name] += 1
                return _f(self, *args)
            monkeypatch.setattr(NumericFK, name, counted)
        verify(dv, prob)
        assert calls == {"shared_state": 1, "chain_state": 0}
        export_trajectory(solution, prob, tmp_path, samples=200)
        assert calls == {"shared_state": 2, "chain_state": 0}

        samples = prob.samples(dv, np.linspace(0.0, 1.0, 1000))
        robot, q = prob.scenario.robot, samples.values(0)
        factors = np.where(robot.revolute, 2.0 ** np.array(robot.halving_depths), 1.0)
        angles = np.where(robot.revolute, factors * np.arctan(q), q)
        qr = q * robot.revolute
        rates = factors * samples.values(1) / (dv.T * (1.0 + qr * qr))
        assert samples.joint(0).tobytes() == angles.tobytes()
        assert samples.joint(1).tobytes() == rates.tobytes()

class TestAssemble:
    def test_threelink_decision_structure(self):
        scn = load_scenario(SCENARIO_DIR / "threelink.json")
        prob = assemble(scn)
        desc = prob.describe()
        assert desc["joint_coefficients"] == [13, 3]
        assert desc["planes"] == 0
        # 3 joints x 7 free rows + T
        assert desc["free_variables"] == 3 * 7 + 1

    def test_mobile_dynamic_plane_block_size(self):
        scn = mobile_scenario(
            obstacles=[
                {"kind": "sphere", "center": [1.0, -0.6], "radius": 0.2,
                 "motion": {"kind": "linear", "target": [2.0, 0.6]}},
                {"kind": "sphere", "center": [2.0, 0.6], "radius": 0.2,
                 "motion": {"kind": "linear", "target": [1.0, -0.6]}},
            ]
        )
        prob = assemble(scn)
        desc = prob.describe()
        # k obstacles x (d + 1) x 13 plane coefficients
        assert desc["plane_coefficients"] == 2 * (2 + 1) * 13

    def test_goal_outside_workspace_rejected(self):
        with pytest.raises(Exception):
            assemble(mobile_scenario(
                boundary={"initial": [0, 0], "goal": [9.0, 0], "units": "m"}
            ))

    def test_sdf_constraint_count_insensitive_to_obstacles(self):
        few = assemble(mobile_scenario())
        many = assemble(mobile_scenario(obstacles=[
            {"kind": "sphere", "center": [1.0 + 0.2 * i, 0.9], "radius": 0.1}
            for i in range(8)
        ]))
        assert (
            few.constraint_counts()["sdf_clearance"]
            == many.constraint_counts()["sdf_clearance"]
        )

    def test_hyperplane_constraint_count_linear_in_obstacles(self):
        def count(k):
            scn = mobile_scenario(
                obstacles=[
                    {"kind": "sphere", "center": [1.0 + 0.2 * i, 0.9],
                     "radius": 0.1}
                    for i in range(k)
                ],
                collision={"static_mode": "hyperplane"},
            )
            counts = assemble(scn).constraint_counts()
            return sum(v for name, v in counts.items() if "plane" in name)

        c1, c2, c4 = count(1), count(2), count(4)
        assert c2 == 2 * c1
        assert c4 == 4 * c1

    @pytest.mark.parametrize("mode", ["sdf", "hyperplane"])
    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))
    )
    def test_row_counts_match_residuals(self, name, mode):
        scn = load_scenario(SCENARIO_DIR / f"{name}.json")
        scn = replace(scn, collision=replace(scn.collision, static_mode=mode))
        prob = assemble(scn)
        x0 = prob.layout.pack(initial_guess(prob))
        assert prob.constraint_counts() == {
            f.name: len(f.evaluate(x0)[0]) for f in prob.families
        }


class TestInitialGuess:
    def test_endpoint_rows_exact(self):
        prob = assemble(mobile_scenario())
        dv = initial_guess(prob)
        np.testing.assert_array_equal(dv.joint_coeffs[0], prob.q_init)
        np.testing.assert_array_equal(dv.joint_coeffs[:3], np.tile(prob.q_init, (3, 1)))
        np.testing.assert_array_equal(dv.joint_coeffs[-3:], np.tile(prob.q_goal, (3, 1)))

    def test_time_heuristic(self):
        prob = assemble(mobile_scenario())
        dv = initial_guess(prob)
        assert dv.T == pytest.approx(3.0 / 1.5 * 1.5)

    @pytest.mark.parametrize("goal, velocity, acceleration, bound", [
        # d = 3 >= v^2/a = 0.375: accelerate, coast, brake: 3/1.5 + 1.5/6.
        ([3.0, 0.0], 1.5, 6.0, 2.25),
        # d = 0.24 < 0.375: no coast, 2 sqrt(0.24 / 6).
        ([0.24, 0.0], 1.5, 6.0, 0.4),
        # The first coordinate does not move and bounds nothing.
        ([0.0, 0.24], 1.5, 6.0, 0.4),
        # The slowest coordinate bounds T: the second coasts, 1/0.25 + 0.25/0.5.
        ([3.0, 1.0], [1.5, 0.25], [6.0, 0.5], 4.5),
        # 2 sqrt(0.001 / 6) = 0.026 lies below the floor T_MIN.
        ([0.001, 0.0], 1.5, 6.0, T_MIN),
    ], ids=["coast", "no_coast", "zero_distance", "slowest", "t_min"])
    def test_rest_to_rest_time(self, goal, velocity, acceleration, bound):
        scn = mobile_scenario(
            boundary={"initial": [0.0, 0.0], "goal": goal, "units": "m"},
            limits={"velocity": velocity, "acceleration": acceleration})
        assert _rest_to_rest_time(scn) == pytest.approx(bound, rel=1e-15)

    def test_threelink_starts_at_its_bound(self):
        # The heuristic ignores the acceleration limits: 0.9 s lies below
        # the bang-coast-bang time no trajectory can beat.
        scn = load_scenario(SCENARIO_DIR / "threelink.json")
        dv, record = _seeded_guess(assemble(scn))
        assert _time_heuristic(scn) == pytest.approx(0.9)
        assert dv.T == _rest_to_rest_time(scn) == pytest.approx(1.5492, abs=1e-4)
        assert record["T"] == record["T_bound"] == dv.T

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_start_is_at_least_the_bound(self, path):
        scn = load_scenario(path)
        dv, record = _seeded_guess(assemble(scn))
        assert dv.T >= _rest_to_rest_time(scn)
        assert (record["T"], record["T_bound"]) == (dv.T, _rest_to_rest_time(scn))

    @pytest.mark.parametrize("name", ["mobile2d", "mobile3d", "bench2d",
                                      "fanuc6_static", "fanuc6_dynamic",
                                      "unconstrained"])
    def test_start_above_the_bound_keeps_the_heuristic(self, name):
        scn = load_scenario(SCENARIO_DIR / f"{name}.json")
        assert _time_heuristic(scn) > _rest_to_rest_time(scn)
        assert initial_guess(assemble(scn)).T == _time_heuristic(scn)

    def test_plane_guess_norm(self):
        scn = mobile_scenario(obstacles=[
            {"kind": "sphere", "center": [1.5, -0.5], "radius": 0.2,
             "motion": {"kind": "linear", "target": [1.5, 0.5]}},
        ])
        prob = assemble(scn)
        dv = initial_guess(prob)
        norms = np.linalg.norm(dv.plane_coeffs[0][:, :-1], axis=1)
        np.testing.assert_allclose(norms, 0.9, atol=1e-12)

    @pytest.mark.parametrize("name, mode", [("fanuc6_dynamic", "sdf"),
                                            ("mobile2d", "hyperplane")])
    def test_planes_seeded_from_the_sampled_start(self, name, mode):
        # Each plane is 0.9 times the unit vector from the obstacle's center
        # to the body's mean point, both at tau = 0, through their midpoint;
        # the body's points are the sampled kinematics that verify reads.
        scn = load_scenario(SCENARIO_DIR / f"{name}.json")
        scn = replace(scn, collision=replace(scn.collision, static_mode=mode))
        prob = assemble(scn)
        line = _straight_line(prob)
        start = prob.samples(line, np.zeros(1))
        assert len(line.plane_coeffs) == len(prob.plane_specs) > 0
        for (body, obs), ab in zip(prob.plane_specs, line.plane_coeffs):
            r0 = start.positions(body)[0].mean(axis=0)
            o0 = obs.center_at(0.0)[0]
            a = 0.9 * ((r0 - o0) / np.linalg.norm(r0 - o0))
            row = np.append(a, -float(a @ (0.5 * (r0 + o0))))
            np.testing.assert_array_equal(ab, np.tile(row, (len(ab), 1)))
            if prob.nfk is not None:
                hom = np.hstack([body.verts, np.ones((len(body.verts), 1))]).T
                tip = trig_fk(scn.robot.chain, scn.boundary_initial, body.link_index)
                np.testing.assert_allclose(r0, (tip @ hom)[:3].mean(axis=1),
                                           rtol=0, atol=1e-12)

    def test_guess_violation_decreases_in_outer_loop(self):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        prob = assemble(scn)
        sol = solve(prob)
        assert sol.converged
        # Reconstruct the trace through the nlp solver.
        solver = nlp.AugmentedLagrangianSolver(
            prob.objective, prob.families, bounds=prob.layout.bounds(T_MIN))
        result = solver.solve(prob.layout.pack(initial_guess(prob)))
        trace = result.trace
        assert len(trace) >= 1
        assert np.isfinite(trace[0]["violation"])
        assert trace[-1]["raw_violation"] <= trace[0]["raw_violation"] + 1e-12


def bench2d_layout(name):
    from perfbench.workloads import generate

    return parse_scenario(next(o for o in generate("mobile_sdf")
                               if o["name"] == name))


def assert_straight_line_start(prob):
    dv, record = _seeded_guess(prob)
    line = _straight_line(prob)
    np.testing.assert_array_equal(dv.joint_coeffs, line.joint_coeffs)
    assert dv.T == line.T
    assert record["start"] == "straight_line"
    assert record["path_length_m"] is None
    return record


class TestLatticeStart:
    def test_slalom_through_five_circles_converges(self, tmp_path):
        # From the straight line this slalom ends infeasible; the lattice
        # start goes round its circles.
        report = run(bench2d_layout("bench2d_slalom_5_0"), output_dir=tmp_path)
        assert report.converged
        assert report.family_violations["sdf_clearance"] == 0.0
        assert all(v == 0.0 for v in report.family_violations.values())
        assert report.objective <= 2.501
        guess = json.loads((tmp_path / "report.json").read_text())["initial_guess"]
        assert set(guess) == {"start", "lattice_nodes", "path_length_m",
                              "search_s", "T", "T_bound"}
        assert guess["start"] == "lattice_path"
        assert 0 < guess["lattice_nodes"] <= 1 << 14
        assert guess["path_length_m"] > 3.0  # longer than the straight line
        assert guess["search_s"] > 0.0
        assert "initial_guess" not in json.loads(
            (tmp_path / "solution.json").read_text())

    @pytest.mark.parametrize("prob", [
        pytest.param(lambda: load_scenario(SCENARIO_DIR / "mobile2d.json"),
                     id="mobile2d"),
        pytest.param(lambda: bench2d_layout("bench2d_clear_1_0"),
                     id="bench2d_clear_1_0"),
        pytest.param(lambda: replace(
            load_scenario(SCENARIO_DIR / "bench2d.json"),
            obstacles=tuple(benchmark_obstacles(20))), id="benchmark_obstacles20"),
    ])
    def test_clear_line_keeps_the_straight_line(self, prob):
        record = assert_straight_line_start(assemble(prob()))
        assert record["lattice_nodes"] == 0

    def test_goal_inside_obstacle_falls_back_to_the_line(self):
        prob = assemble(mobile_scenario(
            boundary={"initial": [0.0, 0.0], "goal": [1.5, 0.45], "units": "m"}))
        record = assert_straight_line_start(prob)
        assert record["lattice_nodes"] > 0  # searched, found no path

    def test_mobile3d_converges_from_the_line(self):
        # The straight line runs into the box; at the 3D lattice's stride
        # the node nearest the goal is too close to it to be kept, so the
        # search finds no path and the plan starts from the line as before.
        prob = assemble(load_scenario(SCENARIO_DIR / "mobile3d.json"))
        fam = prob.families[-1]
        vals, _ = fam.field.query_extended(
            fam.Bpos @ _straight_line(prob).joint_coeffs)
        assert vals.min() - prob.bodies[0].radius == pytest.approx(-0.37, abs=5e-3)
        record = assert_straight_line_start(prob)
        assert record["lattice_nodes"] > 0
        sol = solve(prob)
        assert sol.converged
        assert sol.initial_guess["start"] == "straight_line"
        assert sol.objective == pytest.approx(2.5003011, abs=1e-7)
        assert verify(sol.decision, prob).passed

    def test_one_info_line_per_plan(self, caplog):
        prob = assemble(bench2d_layout("bench2d_one_sided_1_0"))
        with caplog.at_level(logging.INFO, logger="splinetraj.planner"):
            sol = solve(prob)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "splinetraj.planner"]
        record = sol.initial_guess
        assert lines == [
            f"initial guess: lattice_path ({record['lattice_nodes']} lattice "
            f"nodes, path {record['path_length_m']:.3f} m, search "
            f"{1e3 * record['search_s']:.2f} ms)"]

    def test_lattice_start_keeps_the_pinned_rows_and_time(self):
        prob = assemble(bench2d_layout("bench2d_one_sided_1_0"))
        dv, line = initial_guess(prob), _straight_line(prob)
        np.testing.assert_array_equal(dv.joint_coeffs[:3], line.joint_coeffs[:3])
        np.testing.assert_array_equal(dv.joint_coeffs[-3:], line.joint_coeffs[-3:])
        assert dv.T == line.T
        assert np.abs(dv.joint_coeffs[3:-3, 1]).max() > 0.1  # off the line
        assert solve(prob, line).initial_guess == {}


class TestRelaxationSoundness:
    def test_random_feasible_vectors_have_zero_violations(self):
        scn = mobile_scenario(obstacles=[])
        prob = assemble(scn)
        basis = prob.basis
        rng = np.random.default_rng(7)
        taus = np.linspace(0.0, 1.0, 1000)
        vmax = scn.limits.velocity
        amax = scn.limits.acceleration
        for _ in range(100):
            C = rng.uniform(-2.0, 2.0, (basis.n_coeffs, 2))
            dC = basis.D1 @ C
            ddC = basis.D2 @ C
            # Choose T so the coefficient boxes hold with strict slack.
            T = max(
                float((np.abs(dC) / vmax).max()) * 1.01,
                np.sqrt(float((np.abs(ddC) / amax).max())) * 1.01,
                0.1,
            )
            splines = [BSpline(basis.degree, basis.knots, C[:, j : j + 1])
                       for j in range(2)]
            for j, s in enumerate(splines):
                vel = s.derivative().eval(taus)[:, 0] / T
                acc = s.derivative().derivative().eval(taus)[:, 0] / T**2
                assert np.maximum(np.abs(vel) - vmax[j], 0.0).max() == 0.0
                assert np.maximum(np.abs(acc) - amax[j], 0.0).max() == 0.0

    def test_time_scaling_identity(self):
        prob = assemble(mobile_scenario(obstacles=[]))
        rng = np.random.default_rng(11)
        C = rng.uniform(-1, 1, (prob.basis.n_coeffs, 2))
        dC = prob.basis.D1 @ C
        taus = np.linspace(0, 1, 400)
        s = BSpline(prob.basis.degree, prob.basis.knots, C[:, :1])
        for T in (1.0, 2.0):
            vel = s.derivative().eval(taus)[:, 0] / T
            assert np.abs(vel).max() <= np.abs(dC[:, 0]).max() / T + 1e-12
        # doubling T halves the consumed velocity bound exactly
        v1 = s.derivative().eval(taus)[:, 0] / 1.0
        v2 = s.derivative().eval(taus)[:, 0] / 2.0
        np.testing.assert_allclose(v1, 2.0 * v2, atol=1e-14)


class TestFastPathEquivalence:
    """The planner's constraint rows, read as splines, must equal the
    functions they stand for at every tau."""

    def test_chain_velocity_family_matches_algebra(self):
        scn = load_scenario(SCENARIO_DIR / "threelink.json")
        prob = assemble(scn)
        fam = next(f for f in prob.families if isinstance(f, ChainRateFamily))
        dv = initial_guess(prob)
        rng = np.random.default_rng(3)
        dv.joint_coeffs = dv.joint_coeffs + rng.uniform(-0.1, 0.1, dv.joint_coeffs.shape)
        x = prob.layout.pack(dv)
        dv = prob.layout.unpack(x)  # boundary rows re-pinned
        r, _ = fam.evaluate(x)
        ncoef = fam.op.n_coefficients
        taus = np.linspace(0.0, 1.0, 500)
        for j in range(3):
            q = BSpline(prob.basis.degree, prob.basis.knots,
                        dv.joint_coeffs[:, j : j + 1])
            qv = q.eval(taus)[:, 0]
            dqv = q.derivative().eval(taus)[:, 0]
            # upper row of joint j: 2 q' - v T (1 + q^2), pointwise
            expect = 2.0 * dqv - scn.limits.velocity[j] * dv.T * (1.0 + qv * qv)
            block = r[j * ncoef : (j + 1) * ncoef] - fam.cushion_gap[j * ncoef : (j + 1) * ncoef]
            got = BSpline(fam.op.degree, fam.op.knots, block[:, None]).eval(taus)[:, 0]
            np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_mobile_plane_family_matches_collision_module(self):
        scn = mobile_scenario(obstacles=[
            {"kind": "sphere", "center": [1.5, -0.5], "radius": 0.2,
             "motion": {"kind": "linear", "target": [1.5, 0.5]}},
        ])
        prob = assemble(scn)
        fam = next(f for f in prob.families if isinstance(f, PlaneRobotSideFamily))
        dv = initial_guess(prob)
        rng = np.random.default_rng(5)
        dv.joint_coeffs = dv.joint_coeffs + rng.uniform(-0.2, 0.2, dv.joint_coeffs.shape)
        a_c = dv.plane_coeffs[0][:, :-1]
        a_c += rng.uniform(-0.1, 0.1, a_c.shape)
        x = prob.layout.pack(dv)
        dv = prob.layout.unpack(x)  # boundary rows re-pinned
        a_c, b_c = dv.plane_coeffs[0][:, :-1], dv.plane_coeffs[0][:, -1]
        r, _ = fam.evaluate(x)
        # fam residual is cushion - (coeffs of a . pos + b - d_r)
        p = prob.basis.degree
        rows = BSpline(2 * p, elevated_union([(prob.basis.knots, p)], 2 * p),
                       (fam.cushion_gap - r)[:, None])
        taus = np.linspace(0.0, 1.0, 500)
        B = basis_matrix(prob.basis.knots, p, taus)
        expect = ((B @ a_c) * (B @ dv.joint_coeffs)).sum(axis=1) + B @ b_c - scn.robot.radius
        np.testing.assert_allclose(rows.eval(taus)[:, 0], expect, atol=1e-9)


MOVING_SPHERE = {"kind": "sphere", "center": [1.5, -0.5], "radius": 0.2,
                 "motion": {"kind": "linear", "target": [1.5, 0.5]}}


class TestUnpackMemo:
    """``VariableLayout.unpack`` keeps its last result so the families of
    one solver call share it; it must follow the values of x and never be
    handed out where a caller may change it."""

    def test_in_place_change_of_x_is_seen(self):
        prob = assemble(mobile_scenario(obstacles=[MOVING_SPHERE]))
        layout = prob.layout
        x = layout.pack(initial_guess(prob))
        first = layout.unpack(x)
        C0 = first.joint_coeffs.copy()
        ab0 = first.plane_coeffs[0].copy()
        T0 = first.T
        x[0] += 0.25
        x[layout.idx_T] += 1.0
        x[-1] += 0.5
        second = layout.unpack(x)
        assert second.joint_coeffs[3, 0] == C0[3, 0] + 0.25
        assert second.T == T0 + 1.0
        assert second.plane_coeffs[0][-1, -1] == ab0[-1, -1] + 0.5
        # The earlier result was built from its own copy of x.
        np.testing.assert_array_equal(first.joint_coeffs, C0)
        np.testing.assert_array_equal(first.plane_coeffs[0], ab0)
        assert layout.unpack(x) is second

    def test_solution_decision_is_private(self, monkeypatch):
        monkeypatch.setattr(nlp, "MAX_OUTER", 3)
        scn = mobile_scenario(obstacles=[MOVING_SPHERE])
        prob = assemble(scn)
        sol = solve(prob)
        x = prob.layout.pack(sol.decision)
        before = [f.evaluate(x)[0] for f in prob.families]
        sol.decision.joint_coeffs[3:-3] += 0.1
        for ab in sol.decision.plane_coeffs:
            ab += 0.1
        after = [f.evaluate(x)[0] for f in prob.families]
        assert len(before) == len(prob.families) >= 5
        for r0, r1 in zip(before, after):
            np.testing.assert_array_equal(r0, r1)


def two_sided_margins(fam, T):
    """The SDF motion margin with both acceleration caps formed at every
    sample and the smaller one taken, as first written."""
    taus = fam.taus
    half = np.zeros_like(taus)
    half[:-1] = np.maximum(half[:-1], 0.5 * np.diff(taus))
    half[1:] = np.maximum(half[1:], 0.5 * np.diff(taus))
    speed = np.array([[b.speed_bound] for b in fam.bodies])
    accel = np.array([[b.accel_bound] for b in fam.bodies])
    h = half * T
    cap_lo = accel * (taus * T + h)
    cap_hi = accel * ((1.0 - taus) * T + h)
    local = np.minimum(speed, np.minimum(cap_lo, cap_hi))
    dspeed = np.where(local >= speed, 0.0,
                      np.where(cap_lo <= cap_hi, accel * (taus + half),
                               accel * ((1.0 - taus) + half)))
    return (fam.lipschitz * local * h,
            fam.lipschitz * half * (local + dspeed * T))


class TestSDFMargins:
    @pytest.mark.parametrize("name, per_span", [
        ("bench2d", 8), ("mobile2d", 8), ("mobile3d", 8), ("threelink", 8),
        ("fanuc6_static", 8), ("mobile2d", 2), ("mobile2d", 5), ("mobile2d", 13),
    ])
    def test_one_cap_matches_two_sided_rule(self, name, per_span):
        # The cap from the nearer rest endpoint, chosen at construction,
        # is the smaller of the two caps to the bit for every T.
        scn = load_scenario(SCENARIO_DIR / f"{name}.json")
        obstacles = scn.obstacles or tuple(benchmark_obstacles(3))
        scn = replace(scn, obstacles=obstacles, collision=replace(
            scn.collision, static_mode="sdf", collocation_per_span=per_span))
        fam = next(f for f in assemble(scn).families if f.name == "sdf_clearance")
        for T in np.concatenate([np.geomspace(T_MIN, 100.0, 400), [1.0, 2.5]]):
            got, want = fam.margins(T), two_sided_margins(fam, T)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestSolve:
    def test_degenerate_start_equals_goal(self):
        scn = mobile_scenario(
            boundary={"initial": [1.0, 0.5], "goal": [1.0, 0.5], "units": "m"},
            obstacles=[],
        )
        prob = assemble(scn)
        sol = solve(prob)
        assert sol.converged
        assert sol.objective == T_MIN
        assert sol.inner_iterations == 0
        np.testing.assert_array_equal(
            sol.decision.joint_coeffs, np.tile([1.0, 0.5], (13, 1))
        )

    def test_start_equals_goal_meets_every_family(self):
        # A sphere sweeps through the robot standing at [1, 0], so the
        # constant line at T_MIN collides: a plan reported converged must
        # verify.  From that constant start the solver cannot dodge.
        obj = json.loads((SCENARIO_DIR / "mobile2d.json").read_text())
        obj["boundary"]["initial"] = obj["boundary"]["goal"] = [1.0, 0.0]
        obj["obstacles"] = [{"kind": "sphere", "center": [1.0, 1.0],
                             "radius": 0.2, "motion": {"kind": "linear",
                                                       "target": [1.0, -1.0]}}]
        prob = assemble(parse_scenario(obj))
        sol = solve(prob)
        assert not sol.converged or verify(sol.decision, prob).passed

    def test_infeasible_goal_inside_obstacle(self, monkeypatch):
        monkeypatch.setattr(nlp, "MAX_OUTER", 12)
        scn = mobile_scenario(
            boundary={"initial": [0.0, 0.0], "goal": [1.5, 0.45], "units": "m"},
        )
        prob = assemble(scn)
        sol = solve(prob)
        assert not sol.converged
        worst = max(sol.block_violations, key=sol.block_violations.get)
        assert worst == "sdf_clearance"

    def test_converged_solution_within_tolerance(self):
        prob = assemble(mobile_scenario())
        sol = solve(prob)
        assert sol.converged
        assert sol.max_violation <= nlp.FEAS_TOL

    def test_determinism_bit_identical(self):
        prob1 = assemble(mobile_scenario())
        prob2 = assemble(mobile_scenario())
        s1 = solve(prob1)
        s2 = solve(prob2)
        np.testing.assert_array_equal(s1.decision.joint_coeffs,
                                      s2.decision.joint_coeffs)
        assert s1.decision.T == s2.decision.T
        assert s1.objective == s2.objective

    def test_solution_json_round_trip(self):
        prob = assemble(mobile_scenario())
        sol = solve(prob)
        stored = json.loads(json.dumps(sol.to_json()))
        back = DecisionVector.from_json(stored["decision"], prob.layout)
        np.testing.assert_array_equal(back.joint_coeffs, sol.decision.joint_coeffs)
        assert stored["status"] == sol.status

    def test_binding_angle_box(self, monkeypatch):
        # output_digest.py's threelink+limits box: without it joint 2 rises
        # to 54.8 deg, so its 50 deg rows carry weight and the box vjp runs.
        from tools.output_digest import LIMITS

        vjp_calls = []
        evaluate = CoeffBoxFamily.evaluate

        def counted(self, x):
            r, vjp = evaluate(self, x)
            return r, lambda w: vjp_calls.append(1) or vjp(w)

        monkeypatch.setattr(CoeffBoxFamily, "evaluate", counted)
        obj = json.loads((SCENARIO_DIR / "threelink.json").read_text())
        obj["limits"]["angle_min"], obj["limits"]["angle_max"] = LIMITS["threelink"]
        prob = assemble(parse_scenario(obj))
        sol = solve(prob)
        assert sol.converged
        assert verify(sol.decision, prob).passed
        assert vjp_calls
        # The bundled threelink's T, which the box leaves in place.
        assert sol.objective == pytest.approx(1.7397890878042128, abs=1e-6)
        angles = prob.samples(sol.decision, np.linspace(0.0, 1.0, 10001)).joint(0)
        assert np.degrees(angles[:, 1].max()) <= 50.0


def prismatic_chain():
    """threelink cut to two links, the second one prismatic (0.1 -> 0.3 m),
    beside a sphere crossing the workspace."""
    return parse_scenario(prismatic_chain_dict())


def prismatic_chain_dict():
    obj = json.loads((SCENARIO_DIR / "threelink.json").read_text())
    obj["name"] = "prismatic_chain"
    obj["robot"]["links"] = [obj["robot"]["links"][0],
                             {"a": 0.0, "alpha": 0.0, "d": 0.2, "kind": "prismatic"}]
    obj["robot"]["cuboids"] = obj["robot"]["cuboids"][:2]
    obj["boundary"] = {"initial": [-1.0, 0.1], "goal": [1.0, 0.3], "units": "rad"}
    obj["limits"] = {"velocity": 2.0, "acceleration": 4.0}
    obj["obstacles"] = [
        {"kind": "sphere", "center": [0.6, -0.6, -0.5], "radius": 0.1,
         "motion": {"kind": "linear", "target": [0.6, 0.6, -0.5]}},
    ]
    return obj


def per_joint_workspace_bounds(scenario, rates):
    """The workspace bounds as a loop over the joints, with a branch for
    each joint kind: the oracle of ``_chain_workspace_bounds``."""
    chain = scenario.robot.chain
    lo, hi = scenario.limits.angle_min, scenario.limits.angle_max
    link_reach = []
    for i, link in enumerate(chain.links):
        if link.joint_kind == "revolute":
            link_reach.append(abs(link.a) + abs(link.d))
        else:
            link_reach.append(abs(link.a)
                              + max(abs(link.d + lo[i]), abs(link.d + hi[i])))
    bounds = []
    for k in range(1, len(chain) + 1):
        vert_reach = float(np.linalg.norm(chain.link_cuboids[k - 1], axis=1).max())
        total = 0.0
        for j in range(k):
            if chain.links[j].joint_kind != "revolute":
                total += rates[j]
                continue
            reach = sum(link_reach[i] for i in range(j, k))
            total += rates[j] * (reach + vert_reach)
        bounds.append(total)
    return bounds


def _bundled_dict(name, *variants):
    """A bundled scenario's dict with ``output_digest.py`` variants applied."""
    from tools.output_digest import VARIANTS

    obj = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    for key in variants:
        VARIANTS[key](obj)
    return obj


WORKSPACE_BOUND_CASES = {
    "threelink": lambda: _bundled_dict("threelink"),
    "threelink+limits": lambda: _bundled_dict("threelink", "+limits"),
    "threelink+prismatic": lambda: _bundled_dict("threelink", "+prismatic"),
    "threelink+prismatic+retract": lambda: _bundled_dict("threelink", "+prismatic",
                                                          "+retract"),
    "prismatic_chain": lambda: dict(prismatic_chain_dict(), limits={
        "velocity": 2.0, "acceleration": 4.0,
        "angle_min": [-2.0, -0.3], "angle_max": [2.0, 1.0]}),
    "fanuc6_static": lambda: _bundled_dict("fanuc6_static"),
    "fanuc6_dynamic": lambda: _bundled_dict("fanuc6_dynamic"),
}


class TestPrismaticJoint:
    """A prismatic coordinate is the offset itself, never tan(offset / 2^n)."""

    def test_plans_verifies_and_exports_offsets(self, tmp_path):
        prob = assemble(prismatic_chain())
        np.testing.assert_array_equal(prob.q_init[1:], [0.1])
        np.testing.assert_array_equal(prob.q_goal[1:], [0.3])
        sol = solve(prob)
        assert sol.converged
        report = verify(sol.decision, prob)
        assert report.passed, report.to_json()
        export_trajectory(sol, prob, tmp_path, samples=40)
        rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        # Columns: tau, t, q1, q2, dq1, dq2.
        np.testing.assert_allclose(rows[[0, -1], 2], [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rows[[0, -1], 3], [0.1, 0.3], atol=1e-12)
        np.testing.assert_allclose(rows[[0, -1], 4:], 0.0, atol=1e-9)
        assert np.abs(rows[:, 5]).max() <= 2.0

    def test_offset_limits_bound_the_offset(self):
        scn = prismatic_chain()
        scn = replace(scn, limits=replace(scn.limits,
                                          angle_min=np.array([-2.0, 0.05]),
                                          angle_max=np.array([2.0, 0.35])))
        prob = assemble(scn)
        fam = next(f for f in prob.families if f.name == "angle_limits")
        # The cushion insets each bound by cushion * max(hi - lo, 1).
        inset = CUSHION * np.array([2.0 * np.tan(1.0), 1.0])
        np.testing.assert_allclose(fam.hi, [np.tan(1.0), 0.35] - inset, rtol=1e-14)
        np.testing.assert_allclose(fam.lo, [-np.tan(1.0), 0.05] + inset, rtol=1e-14)

    def test_workspace_speed_bound_covers_vertex_speeds(self):
        # A 1 m stroke: the SDF motion margin's speed bound of each link must
        # cover every vertex speed the limits allow.
        scn = prismatic_chain()
        scn = replace(scn, limits=replace(scn.limits,
                                          angle_min=np.array([-2.0, 0.0]),
                                          angle_max=np.array([2.0, 1.0])))
        prob = assemble(scn)
        chain = scn.robot.chain
        rng = np.random.default_rng(8)
        h = 1e-6
        worst = np.zeros(len(chain))
        for _ in range(500):
            x = rng.uniform(scn.limits.angle_min, scn.limits.angle_max)
            xd = rng.choice([-1.0, 1.0], len(chain)) * scn.limits.velocity
            for k in range(1, len(chain) + 1):
                hom = np.hstack([chain.link_cuboids[k - 1], np.ones((8, 1))]).T
                step = trig_fk(chain, x + h * xd, k) - trig_fk(chain, x - h * xd, k)
                speeds = np.linalg.norm((step @ hom)[:3] / (2 * h), axis=0)
                worst[k - 1] = max(worst[k - 1], speeds.max())
        bounds = [body.speed_bound for body in prob.bodies]
        assert np.all(worst <= bounds), (worst, bounds)

    @pytest.mark.parametrize("name", sorted(WORKSPACE_BOUND_CASES),
                             ids=sorted(WORKSPACE_BOUND_CASES))
    def test_workspace_bounds_match_the_per_joint_loop(self, name):
        from splinetraj.planner import _chain_workspace_bounds

        scn = parse_scenario(WORKSPACE_BOUND_CASES[name]())
        for rates in (scn.limits.velocity, scn.limits.acceleration):
            got = _chain_workspace_bounds(scn, rates)
            want = per_joint_workspace_bounds(scn, rates)
            assert [float(b).hex() for b in got] == [float(b).hex() for b in want]

    def test_sdf_mode_needs_offset_limits(self):
        obj = prismatic_chain_dict()
        obj["obstacles"].append({"kind": "sphere", "center": [0.0, 0.9, 0.5], "radius": 0.1})
        with pytest.raises(ScenarioError, match="prismatic joint 2"):
            parse_scenario(obj)
        parse_scenario(dict(obj, collision={"static_mode": "hyperplane"}))
        obj["limits"] = dict(obj["limits"], angle_min=[-2.0, 0.0], angle_max=[2.0, 1.0])
        parse_scenario(obj)


class TestVerify:
    def test_converged_solution_all_hull_families_zero(self):
        prob = assemble(mobile_scenario())
        sol = solve(prob)
        rep = verify(sol.decision, prob, oversample=10)
        for fam in rep.families:
            assert fam.max_violation == 0.0, fam.name
            assert fam.tolerance == 0.0, fam.name
        assert rep.passed

    def test_converged_mobile2d_passes(self):
        prob = assemble(load_scenario(SCENARIO_DIR / "mobile2d.json"))
        sol = solve(prob)
        assert sol.converged
        assert verify(sol.decision, prob).passed

    def test_endpoint_residuals_follow_the_end_rows(self):
        # Move one control row at either end, one at a time: the position,
        # rate and acceleration residuals verify reports must be those an
        # independent evaluation of the spline at tau = 0 and 1 gives.
        prob = assemble(load_scenario(SCENARIO_DIR / "mobile2d.json"))
        sol = solve(prob)
        assert sol.converged
        ends = np.array([0.0, 1.0])
        for row in (0, 1, -1, -2):
            dv = sol.decision.copy()
            dv.joint_coeffs[row] += 1e-3
            spline = BSpline(prob.basis.degree, prob.basis.knots, dv.joint_coeffs)
            rate = spline.derivative()
            q = spline.eval(ends)
            expected = max(np.abs(q[0] - prob.q_init).max(),
                           np.abs(q[1] - prob.q_goal).max(),
                           np.abs(rate.eval(ends)).max(),
                           np.abs(rate.derivative().eval(ends)).max())
            assert expected > 0.0, row
            rep = verify(dv, prob)
            assert (families_by_name(rep)["endpoint_conditions"].max_violation
                    == expected), row

    def test_hand_built_violation_flagged(self):
        prob = assemble(mobile_scenario())
        dv = initial_guess(prob)
        dv.T = 0.2  # far too fast: velocity limits must flag
        rep = verify(dv, prob, oversample=4)
        velocity = families_by_name(rep)["velocity_limits"]
        assert velocity.max_violation > 0.0
        assert not velocity.passed
        assert not rep.passed

    def test_nan_travel_time_fails(self):
        # A caller may hand verify a NaN T (a stored solution.json may not:
        # DecisionVector.from_json rejects it); the limit checks used to
        # drop the NaN samples and pass it.
        prob = assemble(mobile_scenario())
        dv = initial_guess(prob)
        dv.T = float("nan")
        rep = verify(dv, prob)
        families = families_by_name(rep)
        for name in ("velocity_limits", "acceleration_limits"):
            assert np.isnan(families[name].max_violation), name
            assert not families[name].passed
        assert not rep.passed

    @pytest.mark.parametrize("scenario", ["mobile2d", "threelink"])
    @pytest.mark.parametrize("T", [-2.5, 0.05])
    def test_travel_time_below_minimum_fails(self, scenario, T):
        # The limit checks read T as |q'/T| or T^2, so a negated T passed
        # them; the endpoint conditions hold T to its bound T_MIN.
        prob = assemble(load_scenario(SCENARIO_DIR / f"{scenario}.json"))
        dv = initial_guess(prob)
        dv.T = T
        rep = verify(dv, prob, oversample=1)
        ends = families_by_name(rep)["endpoint_conditions"]
        assert ends.max_violation == pytest.approx(T_MIN - T)
        assert not ends.passed and not rep.passed

    @pytest.mark.parametrize("name", ["mobile2d", "threelink"],
                             ids=["mobile", "chain"])
    def test_endpoint_conditions_count_their_two_sites(self, name):
        # The endpoint check reads the trajectory at tau = 0 and tau = 1,
        # whatever the robot and the sampling density.
        prob = assemble(load_scenario(SCENARIO_DIR / f"{name}.json"))
        dv = initial_guess(prob)
        for oversample in (1, 3):
            rep = verify(dv, prob, oversample=oversample)
            assert families_by_name(rep)["endpoint_conditions"].n_samples == 2

    @pytest.mark.parametrize("name", ["mobile2d", "threelink"],
                             ids=["mobile", "chain"])
    def test_json_is_each_record_with_its_tolerance(self, name):
        # The layout report.json held when each entry was written key by key.
        prob = assemble(load_scenario(SCENARIO_DIR / f"{name}.json"))
        rep = verify(initial_guess(prob), prob, oversample=2)
        assert rep.to_json() == {
            "oversample": 2,
            "families": [{"name": f.name, "kind": f.kind,
                          "max_violation": f.max_violation,
                          "tolerance": f.tolerance, "n_samples": f.n_samples}
                         for f in rep.families],
        }

    def test_oversample_density(self):
        prob = assemble(mobile_scenario())
        sol = solve(prob)
        rep5 = verify(sol.decision, prob, oversample=5)
        rep10 = verify(sol.decision, prob, oversample=10)
        n5 = families_by_name(rep5)["sdf_clearance"].n_samples
        assert families_by_name(rep10)["sdf_clearance"].n_samples > n5
        # Below 1 there is no density to check at.
        for bad in (0, -3):
            with pytest.raises(ValueError, match="oversample"):
                verify(sol.decision, prob, oversample=bad)

