"""Planner: assembly structure, relaxation soundness, solve/verify behavior."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splinetraj.bspline import BSpline, basis_matrix
from splinetraj.collision import Hyperplane, hyperplane_constraints
from splinetraj.planner import (
    ChainRateFamily,
    DecisionVector,
    PlaneRobotSideFamily,
    assemble,
    initial_guess,
    solve,
    verify,
)
from splinetraj.scenario import load_scenario, parse_scenario
from splinetraj.spline_algebra import RefitConfig, add, multiply, scale

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

    def test_plane_guess_norm(self):
        scn = mobile_scenario(obstacles=[
            {"kind": "sphere", "center": [1.5, -0.5], "radius": 0.2,
             "motion": {"kind": "linear", "target": [1.5, 0.5]}},
        ])
        prob = assemble(scn)
        dv = initial_guess(prob)
        a, b = dv.plane_coeffs[0]
        norms = np.linalg.norm(a, axis=1)
        np.testing.assert_allclose(norms, 0.9, atol=1e-12)

    def test_guess_violation_decreases_in_outer_loop(self):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        prob = assemble(scn)
        sol = solve(prob)
        assert sol.converged
        # Reconstruct the trace through the nlp solver.
        from splinetraj.nlp import AugmentedLagrangianSolver

        solver = AugmentedLagrangianSolver(
            prob.objective, prob.families,
            bounds=prob.layout.bounds(scn.solver.t_min), config=scn.solver,
        )
        result = solver.solve(prob.layout.pack(initial_guess(prob)))
        trace = result.trace
        assert len(trace) >= 1
        assert np.isfinite(trace[0]["violation"])
        assert trace[-1]["raw_violation"] <= trace[0]["raw_violation"] + 1e-12


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
    """The planner's linear-operator constraint splines must equal the
    splines the full algebra would build."""

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
        cfg = RefitConfig(residual_tolerance=1e-6)
        for j in range(3):
            q = BSpline(prob.basis.degree, prob.basis.knots,
                        dv.joint_coeffs[:, j : j + 1])
            W = add(multiply(q, q, cfg), BSpline.constant([1.0]), cfg)
            dq = q.derivative()
            g = add(scale(dq, 2.0),
                    scale(W, -scn.limits.velocity[j] * dv.T), cfg)
            # express on the family basis exactly
            B = basis_matrix(g.knots, g.degree, fam.op.taus)
            vals = B @ g.control_points
            coeffs = fam.op.fit_coefficients(vals)[:, 0]
            block = r[j * ncoef : (j + 1) * ncoef] - fam.cushion_gap[j * ncoef : (j + 1) * ncoef]
            np.testing.assert_allclose(block, coeffs, atol=1e-9)

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
        a_c, b_c = dv.plane_coeffs[0]
        a_c += rng.uniform(-0.1, 0.1, a_c.shape)
        x = prob.layout.pack(dv)
        dv = prob.layout.unpack(x)  # boundary rows re-pinned
        a_c, b_c = dv.plane_coeffs[0]
        r, _ = fam.evaluate(x)
        # library route: composed spline via the algebra
        pos = BSpline(prob.basis.degree, prob.basis.knots, dv.joint_coeffs)
        plane = Hyperplane(
            BSpline(prob.basis.degree, prob.basis.knots, a_c),
            BSpline(prob.basis.degree, prob.basis.knots, b_c[:, None]),
        )
        obstacle = scn.obstacles[0]
        cs = hyperplane_constraints([pos], obstacle, plane)
        # fam residual is cushion - (coeffs of a.pos + b - d_r)
        lib = cs.robot_side[0]
        shifted = lib.control_points[:, 0] - scn.robot.radius
        recovered = fam.cushion - r
        np.testing.assert_allclose(recovered, shifted, atol=1e-9)


class TestSolve:
    def test_degenerate_start_equals_goal(self):
        scn = mobile_scenario(
            boundary={"initial": [1.0, 0.5], "goal": [1.0, 0.5], "units": "m"},
            obstacles=[],
        )
        prob = assemble(scn)
        sol = solve(prob)
        assert sol.converged
        assert sol.objective == scn.solver.t_min
        assert sol.inner_iterations == 0
        np.testing.assert_array_equal(
            sol.decision.joint_coeffs, np.tile([1.0, 0.5], (13, 1))
        )

    def test_infeasible_goal_inside_obstacle(self):
        scn = mobile_scenario(
            boundary={"initial": [0.0, 0.0], "goal": [1.5, 0.45], "units": "m"},
            solver={"max_outer": 12},
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
        assert sol.max_violation <= scnario_feas_tol(prob)

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
        from splinetraj.planner import Solution

        back = Solution.from_json(json.loads(json.dumps(sol.to_json())))
        np.testing.assert_array_equal(back.decision.joint_coeffs,
                                      sol.decision.joint_coeffs)
        assert back.status == sol.status


def scnario_feas_tol(prob):
    return prob.scenario.solver.feas_tol


class TestVerify:
    def test_converged_solution_all_hull_families_zero(self):
        prob = assemble(mobile_scenario())
        sol = solve(prob)
        rep = verify(sol, prob, oversample=10)
        for fam in rep.families:
            assert fam.max_violation == 0.0, fam.name
            assert fam.tolerance == 0.0, fam.name
        assert rep.passed

    def test_converged_mobile2d_passes(self):
        prob = assemble(load_scenario(SCENARIO_DIR / "mobile2d.json"))
        sol = solve(prob)
        assert sol.converged
        assert verify(sol, prob).passed

    def test_hand_built_violation_flagged(self):
        prob = assemble(mobile_scenario())
        dv = initial_guess(prob)
        dv.T = 0.2  # far too fast: velocity limits must flag
        from splinetraj.planner import Solution

        fake = Solution(dv, "converged", dv.T, 0, 0, 0.0, 0.0, {})
        rep = verify(fake, prob, oversample=4)
        assert rep.family("velocity_limits").max_violation > 0.0
        assert not rep.family("velocity_limits").passed
        assert not rep.passed

    def test_dynamics_residual_tolerance(self):
        scn = mobile_scenario(obstacles=[], dynamics={"poly": [[0.0, -0.5], [1.0]]})
        prob = assemble(scn)
        dv = initial_guess(prob)
        dv.T = 10.0
        from splinetraj.planner import Solution

        fake = Solution(dv, "converged", dv.T, 0, 0, 0.0, 0.0, {})
        rep = verify(fake, prob)
        fam = rep.family("dynamics_residual")
        assert fam.tolerance == max(scn.solver.feas_tol, 1e-9)
        assert fam.max_violation > 1.0
        assert not rep.passed
        # Everything but the dynamics residual reads clean.
        assert all(f.passed for f in rep.families if f is not fam)

    def test_oversample_density(self):
        prob = assemble(mobile_scenario())
        sol = solve(prob)
        rep5 = verify(sol, prob, oversample=5)
        rep10 = verify(sol, prob, oversample=10)
        assert rep10.family("sdf_clearance").n_samples > rep5.family(
            "sdf_clearance"
        ).n_samples


class TestKnotRefinement:
    def test_refine_scenario_doubles_interior(self):
        from splinetraj.planner import refine_scenario

        scn = mobile_scenario()
        refined = refine_scenario(scn)
        assert refined.basis_interior.size == 2 * scn.basis_interior.size + 1


class TestDynamicsFamily:
    def test_residual_and_gradient(self):
        scn = mobile_scenario(obstacles=[], dynamics={"poly": [[0.0, -0.5], [1.0]]})
        prob = assemble(scn)
        fam = next(f for f in prob.families if f.name == "dynamics_residual")
        assert fam.kind == "eq"
        rng = np.random.default_rng(17)
        dv = initial_guess(prob)
        dv.joint_coeffs = dv.joint_coeffs + rng.uniform(-0.3, 0.3, dv.joint_coeffs.shape)
        x = prob.layout.pack(dv)
        dv = prob.layout.unpack(x)
        r, vjp = fam.evaluate(x)
        # independent: sample q' - T f(q) densely; the fitted spline of the
        # residual must reproduce those values
        taus = fam.op.taus
        splines = prob.trajectory_splines(dv)
        for j, poly in enumerate([[0.0, -0.5], [1.0]]):
            q = splines[j].eval(taus)[:, 0]
            dq = splines[j].derivative().eval(taus)[:, 0]
            f = np.polyval(np.array(poly)[::-1], q)
            expected = fam.op.fit_coefficients(dq - dv.T * f)[:, 0]
            n = fam.op.n_coefficients
            np.testing.assert_allclose(r[j * n : (j + 1) * n], expected, atol=1e-10)
        # gradient check
        w = rng.standard_normal(r.size)
        g = vjp(w)
        h = 1e-7
        gfd = np.zeros_like(g)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            gfd[i] = w @ (fam.evaluate(xp)[0] - fam.evaluate(xm)[0]) / (2 * h)
        np.testing.assert_allclose(g, gfd, atol=1e-5)
