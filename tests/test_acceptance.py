"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else.  Run with -s to see the
per-criterion summary lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from splinetraj.bspline import BSpline, basis_matrix, clamp_knots
from splinetraj.cli import benchmark_sdf_vs_hyperplane, run
from splinetraj.collision import Hyperplane, box_sphere_distance, hyperplane_constraints
from splinetraj.kinematics import (
    HalfAngleJoint,
    NumericFK,
    forward_kinematics,
    half_angle_trig,
    transform_point,
)
from splinetraj.planner import assemble, initial_guess, solve, verify
from splinetraj.scenario import load_scenario
from splinetraj.spline_algebra import RefitConfig, add, multiply

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src/splinetraj/scenarios"
CFG = RefitConfig()


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {label} {detail}"


def random_spline(rng, degree, dim=1):
    k = int(rng.integers(0, 7))
    grid = np.arange(0.05, 0.96, 0.05)
    interior = np.sort(rng.choice(grid, size=min(k, grid.size), replace=False))
    knots = clamp_knots(interior, degree)
    n = len(knots) - degree - 1
    return BSpline(degree, knots, rng.uniform(-2.0, 2.0, (n, dim)))


_solved_cache = {}


def solved(name: str):
    if name not in _solved_cache:
        scn = load_scenario(SCENARIO_DIR / f"{name}.json")
        prob = assemble(scn)
        t0 = time.perf_counter()
        sol = solve(prob)
        _solved_cache[name] = (scn, prob, sol, time.perf_counter() - t0)
    return _solved_cache[name]


class TestCriterion1:
    def test_spline_algebra_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        taus = np.linspace(0.0, 1.0, 500)
        t0 = time.perf_counter()
        worst_add = 0.0
        worst_mul = 0.0
        for _ in range(500):
            p1 = int(rng.integers(1, 5))
            p2 = int(rng.integers(1, 5))
            s1 = random_spline(rng, p1)
            s2 = random_spline(rng, p2)
            sa = add(s1, s2, CFG)
            sm = multiply(s1, s2, CFG)
            v1 = s1.eval(taus)[:, 0]
            v2 = s2.eval(taus)[:, 0]
            worst_add = max(worst_add, np.abs(sa.eval(taus)[:, 0] - (v1 + v2)).max())
            worst_mul = max(worst_mul, np.abs(sm.eval(taus)[:, 0] - v1 * v2).max())
        elapsed = time.perf_counter() - t0
        report(
            1,
            "spline algebra oracle equivalence (500 random pairs)",
            worst_add < 1e-9 and worst_mul < 1e-8 and elapsed < 30.0,
            f"add {worst_add:.2e} < 1e-9, multiply {worst_mul:.2e} < 1e-8, "
            f"{elapsed:.1f}s < 30s",
        )


class TestCriterion2:
    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        h = 1e-6
        worst_p = 0.0
        worst_wrong = np.inf
        for _ in range(200):
            p = int(rng.integers(2, 5))
            s = random_spline(rng, p)
            d = s.derivative()
            taus = rng.uniform(0.02, 0.98, 100)
            fd = (s.eval(taus + h) - s.eval(taus - h)) / (2 * h)
            worst_p = max(worst_p, np.abs(d.eval(taus) - fd).max())
            # The ambiguous reading: numerator NOT scaled by the degree.
            wrong = BSpline(d.degree, d.knots, d.control_points / p)
            worst_wrong = min(worst_wrong, np.abs(wrong.eval(taus) - fd).max())
        report(
            2,
            "derivative formula (degree factor resolved in favor of p)",
            worst_p < 1e-6 and worst_wrong > 1e-2,
            f"with p: {worst_p:.2e} < 1e-6; without p: min error "
            f"{worst_wrong:.2e} (clearly wrong)",
        )


class TestCriterion3:
    def test_hull_relaxation_soundness_exact_zero(self):
        scn = load_scenario(SCENARIO_DIR / "mobile2d.json")
        prob = assemble(scn)
        basis = prob.basis
        rng = np.random.default_rng(99)
        taus = np.linspace(0.0, 1.0, 1000)
        vmax = scn.limits.velocity
        amax = scn.limits.acceleration
        total_violation = 0.0
        for _ in range(100):
            C = rng.uniform(-3.0, 3.0, (basis.n_coeffs, 2))
            dC = basis.D1 @ C
            ddC = basis.D2 @ C
            T = max(
                float((np.abs(dC) / vmax).max()) * (1 + 1e-9),
                np.sqrt(float((np.abs(ddC) / amax).max())) * (1 + 1e-9),
                0.1,
            )
            for j in range(2):
                s = BSpline(basis.degree, basis.knots, C[:, j : j + 1])
                vel = s.derivative().eval(taus)[:, 0] / T
                acc = s.derivative().derivative().eval(taus)[:, 0] / T**2
                total_violation += float(np.maximum(np.abs(vel) - vmax[j], 0.0).max())
                total_violation += float(np.maximum(np.abs(acc) - amax[j], 0.0).max())
        report(
            3,
            "hull relaxation soundness, 100 feasible vectors x 1000 samples",
            total_violation == 0.0,
            f"total continuous violation {total_violation} (exact zero)",
        )


class TestCriterion4:
    def test_half_angle_trig_identity(self):
        rng = np.random.default_rng(5)
        taus = np.linspace(0.0, 1.0, 500)
        knots = clamp_knots(np.round(np.arange(0.1, 0.95, 0.1), 10), 3)
        worst = 0.0
        for depth in (1, 2):
            for _ in range(5):
                q = BSpline(3, knots, rng.uniform(-0.9, 0.9, (13, 1)))
                cn, sn, den = half_angle_trig(HalfAngleJoint(q, depth), CFG)
                c = cn.eval(taus)[:, 0]
                s = sn.eval(taus)[:, 0]
                d = den.eval(taus)[:, 0]
                worst = max(worst, np.abs((c * c + s * s) / (d * d) - 1.0).max())
        assert worst < 1e-8

    def test_fanuc_fk_matches_numeric_oracle(self):
        scn = load_scenario(SCENARIO_DIR / "fanuc6_static.json")
        chain = scn.robot.chain
        rng = np.random.default_rng(13)
        knots = scn.basis_knots()
        joints = [
            HalfAngleJoint(BSpline(3, knots, rng.uniform(-0.7, 0.7, (13, 1))), 1)
            for _ in range(6)
        ]
        fk = forward_kinematics(chain, joints, 6, CFG)
        taus = np.linspace(0.0, 1.0, 50)
        qmat = np.column_stack([j.q.eval(taus)[:, 0] for j in joints])
        ref = NumericFK(chain, [1] * 6).transforms(qmat, 6)
        worst = np.abs(fk.eval(taus) - ref).max()
        report(
            4,
            "half-angle kinematics: identity 1e-8, 6-link FK oracle 1e-6",
            worst < 1e-6,
            f"FK max error {worst:.2e} at degree {fk.degree}",
        )


class TestCriterion5:
    @pytest.mark.parametrize("name", ["mobile2d", "threelink", "fanuc6_static"])
    def test_feasibility_guarantee(self, name):
        scn, prob, sol, elapsed = solved(name)
        rep = verify(sol, prob, oversample=10)
        hull_zero = all(
            f.max_violation == 0.0
            for f in rep.families
            if f.name != "sdf_clearance"
        )
        sdf_zero = rep.family("sdf_clearance").max_violation == 0.0
        report(
            5,
            f"feasibility guarantee on {name}",
            sol.converged and hull_zero and sdf_zero and elapsed < 300.0,
            f"status {sol.status}, max dense violation "
            f"{rep.max_violation:.1e}, {elapsed:.1f}s < 300s",
        )


class TestCriterion6:
    def test_unconstrained_time_optimality(self):
        scn, prob, sol, _ = solved("unconstrained")
        delta = np.abs(scn.boundary_goal - scn.boundary_initial)
        bound = max(
            float(np.max(delta / scn.limits.velocity)),
            float(np.max(2.0 * np.sqrt(delta / scn.limits.acceleration))),
        )
        ratio = sol.objective / bound
        report(
            6,
            "unconstrained minimum time within 5% of bang-bang bound",
            sol.converged and ratio <= 1.05,
            f"T = {sol.objective:.4f}, bound = {bound:.4f}, ratio {ratio:.4f}",
        )


class TestCriterion7:
    def test_sdf_vs_hyperplane_trend(self):
        scn = load_scenario(SCENARIO_DIR / "bench2d.json")
        t0 = time.perf_counter()
        rows = benchmark_sdf_vs_hyperplane(scn, [1, 2, 5, 10, 20], trials=2)
        elapsed = time.perf_counter() - t0
        ok_rows = [r for r in rows if r["ok"]]
        assert len(ok_rows) == len(rows), "some benchmark rows failed to converge"
        # Solves take 0.05-0.13 s, so a host hiccup can double one mean;
        # the fastest of the trials is the solve's own cost.
        t_sdf = [r["t_min_sdf"] for r in rows]
        flat = max(t_sdf) / min(t_sdf) < 2.0
        # The SDF problem does not grow with the obstacle count, and
        # neither does the work of solving it.
        same_work = len({r["inner_sdf"] for r in rows}) == 1
        ratios_high = all(r["ratio"] > 1.0 for r in rows if r["count"] >= 10)
        t1 = rows[0]
        equal_T = (
            abs(t1["objective_sdf"] - t1["objective_hyperplane"])
            / t1["objective_sdf"]
            < 0.02
        )
        report(
            7,
            "SDF vs hyperplane timing trend",
            flat and same_work and ratios_high and equal_T and elapsed < 900.0,
            f"t_sdf spread {max(t_sdf) / min(t_sdf):.2f}x < 2, SDF inner "
            f"iterations {sorted({r['inner_sdf'] for r in rows})}, ratios at k>=10: "
            + ", ".join(
                f"{r['ratio']:.1f}" for r in rows if r["count"] >= 10
            )
            + f"; k=1 T agreement, {elapsed:.0f}s < 900s",
        )


class TestCriterion8:
    def test_dynamic_obstacle_separation(self):
        scn, prob, sol, elapsed = solved("fanuc6_dynamic")
        assert sol.converged, sol.status
        taus = np.linspace(0.0, 1.0, 1000)
        chain = scn.robot.chain
        obstacle = scn.obstacles[0]
        dv = sol.decision
        splines = prob.trajectory_splines(dv)
        qmat = np.column_stack([s.eval(taus)[:, 0] for s in splines])
        nfk = prob.nfk
        state = nfk.shared_state(qmat)
        centers = obstacle.center_at(taus)

        # (a) exact geometric distance between every cuboid and the sphere
        min_dist = np.inf
        for k in range(1, len(chain) + 1):
            trans = state["prefix"][k]
            verts = chain.link_cuboids[k - 1]
            bmin, bmax = verts.min(axis=0), verts.max(axis=0)
            for i in range(taus.size):
                d = box_sphere_distance(
                    trans[i], bmin, bmax, centers[i], obstacle.radius
                )
                min_dist = min(min_dist, d)

        # (b) the three separation families, evaluated numerically at samples
        worst_robot = np.inf
        worst_obst = -np.inf
        worst_norm = -np.inf
        plane_by_link = {
            li: pi for pi, (_, li, _) in enumerate(prob.plane_specs)
        }
        B = basis_matrix(prob.basis.knots, prob.basis.degree, taus)
        for k in range(1, len(chain) + 1):
            a_c, b_c = dv.plane_coeffs[plane_by_link[k]]
            a = B @ a_c
            b = B @ b_c
            pos = nfk.body_positions(state, k, chain.link_cuboids[k - 1])
            fam_i = (pos @ a[:, :, None])[:, :, 0] + b[:, None]
            worst_robot = min(worst_robot, float(fam_i.min()))
            fam_ii = (a * centers).sum(axis=1) + b + obstacle.radius
            worst_obst = max(worst_obst, float(fam_ii.max()))
            fam_iii = (a * a).sum(axis=1) - 1.0
            worst_norm = max(worst_norm, float(fam_iii.max()))

        # (c) library route: composed constraint splines for the deepest link
        joints = [
            HalfAngleJoint(s, scn.robot.halving_depths[j])
            for j, s in enumerate(splines)
        ]
        fk6 = forward_kinematics(chain, joints, 6, CFG)
        verts6 = [
            transform_point(fk6, v, CFG) for v in chain.link_cuboids[5]
        ]
        a_c, b_c = dv.plane_coeffs[plane_by_link[6]]
        plane = Hyperplane(
            BSpline(3, prob.basis.knots, a_c),
            BSpline(3, prob.basis.knots, b_c[:, None]),
        )
        cs = hyperplane_constraints(verts6, obstacle, plane, CFG)
        sampled = cs.sample_violations(taus)

        report(
            8,
            "dynamic obstacle separation (6-link, moving sphere)",
            min_dist > 0.0
            and worst_robot >= 0.0
            and worst_obst <= 0.0
            and worst_norm <= 0.0
            and cs.coefficients_satisfied()
            and all(v == 0.0 for v in sampled.values()),
            f"min geometric distance {min_dist:.4f} m > 0; families "
            f"(i) {worst_robot:.2e} >= 0, (ii) {worst_obst:.2e} <= 0, "
            f"(iii) {worst_norm:.2e} <= 0; composed-spline route exact",
        )


class TestCriterion9:
    def test_determinism_byte_identical_outputs(self, tmp_path):
        for name in ("mobile2d", "unconstrained"):
            scn = load_scenario(SCENARIO_DIR / f"{name}.json")
            run(scn, output_dir=tmp_path / f"{name}_a", samples=400)
            run(scn, output_dir=tmp_path / f"{name}_b", samples=400)
            for csv in ("trajectory.csv", "cartesian.csv"):
                a = (tmp_path / f"{name}_a" / csv).read_bytes()
                b = (tmp_path / f"{name}_b" / csv).read_bytes()
                assert a == b, f"{name}/{csv} differs between runs"
        report(9, "byte-identical output CSVs across repeated runs", True)
