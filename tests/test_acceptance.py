"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else.  Run with -s to see the
per-criterion summary lines.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splinetraj.bernstein import ChainNumerators, bezier_extraction
from splinetraj.bspline import BSpline, basis_matrix, clamp_knots
from perfbench.speed import SpeedProbe, reference_seconds
from splinetraj.cli import benchmark_obstacles, benchmark_sdf_vs_hyperplane, run
from splinetraj.collision import box_sphere_distance
from splinetraj.planner import PlaneRobotSideFamily, assemble, solve, verify
from splinetraj.scenario import load_scenario
from splinetraj.spline_algebra import add, elevated_union, multiply
from tests.test_kinematics import eval_spans, trig_fk
from tests.test_planner import families_by_name

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src/splinetraj/scenarios"


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
            sa = add(s1, s2)
            sm = multiply(s1, s2)
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
        # The half-angle identity as orthonormality of every prefix
        # product's rotation block over its denominator.
        chain = load_scenario(SCENARIO_DIR / "fanuc6_static.json").robot.chain
        rng = np.random.default_rng(5)
        taus = np.linspace(0.0, 1.0, 500)
        knots = clamp_knots(np.round(np.arange(0.1, 0.95, 0.1), 10), 3)
        worst = 0.0
        for depth in (1, 2):
            numerators = ChainNumerators(chain, [depth] * 6,
                                         bezier_extraction(knots, 3), 3)
            for _ in range(5):
                q = rng.uniform(-0.9, 0.9, (13, 6))
                for P in numerators.forward(q)["prefix"][1:]:
                    M = eval_spans(P, knots, taus)
                    R = M[:, :3, :3] / M[:, 3:, 3:]
                    worst = max(worst, np.abs(R @ R.transpose(0, 2, 1) - np.eye(3)).max())
        assert worst < 1e-8

    def test_fanuc_fk_matches_numeric_oracle(self):
        scn = load_scenario(SCENARIO_DIR / "fanuc6_static.json")
        chain = scn.robot.chain
        rng = np.random.default_rng(13)
        knots = scn.basis_knots()
        q = rng.uniform(-0.7, 0.7, (13, 6))
        numerators = ChainNumerators(chain, [1] * 6, bezier_extraction(knots, 3), 3)
        P6 = numerators.forward(q)["prefix"][6]
        taus = np.linspace(0.0, 1.0, 50)
        M = eval_spans(P6, knots, taus)
        fk = M / M[:, 3:, 3:]
        theta = 2.0 * np.arctan(basis_matrix(knots, 3, taus) @ q)
        ref = np.array([trig_fk(chain, t, 6) for t in theta])
        worst = np.abs(fk - ref).max()
        report(
            4,
            "half-angle kinematics: identity 1e-8, 6-link FK oracle 1e-6",
            worst < 1e-6,
            f"FK max error {worst:.2e} at degree {P6.shape[1] - 1}",
        )


class TestCriterion5:
    @pytest.mark.parametrize("name", ["mobile2d", "threelink", "fanuc6_static"])
    def test_feasibility_guarantee(self, name):
        scn, prob, sol, elapsed = solved(name)
        rep = verify(sol.decision, prob, oversample=10)
        hull_zero = all(
            f.max_violation == 0.0
            for f in rep.families
            if f.name != "sdf_clearance"
        )
        sdf_zero = families_by_name(rep)["sdf_clearance"].max_violation == 0.0
        report(
            5,
            f"feasibility guarantee on {name}",
            sol.converged and hull_zero and sdf_zero and elapsed < 300.0,
            f"status {sol.status}, max dense violation "
            f"{max(f.max_violation for f in rep.families):.1e}, "
            f"{elapsed:.1f}s < 300s",
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


def sdf_solve_reference_seconds(scn, counts, rounds=5) -> list[float]:
    """Fastest SDF-mode solve of the benchmark layout per obstacle count,
    in reference seconds: wall time scaled by the calibration kernel of
    ``perfbench.speed``, which a shared host's slow phases slow down alike.

    The counts are timed round-robin, one solve each per round, so a slow
    phase of the host spreads over every count instead of landing on the
    trials of one."""
    problems = []
    for k in counts:
        problem = assemble(replace(
            scn, obstacles=tuple(benchmark_obstacles(k)),
            collision=replace(scn.collision, static_mode="sdf")))
        solve(problem)  # warmup, untimed
        problems.append(problem)
    best = [float("inf")] * len(problems)
    with SpeedProbe() as probe:
        for _ in range(rounds):
            for i, problem in enumerate(problems):
                t = reference_seconds(probe, lambda: solve(problem))[2]
                best[i] = min(best[i], t)
    return best


class TestCriterion7:
    def test_sdf_vs_hyperplane_trend(self):
        scn = load_scenario(SCENARIO_DIR / "bench2d.json")
        counts = [1, 2, 5, 10, 20]
        t0 = time.perf_counter()
        rows = benchmark_sdf_vs_hyperplane(scn, counts, trials=2)
        elapsed = time.perf_counter() - t0
        ok_rows = [r for r in rows if r["ok"]]
        assert len(ok_rows) == len(rows), "some benchmark rows failed to converge"
        # Solves take 0.05-0.13 s, so a host hiccup can double one mean;
        # the fastest of the trials is the solve's own cost.  The host's
        # speed also drifts in phases lasting several counts, so the
        # trials are timed in reference seconds.
        t_sdf = sdf_solve_reference_seconds(scn, counts)
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
            f"t_sdf spread {max(t_sdf) / min(t_sdf):.2f}x < 2 (reference s), SDF inner "
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
        qmat = prob.trajectory(dv).eval(taus)
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
            body.link_index: pi for pi, (body, _) in enumerate(prob.plane_specs)
        }
        B = basis_matrix(prob.basis.knots, prob.basis.degree, taus)
        for k in range(1, len(chain) + 1):
            ab = dv.plane_coeffs[plane_by_link[k]]
            a = B @ ab[:, :-1]
            b = B @ ab[:, -1]
            pos = nfk.body_positions(state, k, chain.link_cuboids[k - 1])
            fam_i = (pos @ a[:, :, None])[:, :, 0] + b[:, None]
            worst_robot = min(worst_robot, float(fam_i.min()))
            fam_ii = (a * centers).sum(axis=1) + b + obstacle.radius
            worst_obst = max(worst_obst, float(fam_ii.max()))
            fam_iii = (a * a).sum(axis=1) - 1.0
            worst_norm = max(worst_norm, float(fam_iii.max()))

        # (c) the planner's exact link-6 rows: all on the feasible side,
        # and as a spline equal to den_6 (a . x + b) of every vertex x
        fam = next(f for f in prob.families
                   if isinstance(f, PlaneRobotSideFamily) and f.body.link_index == 6)
        rows = (fam.cushion_gap - fam.evaluate(prob.layout.pack(dv))[0]).reshape(8, -1)
        target = prob.basis.degree + sum(
            2 * prob.basis.degree * 2 ** (d - 1) for d in scn.robot.halving_depths)
        knots = elevated_union([(prob.basis.knots, prob.basis.degree)], target)
        spline_vals = basis_matrix(knots, target, taus) @ rows.T
        ab = dv.plane_coeffs[fam.plane_index]
        a = B @ ab[:, :-1]
        b = B @ ab[:, -1]
        chain_state = nfk.chain_state(qmat, 6)
        pos = nfk.vertex_positions(chain_state, chain.link_cuboids[5])
        expect = chain_state["den"][:, None] * (np.einsum("sd,svd->sv", a, pos) + b[:, None])
        rel = float(np.abs(spline_vals - expect).max() / np.abs(expect).max())

        report(
            8,
            "dynamic obstacle separation (6-link, moving sphere)",
            min_dist > 0.0
            and worst_robot >= 0.0
            and worst_obst <= 0.0
            and worst_norm <= 0.0
            and rows.min() >= 0.0
            and rel <= 1e-9,
            f"min geometric distance {min_dist:.4f} m > 0; families "
            f"(i) {worst_robot:.2e} >= 0, (ii) {worst_obst:.2e} <= 0, "
            f"(iii) {worst_norm:.2e} <= 0; link-6 rows >= {rows.min():.2e}, "
            f"spline vs den6 (a.x + b) {rel:.1e} <= 1e-9",
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
