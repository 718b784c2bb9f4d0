"""Embedded augmented-Lagrangian solver against independent oracles."""

import re
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds

from splinetraj import nlp
from splinetraj.nlp import RHO_MAX, AugmentedLagrangianSolver, ConstraintBlock
from splinetraj.planner import T_MIN, assemble, initial_guess
from splinetraj.scenario import load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src/splinetraj/scenarios"


class LinearInequalityBlock(ConstraintBlock):
    """A x - b <= 0 with exact gradients."""

    def __init__(self, name, A, b):
        self.name = name
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def evaluate(self, x):
        r = self.A @ x - self.b
        return r, lambda w: self.A.T @ w


class Contradiction(ConstraintBlock):
    name = "contradiction"

    def evaluate(self, x):
        # 1 - x <= 0 (x >= 1) and x + 1 <= 0 (x <= -1): empty set.
        r = np.array([1.0 - x[0], x[0] + 1.0])
        return r, lambda w: np.array([w[1] - w[0]])


def square(x):
    return float(x[0] ** 2), np.array([2 * x[0]])


def projected_gradient_qp(target, A, b, lo, hi, iters=200000, step=None):
    """Independent oracle: projected gradient on min |x - target|^2 s.t. box,
    with the inequality A x <= b folded in via exact projection when A is a
    coordinate selector (rows of +-identity), which the tests use."""
    x = np.clip(np.zeros_like(target), lo, hi)
    if step is None:
        step = 0.4
    for _ in range(iters):
        g = 2.0 * (x - target)
        x = x - step * g
        x = np.clip(x, lo, hi)
        # coordinate-selector rows: project each violated row directly
        viol = A @ x - b
        for i in np.nonzero(viol > 0)[0]:
            row = A[i]
            x = x - row * viol[i] / (row @ row)
    return x


def tight_tolerances(monkeypatch):
    """The QP tests' feas_tol 1e-10 and opt_tol 1e-8."""
    monkeypatch.setattr(nlp, "FEAS_TOL", 1e-10)
    monkeypatch.setattr(nlp, "OPT_TOL", 1e-8)


class TestQPFloor:
    def test_matches_projected_gradient_oracle(self, monkeypatch):
        # Coefficient box + velocity-style coefficient limits around a target:
        # the planner's QP-reducible core (fixed time, limits only).
        rng = np.random.default_rng(3)
        n = 12
        target = rng.uniform(-2.0, 2.0, n)
        # rows clamp individual coefficients: x_i <= 1, -x_i <= 1
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.ones(2 * n)
        lo = np.full(n, -3.0)
        hi = np.full(n, 3.0)

        def objective(x):
            return float((x - target) @ (x - target)), 2.0 * (x - target)

        tight_tolerances(monkeypatch)
        solver = AugmentedLagrangianSolver(
            objective,
            [LinearInequalityBlock("box_rows", A, b)],
            bounds=Bounds(lo, hi),
        )
        result = solver.solve(np.zeros(n))
        oracle = np.clip(target, -1.0, 1.0)  # analytic optimum of this QP
        pg = projected_gradient_qp(target, A, b, lo, hi, iters=5000)
        assert result.converged
        np.testing.assert_allclose(result.x, oracle, atol=1e-6)
        np.testing.assert_allclose(result.x, pg, atol=1e-6)

    def test_stops_at_an_upper_bound_with_zero_kkt_residual(self):
        # min -x with x <= 1 as a variable bound: the optimum sits on the
        # bound, where the projection zeroes the gradient -1.
        solver = AugmentedLagrangianSolver(lambda x: (-float(x[0]), -np.ones(1)),
                                           [], bounds=Bounds(-np.inf, 1.0))
        result = solver.solve(np.zeros(1))
        assert result.converged and result.stop["test"] == "kkt"
        assert result.x[0] == 1.0
        assert result.kkt_residual == 0.0

    def test_infeasible_detected(self, monkeypatch):
        monkeypatch.setattr(nlp, "MAX_OUTER", 30)
        solver = AugmentedLagrangianSolver(square, [Contradiction()])
        result = solver.solve(np.array([0.0]))
        assert result.status == "infeasible"
        assert result.max_violation > 0.5
        # An empty feasible set still moves the inner solves; none stalls.
        assert not result.trace[-1]["lbfgsb_message"].startswith("ABNORMAL")

    def test_outer_limit_is_max_iterations_whatever_the_violation(self,
                                                                  monkeypatch):
        # rho reaches its cap after outer iteration 7, so 8 iterations see
        # only 2 stagnant ones of the 3 that mean infeasible: the limit ran
        # out first, and the status says so.
        monkeypatch.setattr(nlp, "MAX_OUTER", 8)
        solver = AugmentedLagrangianSolver(square, [Contradiction()])
        result = solver.solve(np.array([0.0]))
        assert result.status == "max-iterations"
        assert result.outer_iterations == 8
        assert result.trace[-1]["rho"] == RHO_MAX
        assert result.max_violation > 0.5
        assert not any("restoration" in entry for entry in result.trace)
        assert result.stop["test"] is None

    def test_stalled_line_search_is_not_infeasible(self):
        # A 3-circle slalom of the mobile benchmark, planned from the
        # straight line through its circles (the default guess goes round
        # them and converges): once rho is at its cap, every L-BFGS-B call
        # fails its first line search, so the plan stops without showing
        # the geometry infeasible.
        from perfbench.workloads import generate
        from splinetraj.planner import _straight_line, solve

        obj = next(o for o in generate("mobile_sdf")
                   if o["name"] == "bench2d_slalom_3_0")
        problem = assemble(parse_scenario(obj))
        sol = solve(problem, _straight_line(problem))
        assert sol.status == "stalled"
        assert not sol.converged
        tail = sol.trace[-3:]
        assert all(e["inner_iterations"] == 0
                   and e["lbfgsb_message"].startswith("ABNORMAL") for e in tail)

    def test_unconverged_kkt_residual_is_of_the_returned_iterate(self, monkeypatch):
        # The slalom, planned from the straight line through its circles,
        # stops on a later iterate than the best one it returns; the KKT
        # residual it reports must be the returned decision's.
        from perfbench.workloads import generate
        from splinetraj.planner import _straight_line, solve

        original = nlp.AugmentedLagrangianSolver._kkt_residual
        calls = []

        def recording(solver, x, multipliers, evals, scales):
            calls.append((solver, [m.copy() for m in multipliers], scales))
            return original(solver, x, multipliers, evals, scales)

        monkeypatch.setattr(nlp.AugmentedLagrangianSolver, "_kkt_residual",
                            recording)
        obj = next(o for o in generate("mobile_sdf")
                   if o["name"] == "bench2d_slalom_3_0")
        problem = assemble(parse_scenario(obj))
        sol = solve(problem, _straight_line(problem))
        assert not sol.converged
        solver, multipliers, scales = calls[-1]
        x = problem.layout.pack(sol.decision)
        kkt, kkt_scale = original(solver, x, multipliers, solver._eval_blocks(x),
                                  scales)
        assert sol.kkt_residual == kkt
        assert sol.stop["kkt_residual"] == kkt
        assert sol.stop["kkt_scale"] == kkt_scale

    def test_unconstrained_path(self):
        def objective(x):
            return float((x[0] - 2) ** 2), np.array([2 * (x[0] - 2)])

        solver = AugmentedLagrangianSolver(objective, [])
        result = solver.solve(np.array([0.0]))
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(11)
        n = 8
        target = rng.uniform(-2, 2, n)
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.full(2 * n, 0.7)

        def objective(x):
            return float((x - target) @ (x - target)), 2.0 * (x - target)

        def once():
            solver = AugmentedLagrangianSolver(
                objective, [LinearInequalityBlock("rows", A, b)]
            )
            return solver.solve(np.zeros(n)).x

        x1, x2 = once(), once()
        np.testing.assert_array_equal(x1, x2)

    def test_nan_residual_names_block(self):
        class Poison(ConstraintBlock):
            name = "poisoned_family"

            def evaluate(self, x):
                return np.array([np.nan]), lambda w: np.zeros(1)

        def objective(x):
            return float(x[0] ** 2), np.array([2 * x[0]])

        solver = AugmentedLagrangianSolver(objective, [Poison()])
        with pytest.raises(FloatingPointError, match="poisoned_family"):
            solver.solve(np.array([1.0]))


def reference_al_value_grad(objective, blocks, x, multipliers, rho, scales):
    """The augmented Lagrangian over the rows r_b / s_b as first written:
    mult / rho formed on every call, each block evaluated on its own and
    divided by its scale s_b from ``scales``."""
    f, g = objective(x)
    total = f
    grad = np.array(g, dtype=float)
    for block, mult, s in zip(blocks, multipliers, scales):
        r, vjp = block.evaluate(x)
        shifted = np.maximum(0.0, mult / rho + r / s)
        total += 0.5 * rho * float(shifted @ shifted - (mult / rho) @ (mult / rho))
        w = rho * shifted
        if np.any(w != 0.0):
            grad += vjp(w / s)
    return total, grad


def reference_block_scales(blocks, x0):
    """sqrt(max(max |r_b(x0)|, 1e-12)) per block."""
    return [float(np.sqrt(max(np.abs(b.evaluate(x0)[0]).max(initial=0.0), 1e-12)))
            for b in blocks]


def mobile_sphere():
    return parse_scenario({
        "name": "mobile_sphere",
        "robot": {"kind": "mobile", "dimension": 2, "radius": 0.15},
        "boundary": {"initial": [0.0, 0.0], "goal": [3.0, 0.0], "units": "m"},
        "limits": {"velocity": 1.5, "acceleration": 6.0},
        "workspace": {"min": [-0.5, -1.5], "max": [3.5, 1.5]},
        "obstacles": [{"kind": "sphere", "center": [1.5, 0.45], "radius": 0.25}],
        "collision": {"collocation_per_span": 6},
    })


class TestAugmentedLagrangianBitIdentity:
    """The solver's bookkeeping (mult / rho once per outer iteration, one
    unpack per call, the block scales fixed once per solve) must leave the
    value and gradient unchanged to the bit, so the iterates do not move.
    The scales are passed in: those of the start and random positive
    ones."""

    @pytest.mark.parametrize("scenario", [
        pytest.param(lambda: load_scenario(SCENARIO_DIR / "threelink.json"),
                     id="threelink"),
        pytest.param(mobile_sphere, id="mobile_sphere"),
    ])
    def test_value_and_gradient_match_reference(self, scenario):
        problem = assemble(scenario())
        solver = AugmentedLagrangianSolver(
            problem.objective, problem.families,
            bounds=problem.layout.bounds(T_MIN))
        rng = np.random.default_rng(23)
        x0 = problem.layout.pack(initial_guess(problem))
        start_scales = reference_block_scales(problem.families, x0)
        assert solver._block_scales(solver._eval_blocks(x0)) == start_scales
        free = problem.layout.n_free_c
        checked = 0
        for _ in range(4):
            x = x0.copy()
            x[:free] += rng.normal(0.0, 0.05, free)
            x[problem.layout.idx_T] *= rng.uniform(0.5, 1.5)
            zero = [np.zeros(f.n_rows) for f in problem.families]
            nonzero = [
                np.where(rng.random(f.n_rows) < 0.5, 0.0,
                         rng.uniform(0.0, 2.0, f.n_rows))
                for f in problem.families
            ]
            random_scales = list(rng.uniform(0.1, 10.0, len(problem.families)))
            for multipliers in (zero, nonzero):
                for rho in (10.0, 1e4):
                    scaled = solver._scaled_multipliers(multipliers, rho)
                    for scales in (start_scales, random_scales):
                        got = solver._al_value_grad(x, rho, scaled, scales)
                        want = reference_al_value_grad(
                            problem.objective, problem.families, x,
                            multipliers, rho, scales)
                        assert got[0] == want[0]
                        assert np.array_equal(got[1], want[1])
                        checked += 1
        assert checked == 32


class TestBlockScales:
    """Each block's rows are divided by one scale fixed at the start,
    s_b = sqrt(max(max |r_b(x0)|, 1e-12)); feasibility reads the
    unscaled rows."""

    def test_scales_fixed_at_the_start_leave_the_optimum(self, monkeypatch):
        # The QP of test_matches_projected_gradient_oracle without its box,
        # its rows split into two blocks, one of them multiplied by 100:
        # the scales differ, the feasible set and the optimum do not.
        rng = np.random.default_rng(3)
        n = 12
        target = rng.uniform(-2.0, 2.0, n)
        upper = LinearInequalityBlock("upper", 100.0 * np.eye(n), np.full(n, 100.0))
        lower = LinearInequalityBlock("lower", -np.eye(n), np.ones(n))

        def objective(x):
            return float((x - target) @ (x - target)), 2.0 * (x - target)

        tight_tolerances(monkeypatch)
        solver = AugmentedLagrangianSolver(objective, [upper, lower])
        x0 = np.full(n, 0.5)
        result = solver.solve(x0)
        assert result.block_scales == {
            "upper": np.sqrt(50.0), "lower": np.sqrt(1.5)}
        assert result.converged
        assert result.max_violation <= 1e-10
        np.testing.assert_allclose(result.x, np.clip(target, -1.0, 1.0),
                                   atol=1e-6)

    def test_block_at_zero_gets_the_floor(self):
        block = LinearInequalityBlock("active", np.eye(2), np.zeros(2))
        solver = AugmentedLagrangianSolver(
            lambda x: (float((x - 1.0) @ (x - 1.0)), 2.0 * (x - 1.0)), [block])
        result = solver.solve(np.zeros(2))
        assert result.block_scales == {"active": 1e-6}
        assert result.converged
        np.testing.assert_allclose(result.x, 0.0, atol=1e-5)


class TestChainPlansConverge:
    """Regression plans for the unscaled solver's failures: fanuc6_static
    stopped through the flat-objective rule at a point that was not
    stationary (T = 1.2098, KKT residual 1.0), and jittered starts of
    fanuc6_dynamic converged to other local optima (T = 1.5432, 1.2243)."""

    def test_fanuc6_static_is_stationary(self, monkeypatch):
        from splinetraj.planner import solve

        kkt = []
        residual = AugmentedLagrangianSolver._kkt_residual

        def recorded(self, *args):
            kkt.append(residual(self, *args))
            return kkt[-1]

        monkeypatch.setattr(AugmentedLagrangianSolver, "_kkt_residual", recorded)
        problem = assemble(load_scenario(SCENARIO_DIR / "fanuc6_static.json"))
        sol = solve(problem)
        assert sol.status == "converged"
        assert sol.objective <= 1.12546
        value, scale = kkt[-1]
        assert sol.kkt_residual == value
        assert value <= nlp.OPT_TOL * scale

    def test_stop_test_of_each_plan(self):
        # threelink still stops through the flat-objective rule (KKT
        # residual / scale about 5.7e-5 there), fanuc6_static through the
        # KKT test.
        from splinetraj.planner import solve

        for name, test in (("threelink", "flat_objective"),
                           ("fanuc6_static", "kkt")):
            sol = solve(assemble(load_scenario(SCENARIO_DIR / f"{name}.json")))
            assert sol.status == "converged", name
            assert sol.stop["test"] == test, name
            assert sol.stop["kkt_residual"] == sol.kkt_residual, name
            ratio = sol.stop["kkt_residual"] / sol.stop["kkt_scale"]
            assert (ratio <= nlp.OPT_TOL) == (test == "kkt"), name

    def test_fanuc6_dynamic_jittered_starts(self):
        # Built as tools/jitter_sweep.py builds them: the interior joint
        # coefficients scaled by 1 + 1e-12 N(0, 1), seeds 0, 1, 2.
        from splinetraj.planner import solve
        from tools.jitter_sweep import BOUNDARY_ROWS, JITTER

        problem = assemble(load_scenario(SCENARIO_DIR / "fanuc6_dynamic.json"))
        for seed in range(3):
            guess = initial_guess(problem)
            rng = np.random.default_rng(seed)
            inner = guess.joint_coeffs[BOUNDARY_ROWS:-BOUNDARY_ROWS]
            inner *= 1.0 + JITTER * rng.standard_normal(inner.shape)
            sol = solve(problem, guess)
            assert sol.status == "converged", seed
            assert sol.objective == pytest.approx(1.125454, rel=1e-5), seed


def test_jitter_sweep_takes_one_plan_of_a_workload():
    # The label output_digest.py prints for one plan of a workload
    # names that plan alone.
    from tools.jitter_sweep import scenario_dicts

    root = Path(__file__).resolve().parents[1]
    (obj,) = scenario_dicts(root, "mobile_sdf/bench2d_slalom_5_0")
    assert obj["name"] == "bench2d_slalom_5_0"
    assert len(scenario_dicts(root, "mobile_sdf")) == 30
    with pytest.raises(SystemExit, match="no scenario"):
        scenario_dicts(root, "mobile_sdf/bench2d_nothing")


def test_jitter_sweep_prints_the_start_and_its_bound():
    # Above its table the sweep shows whether the start sat at the bound.
    from tools.jitter_sweep import start_line

    threelink = assemble(load_scenario(SCENARIO_DIR / "threelink.json"))
    assert start_line(threelink) == ("     start T 1.549193338 "
                                     "T_bound 1.549193338")
    mobile2d = assemble(load_scenario(SCENARIO_DIR / "mobile2d.json"))
    assert start_line(mobile2d) == "     start T 3 T_bound 2.25"


def test_reachability_lists_statements_never_run(capsys, monkeypatch):
    # mobile2d has spheres only, so the box branch of the one distance
    # formula is entered code that never runs; the summary counts
    # definitions and statements.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "tools"))
    from tools.reachability import main

    assert main(["mobile2d"]) == 0
    out = capsys.readouterr().out.splitlines()
    heading = next(i for i, line in enumerate(out)
                   if re.fullmatch(r"collision:\d+ ObstaclePrimitive.distance_at: "
                                   r"\d+ of \d+ statements never run", line))
    assert any(re.fullmatch(r"    collision:\d+ half = 0\.5 \* \(self\.box_max "
                            r"- self\.box_min\) \(1 statement\)", line)
               for line in out[heading + 1 : heading + 4])
    assert re.fullmatch(r"\d+ of \d+ definitions never entered, \d+ lines; "
                        r"\d+ of \d+ statements in entered definitions never "
                        r"run", out[-1])
