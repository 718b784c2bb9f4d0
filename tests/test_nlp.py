"""Embedded augmented-Lagrangian solver against independent oracles."""

import numpy as np
import pytest

from splinetraj.nlp import (
    AugmentedLagrangianSolver,
    ConstraintBlock,
    SolverConfig,
)


class LinearInequalityBlock(ConstraintBlock):
    """A x - b <= 0 with exact gradients."""

    kind = "ineq"

    def __init__(self, name, A, b):
        self.name = name
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def evaluate(self, x):
        r = self.A @ x - self.b
        return r, lambda w: self.A.T @ w


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


class TestQPFloor:
    def test_matches_projected_gradient_oracle(self):
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

        solver = AugmentedLagrangianSolver(
            objective,
            [LinearInequalityBlock("box_rows", A, b)],
            bounds=[(l, h) for l, h in zip(lo, hi)],
            config=SolverConfig(feas_tol=1e-10, opt_tol=1e-8),
        )
        result = solver.solve(np.zeros(n))
        oracle = np.clip(target, -1.0, 1.0)  # analytic optimum of this QP
        pg = projected_gradient_qp(target, A, b, lo, hi, iters=5000)
        assert result.converged
        np.testing.assert_allclose(result.x, oracle, atol=1e-6)
        np.testing.assert_allclose(result.x, pg, atol=1e-6)

    def test_equality_block(self):
        # min (x0-1)^2 + (x1-1)^2 s.t. x0 + x1 = 1 -> (0.5, 0.5)
        class SumToOne(ConstraintBlock):
            kind = "eq"
            name = "sum"

            def evaluate(self, x):
                return np.array([x[0] + x[1] - 1.0]), lambda w: np.array(
                    [w[0], w[0]]
                )

        def objective(x):
            return float((x[0] - 1) ** 2 + (x[1] - 1) ** 2), np.array(
                [2 * (x[0] - 1), 2 * (x[1] - 1)]
            )

        solver = AugmentedLagrangianSolver(objective, [SumToOne()])
        result = solver.solve(np.zeros(2))
        assert result.converged
        np.testing.assert_allclose(result.x, [0.5, 0.5], atol=1e-6)

    def test_infeasible_detected(self):
        class Contradiction(ConstraintBlock):
            kind = "ineq"
            name = "contradiction"

            def evaluate(self, x):
                # 1 - x <= 0 (x >= 1) and x + 1 <= 0 (x <= -1): empty set.
                r = np.array([1.0 - x[0], x[0] + 1.0])
                return r, lambda w: np.array([w[1] - w[0]])

        def objective(x):
            return float(x[0] ** 2), np.array([2 * x[0]])

        cfg = SolverConfig(max_outer=30, rho_max=1e6)
        solver = AugmentedLagrangianSolver(objective, [Contradiction()], config=cfg)
        result = solver.solve(np.array([0.0]))
        assert result.status == "infeasible"
        assert result.max_violation > 0.5

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
            kind = "ineq"
            name = "poisoned_family"

            def evaluate(self, x):
                return np.array([np.nan]), lambda w: np.zeros(1)

        def objective(x):
            return float(x[0] ** 2), np.array([2 * x[0]])

        solver = AugmentedLagrangianSolver(objective, [Poison()])
        with pytest.raises(FloatingPointError, match="poisoned_family"):
            solver.solve(np.array([1.0]))
