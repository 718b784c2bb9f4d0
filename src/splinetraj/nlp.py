"""Embedded constrained solver: augmented Lagrangian with a quasi-Newton core.

Constraints arrive as blocks, each producing a residual vector (inequalities
feasible at <= 0, equalities at = 0) together with an adjoint callback that
maps residual weights to a gradient contribution.  The outer loop follows the
classic multiplier/penalty schedule; the inner bound-constrained minimization
is delegated to L-BFGS-B.  Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

__all__ = [
    "SolverConfig",
    "ConstraintBlock",
    "SolverResult",
    "AugmentedLagrangianSolver",
]

INEQ = "ineq"
EQ = "eq"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and schedule of the embedded solver.

    feas_tol / opt_tol are the convergence thresholds on the maximum
    constraint violation and the projected KKT gradient.  cushion is the
    relative strictness margin added inside hull-relaxed inequality
    families so converged solutions satisfy the underlying constraints
    strictly rather than to solver tolerance.
    """

    feas_tol: float = 1e-6
    opt_tol: float = 1e-5
    max_outer: int = 50
    max_inner: int = 500
    knot_refine: bool = False
    rho_init: float = 10.0
    rho_growth: float = 10.0
    rho_max: float = 1e8
    cushion: float = 1e-4
    t_min: float = 0.1
    restore_objective_slack: float = 1e-3

    def to_json(self) -> dict:
        return {
            "feas_tol": self.feas_tol,
            "opt_tol": self.opt_tol,
            "max_outer": self.max_outer,
            "max_inner": self.max_inner,
            "knot_refine": self.knot_refine,
        }


class ConstraintBlock:
    """One family of constraints of a common kind.

    Subclasses set ``name``, ``kind`` (ineq: feasible at <= 0, eq: = 0),
    ``n_rows`` (the length of every residual vector, fixed at
    construction) and implement evaluate(x) returning (residuals, vjp)
    where vjp maps a weight vector over the residuals to a gradient
    contribution over x.

    ``cushion_gap`` is the constant strictness margin baked into the
    residuals (residual = raw constraint + gap).  The solver minimizes the
    cushioned form but judges feasibility on the raw constraint, so a
    stall inside the cushion still yields a strictly feasible solution.

    ``dense_violation`` measures the underlying continuous constraint at
    dense parameters; a verified solution reads at most ``verify_tol``
    there (exactly zero for hull-relaxed families).
    """

    name: str = "block"
    kind: str = INEQ
    n_rows: int = 0
    cushion_gap: float = 0.0
    verify_tol: float = 0.0

    def evaluate(self, x: np.ndarray):
        raise NotImplementedError

    def dense_violation(self, dv, splines, taus: np.ndarray) -> float:
        """Worst violation of the continuous constraint at parameters taus,
        given the decision ``dv`` and its per-coordinate ``splines``."""
        raise NotImplementedError

    def violation(self, residuals: np.ndarray) -> float:
        if self.kind == INEQ:
            return float(np.maximum(residuals, 0.0).max(initial=0.0))
        return float(np.abs(residuals).max(initial=0.0))

    def raw_violation(self, residuals: np.ndarray) -> float:
        if self.kind == INEQ:
            return float(
                np.maximum(residuals - self.cushion_gap, 0.0).max(initial=0.0)
            )
        return float(np.abs(residuals).max(initial=0.0))


def _trace_entry(outer, rho, f, viol, raw_viol, res, per_block,
                 restoration=False) -> dict:
    """One record of the solver trace, also logged at INFO."""
    log.info("%s %d: rho=%.3g objective=%.9g violation=%.3e raw=%.3e "
             "inner=%d (%s)", "restoration" if restoration else "outer",
             outer, rho, f, viol, raw_viol, res.nit, res.message)
    entry = {"outer": outer, "rho": rho, "objective": f, "violation": viol,
             "raw_violation": raw_viol, "inner_iterations": int(res.nit),
             "lbfgsb_message": str(res.message),
             "block_violations": dict(per_block)}
    if restoration:
        entry["restoration"] = True
    return entry


@dataclass
class SolverResult:
    x: np.ndarray
    status: str
    objective: float
    outer_iterations: int
    inner_iterations: int
    max_violation: float
    kkt_residual: float
    block_violations: dict[str, float] = field(default_factory=dict)
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class AugmentedLagrangianSolver:
    """Method of multipliers over constraint blocks with box-bounded variables."""

    def __init__(self, objective, blocks, bounds=None, config: SolverConfig | None = None):
        """
        Args:
            objective: Callable x -> (value, gradient).
            blocks: Constraint blocks; may be empty.
            bounds: Optional list of (lo, hi) pairs per variable (None = free).
            config: Solver configuration.
        """
        self.objective = objective
        self.blocks = list(blocks)
        self.bounds = bounds
        self.config = config or SolverConfig()

    def _eval_blocks(self, x: np.ndarray):
        out = []
        for block in self.blocks:
            r, vjp = block.evaluate(x)
            if not np.all(np.isfinite(r)):
                raise FloatingPointError(
                    f"non-finite residual in constraint family {block.name!r}"
                )
            out.append((block, r, vjp))
        return out

    def _al_value_grad(self, x, multipliers, rho):
        f, g = self.objective(x)
        total = f
        grad = np.array(g, dtype=float)
        for (block, r, vjp), mult in zip(self._eval_blocks(x), multipliers):
            if block.kind == INEQ:
                shifted = np.maximum(0.0, mult / rho + r)
                total += 0.5 * rho * float(shifted @ shifted - (mult / rho) @ (mult / rho))
                w = rho * shifted
            else:
                total += float(mult @ r) + 0.5 * rho * float(r @ r)
                w = mult + rho * r
            if np.any(w != 0.0):
                grad += vjp(w)
        return total, grad

    @staticmethod
    def _violations(evals):
        """(cushioned max violation, raw max violation, raw per block)."""
        per_block = {}
        worst = 0.0
        worst_raw = 0.0
        for block, r, _ in evals:
            per_block[block.name] = block.raw_violation(r)
            worst = max(worst, block.violation(r))
            worst_raw = max(worst_raw, per_block[block.name])
        return worst, worst_raw, per_block

    def _kkt_residual(self, x, multipliers, evals) -> tuple[float, float]:
        """Projected Lagrangian gradient norm and the scale of its terms.

        The scale (largest gradient term being balanced) turns the
        optimality test into a relative one; an absolute test is
        unattainable when active-constraint gradients are large.
        """
        _, grad = self.objective(x)
        grad = np.array(grad, dtype=float)
        scale = max(1.0, float(np.abs(grad).max(initial=0.0)))
        for (block, r, vjp), mult in zip(evals, multipliers):
            if np.any(mult != 0.0):
                term = vjp(mult)
                scale = max(scale, float(np.abs(term).max(initial=0.0)))
                grad += term
        if self.bounds is not None:
            for i, (lo, hi) in enumerate(self.bounds):
                if lo is not None and x[i] <= lo + 1e-12:
                    grad[i] = min(grad[i], 0.0)
                if hi is not None and x[i] >= hi - 1e-12:
                    grad[i] = max(grad[i], 0.0)
        return float(np.abs(grad).max(initial=0.0)), scale

    def solve(self, x0: np.ndarray) -> SolverResult:
        """Method of multipliers from x0.

        The blocks are evaluated once per outer iterate; that one
        evaluation feeds the violation measures, the multiplier update
        and the KKT residual.
        """
        cfg = self.config
        x = np.array(x0, dtype=float)
        evals = self._eval_blocks(x)
        multipliers = [np.zeros(len(r)) for _, r, _ in evals]
        rho = cfg.rho_init
        omega = 1.0 / rho
        eta = 1.0 / rho**0.1
        inner_total = 0
        best = None
        stagnant = 0
        prev_viol = np.inf

        if not self.blocks:
            res = minimize(
                lambda z: self.objective(z),
                x,
                jac=True,
                method="L-BFGS-B",
                bounds=self.bounds,
                options={"maxiter": cfg.max_inner, "ftol": 1e-14, "gtol": cfg.opt_tol},
            )
            f, _ = self.objective(res.x)
            kkt, _ = self._kkt_residual(res.x, multipliers, [])
            return SolverResult(res.x, "converged", f, 0, int(res.nit), 0.0, kkt)

        status = "max-iterations"
        outer = 0
        feasible_objectives: list[float] = []
        trace: list[dict] = []
        kkt = np.inf
        for outer in range(1, cfg.max_outer + 1):
            res = minimize(
                lambda z: self._al_value_grad(z, multipliers, rho),
                x,
                jac=True,
                method="L-BFGS-B",
                bounds=self.bounds,
                options={
                    "maxiter": cfg.max_inner,
                    "ftol": 1e-14,
                    "gtol": max(omega, 0.1 * cfg.opt_tol),
                },
            )
            x = res.x
            inner_total += int(res.nit)
            evals = self._eval_blocks(x)
            viol, raw_viol, per_block = self._violations(evals)
            f, _ = self.objective(x)
            trace.append(_trace_entry(outer, rho, f, viol, raw_viol, res,
                                      per_block))
            if best is None or (raw_viol, f) < best[:2]:
                best = (raw_viol, f, x.copy(), dict(per_block), evals)

            small = viol <= max(eta, cfg.feas_tol)
            # Strictly inside the raw constraints counts even when the
            # cushioned residual is stalling on nonsmooth kinks.
            feasible = raw_viol <= cfg.feas_tol
            if small or feasible:
                for mult, (block, r, _) in zip(multipliers, evals):
                    if block.kind == INEQ:
                        np.copyto(mult, np.maximum(0.0, mult + rho * r))
                    else:
                        mult += rho * r
                kkt, kkt_scale = self._kkt_residual(x, multipliers, evals)
                if feasible:
                    feasible_objectives.append(f)
                    # Converged, or feasible with the objective no longer
                    # moving: locally non-improvable within tolerance.
                    if kkt <= cfg.opt_tol * kkt_scale or (
                        len(feasible_objectives) >= 3
                        and np.ptp(feasible_objectives[-3:])
                        <= cfg.opt_tol * max(1.0, abs(f))
                    ):
                        status = "converged"
                        break
            if small:
                eta = max(eta / rho**0.9, 0.1 * cfg.feas_tol)
                omega = max(omega / rho, 0.01 * cfg.opt_tol)
            else:
                rho = min(rho * cfg.rho_growth, cfg.rho_max)
                eta = max(1.0 / rho**0.1, cfg.feas_tol)
                omega = max(1.0 / rho, 0.01 * cfg.opt_tol)
                if rho >= cfg.rho_max and raw_viol > cfg.feas_tol:
                    stagnant = stagnant + 1 if viol >= 0.99 * prev_viol else 0
                    if stagnant >= 3:
                        status = "infeasible"
                        break
            prev_viol = viol

        _, raw_viol, per_block = self._violations(evals)
        f, _ = self.objective(x)
        if status != "converged" and best is not None and (raw_viol, f) > best[:2]:
            raw_viol, f, x, per_block, evals = best

        if status != "converged" and raw_viol > cfg.feas_tol and raw_viol <= 1e-2:
            # Near-feasible stall: hold the objective and push the iterate
            # into the cushioned interior; the raw constraints then hold
            # strictly.
            res = self._restore_feasibility(x)
            x2 = res.x
            inner_total += int(res.nit)
            evals2 = self._eval_blocks(x2)
            viol2, raw2, per_block2 = self._violations(evals2)
            f2, _ = self.objective(x2)
            trace.append(_trace_entry(outer, rho, f2, viol2, raw2, res,
                                      per_block2, restoration=True))
            if raw2 <= cfg.feas_tol:
                x, evals, raw_viol, per_block, f = x2, evals2, raw2, per_block2, f2
                status = "converged"

        if not np.isfinite(kkt):
            kkt, _ = self._kkt_residual(x, multipliers, evals)
        if (
            status == "max-iterations"
            and raw_viol > cfg.feas_tol * 100
            and rho >= cfg.rho_max
        ):
            status = "infeasible"
        return SolverResult(
            x, status, f, outer, inner_total, raw_viol, kkt, per_block, trace
        )

    def _restore_feasibility(self, x: np.ndarray):
        """Minimize the sum of squared violations with the objective frozen.

        Directions that improve the objective are blocked by shrinking its
        gradient direction out of the step: here we simply freeze variables
        the objective depends on by bounding them at their current values
        plus a small slack on the worsening side.  Returns the L-BFGS-B
        result.
        """
        cfg = self.config
        _, fgrad = self.objective(x)
        fgrad = np.asarray(fgrad)
        bounds = list(self.bounds) if self.bounds is not None else [
            (None, None)
        ] * x.size
        for i in np.nonzero(fgrad)[0]:
            lo, hi = bounds[i]
            slack = cfg.restore_objective_slack * max(1.0, abs(x[i]))
            if fgrad[i] > 0:
                hi = x[i] + slack if hi is None else min(hi, x[i] + slack)
            else:
                lo = x[i] - slack if lo is None else max(lo, x[i] - slack)
            bounds[i] = (lo, hi)

        def phi(z):
            # Target: raw residuals at most -delta, with delta well inside
            # each family's cushion so already-safe rows stay inactive.
            total = 0.0
            grad = np.zeros_like(z)
            for block, r, vjp in self._eval_blocks(z):
                if block.kind == INEQ:
                    gap = np.broadcast_to(
                        np.asarray(block.cushion_gap, dtype=float), r.shape
                    )
                    delta = np.minimum(0.5 * gap, 100.0 * cfg.feas_tol)
                    active = np.maximum(r - gap + delta, 0.0)
                else:
                    active = r
                total += float(active @ active)
                if np.any(active != 0.0):
                    grad += vjp(2.0 * active)
            return total, grad

        res = minimize(
            phi, x, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": cfg.max_inner, "ftol": 1e-18,
                     "gtol": 1e-14},
        )
        return res
