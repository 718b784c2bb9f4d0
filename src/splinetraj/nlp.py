"""Embedded constrained solver: augmented Lagrangian with a quasi-Newton core.

Constraints arrive as blocks of inequalities, each producing a residual
vector, feasible at <= 0, together with an adjoint callback that maps
residual weights to a gradient contribution.  The outer loop follows the
classic multiplier/penalty schedule; the inner bound-constrained minimization
is delegated to L-BFGS-B.  Only the outer loop sets the status; after it, a
solve that did not converge returns its best iterate.  The tolerances and
iteration limits are the module constants FEAS_TOL, OPT_TOL, MAX_OUTER
and MAX_INNER, not settings.  Everything is deterministic for fixed
inputs.

The blocks are equilibrated once per solve.  Each block b gets one fixed
scale s_b = sqrt(max(max |r_b(x0)|, 1e-12)) from its residuals at the
start x0, and the penalty, its gradient, the multiplier update and the
KKT residual read the rows r_b / s_b.  One rho then weights blocks whose
residuals differ by orders of magnitude (joint accelerations beside
clearances) without making the largest one a cliff for the first step of
each inner solve.  The square root is a compromise: dividing by the full
max |r_b(x0)| weights a large block down so far that the first inner
solve can trade it away and not recover.  The scales are positive, so the
feasible set is unchanged, and the violation measures, the best-iterate
rule and every status test read the unscaled rows.

A converged solve stops through the KKT test or the flat-objective rule;
the result names which (``stop``), and the solve logs it once at INFO.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import minimize

__all__ = [
    "ConstraintBlock",
    "SolveOutcome",
    "SolverResult",
    "AugmentedLagrangianSolver",
]

log = logging.getLogger(__name__)


# Penalty schedule: rho starts at RHO_INIT and grows by RHO_GROWTH, up to
# RHO_MAX, on every outer iteration whose violation did not shrink enough.
RHO_INIT = 10.0
RHO_GROWTH = 10.0
RHO_MAX = 1e8
# Floor under max |r_b(x0)| in a block's scale, so a block at zero at the
# start (all rows exactly active) gets the finite scale 1e-6.
SCALE_FLOOR = 1e-12
# Thresholds on the raw violation and the projected KKT gradient, and the
# outer and per-inner-solve iteration limits; read when ``solve`` runs.
FEAS_TOL = 1e-6
OPT_TOL = 1e-5
MAX_OUTER = 50
MAX_INNER = 500


class ConstraintBlock:
    """One family of inequality constraints, feasible at <= 0.

    Subclasses set ``name``, ``n_rows`` (the length of every residual
    vector, fixed at construction) and implement evaluate(x) returning
    (residuals, vjp) where vjp maps a weight vector over the residuals to
    a gradient contribution over x.

    ``cushion_gap`` is the constant strictness margin baked into the
    residuals (residual = raw constraint + gap).  The solver minimizes the
    cushioned form but judges feasibility on the raw constraint, so a
    stall inside the cushion still yields a strictly feasible solution.

    ``dense_violation`` measures the underlying continuous constraint at
    dense parameters; a verified solution reads exactly zero there.
    """

    name: str = "block"
    n_rows: int = 0
    cushion_gap: float = 0.0

    def evaluate(self, x: np.ndarray):
        raise NotImplementedError

    def dense_violation(self, samples) -> float:
        """Worst violation of the continuous constraint at the parameters
        ``samples.taus``, read from ``samples``, the decision sampled
        there (``planner.TrajectorySamples``)."""
        raise NotImplementedError

    def violation(self, residuals: np.ndarray) -> float:
        return float(np.maximum(residuals, 0.0).max(initial=0.0))

    def raw_violation(self, residuals: np.ndarray) -> float:
        return float(
            np.maximum(residuals - self.cushion_gap, 0.0).max(initial=0.0)
        )


def _trace_entry(outer, rho, f, viol, raw_viol, res, per_block) -> dict:
    """One record of the solver trace, also logged at INFO."""
    log.info("outer %d: rho=%.3g objective=%.9g violation=%.3e raw=%.3e "
             "inner=%d (%s)", outer, rho, f, viol, raw_viol, res.nit,
             res.message)
    return {"outer": outer, "rho": rho, "objective": f, "violation": viol,
            "raw_violation": raw_viol, "inner_iterations": int(res.nit),
            "lbfgsb_message": str(res.message),
            "block_violations": dict(per_block)}


@dataclass
class SolveOutcome:
    """How a solve ended, declared once for every record that reports it:
    ``SolverResult`` adds the solver's point ``x``,
    ``planner.Solution`` the trajectory and how its start was found, and
    ``cli.RunReport`` the run's name, wall time and verification.  Each is
    built from the one before it with ``outcome()``.

    ``status``: converged, max-iterations (the outer limit ran out,
    whatever the violation), infeasible (the violation stopped shrinking at
    the largest penalty) or stalled (it did, but each of those inner solves
    failed its first line search and took no step).  ``max_violation`` and
    ``block_violations`` are the raw violations of the returned point, in
    all and per block.  ``trace`` holds one record per outer iteration,
    ``block_scales`` maps each block's name to its fixed scale s_b, and
    ``stop`` names the test that ended a converged solve (``kkt`` or
    ``flat_objective``; None otherwise) with the KKT residual of the
    returned point and its scale."""

    status: str
    objective: float
    outer_iterations: int
    inner_iterations: int
    max_violation: float
    kkt_residual: float
    block_violations: dict[str, float] = field(default_factory=dict)
    trace: list = field(default_factory=list)
    block_scales: dict[str, float] = field(default_factory=dict)
    stop: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def outcome(self) -> dict:
        """The outcome fields by name, each this record's own object: the
        keyword arguments that build the next record."""
        return {f.name: getattr(self, f.name) for f in fields(SolveOutcome)}


@dataclass(kw_only=True)
class SolverResult(SolveOutcome):
    """A solve's outcome and the point ``x`` it returns.  Unless
    converged, ``x`` is the iterate of least raw violation, then least
    objective."""

    x: np.ndarray


class AugmentedLagrangianSolver:
    """Method of multipliers over constraint blocks with box-bounded variables."""

    def __init__(self, objective, blocks, bounds=None):
        """
        Args:
            objective: Callable x -> (value, gradient).
            blocks: Constraint blocks; may be empty.
            bounds: Optional ``scipy.optimize.Bounds`` on the variables,
                handed to L-BFGS-B as given.
        """
        self.objective = objective
        self.blocks = list(blocks)
        self.bounds = bounds

    def _eval_blocks(self, x: np.ndarray):
        out = []
        for block in self.blocks:
            r, vjp = block.evaluate(x)
            if not np.isfinite(r).all():
                raise FloatingPointError(
                    f"non-finite residual in constraint family {block.name!r}"
                )
            out.append((block, r, vjp))
        return out

    @staticmethod
    def _block_scales(evals) -> list[float]:
        """One fixed positive scale per block from its residuals at the
        start: sqrt(max(max |r_b|, SCALE_FLOOR))."""
        return [float(np.sqrt(max(float(np.abs(r).max(initial=0.0)),
                                  SCALE_FLOOR)))
                for _, r, _ in evals]

    @staticmethod
    def _scaled_multipliers(multipliers, rho):
        """Per block: mult / rho and its squared norm.  Both are fixed for
        one inner solve."""
        out = []
        for mult in multipliers:
            scaled = mult / rho
            out.append((scaled, scaled @ scaled))
        return out

    def _al_value_grad(self, x, rho, scaled, scales):
        """Augmented Lagrangian value and gradient over the rows r_b / s_b;
        ``scaled`` is ``_scaled_multipliers(multipliers, rho)`` and
        ``scales`` the blocks' s_b."""
        f, g = self.objective(x)
        total = f
        grad = np.array(g, dtype=float)
        for (_, r, vjp), (m_rho, m_rho_sq), s in zip(
                self._eval_blocks(x), scaled, scales):
            shifted = np.maximum(0.0, m_rho + r / s)
            total += 0.5 * rho * float(shifted @ shifted - m_rho_sq)
            w = rho * shifted
            if (w != 0.0).any():
                grad += vjp(w / s)
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

    def _kkt_residual(self, x, multipliers, evals, scales) -> tuple[float, float]:
        """Projected Lagrangian gradient norm and the scale of its terms.

        The multipliers belong to the rows r_b / s_b.  The scale (largest
        gradient term being balanced) turns the optimality test into a
        relative one; an absolute test is unattainable when
        active-constraint gradients are large.
        """
        _, grad = self.objective(x)
        grad = np.array(grad, dtype=float)
        scale = max(1.0, float(np.abs(grad).max(initial=0.0)))
        for (_, _, vjp), mult, s in zip(evals, multipliers, scales):
            if (mult != 0.0).any():
                term = vjp(mult / s)
                scale = max(scale, float(np.abs(term).max(initial=0.0)))
                grad += term
        if self.bounds is not None:
            at_lo = x <= self.bounds.lb + 1e-12
            at_hi = x >= self.bounds.ub - 1e-12
            grad[at_lo] = np.minimum(grad[at_lo], 0.0)
            grad[at_hi] = np.maximum(grad[at_hi], 0.0)
        return float(np.abs(grad).max(initial=0.0)), scale

    def solve(self, x0: np.ndarray) -> SolverResult:
        """Method of multipliers from x0.

        The blocks are evaluated once per outer iterate; that one
        evaluation feeds the violation measures, the multiplier update
        and the KKT residual.  The evaluation at x0 fixes the block
        scales for the whole solve, and the violations and objective
        reported are those the returned iterate's outer iteration computed.
        """
        x = np.array(x0, dtype=float)
        evals = self._eval_blocks(x)
        scales = self._block_scales(evals)
        block_scales = {b.name: s for b, s in zip(self.blocks, scales)}
        log.info("block scales: %s", ", ".join(
            f"{name}={s:.3g}" for name, s in block_scales.items()))
        multipliers = [np.zeros(len(r)) for _, r, _ in evals]
        rho = RHO_INIT
        omega = 1.0 / rho
        eta = 1.0 / rho**0.1
        inner_total = 0
        best = None
        stagnant = 0
        no_steps = 0  # stagnant inner solves that failed their first line search
        prev_viol = np.inf

        status = "max-iterations"
        outer = 0
        feasible_objectives: list[float] = []
        trace: list[dict] = []
        kkt, kkt_scale = np.inf, 1.0
        stop_test = None
        for outer in range(1, MAX_OUTER + 1):
            scaled = self._scaled_multipliers(multipliers, rho)
            res = minimize(
                lambda z: self._al_value_grad(z, rho, scaled, scales),
                x,
                jac=True,
                method="L-BFGS-B",
                bounds=self.bounds,
                options={
                    "maxiter": MAX_INNER,
                    "ftol": 1e-14,
                    "gtol": max(omega, 0.1 * OPT_TOL),
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

            small = viol <= max(eta, FEAS_TOL)
            # Strictly inside the raw constraints counts even when the
            # cushioned residual is stalling on nonsmooth kinks.
            feasible = raw_viol <= FEAS_TOL
            if small or feasible:
                for mult, (_, r, _), s in zip(multipliers, evals, scales):
                    np.copyto(mult, np.maximum(0.0, mult + rho * r / s))
                kkt, kkt_scale = self._kkt_residual(x, multipliers, evals,
                                                    scales)
                if feasible:
                    feasible_objectives.append(f)
                    # Converged, or feasible with the objective no longer
                    # moving: locally non-improvable within tolerance.
                    if kkt <= OPT_TOL * kkt_scale:
                        stop_test = "kkt"
                    elif (len(feasible_objectives) >= 3
                          and np.ptp(feasible_objectives[-3:])
                          <= OPT_TOL * max(1.0, abs(f))):
                        stop_test = "flat_objective"
                    if stop_test is not None:
                        status = "converged"
                        break
            if small:
                eta = max(eta / rho**0.9, 0.1 * FEAS_TOL)
                omega = max(omega / rho, 0.01 * OPT_TOL)
            else:
                rho = min(rho * RHO_GROWTH, RHO_MAX)
                eta = max(1.0 / rho**0.1, FEAS_TOL)
                omega = max(1.0 / rho, 0.01 * OPT_TOL)
                if rho >= RHO_MAX and raw_viol > FEAS_TOL:
                    if viol >= 0.99 * prev_viol:
                        stagnant += 1
                        no_steps += (res.nit == 0
                                     and str(res.message).startswith("ABNORMAL"))
                    else:
                        stagnant = no_steps = 0
                    if stagnant >= 3:
                        status = "stalled" if no_steps == stagnant else "infeasible"
                        break
            prev_viol = viol

        if status != "converged" and (raw_viol, f) > best[:2]:
            raw_viol, f, x, per_block, evals = best

        # A converged solve computed the residual at x; any other may
        # return an earlier iterate than the last one it computed it at.
        if status != "converged":
            kkt, kkt_scale = self._kkt_residual(x, multipliers, evals, scales)
        stop = {"test": stop_test, "kkt_residual": kkt, "kkt_scale": kkt_scale}
        log.info("stop: %s, kkt residual %.3e, scale %.3g", stop_test, kkt,
                 kkt_scale)
        return SolverResult(status, f, outer, inner_total, raw_viol, kkt,
                            per_block, trace, block_scales, stop, x=x)
