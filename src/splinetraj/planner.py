"""Minimum-time NLP assembly in relaxed coefficient space, solve, and verify.

The decision vector holds the free trajectory control points, the total
travel time T, and separating-plane spline coefficients.  The clamped basis
makes the boundary conditions equivalent to pinning the first and last
three control rows, which are eliminated rather than constrained, so
endpoint equalities hold exactly.

Every continuous constraint is relaxed to conditions on control points of
composed B-splines.  The separating-plane families compute those control
points exactly, per span in Bernstein form (see ``bernstein``).  The limit
and dynamics families apply a fixed least-squares fit operator to
pointwise values of the underlying expressions; since the fit is linear,
this is the same spline the algebra would build, at a fraction of the
cost.  Both routes are linear in the last step and supply exact adjoints
for analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bernstein import (
    ChainNumerators,
    bezier_extraction,
    left_inverse,
    product,
    product_vjp,
    to_spans,
)
from .bspline import BSpline, KnotVector, basis_matrix
from .collision import ObstaclePrimitive, SignedDistanceField, build_sdf
from .kinematics import NumericFK, recover_theta
from .nlp import (
    EQ,
    INEQ,
    AugmentedLagrangianSolver,
    ConstraintBlock,
    SolverConfig,
)
from .scenario import ChainRobot, Scenario
from .spline_algebra import FitOperator, collocation_sites, elevated_union

__all__ = [
    "DecisionVector",
    "PlanningProblem",
    "Solution",
    "VerificationReport",
    "assemble",
    "initial_guess",
    "solve",
    "verify",
]


class AssemblyError(ValueError):
    """Scenario cannot be assembled into a consistent problem."""


@dataclass
class DecisionVector:
    """Full coefficient matrix, travel time, and plane spline coefficients."""

    joint_coeffs: np.ndarray  # (n_coeffs, n_coords)
    T: float
    plane_coeffs: list  # per plane: (a (n_coeffs, world_dim), b (n_coeffs,))

    def copy(self) -> "DecisionVector":
        return DecisionVector(
            self.joint_coeffs.copy(),
            self.T,
            [(a.copy(), b.copy()) for a, b in self.plane_coeffs],
        )

    def to_json(self) -> dict:
        return {
            "joint_coeffs": self.joint_coeffs.tolist(),
            "T": self.T,
            "planes": [
                {"a": a.tolist(), "b": b.tolist()} for a, b in self.plane_coeffs
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DecisionVector":
        return cls(
            np.asarray(obj["joint_coeffs"], dtype=float),
            float(obj["T"]),
            [
                (np.asarray(p["a"], dtype=float), np.asarray(p["b"], dtype=float))
                for p in obj["planes"]
            ],
        )


class TrajectoryBasis:
    """Shared clamped basis with closed-form derivative coefficient maps."""

    def __init__(self, degree: int, knots: KnotVector):
        if degree < 3:
            raise AssemblyError("planner requires basis degree >= 3")
        self.degree = degree
        self.knots = knots
        self.n_coeffs = len(knots) - degree - 1
        if self.n_coeffs < 7:
            raise AssemblyError("need at least 7 control points (6 are pinned)")
        self.D1, self.knots1 = self._derivative_map(knots, degree)
        self.D2_from_1, self.knots2 = self._derivative_map(self.knots1, degree - 1)
        self.D2 = self.D2_from_1 @ self.D1

    @staticmethod
    def _derivative_map(knots: KnotVector, degree: int):
        u = knots.values
        n = len(u) - degree - 1
        D = np.zeros((n - 1, n))
        for i in range(n - 1):
            span = u[i + degree + 1] - u[i + 1]
            if span > 0.0:
                D[i, i] = -degree / span
                D[i, i + 1] = degree / span
        return D, KnotVector(u[1:-1])

    def greville(self) -> np.ndarray:
        u = self.knots.values
        p = self.degree
        return np.array([u[i + 1 : i + p + 1].mean() for i in range(self.n_coeffs)])


class VariableLayout:
    """Mapping between the packed solver vector and DecisionVector.

    The first/last three control rows are pinned to the boundary values and
    never enter the solver vector.
    """

    def __init__(self, n_coeffs: int, n_coords: int, world_dim: int,
                 n_planes: int, top_rows: np.ndarray, bottom_rows: np.ndarray):
        self.n_coeffs = n_coeffs
        self.n_coords = n_coords
        self.world_dim = world_dim
        self.n_planes = n_planes
        self.top_rows = top_rows
        self.bottom_rows = bottom_rows
        self.free_rows = n_coeffs - 6
        self.n_free_c = self.free_rows * n_coords
        self.idx_T = self.n_free_c
        self.plane_size = n_coeffs * (world_dim + 1)
        self.n_x = self.n_free_c + 1 + n_planes * self.plane_size

    def unpack(self, x: np.ndarray) -> DecisionVector:
        C = np.vstack(
            [
                self.top_rows,
                x[: self.n_free_c].reshape(self.free_rows, self.n_coords),
                self.bottom_rows,
            ]
        )
        T = float(x[self.idx_T])
        planes = []
        off = self.idx_T + 1
        for _ in range(self.n_planes):
            a = x[off : off + self.n_coeffs * self.world_dim].reshape(
                self.n_coeffs, self.world_dim
            )
            off += self.n_coeffs * self.world_dim
            b = x[off : off + self.n_coeffs]
            off += self.n_coeffs
            planes.append((a, b))
        return DecisionVector(C, T, planes)

    def pack(self, dv: DecisionVector) -> np.ndarray:
        x = np.zeros(self.n_x)
        x[: self.n_free_c] = dv.joint_coeffs[3:-3].reshape(-1)
        x[self.idx_T] = dv.T
        off = self.idx_T + 1
        for a, b in dv.plane_coeffs:
            x[off : off + a.size] = a.reshape(-1)
            off += a.size
            x[off : off + b.size] = b
            off += b.size
        return x

    def grad(self, dC: np.ndarray | None = None, dT: float = 0.0,
             dplanes: dict | None = None) -> np.ndarray:
        g = np.zeros(self.n_x)
        if dC is not None:
            g[: self.n_free_c] = dC[3:-3].reshape(-1)
        g[self.idx_T] = dT
        if dplanes:
            for k, (da, db) in dplanes.items():
                off = self.idx_T + 1 + k * self.plane_size
                if da is not None:
                    g[off : off + da.size] += da.reshape(-1)
                if db is not None:
                    g[off + self.n_coeffs * self.world_dim : off + self.plane_size] += db
        return g

    def bounds(self, t_min: float):
        out = [(None, None)] * self.n_x
        out[self.idx_T] = (t_min, None)
        return out


def _family_sites(knots: KnotVector, degree: int, samples_per_span: int = None):
    s = samples_per_span if samples_per_span is not None else 4 * (degree + 1)
    return collocation_sites(knots, degree, s)


# ---------------------------------------------------------------------------
# Constraint families
# ---------------------------------------------------------------------------


class DerivBoxFamily(ConstraintBlock):
    """Coefficient box on derivative rows: |D C| <= bound * T^power.

    The literal Eq-8-style relaxation for coordinates that are themselves
    physical positions (mobile robots, prismatic offsets).  The cushion is
    multiplicative so converged solutions satisfy the raw bound strictly.
    """

    kind = INEQ

    def __init__(self, name, layout: VariableLayout, D: np.ndarray,
                 bound: np.ndarray, power: int, cushion: float, t_guess: float):
        self.name = name
        self.layout = layout
        self.D = D
        self.bound = bound
        self.raw_bound = bound
        self.power = power
        gap_row = cushion * bound * t_guess**power
        self.cushion_gap = np.tile(
            np.tile(gap_row, D.shape[0]), 2
        )
        self.n_rows = self.cushion_gap.size

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        dC = self.D @ dv.joint_coeffs
        Tp = dv.T**self.power
        upper = dC - self.bound[None, :] * Tp
        lower = -dC - self.bound[None, :] * Tp
        r = np.concatenate([upper.reshape(-1), lower.reshape(-1)]) + self.cushion_gap

        def vjp(w):
            m = dC.shape[0]
            wu = w[: m * self.layout.n_coords].reshape(dC.shape)
            wl = w[m * self.layout.n_coords :].reshape(dC.shape)
            gC = self.D.T @ (wu - wl)
            gT = float(
                -(self.power * dv.T ** (self.power - 1))
                * ((wu + wl) * self.bound[None, :]).sum()
            )
            return self.layout.grad(dC=gC, dT=gT)

        return r, vjp

    def dense_violation(self, dv: DecisionVector, splines, taus) -> float:
        worst = 0.0
        for j, s in enumerate(splines):
            d = s
            for _ in range(self.power):
                d = d.derivative()
            vals = d.eval(taus)[:, 0] / dv.T**self.power
            worst = max(worst, float(np.maximum(np.abs(vals) - self.raw_bound[j], 0.0).max()))
        return worst


class CoeffBoxFamily(ConstraintBlock):
    """Box on the control rows themselves (angle or position limits)."""

    kind = INEQ

    def __init__(self, name, layout, lo: np.ndarray, hi: np.ndarray, cushion: float,
                 raw_lo=None, raw_hi=None, angle_depths=None):
        self.name = name
        self.layout = layout
        span = np.where(
            np.isfinite(hi) & np.isfinite(lo), np.maximum(hi - lo, 1.0), 1.0
        )
        inset = cushion * span
        self.lo = lo + inset
        self.hi = hi - inset
        self.raw_lo = lo if raw_lo is None else raw_lo
        self.raw_hi = hi if raw_hi is None else raw_hi
        self.angle_depths = angle_depths
        self.mask_lo = np.isfinite(lo)
        self.mask_hi = np.isfinite(hi)
        n = layout.n_coeffs
        self.cushion_gap = np.concatenate(
            [np.tile(inset[self.mask_hi], n), np.tile(inset[self.mask_lo], n)]
        )
        self.n_rows = self.cushion_gap.size

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        C = dv.joint_coeffs
        upper = (C - self.hi[None, :])[:, self.mask_hi]
        lower = (self.lo[None, :] - C)[:, self.mask_lo]
        r = np.concatenate([upper.reshape(-1), lower.reshape(-1)])

        def vjp(w):
            gC = np.zeros_like(C)
            nu = upper.size
            wu = w[:nu].reshape(upper.shape)
            wl = w[nu:].reshape(lower.shape)
            gC[:, self.mask_hi] += wu
            gC[:, self.mask_lo] -= wl
            return self.layout.grad(dC=gC)

        return r, vjp

    def dense_violation(self, dv, splines, taus) -> float:
        worst = 0.0
        for j, s in enumerate(splines):
            vals = s.eval(taus)[:, 0]
            if self.angle_depths is not None:
                vals = (2.0 ** self.angle_depths[j]) * np.arctan(vals)
            if np.isfinite(self.raw_hi[j]):
                worst = max(worst, float(np.maximum(vals - self.raw_hi[j], 0.0).max()))
            if np.isfinite(self.raw_lo[j]):
                worst = max(worst, float(np.maximum(self.raw_lo[j] - vals, 0.0).max()))
        return worst


class ChainRateFamily(ConstraintBlock):
    """Hull-relaxed joint velocity limits through the half-angle substitution.

    theta_dot = 2^n q' / (T (1 + q^2)); clearing the positive denominator
    gives the polynomial spline 2^n q' -+ v T (1 + q^2), whose control
    points on a basis representing it exactly are constrained by sign.
    """

    kind = INEQ

    def __init__(self, name, layout, basis: TrajectoryBasis, depths,
                 bound: np.ndarray, cushion: float, t_guess: float):
        self.name = name
        self.layout = layout
        self.depths = depths
        self.bound = bound
        self.raw_bound = bound
        knots = elevated_union([(basis.knots, basis.degree - 1)], 2 * basis.degree)
        self.op = FitOperator(2 * basis.degree, knots,
                              _family_sites(knots, 2 * basis.degree))
        taus = self.op.taus
        self.Bq = basis_matrix(basis.knots, basis.degree, taus)
        self.Bdq = basis_matrix(basis.knots1, basis.degree - 1, taus) @ basis.D1
        self.factors = np.array([2.0**d for d in depths])
        gap = cushion * bound * t_guess
        self.cushion_gap = np.repeat(
            np.concatenate([gap, gap]), self.op.n_coefficients
        )
        self.n_rows = self.cushion_gap.size

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        C, T = dv.joint_coeffs, dv.T
        q = self.Bq @ C
        dq = self.Bdq @ C
        W = 1.0 + q * q
        f = self.factors[None, :]
        vT = self.bound[None, :] * T
        gup = f * dq - vT * W
        glo = -f * dq - vT * W
        coeffs = self.op.fit_coefficients(np.hstack([gup, glo]))
        r = coeffs.T.reshape(-1) + self.cushion_gap

        def vjp(w):
            ncols = 2 * self.layout.n_coords
            Wmat = w.reshape(ncols, self.op.n_coefficients).T
            V = self.op.adjoint_apply(Wmat)
            vu = V[:, : self.layout.n_coords]
            vl = V[:, self.layout.n_coords :]
            gC = (
                self.Bdq.T @ (f * (vu - vl))
                - self.Bq.T @ (vT * 2.0 * q * (vu + vl))
            )
            gT = float(-((vu + vl) * self.bound[None, :] * W).sum())
            return self.layout.grad(dC=gC, dT=gT)

        return r, vjp

    def dense_violation(self, dv, splines, taus) -> float:
        worst = 0.0
        for j, s in enumerate(splines):
            q = s.eval(taus)[:, 0]
            qd = s.derivative().eval(taus)[:, 0]
            theta_dot = self.factors[j] * qd / (dv.T * (1.0 + q * q))
            worst = max(
                worst, float(np.maximum(np.abs(theta_dot) - self.raw_bound[j], 0.0).max())
            )
        return worst


class ChainAccelFamily(ConstraintBlock):
    """Hull-relaxed joint acceleration limits (denominator cleared twice).

    theta_ddot * T^2 * (1+q^2)^2 = 2^n [q'' (1+q^2) - 2 q q'^2]; the family
    spline is that expression minus a T^2 (1+q^2)^2 for each sign.
    """

    kind = INEQ

    def __init__(self, name, layout, basis: TrajectoryBasis, depths,
                 bound: np.ndarray, cushion: float, t_guess: float):
        self.name = name
        self.layout = layout
        self.bound = bound
        self.raw_bound = bound
        deg = 4 * basis.degree
        knots = elevated_union([(basis.knots, basis.degree - 2)], deg)
        self.op = FitOperator(deg, knots, _family_sites(knots, deg))
        taus = self.op.taus
        self.Bq = basis_matrix(basis.knots, basis.degree, taus)
        self.Bdq = basis_matrix(basis.knots1, basis.degree - 1, taus) @ basis.D1
        self.Bddq = basis_matrix(basis.knots2, basis.degree - 2, taus) @ basis.D2
        self.factors = np.array([2.0**d for d in depths])
        gap = cushion * bound * t_guess**2
        self.cushion_gap = np.repeat(
            np.concatenate([gap, gap]), self.op.n_coefficients
        )
        self.n_rows = self.cushion_gap.size

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        C, T = dv.joint_coeffs, dv.T
        q = self.Bq @ C
        dq = self.Bdq @ C
        ddq = self.Bddq @ C
        W = 1.0 + q * q
        f = self.factors[None, :]
        E = f * (ddq * W - 2.0 * q * dq * dq)
        aT2W2 = self.bound[None, :] * (T * T) * W * W
        coeffs = self.op.fit_coefficients(np.hstack([E - aT2W2, -E - aT2W2]))
        r = coeffs.T.reshape(-1) + self.cushion_gap

        def vjp(w):
            ncols = 2 * self.layout.n_coords
            Wmat = w.reshape(ncols, self.op.n_coefficients).T
            V = self.op.adjoint_apply(Wmat)
            vu = V[:, : self.layout.n_coords]
            vl = V[:, self.layout.n_coords :]
            s = vu - vl
            t = vu + vl
            dE_dq = f * (2.0 * q * ddq - 2.0 * dq * dq)
            dE_ddq = -4.0 * f * q * dq
            dE_dddq = f * W
            dA_dq = self.bound[None, :] * (T * T) * 4.0 * W * q
            gC = (
                self.Bq.T @ (s * dE_dq - t * dA_dq)
                + self.Bdq.T @ (s * dE_ddq)
                + self.Bddq.T @ (s * dE_dddq)
            )
            gT = float(-(t * self.bound[None, :] * 2.0 * T * W * W).sum())
            return self.layout.grad(dC=gC, dT=gT)

        return r, vjp

    def dense_violation(self, dv, splines, taus) -> float:
        worst = 0.0
        for j, s in enumerate(splines):
            q = s.eval(taus)[:, 0]
            qd = s.derivative().eval(taus)[:, 0]
            qdd = s.derivative().derivative().eval(taus)[:, 0]
            W = 1.0 + q * q
            theta_dd = self.factors[j] * (qdd * W - 2.0 * q * qd * qd) / (
                dv.T**2 * W * W
            )
            worst = max(
                worst,
                float(np.maximum(np.abs(theta_dd) - self.raw_bound[j], 0.0).max()),
            )
        return worst


@dataclass(frozen=True)
class TrackedBody:
    """A set of points whose workspace clearance is enforced."""

    name: str
    link_index: int  # 0 for the mobile body
    verts: np.ndarray  # (V, 3) local vertices; mobile body uses a zero row
    radius: float
    speed_bound: float  # workspace speed bound for the margin rule
    accel_bound: float  # workspace acceleration bound (endpoint margin refinement)


class SDFClearanceFamily(ConstraintBlock):
    """Signed-distance clearance at collocation parameters with motion margin.

    One inequality per tracked point per parameter: the interpolated field
    value must exceed margin(tau, T) + radius + cushion.  The margin covers
    inter-sample motion: a point between samples moved at most (local speed
    bound) x (half the sample gap), where the local speed bound is the
    smaller of the velocity-limit bound and the acceleration-limit bound
    from the rest endpoints - trajectories start and end at zero velocity,
    so endpoint samples need far less margin than the interior.
    """

    kind = INEQ

    def __init__(self, name, layout, field: SignedDistanceField, taus,
                 bodies, lipschitz: float, cushion_abs: float,
                 fixed_margin: float | None, basis: TrajectoryBasis,
                 nfk: NumericFK | None):
        self.name = name
        self.layout = layout
        self.field = field
        self.taus = np.asarray(taus, dtype=float)
        self.bodies = list(bodies)
        self.lipschitz = lipschitz
        self.cushion = cushion_abs
        self.cushion_gap = cushion_abs
        self.fixed_margin = fixed_margin
        gaps = np.diff(self.taus)
        half = np.zeros_like(self.taus)
        half[:-1] = np.maximum(half[:-1], 0.5 * gaps)
        half[1:] = np.maximum(half[1:], 0.5 * gaps)
        self._half_gap = half
        self.Bpos = basis_matrix(basis.knots, basis.degree, self.taus)
        self.nfk = nfk
        self.n_rows = self.taus.size * sum(b.verts.shape[0] for b in self.bodies)

    def margin(self, body: TrackedBody, T: float) -> np.ndarray:
        """Per-sample clearance margin (meters)."""
        if self.fixed_margin is not None:
            return np.full(self.taus.size, self.fixed_margin)
        h = self._half_gap * T
        local_speed = np.minimum(
            body.speed_bound,
            np.minimum(
                body.accel_bound * (self.taus * T + h),
                body.accel_bound * ((1.0 - self.taus) * T + h),
            ),
        )
        return self.lipschitz * local_speed * h

    def margin_dT(self, body: TrackedBody, T: float) -> np.ndarray:
        if self.fixed_margin is not None:
            return np.zeros(self.taus.size)
        h = self._half_gap * T
        cap_lo = body.accel_bound * (self.taus * T + h)
        cap_hi = body.accel_bound * ((1.0 - self.taus) * T + h)
        local_speed = np.minimum(body.speed_bound, np.minimum(cap_lo, cap_hi))
        dspeed = np.where(
            local_speed >= body.speed_bound,
            0.0,
            np.where(
                cap_lo <= cap_hi,
                body.accel_bound * (self.taus + self._half_gap),
                body.accel_bound * (1.0 - self.taus + self._half_gap),
            ),
        )
        return self.lipschitz * self._half_gap * (local_speed + dspeed * T)

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        if self.nfk is None:
            positions = [(self.Bpos @ dv.joint_coeffs)[:, None, :]]
            state = None
        else:
            qmat = self.Bpos @ dv.joint_coeffs
            state = self.nfk.shared_state(qmat, with_grad=True)
            positions = [
                self.nfk.body_positions(state, body.link_index, body.verts)
                for body in self.bodies
            ]
        flat = np.concatenate(
            [p.reshape(-1, p.shape[2])[:, : self.field.dim] for p in positions]
        )
        vals, grads = self.field.query_extended(flat)
        residuals = []
        off = 0
        for body, pos in zip(self.bodies, positions):
            S, V = pos.shape[0], pos.shape[1]
            m = np.repeat(self.margin(body, dv.T), V)
            residuals.append(m + body.radius + self.cushion - vals[off : off + S * V])
            off += S * V
        r = np.concatenate(residuals)

        def vjp(w):
            gC = np.zeros_like(dv.joint_coeffs)
            gT = 0.0
            off = 0
            for body, pos in zip(self.bodies, positions):
                S, V, _ = pos.shape
                wb = w[off : off + S * V].reshape(S, V)
                g = grads[off : off + S * V].reshape(S, V, self.field.dim)
                off += S * V
                gT += float(self.margin_dT(body, dv.T) @ wb.sum(axis=1))
                # d(residual)/d(pos) = -grad_sdf
                wpos = -wb[:, :, None] * g
                if self.nfk is None:
                    gC += self.Bpos.T @ wpos[:, 0, : self.layout.n_coords]
                else:
                    dpos = self.nfk.body_position_grads(
                        state, body.link_index, body.verts
                    )
                    for j in range(body.link_index):
                        contrib = (
                            wpos * dpos[j][:, :, : self.field.dim]
                        ).sum(axis=(1, 2))
                        gC[:, j] += self.Bpos.T @ contrib
            return self.layout.grad(dC=gC, dT=gT)

        return r, vjp

    def dense_violation(self, dv, splines, taus) -> float:
        worst = 0.0
        if self.nfk is None:
            pos = np.column_stack([s.eval(taus)[:, 0] for s in splines])
            vals, _ = self.field.query_extended(pos)
            return float(np.maximum(self.bodies[0].radius - vals, 0.0).max())
        qmat = np.column_stack([s.eval(taus)[:, 0] for s in splines])
        for body in self.bodies:
            state = self.nfk.chain_state(qmat, body.link_index)
            pos = self.nfk.vertex_positions(state, body.verts)
            S, V, _ = pos.shape
            vals, _ = self.field.query_extended(
                pos.reshape(S * V, 3)[:, : self.field.dim]
            )
            worst = max(worst, float(np.maximum(body.radius - vals, 0.0).max()))
        return worst


class FKSiteCache:
    """Per-iterate cache of the exact per-span prefix products of the chain,
    shared by the robot-side plane families at the same decision vector."""

    def __init__(self, chain: ChainNumerators):
        self.chain = chain
        self._key = None
        self._state = None

    def state(self, joint_coeffs: np.ndarray):
        key = joint_coeffs.tobytes()
        if key != self._key:
            self._state = self.chain.forward(joint_coeffs)
            self._key = key
        return self._state


class PlaneRobotSideFamily(ConstraintBlock):
    """Family (i): den_j * b + a . num_j >= cushion on control points.

    The rows are the coefficients of den_j (b + a . pos_j) on the space of
    degree p + sum_j p 2^d_j that represents it exactly, computed per span
    in Bernstein form from the prefix products of the link numerators.
    """

    kind = INEQ

    def __init__(self, name, layout, basis: TrajectoryBasis, plane_index: int,
                 body: TrackedBody, nfk: NumericFK | None, cushion: float,
                 fk_cache: "FKSiteCache | None"):
        self.name = name
        self.layout = layout
        self.plane_index = plane_index
        self.body = body
        self.nfk = nfk
        self.cushion = cushion
        self.cushion_gap = cushion
        self.fk_cache = fk_cache
        p = basis.degree
        if nfk is None:
            target = 2 * p
            self.hom = None
        else:
            depth_deg = sum(
                2 * p * (2 ** (nfk.depths[j] - 1)) for j in range(body.link_index)
            )
            target = depth_deg + p
            self.hom = np.hstack([body.verts, np.ones((body.verts.shape[0], 1))]).T
        self.lift = left_inverse(elevated_union([(basis.knots, p)], target), target)
        self.extraction = bezier_extraction(basis.knots, p)
        n_points = 1 if self.hom is None else self.hom.shape[1]
        self.n_rows = n_points * self.lift.shape[0]
        self._basis_knots = basis.knots
        self._basis_degree = basis.degree

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        p = self._basis_degree
        a_c, b_c = dv.plane_coeffs[self.plane_index]
        # (S, p + 1, 1, d + 1): the plane (a, b) as a row vector per span
        plane = to_spans(self.extraction, np.column_stack([a_c, b_c]), p)[:, :, None, :]
        if self.nfk is None:
            C = dv.joint_coeffs
            pts = to_spans(self.extraction, np.column_stack([C, np.ones(len(C))]),
                           p)[..., None]  # (S, p + 1, d + 1, 1)
            y = product(plane, pts) - self.body.radius
            state = None
        else:
            state = self.fk_cache.state(dv.joint_coeffs)
            pts = state["prefix"][self.body.link_index] @ self.hom  # (S, D + 1, 4, V)
            y = product(plane, pts)  # (S, D + p + 1, 1, V)
        V = y.shape[3]
        coeffs = self.lift @ y.reshape(-1, V)
        r = (self.cushion - coeffs).T.reshape(-1)

        def vjp(w):
            # minus from cushion - coeffs
            gy = -(self.lift.T @ w.reshape(V, -1).T).reshape(y.shape)
            gplane, gpts = product_vjp(plane, pts, gy)
            gab = self.extraction.T @ gplane.reshape(-1, gplane.shape[3])
            dplanes = {self.plane_index: (gab[:, :-1], gab[:, -1])}
            if self.nfk is None:
                gC = self.extraction.T @ gpts[:, :, :-1, 0].reshape(-1, pts.shape[2] - 1)
            else:
                gC = self.fk_cache.chain.vjp(state, self.body.link_index,
                                             gpts @ self.hom.T)
            return self.layout.grad(dC=gC, dplanes=dplanes)

        return r, vjp

    def dense_violation(self, dv, splines, taus) -> float:
        a_c, b_c = dv.plane_coeffs[self.plane_index]
        Bt = basis_matrix(self._basis_knots, self._basis_degree, taus)
        a = Bt @ a_c
        b = Bt @ b_c
        if self.nfk is None:
            pos = np.column_stack([s.eval(taus)[:, 0] for s in splines])
            y = (a * pos).sum(axis=1) + b - self.body.radius
            return float(np.maximum(-y, 0.0).max())
        qmat = np.column_stack([s.eval(taus)[:, 0] for s in splines])
        state = self.nfk.chain_state(qmat, self.body.link_index)
        pos = self.nfk.vertex_positions(state, self.body.verts)
        y = b[:, None] + np.einsum("sd,svd->sv", a, pos)
        return float(np.maximum(-y, 0.0).max())


class PlaneObstacleSideFamily(ConstraintBlock):
    """Family (ii): a . q_o + b + d_o <= -cushion (per corner for polytopes).

    The obstacle's corners are fixed polynomials per span, so the rows are
    a fixed linear map of the plane coefficients, built once from exact
    Bernstein products of the basis functions with the corners.
    """

    kind = INEQ

    def __init__(self, name, layout, basis: TrajectoryBasis, plane_index: int,
                 obstacle: ObstaclePrimitive, cushion: float):
        self.name = name
        self.layout = layout
        self.plane_index = plane_index
        self.obstacle = obstacle
        self.cushion = cushion
        self.cushion_gap = cushion
        self._basis_knots = basis.knots
        self._basis_degree = basis.degree
        p = basis.degree
        motion = obstacle.motion
        inputs = [(basis.knots, p)]
        if motion is not None:
            inputs.append((motion.knots, motion.degree))
            target = p + motion.degree
        else:
            target = p
        knots = elevated_union(inputs, target)
        breaks = knots.distinct()
        units = to_spans(bezier_extraction(basis.knots, p, breaks),
                         np.eye(basis.n_coeffs), p)  # (S, p + 1, n)
        if motion is None:
            centers = np.broadcast_to(obstacle.nominal_center(),
                                      (units.shape[0], 1, obstacle.dim))
        else:
            centers = to_spans(bezier_extraction(motion.knots, motion.degree, breaks),
                               motion.control_points, motion.degree)
        if obstacle.kind == "sphere":
            self.offsets = np.zeros((1, obstacle.dim))
            self.shift = obstacle.radius
        else:
            self.offsets = obstacle.corner_offsets()
            self.shift = 0.0
        corners = centers[..., None] + self.offsets.T  # (S, m + 1, d, K)
        ones = np.ones(corners.shape[:2] + (1, corners.shape[3]))
        corners = np.concatenate([corners, ones], axis=2)
        # Row (k, t) is linear in the plane coefficients (a_i, b_i): one
        # product per basis function i and plane component e.
        n, d1, K = basis.n_coeffs, corners.shape[2], corners.shape[3]
        planes = np.einsum("sji,ef->sjief", units, np.eye(d1)).reshape(
            units.shape[0], p + 1, n * d1, d1)
        y = product(planes, corners)  # (S, p + m + 1, n * d1, K)
        G = left_inverse(knots, target) @ y.reshape(-1, n * d1 * K)
        self.G = G.reshape(-1, n * d1, K).transpose(2, 0, 1).reshape(-1, n * d1)
        self.n_rows = self.G.shape[0]

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        a_c, b_c = dv.plane_coeffs[self.plane_index]
        r = self.G @ np.column_stack([a_c, b_c]).reshape(-1) + (self.shift + self.cushion)

        def vjp(w):
            gab = (w @ self.G).reshape(a_c.shape[0], -1)
            return self.layout.grad(
                dplanes={self.plane_index: (gab[:, :-1], gab[:, -1])}
            )

        return r, vjp

    def dense_violation(self, dv, splines, taus) -> float:
        a_c, b_c = dv.plane_coeffs[self.plane_index]
        Bt = basis_matrix(self._basis_knots, self._basis_degree, taus)
        a = Bt @ a_c
        b = Bt @ b_c
        centers = self.obstacle.center_at(taus)
        pts = centers[:, None, :] + self.offsets[None, :, :]
        y = np.einsum("sd,skd->sk", a, pts) + b[:, None] + self.shift
        return float(np.maximum(y, 0.0).max())


class PlaneNormFamily(ConstraintBlock):
    """Family (iii): |a|^2 - 1 <= -cushion on control points.

    Row t is the quadratic form sum_d a_d^T Q_t a_d, with Q_t built once
    from exact Bernstein products of pairs of basis functions.
    """

    kind = INEQ

    def __init__(self, name, layout, basis: TrajectoryBasis, plane_index: int,
                 cushion: float):
        self.name = name
        self.layout = layout
        self.plane_index = plane_index
        self.cushion = cushion
        self.cushion_gap = cushion
        self._basis_knots = basis.knots
        self._basis_degree = basis.degree
        p, n = basis.degree, basis.n_coeffs
        units = to_spans(bezier_extraction(basis.knots, p), np.eye(n), p)
        y = product(units[..., :, None], units[..., None, :])  # (S, 2p + 1, n, n)
        lift = left_inverse(elevated_union([(basis.knots, p)], 2 * p), 2 * p)
        self.Q = (lift @ y.reshape(-1, n * n)).reshape(-1, n, n)
        self.n_rows = self.Q.shape[0]

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        a_c, _ = dv.plane_coeffs[self.plane_index]
        Qa = self.Q @ a_c  # (rows, n, d)
        r = (Qa * a_c).sum(axis=(1, 2)) + (self.cushion - 1.0)

        def vjp(w):
            da = 2.0 * np.tensordot(w, Qa, axes=1)  # each Q_t is symmetric
            return self.layout.grad(dplanes={self.plane_index: (da, None)})

        return r, vjp

    def dense_violation(self, dv, splines, taus) -> float:
        a_c, _ = dv.plane_coeffs[self.plane_index]
        a = basis_matrix(self._basis_knots, self._basis_degree, taus) @ a_c
        return float(np.maximum((a * a).sum(axis=1) - 1.0, 0.0).max())


class DynamicsResidualFamily(ConstraintBlock):
    """Equality family: control points of q' - T f(q) pinned to zero.

    The solver holds the residual only to feas_tol, so verification
    accepts dense values up to that tolerance rather than exactly zero.
    """

    kind = EQ

    def __init__(self, name, layout, basis: TrajectoryBasis, poly,
                 feas_tol: float):
        self.name = name
        self.layout = layout
        self.verify_tol = max(feas_tol, 1e-9)
        self.poly = [np.asarray(row, dtype=float) for row in poly]
        p = basis.degree
        deg_f = max(len(row) - 1 for row in self.poly)
        target = max(p - 1, deg_f * p)
        knots = elevated_union([(basis.knots, p - 1)], target)
        self.op = FitOperator(target, knots, _family_sites(knots, target))
        taus = self.op.taus
        self.Bq = basis_matrix(basis.knots, p, taus)
        self.Bdq = basis_matrix(basis.knots1, p - 1, taus) @ basis.D1
        self.n_rows = len(self.poly) * self.op.n_coefficients

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        C, T = dv.joint_coeffs, dv.T
        q = self.Bq @ C
        dq = self.Bdq @ C
        fvals = np.column_stack(
            [np.polyval(row[::-1], q[:, j]) for j, row in enumerate(self.poly)]
        )
        g = dq - T * fvals
        coeffs = self.op.fit_coefficients(g)
        r = coeffs.T.reshape(-1)

        def vjp(w):
            ncols = self.layout.n_coords
            Wmat = w.reshape(ncols, self.op.n_coefficients).T
            V = self.op.adjoint_apply(Wmat)
            dfdq = np.column_stack(
                [
                    np.polyval(np.polyder(np.poly1d(row[::-1])), q[:, j])
                    for j, row in enumerate(self.poly)
                ]
            )
            gC = self.Bdq.T @ V - self.Bq.T @ (V * T * dfdq)
            gT = float(-(V * fvals).sum())
            return self.layout.grad(dC=gC, dT=gT)

        return r, vjp

    def dense_violation(self, dv, splines, taus) -> float:
        worst = 0.0
        for j, s in enumerate(splines):
            q = s.eval(taus)[:, 0]
            dq = s.derivative().eval(taus)[:, 0]
            f = np.polyval(self.poly[j][::-1], q)
            worst = max(worst, float(np.abs(dq - dv.T * f).max()))
        return worst


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------


@dataclass
class PlanningProblem:
    """Assembled NLP: basis, variable layout, constraint families, objective T."""

    scenario: Scenario
    basis: TrajectoryBasis
    layout: VariableLayout
    families: list
    field: SignedDistanceField | None
    nfk: NumericFK | None
    plane_specs: list  # (body_name, link_index, obstacle_index)
    bodies: list  # TrackedBody per protected body
    q_init: np.ndarray  # boundary rows in spline-variable space
    q_goal: np.ndarray

    @property
    def n_variables(self) -> int:
        return self.layout.n_x

    def objective(self, x: np.ndarray):
        g = np.zeros(self.layout.n_x)
        g[self.layout.idx_T] = 1.0
        return float(x[self.layout.idx_T]), g

    def constraint_counts(self) -> dict[str, int]:
        return {f.name: f.n_rows for f in self.families}

    def describe(self) -> dict:
        counts = self.constraint_counts()
        return {
            "joint_coefficients": [self.layout.n_coeffs, self.layout.n_coords],
            "free_variables": self.layout.n_x,
            "planes": self.layout.n_planes,
            "plane_coefficients": self.layout.n_planes * self.layout.plane_size,
            "constraints": counts,
            "total_constraints": int(sum(counts.values())),
        }

    def trajectory_splines(self, dv: DecisionVector) -> list[BSpline]:
        return [
            BSpline(self.basis.degree, self.basis.knots,
                    dv.joint_coeffs[:, j : j + 1])
            for j in range(self.layout.n_coords)
        ]


def _chain_workspace_bounds(scenario: Scenario, rates: np.ndarray) -> list[float]:
    """Workspace speed/acceleration bound of each link's vertices.

    A vertex of link k moves at most sum_{j<=k} rate_j * r_jk where r_jk
    bounds the distance from joint j's axis to any vertex of link k.
    """
    chain = scenario.robot.chain
    bounds = []
    for k in range(1, len(chain) + 1):
        vert_reach = float(np.linalg.norm(chain.link_cuboids[k - 1], axis=1).max())
        total = 0.0
        for j in range(k):
            reach = sum(
                abs(chain.links[i].a) + abs(chain.links[i].d) for i in range(j, k)
            )
            total += rates[j] * (reach + vert_reach)
        bounds.append(total)
    return bounds


def _collocation_grid(scenario: Scenario, basis: TrajectoryBasis) -> np.ndarray:
    return collocation_sites(
        basis.knots, basis.degree, scenario.collision.collocation_per_span
    )


def _time_heuristic(scenario: Scenario) -> float:
    delta = np.abs(scenario.boundary_goal - scenario.boundary_initial)
    t = float(np.max(delta / scenario.limits.velocity, initial=0.0)) * 1.5
    return max(t, scenario.solver.t_min)


def assemble(scenario: Scenario, cushion: float | None = None) -> PlanningProblem:
    """Build the relaxed coefficient-space problem for a scenario.

    Endpoint equalities are eliminated by pinning control rows; velocity,
    acceleration, and angle limits become coefficient families; static
    obstacles turn into signed-distance collocation constraints (or
    per-obstacle planes in hyperplane mode); moving obstacles get
    separating-plane families.
    """
    basis = TrajectoryBasis(scenario.basis_degree, scenario.basis_knots())
    is_chain = isinstance(scenario.robot, ChainRobot)
    cushion = scenario.solver.cushion if cushion is None else cushion
    t_guess = _time_heuristic(scenario)

    if is_chain:
        depths = scenario.robot.halving_depths
        q_init = np.tan(scenario.boundary_initial / (2.0 ** np.array(depths)))
        q_goal = np.tan(scenario.boundary_goal / (2.0 ** np.array(depths)))
        world_dim = 3
        nfk = NumericFK(scenario.robot.chain, depths)
    else:
        q_init = scenario.boundary_initial.copy()
        q_goal = scenario.boundary_goal.copy()
        world_dim = scenario.robot.dimension
        nfk = None
        if np.any(q_init < scenario.workspace_min) or np.any(
            q_init > scenario.workspace_max
        ):
            raise AssemblyError("boundary.initial outside the workspace box")
        if np.any(q_goal < scenario.workspace_min) or np.any(
            q_goal > scenario.workspace_max
        ):
            raise AssemblyError("boundary.goal outside the workspace box")

    # Tracked bodies for collision handling.
    bodies = []
    if is_chain:
        speed_bounds = _chain_workspace_bounds(scenario, scenario.limits.velocity)
        accel_bounds = _chain_workspace_bounds(
            scenario, scenario.limits.acceleration
        )
        for k in range(1, len(scenario.robot.chain) + 1):
            bodies.append(
                TrackedBody(
                    name=f"link{k}",
                    link_index=k,
                    verts=scenario.robot.chain.link_cuboids[k - 1],
                    radius=0.0,
                    speed_bound=speed_bounds[k - 1],
                    accel_bound=accel_bounds[k - 1],
                )
            )
    else:
        bodies.append(
            TrackedBody(
                name="body",
                link_index=0,
                verts=np.zeros((1, 3)),
                radius=scenario.robot.radius,
                speed_bound=float(np.linalg.norm(scenario.limits.velocity)),
                accel_bound=float(np.linalg.norm(scenario.limits.acceleration)),
            )
        )

    static_obs = [o for o in scenario.obstacles if o.is_static]
    moving_obs = [o for o in scenario.obstacles if not o.is_static]
    use_planes_for_static = scenario.collision.static_mode == "hyperplane"

    plane_obstacles = list(moving_obs)
    if use_planes_for_static:
        plane_obstacles += static_obs

    plane_specs = []
    for oi, obs in enumerate(plane_obstacles):
        for body in bodies:
            plane_specs.append((body.name, body.link_index, oi))

    layout = VariableLayout(
        basis.n_coeffs,
        scenario.n_coords,
        world_dim,
        len(plane_specs),
        np.tile(q_init, (3, 1)),
        np.tile(q_goal, (3, 1)),
    )

    families: list[ConstraintBlock] = []

    if is_chain:
        families.append(
            ChainRateFamily("velocity_limits", layout, basis,
                            scenario.robot.halving_depths,
                            scenario.limits.velocity, cushion, t_guess)
        )
        families.append(
            ChainAccelFamily("acceleration_limits", layout, basis,
                             scenario.robot.halving_depths,
                             scenario.limits.acceleration, cushion, t_guess)
        )
        if scenario.limits.angle_min is not None or scenario.limits.angle_max is not None:
            depths_arr = np.array(scenario.robot.halving_depths, dtype=float)
            half_range = (2.0 ** (depths_arr - 1)) * np.pi
            lo = (
                scenario.limits.angle_min
                if scenario.limits.angle_min is not None
                else -np.inf * np.ones(scenario.n_coords)
            )
            hi = (
                scenario.limits.angle_max
                if scenario.limits.angle_max is not None
                else np.inf * np.ones(scenario.n_coords)
            )
            # Angles within the recovery range need no coefficient bound.
            qlo = np.where(lo > -half_range, np.tan(np.maximum(lo, -half_range * (1 - 1e-9)) / (2.0**depths_arr)), -np.inf)
            qhi = np.where(hi < half_range, np.tan(np.minimum(hi, half_range * (1 - 1e-9)) / (2.0**depths_arr)), np.inf)
            if np.any(np.isfinite(qlo)) or np.any(np.isfinite(qhi)):
                families.append(
                    CoeffBoxFamily("angle_limits", layout, qlo, qhi, cushion,
                                   raw_lo=lo, raw_hi=hi,
                                   angle_depths=scenario.robot.halving_depths)
                )
    else:
        families.append(
            DerivBoxFamily("velocity_limits", layout, basis.D1,
                           scenario.limits.velocity, 1, cushion, t_guess)
        )
        families.append(
            DerivBoxFamily("acceleration_limits", layout, basis.D2,
                           scenario.limits.acceleration, 2, cushion, t_guess)
        )
        if scenario.limits.angle_min is not None or scenario.limits.angle_max is not None:
            lo = (
                scenario.limits.angle_min
                if scenario.limits.angle_min is not None
                else -np.inf * np.ones(scenario.n_coords)
            )
            hi = (
                scenario.limits.angle_max
                if scenario.limits.angle_max is not None
                else np.inf * np.ones(scenario.n_coords)
            )
            families.append(
                CoeffBoxFamily("position_limits", layout, lo, hi, cushion)
            )

    field = None
    if static_obs and not use_planes_for_static:
        extent = float((scenario.workspace_max - scenario.workspace_min).max())
        cell = scenario.collision.cell_size or extent / 128.0
        field = build_sdf(
            static_obs, (scenario.workspace_min, scenario.workspace_max), cell
        )
        lipschitz = scenario.collision.lipschitz_factor or math.sqrt(field.dim)
        taus = _collocation_grid(scenario, basis)
        families.append(
            SDFClearanceFamily(
                "sdf_clearance", layout, field, taus, bodies, lipschitz,
                cushion_abs=max(cushion, 2e-3),
                fixed_margin=scenario.collision.margin,
                basis=basis, nfk=nfk,
            )
        )

    body_by_name = {b.name: b for b in bodies}
    fk_cache = None
    if plane_specs and is_chain:
        fk_cache = FKSiteCache(
            ChainNumerators(scenario.robot.chain, nfk.depths, basis.knots, basis.degree)
        )
    for k, (body_name, link_index, oi) in enumerate(plane_specs):
        obs = plane_obstacles[oi]
        tag = f"{body_name}_obs{oi}"
        families.append(
            PlaneRobotSideFamily(f"plane_robot_{tag}", layout, basis, k,
                                 body_by_name[body_name], nfk, cushion,
                                 fk_cache)
        )
        families.append(
            PlaneObstacleSideFamily(f"plane_obstacle_{tag}", layout, basis, k,
                                    obs, cushion)
        )
        families.append(
            PlaneNormFamily(f"plane_norm_{tag}", layout, basis, k, cushion)
        )

    if scenario.dynamics_poly is not None:
        families.append(
            DynamicsResidualFamily("dynamics_residual", layout, basis,
                                   scenario.dynamics_poly,
                                   scenario.solver.feas_tol)
        )

    return PlanningProblem(
        scenario=scenario,
        basis=basis,
        layout=layout,
        families=families,
        field=field,
        nfk=nfk,
        plane_specs=plane_specs,
        bodies=bodies,
        q_init=q_init,
        q_goal=q_goal,
    )


def initial_guess(problem: PlanningProblem) -> DecisionVector:
    """Linear coefficient interpolation, a rate-based time heuristic, and
    planes seeded between each protected body and its obstacle."""
    scenario = problem.scenario
    n = problem.basis.n_coeffs
    alphas = np.linspace(0.0, 1.0, n)[:, None]
    C = (1.0 - alphas) * problem.q_init[None, :] + alphas * problem.q_goal[None, :]
    C[:3] = problem.q_init
    C[-3:] = problem.q_goal

    T = _time_heuristic(scenario)

    planes = []
    if problem.plane_specs:
        plane_obstacles = [o for o in scenario.obstacles if not o.is_static]
        if scenario.collision.static_mode == "hyperplane":
            plane_obstacles += [o for o in scenario.obstacles if o.is_static]
        for body_name, link_index, oi in problem.plane_specs:
            obs = plane_obstacles[oi]
            o0 = obs.center_at(0.0)[0]
            if problem.nfk is None:
                r0 = problem.q_init[: problem.layout.world_dim]
            else:
                chain = scenario.robot.chain
                theta0 = scenario.boundary_initial
                Tfk = chain.numeric_fk(theta0, link_index)
                body = next(b for b in problem.bodies if b.name == body_name)
                hom = np.hstack([body.verts, np.ones((body.verts.shape[0], 1))])
                r0 = (Tfk @ hom.T).T[:, :3].mean(axis=0)[: problem.layout.world_dim]
            sep = r0 - o0
            norm = np.linalg.norm(sep)
            direction = sep / norm if norm > 1e-12 else np.eye(len(sep))[0]
            a_const = 0.9 * direction
            midpoint = 0.5 * (r0 + o0)
            b_const = -float(a_const @ midpoint)
            planes.append(
                (
                    np.tile(a_const, (n, 1)),
                    np.full(n, b_const),
                )
            )
    return DecisionVector(C, T, planes)


@dataclass
class Solution:
    """Solved trajectory with diagnostics.

    ``trace`` holds the solver's per-outer-iteration record (see
    ``nlp.AugmentedLagrangianSolver.solve``); it is a run diagnostic and
    not part of the stored solution.
    """

    decision: DecisionVector
    status: str
    objective: float
    outer_iterations: int
    inner_iterations: int
    max_violation: float
    kkt_residual: float
    block_violations: dict[str, float]
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_json(self) -> dict:
        return {
            "decision": self.decision.to_json(),
            "status": self.status,
            "objective": self.objective,
            "outer_iterations": self.outer_iterations,
            "inner_iterations": self.inner_iterations,
            "max_violation": self.max_violation,
            "kkt_residual": self.kkt_residual,
            "block_violations": self.block_violations,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Solution":
        return cls(
            decision=DecisionVector.from_json(obj["decision"]),
            status=obj["status"],
            objective=float(obj["objective"]),
            outer_iterations=int(obj["outer_iterations"]),
            inner_iterations=int(obj["inner_iterations"]),
            max_violation=float(obj["max_violation"]),
            kkt_residual=float(obj["kkt_residual"]),
            block_violations=dict(obj["block_violations"]),
        )


def solve(problem: PlanningProblem, guess: DecisionVector | None = None,
          config: SolverConfig | None = None) -> Solution:
    """Run the augmented Lagrangian solver on the assembled problem.

    A degenerate scenario (start equals goal) returns the constant
    trajectory at the minimum time without invoking the solver.
    """
    cfg = config or problem.scenario.solver
    if np.array_equal(problem.q_init, problem.q_goal):
        dv = initial_guess(problem)
        dv.T = cfg.t_min
        return Solution(dv, "converged", dv.T, 0, 0, 0.0, 0.0, {})
    dv0 = guess or initial_guess(problem)
    x0 = problem.layout.pack(dv0)
    solver = AugmentedLagrangianSolver(
        problem.objective, problem.families,
        bounds=problem.layout.bounds(cfg.t_min), config=cfg,
    )
    result = solver.solve(x0)
    solution = Solution(
        decision=problem.layout.unpack(result.x),
        status=result.status,
        objective=result.objective,
        outer_iterations=result.outer_iterations,
        inner_iterations=result.inner_iterations,
        max_violation=result.max_violation,
        kkt_residual=result.kkt_residual,
        block_violations=result.block_violations,
        trace=result.trace,
    )
    if cfg.knot_refine and not solution.converged:
        refined = refine_scenario(problem.scenario)
        rproblem = assemble(refined)
        rguess = refit_guess(problem, solution.decision, rproblem)
        rsolution = solve(rproblem, rguess,
                          config=replace(cfg, knot_refine=False))
        if rsolution.converged:
            return rsolution
    return solution


def refine_scenario(scenario: Scenario) -> Scenario:
    """Double the interior knots (span midpoints) to tighten the hulls."""
    breaks = np.concatenate([[0.0], np.unique(scenario.basis_interior), [1.0]])
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    interior = np.sort(np.concatenate([scenario.basis_interior, mids]))
    return replace(scenario, basis_interior=interior)


def refit_guess(problem: PlanningProblem, dv: DecisionVector,
                refined: PlanningProblem) -> DecisionVector:
    """Express a coarse solution on a refined basis as a warm start."""
    taus = collocation_sites(refined.basis.knots, refined.basis.degree,
                             4 * (refined.basis.degree + 1))
    B_old = basis_matrix(problem.basis.knots, problem.basis.degree, taus)
    op = FitOperator(refined.basis.degree, refined.basis.knots, taus)
    C = op.fit_coefficients(B_old @ dv.joint_coeffs)
    C[:3] = refined.q_init
    C[-3:] = refined.q_goal
    planes = []
    for a, b in dv.plane_coeffs:
        a_new = op.fit_coefficients(B_old @ a)
        b_new = op.fit_coefficients(B_old @ b)[:, 0]
        planes.append((a_new, b_new))
    return DecisionVector(C, dv.T, planes)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class FamilyReport:
    name: str
    kind: str
    max_violation: float
    n_samples: int
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


@dataclass
class VerificationReport:
    """Dense-sampling check of every continuous constraint family."""

    families: list[FamilyReport]
    oversample: int

    @property
    def max_violation(self) -> float:
        return max((f.max_violation for f in self.families), default=0.0)

    @property
    def passed(self) -> bool:
        """True when every family's dense violation is within its tolerance."""
        return all(f.passed for f in self.families)

    def family(self, name: str) -> FamilyReport:
        for f in self.families:
            if f.name == name:
                return f
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "oversample": self.oversample,
            "families": [
                {
                    "name": f.name,
                    "kind": f.kind,
                    "max_violation": f.max_violation,
                    "tolerance": f.tolerance,
                    "n_samples": f.n_samples,
                }
                for f in self.families
            ],
        }


def verify(solution: Solution, problem: PlanningProblem,
           oversample: int = 10) -> VerificationReport:
    """Sample every continuous constraint at oversample x collocation density.

    Each family reports its worst dense violation and its tolerance:
    zero for hull-relaxed families, endpoint conditions and SDF clearance
    (which the Lipschitz margin guarantees), solver tolerance for the
    dynamics residual.
    """
    dv = solution.decision
    scenario = problem.scenario
    per_span = max(2, scenario.collision.collocation_per_span * oversample)
    taus = collocation_sites(problem.basis.knots, problem.basis.degree, per_span)
    splines = problem.trajectory_splines(dv)
    reports = []

    # Endpoint conditions are exact by construction; report the residuals.
    end_viol = 0.0
    for j, s in enumerate(splines):
        d1 = s.derivative()
        d2 = d1.derivative()
        end_viol = max(
            end_viol,
            float(abs(s.eval(0.0)[0] - problem.q_init[j])),
            float(abs(s.eval(1.0)[0] - problem.q_goal[j])),
            float(abs(d1.eval(0.0)[0])),
            float(abs(d1.eval(1.0)[0])),
            float(abs(d2.eval(0.0)[0])),
            float(abs(d2.eval(1.0)[0])),
        )
    reports.append(FamilyReport("endpoint_conditions", "eq", end_viol, 12))

    for fam in problem.families:
        v = fam.dense_violation(dv, splines, taus)
        reports.append(
            FamilyReport(fam.name, fam.kind, float(v), taus.size, fam.verify_tol)
        )
    return VerificationReport(reports, oversample)


def recovered_angles(problem: PlanningProblem, dv: DecisionVector,
                     taus: np.ndarray) -> np.ndarray:
    """Joint angles (chains) or positions (mobile) at the given parameters."""
    splines = problem.trajectory_splines(dv)
    if isinstance(problem.scenario.robot, ChainRobot):
        from .kinematics import HalfAngleJoint

        cols = []
        for j, s in enumerate(splines):
            joint = HalfAngleJoint(s, problem.scenario.robot.halving_depths[j])
            cols.append(
                recover_theta(joint, taus,
                              theta_init=float(problem.scenario.boundary_initial[j]))
            )
        return np.column_stack(cols)
    return np.column_stack([s.eval(taus)[:, 0] for s in splines])
