"""Minimum-time NLP assembly in relaxed coefficient space, solve, and verify.

The decision vector holds the free trajectory control points, the total
travel time T, and separating-plane spline coefficients.  The clamped basis
makes the boundary conditions equivalent to pinning the first and last
three control rows, which are eliminated rather than constrained, so
endpoint equalities hold exactly.  The coordinates are the robot's joint
map (``scenario``): tan(theta / factor) for an angle, linear ones as they are.

Every continuous constraint is relaxed to inequalities on control points
of composed B-splines, feasible at <= 0.  The separating-plane families
compute those control points exactly: the fixed obstacle-side and norm
rows once, with ``spline_algebra.multiply``, and the robot-side rows at
every iterate, per span in Bernstein form (see ``bernstein``).  The chain
rate and acceleration families apply a fixed least-squares fit operator
to pointwise values of the underlying expressions; since the fit is
linear, this is the same spline the algebra would build, at a fraction of
the cost.  Both routes are linear in the last step and supply exact
adjoints for analytic gradients.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import Bounds

from .bernstein import (
    ChainNumerators,
    bezier_extraction,
    left_inverse,
    product,
    product_vjp,
    to_spans,
)
from .bspline import BSpline, KnotVector, basis_matrix
from .collision import (
    ObstaclePrimitive,
    SignedDistanceField,
    build_sdf,
    lattice_path,
)
from .kinematics import NumericFK, homogeneous
from .nlp import AugmentedLagrangianSolver, ConstraintBlock, SolveOutcome
from .scenario import (
    ChainRobot,
    Scenario,
    ScenarioError,
    _floats,
    _list,
    _number,
    _require_keys,
)
from .spline_algebra import FitOperator, collocation_sites, elevated_union, multiply

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

log = logging.getLogger(__name__)

# Relative strictness margin added inside the hull-relaxed inequality
# families, so converged solutions satisfy the underlying constraints
# strictly rather than to solver tolerance.
CUSHION = 1e-4
# Lower bound on the travel time T, in seconds.
T_MIN = 0.1
# Rounding allowance of the SDF family's screen, relative to the field's
# largest magnitude (values and corners): a skipped row's bound must
# clear zero by this much more than the field's own rounding could move
# it.
SCREEN_ALLOWANCE = 1e-9


@dataclass
class DecisionVector:
    """Full coefficient matrix, travel time, and plane spline coefficients.

    Plane k is one (n_coeffs, world_dim + 1) block [a | b]: row i holds the
    i-th control point of the normal a(tau) and of the offset b(tau), so
    the plane's value at a point x is the row dotted with [x, 1].  Only
    ``to_json`` and the packed solver vector store a and b apart.
    """

    joint_coeffs: np.ndarray  # (n_coeffs, n_coords)
    T: float
    plane_coeffs: list  # per plane: [a | b], (n_coeffs, world_dim + 1)

    def copy(self) -> "DecisionVector":
        return DecisionVector(self.joint_coeffs.copy(), self.T,
                              [ab.copy() for ab in self.plane_coeffs])

    def to_json(self) -> dict:
        return {
            "joint_coeffs": self.joint_coeffs.tolist(),
            "T": self.T,
            "planes": [{"a": ab[:, :-1].tolist(), "b": ab[:, -1].tolist()}
                       for ab in self.plane_coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict, layout: "VariableLayout") -> "DecisionVector":
        """The decision of a stored solution.json, its keys and shapes
        checked against ``layout``; a mismatch, a non-finite coefficient
        or a non-finite T raises ScenarioError naming the key.  A finite
        T's value is left to ``verify``."""
        path = "solution.decision"
        _require_keys(obj, path, ("joint_coeffs", "T", "planes"))
        n = layout.n_coeffs
        planes = _list(obj["planes"], f"{path}.planes")
        if len(planes) != layout.n_planes:
            raise ScenarioError(f"{path}.planes: expected {layout.n_planes} "
                                f"planes, got {len(planes)}")
        plane_coeffs = []
        for i, plane in enumerate(planes):
            key = f"{path}.planes[{i}]"
            _require_keys(plane, key, ("a", "b"))
            plane_coeffs.append(np.column_stack([
                _stored_array(plane["a"], f"{key}.a", (n, layout.world_dim)),
                _stored_array(plane["b"], f"{key}.b", (n,)),
            ]))
        return cls(
            _stored_array(obj["joint_coeffs"], f"{path}.joint_coeffs",
                          (n, layout.n_coords)),
            _number(obj["T"], f"{path}.T"),
            plane_coeffs,
        )


def _stored_array(value, path: str, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``."""
    arr = _floats(value)
    if arr is None or arr.shape != shape or not np.isfinite(arr).all():
        raise ScenarioError(f"{path}: expected a finite {shape} array")
    return arr


class TrajectoryBasis:
    """Shared clamped basis with its derivative coefficient maps.

    ``units`` is the spline whose coordinate i is basis function i (unit
    coefficient vectors).
    D1 maps control rows to those of the tau-derivative on ``knots1``, and
    D2 to those of the second derivative on ``knots2``: the derivatives of
    ``units``, by ``BSpline.derivative``.
    A degree below 3 or under 7 coefficients raises ``parse_scenario``'s
    ScenarioError, so a hand-built ``Scenario`` fails as its file would.
    """

    def __init__(self, degree: int, knots: KnotVector):
        if degree < 3:
            raise ScenarioError("basis.degree: must be an integer >= 3")
        self.degree = degree
        self.knots = knots
        self.n_coeffs = len(knots) - degree - 1
        if self.n_coeffs < 7:
            raise ScenarioError("basis.interior_knots: need at least 7 coefficients "
                                "(6 are pinned by the boundary conditions)")
        self.units = BSpline(degree, knots, np.eye(self.n_coeffs))
        d1 = self.units.derivative()
        d2 = BSpline(degree - 1, d1.knots, np.eye(self.n_coeffs - 1)).derivative()
        self.D1, self.knots1 = d1.control_points, d1.knots
        self.D2, self.knots2 = d2.control_points @ self.D1, d2.knots

    @cached_property
    def extraction(self) -> np.ndarray:
        """The per-span Bernstein map of the basis, built on first use and
        shared by the robot-side plane families."""
        return bezier_extraction(self.knots, self.degree)


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
        self._last_key = None
        self._last = None

    def unpack(self, x: np.ndarray) -> DecisionVector:
        """The decision vector at x, shared by every family evaluated there.

        The last result is kept, keyed on the bytes of x, so the families
        of one solver call unpack once.  Its arrays are read-only copies
        of the entries of x and must not be modified; ``copy()`` gives
        writable ones.
        """
        key = x.tobytes()
        if key != self._last_key:
            C = np.concatenate([
                self.top_rows,
                x[: self.n_free_c].reshape(self.free_rows, self.n_coords),
                self.bottom_rows,
            ])
            a, b = self._planes(x)
            planes = np.concatenate([a, b[:, :, None]], axis=2)
            C.flags.writeable = planes.flags.writeable = False
            self._last = DecisionVector(C, float(x[self.idx_T]), list(planes))
            self._last_key = key
        return self._last

    def _planes(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of every plane's entries in x: a (n_planes, n_coeffs,
        world_dim) and b (n_planes, n_coeffs).  Plane k packs its a
        row-major, then its b."""
        n, d = self.n_coeffs, self.world_dim
        region = x[self.idx_T + 1 :].reshape(self.n_planes, self.plane_size)
        return region[:, : n * d].reshape(self.n_planes, n, d), region[:, n * d :]

    def pack(self, dv: DecisionVector) -> np.ndarray:
        x = np.zeros(self.n_x)
        x[: self.n_free_c] = dv.joint_coeffs[3:-3].reshape(-1)
        x[self.idx_T] = dv.T
        a, b = self._planes(x)
        for k, ab in enumerate(dv.plane_coeffs):
            a[k], b[k] = ab[:, :-1], ab[:, -1]
        return x

    def grad(self, dC: np.ndarray | None = None, dT: float = 0.0,
             plane: tuple | None = None) -> np.ndarray:
        """The packed gradient of weights dC on the joint coefficients
        (its pinned rows drop out), dT on T and, with plane = (k, block),
        the (n_coeffs, world_dim + 1) weights [a | b] on plane k."""
        g = np.zeros(self.n_x)
        if dC is not None:
            g[: self.n_free_c] = dC[3:-3].reshape(-1)
        g[self.idx_T] = dT
        if plane is not None:
            k, block = plane
            a, b = self._planes(g)
            a[k] += block[:, :-1]
            b[k] += block[:, -1]
        return g

    def bounds(self, t_min: float) -> Bounds:
        """T >= t_min; every other variable is free."""
        lo = np.full(self.n_x, -np.inf)
        lo[self.idx_T] = t_min
        return Bounds(lo, np.full(self.n_x, np.inf))


# ---------------------------------------------------------------------------
# Constraint families
# ---------------------------------------------------------------------------


def _coords(robot, theta: np.ndarray) -> np.ndarray:
    """The robot's coordinates at joint values theta: tan(theta / factor)
    for an angle; a linear entry, even an infinite one, as it is."""
    angles = np.where(robot.revolute, theta, 0.0)
    return np.where(robot.revolute, np.tan(angles / robot.factors), theta)


def _angles(robot, q: np.ndarray) -> np.ndarray:
    """Joint values at coordinates q, the inverse of ``_coords``: factor
    atan q for an angle, inside its recoverable range; a linear entry as is."""
    return np.where(robot.revolute, robot.factors * np.arctan(q), q)


def _excess(x: np.ndarray) -> float:
    """A dense check's violation: the largest entry of x above zero, 0.0
    when there is none, and NaN when x holds a NaN, which fails verify."""
    worst = float(x.max())
    return 0.0 if worst <= 0.0 else worst


class DerivBoxFamily(ConstraintBlock):
    """Coefficient box on derivative rows: |D C| <= bound * T^power.

    The literal Eq-8-style relaxation for coordinates that are themselves
    physical positions (mobile robots, prismatic offsets).  ``gap`` is the
    cushion of each coordinate's rows, so converged solutions satisfy the
    raw bound strictly.
    """

    def __init__(self, name, layout: VariableLayout, D: np.ndarray,
                 bound: np.ndarray, power: int, gap: np.ndarray):
        self.name = name
        self.layout = layout
        self.D = D
        self.bound = bound
        self.power = power
        self.cushion_gap = np.tile(np.tile(gap, D.shape[0]), 2)
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

    def dense_violation(self, samples) -> float:
        return _excess(np.abs(samples.joint(self.power)) - self.bound)


class CoeffBoxFamily(ConstraintBlock):
    """Box on the control rows themselves (angle or position limits).

    ``lo`` and ``hi`` bound the joint values; an infinite side bounds nothing.
    An angle bound within the recoverable range bounds tan(theta / factor)
    and one beyond it nothing; the dense check reads factor * atan(q).
    """

    def __init__(self, name, layout, robot, lo, hi, cushion: float):
        self.name = name
        self.layout = layout
        self.raw_lo, self.raw_hi = lo, hi
        half_range = robot.half_range
        inner = half_range * (1 - 1e-9)
        lo = np.where(lo > -half_range, _coords(robot, np.maximum(lo, -inner)), -np.inf)
        hi = np.where(hi < half_range, _coords(robot, np.minimum(hi, inner)), np.inf)
        self.mask_lo = np.isfinite(lo)
        self.mask_hi = np.isfinite(hi)
        inset = cushion * np.where(self.mask_lo & self.mask_hi,
                                   np.maximum(hi - lo, 1.0), 1.0)
        self.lo = lo + inset
        self.hi = hi - inset
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

    def dense_violation(self, samples) -> float:
        vals = samples.joint(0)
        # An infinite side reads -inf and never counts.
        return _excess(np.maximum(vals - self.raw_hi, self.raw_lo - vals))


class _ChainLimitFamily(ConstraintBlock):
    """A joint rate (order 1) or acceleration (order 2) limit through the
    half-angle substitution: an upper and a lower row block per joint,
    each cushioned by its joint's entry of ``gap``.

    The rows are the control points of the family's polynomial on
    ``elevated_union([(knots, p - order)], 2^order p)``, a space that holds
    it exactly, fitted from its values at 4 (degree + 1) sites per span.
    A subclass gives ``pointwise(T, q, dq, ddq) -> (values, pullback)``:
    the polynomial's values at the fit sites from q and its first
    ``order`` tau-derivatives there (ddq is None for order 1), one column
    per row block, and a map from weights on those values to the weights
    on q, dq and ddq (None where unused) and the T-derivative.

    A prismatic offset d = q takes the linear form, with factor 1 and q
    read as 0 in W = 1 + q^2.
    """

    order = 1

    def __init__(self, name, layout, basis: TrajectoryBasis, robot,
                 bound: np.ndarray, gap: np.ndarray):
        self.name = name
        self.layout = layout
        degree = 2**self.order * basis.degree
        knots = elevated_union([(basis.knots, basis.degree - self.order)], degree)
        self.op = FitOperator(degree, knots,
                              collocation_sites(knots, 4 * (degree + 1)))
        taus = self.op.taus
        self.Bq = basis_matrix(basis.knots, basis.degree, taus)
        self.Bdq = basis_matrix(basis.knots1, basis.degree - 1, taus) @ basis.D1
        if self.order > 1:
            self.Bddq = basis_matrix(basis.knots2, basis.degree - 2, taus) @ basis.D2
        # 1.0 for half-angle coordinates, 0.0 for prismatic offsets.
        self.revolute = robot.revolute.astype(float)
        self.bound = bound
        self.factors = robot.factors
        self.cushion_gap = np.repeat(np.concatenate([gap, gap]), self.op.n_coefficients)
        self.n_rows = self.cushion_gap.size

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        C = dv.joint_coeffs
        ddq = self.Bddq @ C if self.order > 1 else None
        values, pullback = self.pointwise(dv.T, self.Bq @ C, self.Bdq @ C, ddq)
        coeffs = self.op.fit_coefficients(values)
        r = coeffs.T.reshape(-1) + self.cushion_gap

        def vjp(w):
            V = self.op.adjoint_apply(w.reshape(-1, self.op.n_coefficients).T)
            wq, wdq, wddq, gT = pullback(V)
            gC = self.Bq.T @ wq + self.Bdq.T @ wdq
            if wddq is not None:
                gC = gC + self.Bddq.T @ wddq
            return self.layout.grad(dC=gC, dT=gT)

        return r, vjp

    def _blocks(self, V):
        """Weights on the upper and on the lower row block."""
        n = self.layout.n_coords
        return V[:, :n], V[:, n:]

    def dense_violation(self, samples) -> float:
        return _excess(np.abs(samples.joint(self.order)) - self.bound)


class ChainRateFamily(_ChainLimitFamily):
    """Hull-relaxed joint velocity limits through the half-angle substitution.

    theta_dot = 2^n q' / (T (1 + q^2)); clearing the positive denominator
    gives the polynomial spline 2^n q' -+ v T (1 + q^2), whose control
    points on a basis representing it exactly are constrained by sign.
    """

    def evaluate(self, x):  # own entry: perfbench patches it per family class
        return super().evaluate(x)

    def pointwise(self, T, q, dq, ddq):
        q = q * self.revolute
        W = 1.0 + q * q
        f = self.factors[None, :]
        vT = self.bound[None, :] * T

        def pullback(V):
            vu, vl = self._blocks(V)
            gT = float(-((vu + vl) * self.bound[None, :] * W).sum())
            return -(vT * 2.0 * q * (vu + vl)), f * (vu - vl), None, gT

        return np.hstack([f * dq - vT * W, -f * dq - vT * W]), pullback


class ChainAccelFamily(_ChainLimitFamily):
    """Hull-relaxed joint acceleration limits (denominator cleared twice).

    theta_ddot * T^2 * (1+q^2)^2 = 2^n [q'' (1+q^2) - 2 q q'^2]; the family
    spline is that expression minus a T^2 (1+q^2)^2 for each sign.
    """

    order = 2

    def evaluate(self, x):  # own entry: perfbench patches it per family class
        return super().evaluate(x)

    def pointwise(self, T, q, dq, ddq):
        q = q * self.revolute
        W = 1.0 + q * q
        f = self.factors[None, :]
        E = f * (ddq * W - 2.0 * q * dq * dq)
        aT2W2 = self.bound[None, :] * (T * T) * W * W

        def pullback(V):
            vu, vl = self._blocks(V)
            s = vu - vl
            t = vu + vl
            dE_dq = f * (2.0 * q * ddq - 2.0 * dq * dq) * self.revolute
            dE_ddq = -4.0 * f * q * dq
            dE_dddq = f * W
            dA_dq = self.bound[None, :] * (T * T) * 4.0 * W * q
            gT = float(-(t * self.bound[None, :] * 2.0 * T * W * W).sum())
            return s * dE_dq - t * dA_dq, s * dE_ddq, s * dE_dddq, gT

        return np.hstack([E - aT2W2, -E - aT2W2]), pullback


@dataclass(frozen=True)
class TrackedBody:
    """A set of points whose workspace clearance is enforced."""

    name: str
    link_index: int  # 0 for the mobile body
    verts: np.ndarray  # (V, 3) local vertices; mobile body uses a zero row
    radius: float
    speed_bound: float  # workspace speed bound for the margin rule
    accel_bound: float  # workspace acceleration bound (endpoint margin refinement)


@dataclass(frozen=True)
class LeverTable:
    """How fast a chain's links can move per unit joint rate.

    ``levers[k - 1, j]`` bounds the workspace speed of any vertex of link
    k per unit rate of joint j (0 where j >= k), as long as every joint
    coordinate lies in [``lo``, ``hi``]: a prismatic joint's offset
    limits, unbounded for a revolute one.  ``factors`` is each joint's
    d(angle)/dq bound, 2^n for theta = 2^n atan q and 1 for an offset.
    """

    levers: np.ndarray
    factors: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class SDFClearanceFamily(ConstraintBlock):
    """Signed-distance clearance at collocation parameters with motion margin.

    One inequality per tracked point per parameter: the interpolated field
    value must exceed margin(tau, T) + radius + cushion.  The margin covers
    inter-sample motion: a point between samples moved at most (local speed
    bound) x (half the sample gap), where the local speed bound is the
    smaller of the velocity-limit bound and the acceleration-limit bound
    from the rest endpoints - trajectories start and end at zero velocity,
    so endpoint samples need far less margin than the interior.  The
    interpolated field's gradient norm is at most sqrt(dim), so that is the
    Lipschitz factor the margin scales by.

    Every body tracks as many points (8 cuboid corners, or the mobile
    body's one point), so ``evaluate`` places them all, by forward
    kinematics without gradients, in one contiguous (dim, bodies x
    samples x vertices) block, queries the field's values once and forms
    every residual in one broadcast.  The mobile body's vjp asks the query
    for the field gradients at every sample.  A chain's vjp finds the
    samples where some row carries weight, usually a few near an
    obstacle, and only there asks for the field gradients of every body's
    vertices and takes the FK gradients: it cuts evaluate's link
    transforms and prefixes to those samples and forms only the
    derivative factors there (``NumericFK.gradient_state``).  It scatters
    each link's contribution into a full-length column, so the result
    equals the all-sample formula bit for bit.

    A chain screens its samples (``ConstraintBlock.evaluate``).  For each
    sample it keeps the coordinates q_ref and each body's least field
    value v_ref from the last evaluation that formed that sample.  Under a
    mask it skips a sample whose rows are all masked when, for every body
    b, v_ref[b] - L sum_j lever[b, j] f_j |q_j - q_ref,j| - allowance
    exceeds margin + radius + cushion, with L = sqrt(dim), the lever table
    and factors f of ``levers`` and both q and q_ref inside its box: a
    vertex moves at most sum_j lever f |dq| between them, and the field
    changes by at most L per unit of motion.  A skipped row reads that
    bound, below zero.  It runs FK and the field query only on the
    samples it keeps, each formed sample by sample, so every row it forms
    equals the unmasked row bit for bit.  Without ``levers`` nothing is
    bounded and every sample is formed.  The mobile body forms every
    sample: for its one point a sample costs less than its bound.
    """

    screens = True

    def __init__(self, name, layout, field: SignedDistanceField, taus,
                 bodies, cushion_abs: float, basis: TrajectoryBasis,
                 nfk: NumericFK | None, levers: LeverTable | None = None):
        self.name = name
        self.layout = layout
        self.field = field
        self.taus = np.asarray(taus, dtype=float)
        self.bodies = list(bodies)
        self.lipschitz = math.sqrt(field.dim)
        self.cushion_gap = cushion_abs
        gaps = np.diff(self.taus)
        half = np.zeros_like(self.taus)
        half[:-1] = np.maximum(half[:-1], 0.5 * gaps)
        half[1:] = np.maximum(half[1:], 0.5 * gaps)
        self._half_gap = half
        # The T-free pieces of the margin rule, one row per body.  The
        # acceleration cap counts from the nearer rest endpoint: tau from
        # the start where tau <= 1 - tau, 1 - tau from the goal elsewhere.
        # For T > 0 rounding is monotone, so that cap is the smaller of
        # the two to the bit.  The two caps can round to a tie, where the
        # choice of _dspeed would matter, only for a tau a few ulps above
        # 1/2; collocation grids hold 1/2 itself or nothing that close.
        self._speed = np.array([[b.speed_bound] for b in self.bodies])
        accel = np.array([[b.accel_bound] for b in self.bodies])
        self._cap_tau = np.minimum(self.taus, 1.0 - self.taus)
        self._accel = accel
        self._lip_half = self.lipschitz * half
        self._dspeed = accel * (self._cap_tau + half)
        self.Bpos = basis_matrix(basis.knots, basis.degree, self.taus)
        self.nfk = nfk
        self._homs = [homogeneous(b.verts) for b in self.bodies]
        self._radius = np.array([[[b.radius]] for b in self.bodies])
        (V,) = {b.verts.shape[0] for b in self.bodies}
        B, S, n = len(self.bodies), self.taus.size, layout.n_coords
        self._n_verts = V
        self.n_rows = B * S * V
        # The screen.  Each body's vertex speed per unit change of each
        # coordinate, (n, B), from the lever table and the joint factors;
        # a body with an infinite lever (or every body, without a table)
        # takes an infinite allowance instead, so no bound clears it.  The
        # coordinates with a finite box side and that box.  The last
        # formed q and least value of each sample, NaN (never skipped)
        # until formed, and the mask last read, reduced to its samples.
        if levers is None:
            q_levers, cols = np.full((B, n), np.inf), np.zeros(0, dtype=int)
            lo = hi = np.zeros(0)
        else:
            rows = [b.link_index - 1 for b in self.bodies]
            q_levers = levers.levers[rows] * levers.factors
            cols = np.flatnonzero(np.isfinite(levers.lo) | np.isfinite(levers.hi))
            lo, hi = levers.lo[cols], levers.hi[cols]
        bounded = np.isfinite(q_levers).all(axis=1)
        self._q_levers = np.where(bounded[:, None], q_levers, 0.0).T
        self._box = (cols, lo, hi)
        values = field.values
        scale = max(float(values.max()), -float(values.min()),
                    float(np.abs(field.origin).max()), float(np.abs(field.upper).max()))
        self._allowance = np.where(bounded, SCREEN_ALLOWANCE * (1.0 + scale),
                                   np.inf)[:, None]
        self._q_ref = np.full((S, n), np.nan)
        self._v_ref = np.full((B, S), np.nan)
        self._mask_key = None
        self._masked_samples = np.zeros(S, dtype=bool)

    def margins(self, T: float) -> tuple[np.ndarray, np.ndarray]:
        """Clearance margin (meters) per body and sample, and its T-derivative;
        (bodies, samples) each."""
        h = self._half_gap * T
        local_speed = np.minimum(self._speed,
                                 self._accel * (self._cap_tau * T + h))
        dspeed = np.where(local_speed >= self._speed, 0.0, self._dspeed)
        return (self.lipschitz * local_speed * h,
                self._lip_half * (local_speed + dspeed * T))

    def _screen(self, qmat, need, masked):
        """The samples to skip (S,) and, per body and sample, an upper
        bound on the rows: need - (v_ref - L reach - allowance), below
        zero at every skipped sample.  With no mask no sample is masked.
        A NaN gives no bound below zero."""
        B, S = need.shape
        key = None if masked is None else masked.tobytes()
        if key != self._mask_key:
            self._mask_key = key
            self._masked_samples = (np.zeros(S, dtype=bool) if masked is None
                                    else masked.reshape(B, S, -1).all(axis=(0, 2)))
        cols, lo, hi = self._box
        q, ref = qmat[:, cols], self._q_ref[:, cols]
        boxed = ((np.minimum(q, ref) >= lo) & (np.maximum(q, ref) <= hi)).all(axis=1)
        reach = np.abs(qmat - self._q_ref) @ self._q_levers
        bound = need - ((self._v_ref - self.lipschitz * reach.T) - self._allowance)
        skip = self._masked_samples & boxed & (bound.max(axis=0) < 0.0)
        return skip, bound

    def evaluate(self, x, masked=None):
        dv = self.layout.unpack(x)
        qmat = self.Bpos @ dv.joint_coeffs
        S, dim = qmat.shape[0], self.field.dim
        B, V = len(self.bodies), self._n_verts
        margin, margin_dT = self.margins(dv.T)
        need = (margin[:, :, None] + self._radius) + self.cushion_gap
        if self.nfk is None:
            vals, gradient = self.field.query_extended(qmat[:, :dim])
            r = (need - vals.reshape(B, S, V)).reshape(-1)

            def vjp(w):
                W = w.reshape(B, S, V)
                gC = np.zeros_like(dv.joint_coeffs)
                gT = 0.0
                gT += float(margin_dT[0] @ W[0].sum(axis=1))
                # d(residual)/d(pos) = -grad_sdf
                gC += self.Bpos.T @ (-W[0] * gradient(np.arange(S)))
                return self.layout.grad(dC=gC, dT=gT)

            return r, vjp

        skip, bound = self._screen(qmat, need[:, :, 0], masked)
        kept = np.flatnonzero(~skip)
        q = qmat[kept]
        # Every tracked point of every kept sample in one contiguous block
        # (dim, B, kept, V), in the residuals' order: body, sample, vertex.
        state = self.nfk.shared_state(q)
        points = np.empty((dim, B, kept.size, V))
        for b, (body, hom) in enumerate(zip(self.bodies, self._homs)):
            pos = self.nfk.body_positions(state, body.link_index, body.verts, hom)
            points[:, b] = pos[..., :dim].transpose(2, 0, 1)
        vals, gradient = self.field.query_extended(points.reshape(dim, -1).T)
        vals = vals.reshape(B, kept.size, V)
        self._q_ref[kept] = q
        self._v_ref[:, kept] = vals.min(axis=2)
        r = np.empty((B, S, V))
        r[...] = bound[:, :, None]  # what a skipped sample's rows read
        r[:, kept] = need[:, kept] - vals

        def vjp(w):
            W = w.reshape(B, S, V)
            gC = np.zeros_like(dv.joint_coeffs)
            gT = 0.0
            for b in range(B):
                gT += float(margin_dT[b] @ W[b].sum(axis=1))
            # Only the samples where some row carries weight add to gC;
            # there every vertex of every body takes its field gradient.
            idx = np.flatnonzero(W.any(axis=(0, 2)))
            place = np.full(S, -1)
            place[kept] = np.arange(kept.size)
            at = place[idx]  # their places among the kept samples
            if (at < 0).any():
                raise ValueError(f"{self.name}: weight on a skipped sample")
            rows = (kept.size * V * np.arange(B)[:, None, None]
                    + V * at[:, None] + np.arange(V))
            g = gradient(rows.reshape(-1)).reshape(B, idx.size, V, dim)
            # d(residual)/d(pos) = -grad_sdf
            wpos = -W[:, idx, :, None] * g
            grad_state = self.nfk.gradient_state(state, q, at)
            column = np.zeros(S)
            for b, body in enumerate(self.bodies):
                dpos = self.nfk.body_position_grads(
                    grad_state, body.link_index, body.verts, self._homs[b]
                )
                contrib = (wpos[b] * dpos[:, :, :, :dim]).sum(axis=(2, 3))
                for j in range(body.link_index):
                    column[idx] = contrib[j]
                    gC[:, j] += self.Bpos.T @ column
            return self.layout.grad(dC=gC, dT=gT)

        return r.reshape(-1), vjp

    def dense_violation(self, samples) -> float:
        gaps = []
        for body in self.bodies:
            pos = samples.positions(body)
            vals, _ = self.field.query_extended(
                pos.reshape(-1, pos.shape[2])[:, : self.field.dim])
            gaps.append(body.radius - vals)
        return _excess(np.concatenate(gaps))


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
    The plane multiplies the prefix before the vertices do, so one row
    polynomial per span serves every vertex of the body.
    """

    def __init__(self, name, layout, basis: TrajectoryBasis, plane_index: int,
                 body: TrackedBody, cushion: float, fk_cache: "FKSiteCache | None"):
        self.name = name
        self.layout = layout
        self.plane_index = plane_index
        self.body = body
        self.cushion_gap = cushion
        self.fk_cache = fk_cache
        p = basis.degree
        if fk_cache is None:
            target = 2 * p
            self.hom = np.ones((1, 1))  # the point robot is its own vertex
        else:
            depths = fk_cache.chain.depths[: body.link_index]
            target = sum(p * 2**d for d in depths) + p
            self.hom = homogeneous(body.verts)
        self.lift = left_inverse(elevated_union([(basis.knots, p)], target), target)
        self.extraction = basis.extraction
        self.n_rows = self.hom.shape[1] * self.lift.shape[0]
        self._basis_degree = basis.degree

    def evaluate(self, x):
        dv = self.layout.unpack(x)
        p = self._basis_degree
        # (S, p + 1, 1, d + 1): the plane [a | b] as a row vector per span
        plane = to_spans(self.extraction, dv.plane_coeffs[self.plane_index],
                         p)[:, :, None, :]
        if self.fk_cache is None:
            C = dv.joint_coeffs
            pts = to_spans(self.extraction, np.column_stack([C, np.ones(len(C))]),
                           p)[..., None]  # (S, p + 1, d + 1, 1)
            state = None
        else:
            state = self.fk_cache.state(dv.joint_coeffs)
            pts = state["prefix"][self.body.link_index]  # (S, D + 1, 4, 4)
        # (S, D + p + 1, 1, 1 or 4); chain links carry radius 0.0
        y = product(plane, pts) - self.body.radius
        coeffs = (self.lift @ y.reshape(-1, y.shape[3])) @ self.hom  # (rows, V)
        V = coeffs.shape[1]
        r = (self.cushion_gap - coeffs).T.reshape(-1)

        def vjp(w):
            # minus from cushion - coeffs
            gy = -(self.lift.T @ (w.reshape(V, -1).T @ self.hom.T)).reshape(y.shape)
            gplane, gpts = product_vjp(plane, pts, gy)
            gab = self.extraction.T @ gplane.reshape(-1, gplane.shape[3])
            if self.fk_cache is None:
                gC = self.extraction.T @ gpts[:, :, :-1, 0].reshape(-1, pts.shape[2] - 1)
            else:
                gC = self.fk_cache.chain.vjp(state, self.body.link_index, gpts)
            return self.layout.grad(dC=gC, plane=(self.plane_index, gab))

        return r, vjp

    def dense_violation(self, samples) -> float:
        a, b = samples.plane(self.plane_index)
        y = b[:, None] + np.einsum("sd,svd->sv", a, samples.positions(self.body))
        return _excess(self.body.radius - y)


class PlaneObstacleSideFamily(ConstraintBlock):
    """Family (ii): a . q_k + b + r_o <= -cushion at each corner q_k of the
    obstacle, which is those corners swept by a ball of radius r_o.

    The obstacle's corners are fixed splines, so the rows are a fixed
    linear map G of the plane coefficients, built once as the exact
    product (``spline_algebra.multiply``) of the basis functions with the
    homogeneous corners [corner_k(tau), 1].
    """

    def __init__(self, name, layout, basis: TrajectoryBasis, plane_index: int,
                 obstacle: ObstaclePrimitive, cushion: float):
        self.name = name
        self.layout = layout
        self.plane_index = plane_index
        self.obstacle = obstacle
        self.cushion_gap = cushion
        center = obstacle.motion or BSpline.constant(obstacle.center)
        # Control points of the homogeneous corners, corner-major columns.
        n, K, d1 = basis.n_coeffs, obstacle.corners.shape[0], obstacle.dim + 1
        cp = center.control_points[:, None, :] + obstacle.corners
        cp = np.concatenate([cp, np.ones(cp.shape[:2] + (1,))], axis=2)
        corners = BSpline(center.degree, center.knots, cp.reshape(len(cp), -1))
        # The product's column (i, k, e) is basis function i times component
        # e of corner k, so row (k, t) of G is linear in the plane
        # coefficients (a_i, b_i), columns (i, e).
        G = multiply(basis.units, corners).control_points
        self.G = G.reshape(-1, n, K, d1).transpose(2, 0, 1, 3).reshape(-1, n * d1)
        self.n_rows = self.G.shape[0]

    def evaluate(self, x):
        ab = self.layout.unpack(x).plane_coeffs[self.plane_index]
        r = self.G @ ab.reshape(-1) + (self.obstacle.radius + self.cushion_gap)

        def vjp(w):
            return self.layout.grad(
                plane=(self.plane_index, (w @ self.G).reshape(ab.shape)))

        return r, vjp

    def dense_violation(self, samples) -> float:
        a, b = samples.plane(self.plane_index)
        centers = self.obstacle.center_at(samples.taus)
        pts = centers[:, None, :] + self.obstacle.corners[None, :, :]
        y = np.einsum("sd,skd->sk", a, pts) + b[:, None] + self.obstacle.radius
        return _excess(y)


class PlaneNormFamily(ConstraintBlock):
    """Family (iii): |a|^2 - 1 <= -cushion on control points.

    Row t is the quadratic form sum_d a_d^T Q_t a_d, with Q_t built once
    as the exact products of pairs of basis functions
    (``spline_algebra.multiply``).
    """

    def __init__(self, name, layout, basis: TrajectoryBasis, plane_index: int,
                 cushion: float):
        self.name = name
        self.layout = layout
        self.plane_index = plane_index
        self.cushion_gap = cushion
        n = basis.n_coeffs
        self.Q = multiply(basis.units, basis.units).control_points.reshape(-1, n, n)
        self.n_rows = self.Q.shape[0]

    def evaluate(self, x):
        ab = self.layout.unpack(x).plane_coeffs[self.plane_index]
        a_c = ab[:, :-1]
        Qa = self.Q @ a_c  # (rows, n, d)
        r = (Qa * a_c).sum(axis=(1, 2)) + (self.cushion_gap - 1.0)

        def vjp(w):
            gab = np.zeros_like(ab)  # b does not enter the norm
            gab[:, :-1] = 2.0 * np.tensordot(w, Qa, axes=1)  # each Q_t is symmetric
            return self.layout.grad(plane=(self.plane_index, gab))

        return r, vjp

    def dense_violation(self, samples) -> float:
        a, _ = samples.plane(self.plane_index)
        return _excess((a * a).sum(axis=1) - 1.0)


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
    nfk: NumericFK | None
    plane_specs: list  # (TrackedBody, obstacle) per plane
    bodies: list  # TrackedBody per protected body
    q_init: np.ndarray  # boundary rows in spline-variable space
    q_goal: np.ndarray

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

    def trajectory(self, dv: DecisionVector) -> BSpline:
        """The joint-space spline: one column per coordinate."""
        return BSpline(self.basis.degree, self.basis.knots, dv.joint_coeffs)

    def samples(self, dv: DecisionVector, taus) -> TrajectorySamples:
        """The decision sampled at ``taus``, as verify and the export read it."""
        return TrajectorySamples(self, dv, taus)


class TrajectorySamples:
    """A decision sampled at fixed parameters, built by
    ``PlanningProblem.samples``: all that one verify or export call reads
    of it, each piece formed on first use and kept.

    The spline is differentiated as a whole, and each derivative order's
    basis matrix at ``taus`` is built once.  The values are formed one
    coordinate column at a time, ``B @ C[:, j]``: the product
    ``BSpline.eval`` forms for a one-coordinate spline, so they equal it
    to the bit, which a single ``B @ C`` does not.  The export and the
    limit families' dense checks read joint space through ``joint``.
    """

    def __init__(self, problem: PlanningProblem, decision: DecisionVector, taus):
        self.taus = taus
        self.T = decision.T
        self._decision = decision
        self._problem = problem
        self._kept = {("spline", 0): problem.trajectory(decision)}

    def _keep(self, key, make):
        """The piece ``key``, formed by ``make()`` on first use."""
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def _spline(self, order: int) -> BSpline:
        return self._keep(("spline", order),
                          lambda: self._spline(order - 1).derivative())

    def basis(self, order: int = 0) -> np.ndarray:
        """Basis matrix of the order-th derivative spline at ``taus``."""
        s = self._spline(order)
        return self._keep(("basis", order),
                          lambda: basis_matrix(s.knots, s.degree, self.taus))

    def values(self, order: int = 0) -> np.ndarray:
        """The order-th tau-derivative at ``taus``, (S, n_coords)."""
        B, C = self.basis(order), self._spline(order).control_points
        return self._keep(("values", order), lambda: np.column_stack(
            [B @ C[:, j] for j in range(C.shape[1])]))

    def joint(self, order: int = 0) -> np.ndarray:
        """Joint values (order 0), rates (1) or accelerations (2), (S,
        n_coords).  A half-angle coordinate reads theta = factor atan q, so
        with W = 1 + q^2, theta' = factor q' / (T W) and theta'' = factor
        (q'' W - 2 q q'^2) / (T^2 W^2); a linear one reads factor 1 and
        q = 0: q' / T and q'' / T^2 to the bit, up to the sign of a zero."""
        robot = self._problem.scenario.robot
        def make():
            if order == 0:
                return _angles(robot, self.values(0))
            q = self.values(0) * robot.revolute
            qd, W = self.values(1), 1.0 + q * q
            if order == 1:
                return robot.factors * qd / (self.T * W)
            return robot.factors * (self.values(2) * W - 2.0 * q * qd * qd) / (
                self.T**2 * W * W)
        return self._keep(("joint", order), make)

    def plane(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """a(tau) and b(tau) of plane k: two products, since one
        ``B @ [a | b]`` rounds differently."""
        ab = self._decision.plane_coeffs[k]
        return self._keep(("plane", k), lambda: (self.basis(0) @ ab[:, :-1],
                                                 self.basis(0) @ ab[:, -1]))

    def positions(self, body: TrackedBody) -> np.ndarray:
        """The body's workspace points: a chain link's vertices (S, V, 3),
        placed from one forward-kinematics pass for all links, or a mobile
        robot's coordinates (S, 1, n_coords)."""
        nfk = self._problem.nfk
        if nfk is None:
            return self.values(0)[:, None, :]
        state = self._keep("fk", lambda: nfk.shared_state(self.values(0)))
        return self._keep(("positions", body.name), lambda: nfk.body_positions(
            state, body.link_index, body.verts))


def _chain_levers(scenario: Scenario) -> LeverTable:
    """The chain's lever table.

    A revolute joint's lever r_jk bounds the distance from its axis to
    any vertex of link k; a prismatic joint translates the vertex, a lever
    of 1.  The reach across link i is |a| plus the largest |d + offset|
    over its offset range: the limits of a prismatic joint (infinite
    where a limit side is infinite), [0, 0] for a revolute one.
    """
    robot = scenario.robot
    chain, revolute = robot.chain, robot.revolute
    lo = np.where(revolute, 0.0, scenario.limits.angle_min)
    hi = np.where(revolute, 0.0, scenario.limits.angle_max)
    link_reach = [abs(link.a) + max(abs(link.d + low), abs(link.d + high))
                  for link, low, high in zip(chain.links, lo, hi)]
    levers = np.zeros((len(chain), len(chain)))
    for k in range(1, len(chain) + 1):
        vert_reach = float(np.linalg.norm(chain.link_cuboids[k - 1], axis=1).max())
        levers[k - 1, :k] = [sum(link_reach[j:k]) + vert_reach if revolute[j] else 1.0
                             for j in range(k)]
    return LeverTable(levers, robot.factors, np.where(revolute, -np.inf, lo),
                      np.where(revolute, np.inf, hi))


def _chain_workspace_bounds(scenario: Scenario, rates: np.ndarray) -> list[float]:
    """Workspace speed/acceleration bound of each link's vertices: a
    vertex of link k moves at most sum_{j<k} rate_j * lever_jk
    (``_chain_levers``), summed joint by joint."""
    levers = _chain_levers(scenario).levers
    return [sum(rates[j] * row[j] for j in range(k))
            for k, row in enumerate(levers, start=1)]


def static_field(scenario: Scenario) -> SignedDistanceField:
    """The signed distance field of the scenario's static obstacles over its
    workspace box, at 1/128 of the box's longest side (129 nodes on that
    axis): the field the planner's SDF clearance queries."""
    statics = [o for o in scenario.obstacles if o.is_static]
    extent = float((scenario.workspace_max - scenario.workspace_min).max())
    return build_sdf(statics, (scenario.workspace_min, scenario.workspace_max),
                     extent / 128.0)


def _time_heuristic(scenario: Scenario) -> float:
    delta = np.abs(scenario.boundary_goal - scenario.boundary_initial)
    t = float(np.max(delta / scenario.limits.velocity, initial=0.0)) * 1.5
    return max(t, T_MIN)


def _rest_to_rest_time(scenario: Scenario) -> float:
    """The least travel time of any rest-to-rest motion within the limits
    (at least ``T_MIN``).

    Each coordinate moving a distance d under its velocity limit v and
    acceleration limit a needs at least its bang-coast-bang time: d/v + v/a
    when d >= v^2/a, where it reaches v and coasts, and 2 sqrt(d/a)
    otherwise.  The slowest coordinate bounds T.
    """
    d = np.abs(scenario.boundary_goal - scenario.boundary_initial)
    v, a = scenario.limits.velocity, scenario.limits.acceleration
    t = np.where(d >= v * v / a, d / v + v / a, 2.0 * np.sqrt(d / a))
    return max(float(np.max(t, initial=0.0)), T_MIN)


def assemble(scenario: Scenario) -> PlanningProblem:
    """Build the relaxed coefficient-space problem for a scenario.

    Endpoint equalities are eliminated by pinning control rows; velocity,
    acceleration, and angle limits become coefficient families; static
    obstacles turn into signed-distance collocation constraints (or
    per-obstacle planes in hyperplane mode); moving obstacles get
    separating-plane families.  A limit whose derived bound overflows (the
    squared time estimate, an SDF body's workspace bounds) is a ScenarioError.
    """
    basis = TrajectoryBasis(scenario.basis_degree, scenario.basis_knots())
    robot = scenario.robot
    is_chain = isinstance(robot, ChainRobot)
    t_guess = _time_heuristic(scenario)
    if not math.isfinite(t_guess * t_guess):  # the limit cushions scale by it
        raise ScenarioError("limits.velocity: too small for the distance to travel")

    q_init, q_goal = (_coords(robot, theta) for theta in
                      (scenario.boundary_initial, scenario.boundary_goal))
    nfk = NumericFK(robot.chain, robot.halving_depths) if is_chain else None

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

    plane_specs = [(body, obs) for obs in plane_obstacles for body in bodies]

    layout = VariableLayout(
        basis.n_coeffs,
        scenario.n_coords,
        robot.world_dim,
        len(plane_specs),
        np.tile(q_init, (3, 1)),
        np.tile(q_goal, (3, 1)),
    )

    # The rate limits' cushions, in the units of their rows at T = t_guess.
    v, a = scenario.limits.velocity, scenario.limits.acceleration
    v_gap, a_gap = CUSHION * v * t_guess, CUSHION * a * t_guess**2
    families: list[ConstraintBlock] = []
    if is_chain:
        families.append(ChainRateFamily("velocity_limits", layout, basis, robot,
                                        v, v_gap))
        families.append(ChainAccelFamily("acceleration_limits", layout, basis,
                                         robot, a, a_gap))
    else:
        families.append(DerivBoxFamily("velocity_limits", layout, basis.D1, v, 1,
                                       v_gap))
        families.append(DerivBoxFamily("acceleration_limits", layout, basis.D2,
                                       a, 2, a_gap))
    # The angle (chain) or position (mobile) box; infinite sides and angle
    # limits at or beyond the recoverable range bound nothing and add no rows.
    box = CoeffBoxFamily("angle_limits" if is_chain else "position_limits", layout,
                         robot, scenario.limits.angle_min, scenario.limits.angle_max,
                         CUSHION)
    if box.n_rows:
        families.append(box)

    if static_obs and not use_planes_for_static:
        for body in bodies:  # the SDF motion margin scales by these
            for key, bound in (("velocity", body.speed_bound),
                               ("acceleration", body.accel_bound)):
                if not math.isfinite(bound):
                    raise ScenarioError(f"limits.{key}: {body.name}'s workspace "
                                        "bound is not finite")
        taus = collocation_sites(basis.knots,
                                 scenario.collision.collocation_per_span)
        families.append(
            SDFClearanceFamily(
                "sdf_clearance", layout, static_field(scenario), taus, bodies,
                cushion_abs=max(CUSHION, 2e-3), basis=basis, nfk=nfk,
                levers=_chain_levers(scenario) if is_chain else None,
            )
        )

    fk_cache = None
    if plane_specs and is_chain:
        fk_cache = FKSiteCache(ChainNumerators(
            robot.chain, robot.halving_depths, basis.extraction, basis.degree))
    for k, (body, obs) in enumerate(plane_specs):
        tag = f"{body.name}_obs{k // len(bodies)}"
        families.append(
            PlaneRobotSideFamily(f"plane_robot_{tag}", layout, basis, k,
                                 body, CUSHION, fk_cache)
        )
        families.append(
            PlaneObstacleSideFamily(f"plane_obstacle_{tag}", layout, basis, k,
                                    obs, CUSHION)
        )
        families.append(
            PlaneNormFamily(f"plane_norm_{tag}", layout, basis, k, CUSHION)
        )

    return PlanningProblem(
        scenario=scenario,
        basis=basis,
        layout=layout,
        families=families,
        nfk=nfk,
        plane_specs=plane_specs,
        bodies=bodies,
        q_init=q_init,
        q_goal=q_goal,
    )


def initial_guess(problem: PlanningProblem) -> DecisionVector:
    """The solver's start: the straight line of ``_straight_line`` or,
    for a mobile robot whose line runs into a static obstacle, the
    coefficients of a collision-free lattice path (see ``_seeded_guess``).
    Its T is the rate-based heuristic's, but at least the rest-to-rest
    bound, which the heuristic misses since it ignores the acceleration
    limits."""
    return _seeded_guess(problem)[0]


def _straight_line(problem: PlanningProblem) -> DecisionVector:
    """Linear coefficient interpolation, a travel time T, and planes
    seeded between each protected body and its obstacle: each plane's
    normal points from the obstacle's center at tau = 0 to the mean of the
    body's points sampled at tau = 0, and it passes their midpoint.

    T is the rate-based ``_time_heuristic`` (the cushions' ``t_guess``),
    raised to ``_rest_to_rest_time`` where it lies below: the heuristic
    ignores the acceleration limits, and no trajectory reaches a time
    below that bound, so a start there only costs the solver iterations
    climbing to it.
    """
    scenario = problem.scenario
    n = problem.basis.n_coeffs
    alphas = np.linspace(0.0, 1.0, n)[:, None]
    C = (1.0 - alphas) * problem.q_init[None, :] + alphas * problem.q_goal[None, :]
    C[:3] = problem.q_init
    C[-3:] = problem.q_goal

    T = max(_time_heuristic(scenario), _rest_to_rest_time(scenario))

    start = problem.samples(DecisionVector(C, T, []), np.zeros(1))
    planes = []
    for body, obs in problem.plane_specs:
        o0 = obs.center_at(0.0)[0]
        r0 = start.positions(body)[0].mean(axis=0)
        sep = r0 - o0
        norm = np.linalg.norm(sep)
        direction = sep / norm if norm > 1e-12 else np.eye(len(sep))[0]
        a_const = 0.9 * direction
        b_const = -float(a_const @ (0.5 * (r0 + o0)))
        planes.append(np.tile(np.append(a_const, b_const), (n, 1)))
    return DecisionVector(C, T, planes)


def _path_rows(Bpos: np.ndarray, C: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The free rows of ``C`` (all but the three pinned at each end)
    fitted by least squares on ``Bpos`` to the polyline ``points``.

    Each site reads the polyline at the straight line's own pace: at the
    fraction of its length that the line of ``_straight_line`` has gone
    there.  That map eases in and out, since the pinned rows start and end
    the line at rest, and a straight polyline gives back the line's rows.
    """
    arc = np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(points, axis=0), axis=1))])
    pace = np.linspace(0.0, 1.0, C.shape[0])
    pace[:3] = 0.0
    pace[-3:] = 1.0
    target = np.column_stack([np.interp(arc[-1] * (Bpos @ pace), arc, p)
                              for p in points.T])
    rhs = target - Bpos[:, :3] @ C[:3] - Bpos[:, -3:] @ C[-3:]
    return np.linalg.lstsq(Bpos[:, 3:-3], rhs, rcond=None)[0]


def _seeded_guess(problem: PlanningProblem) -> tuple[DecisionVector, dict]:
    """The initial guess and a record of how it was found.  ``solve``
    starts from it whenever it is given no guess, also when the start
    equals the goal (the line is then constant).

    A mobile robot with SDF clearance keeps the straight line bit for bit
    when the field reads at least the robot radius at every collocation
    site of the clearance family.  Otherwise its coefficients follow the
    shortest collision-free path of ``collision.lattice_path`` (clearance:
    the radius plus the family's cushion), fitted to the family's sites;
    without such a path the straight line stays.  T stays the straight
    line's: the rate-based heuristic, raised to the rest-to-rest bound
    where it lies below (see ``_straight_line``).  Chains, and mobile
    robots without an SDF family, start from the straight line.

    The record is ``{"start": "straight_line" | "lattice_path",
    "lattice_nodes", "path_length_m", "search_s", "T", "T_bound"}``: the
    nodes the lattice kept (0 when no search ran), the path's length (None
    without one), the seconds spent checking the line and searching, the
    start's travel time and the rest-to-rest bound of
    ``_rest_to_rest_time``; the start was clamped when the two are equal.
    """
    dv = _straight_line(problem)
    record = {"start": "straight_line", "lattice_nodes": 0,
              "path_length_m": None, "search_s": 0.0, "T": dv.T,
              "T_bound": _rest_to_rest_time(problem.scenario)}
    family = next((f for f in problem.families
                   if isinstance(f, SDFClearanceFamily)), None)
    if family is None or problem.nfk is not None:
        return dv, record
    t0 = time.perf_counter()
    radius = problem.bodies[0].radius
    values, _ = family.field.query_extended(family.Bpos @ dv.joint_coeffs)
    if not np.all(values >= radius):
        search = lattice_path(family.field, problem.q_init, problem.q_goal,
                              radius + family.cushion_gap)
        record["lattice_nodes"] = search.nodes
        if search.points is not None:
            dv.joint_coeffs[3:-3] = _path_rows(family.Bpos, dv.joint_coeffs,
                                               search.points)
            record["start"] = "lattice_path"
            record["path_length_m"] = search.length
    record["search_s"] = time.perf_counter() - t0
    length = record["path_length_m"]
    log.info("initial guess: %s (%d lattice nodes, %s, search %.2f ms)",
             record["start"], record["lattice_nodes"],
             "no path" if length is None else f"path {length:.3f} m",
             1e3 * record["search_s"])
    return dv, record


# The outcome fields solution.json stores after ``decision``, in its key
# order.
STORED_OUTCOME = ("status", "objective", "outer_iterations",
                  "inner_iterations", "max_violation", "kkt_residual",
                  "block_violations")


@dataclass(kw_only=True)
class Solution(SolveOutcome):
    """A solve's outcome (``nlp.SolveOutcome``, the solver's own objects)
    with the solved trajectory ``decision`` in place of the solver's point.

    ``initial_guess`` records how the start was found (see
    ``_seeded_guess``; empty when the caller gave the guess).  It and the
    outcome's ``trace``, ``block_scales`` and ``stop`` are run diagnostics.
    solution.json stores ``decision`` and the ``STORED_OUTCOME`` keys;
    ``verify`` reads back only ``decision`` (``DecisionVector.from_json``).
    """

    decision: DecisionVector
    initial_guess: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"decision": self.decision.to_json(),
                **{key: getattr(self, key) for key in STORED_OUTCOME}}


def solve(problem: PlanningProblem, guess: DecisionVector | None = None) -> Solution:
    """Run the augmented Lagrangian solver on the assembled problem.

    Without a ``guess`` the solve starts from ``initial_guess``.  Every
    plan goes through the solver, one whose start equals its goal too:
    its constant line is checked against every constraint family like any
    other start, and meets the KKT test at the minimum time when nothing
    moves into it.
    """
    record = {}
    if guess is None:
        guess, record = _seeded_guess(problem)
    x0 = problem.layout.pack(guess)
    solver = AugmentedLagrangianSolver(problem.objective, problem.families,
                                       bounds=problem.layout.bounds(T_MIN))
    result = solver.solve(x0)
    return Solution(**result.outcome(),
                    decision=problem.layout.unpack(result.x).copy(),
                    initial_guess=record)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class FamilyReport:
    """One family's worst dense violation; it passes at zero or below."""

    name: str
    kind: str  # "eq" for the endpoint conditions, "ineq" for every family
    max_violation: float
    n_samples: int
    tolerance = 0.0  # a class constant, stated in report.json

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


@dataclass
class VerificationReport:
    """Dense-sampling check of every continuous constraint family."""

    families: list[FamilyReport]
    oversample: int

    @property
    def passed(self) -> bool:
        """True when no family's dense violation exceeds zero."""
        return all(f.passed for f in self.families)

    def to_json(self) -> dict:
        return {
            "oversample": self.oversample,
            "families": [{**asdict(f), "tolerance": f.tolerance}
                         for f in self.families],
        }


def verify(dv: DecisionVector, problem: PlanningProblem,
           oversample: int = 10) -> VerificationReport:
    """Sample every continuous constraint of the trajectory ``dv`` at
    oversample x collocation density.

    Each family reports its worst dense violation, and passes only at
    zero or below: the hull-relaxed families, the endpoint conditions and
    SDF clearance (which the Lipschitz margin guarantees) all hold exactly.
    ``oversample`` must be at least 1.
    """
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    per_span = problem.scenario.collision.collocation_per_span * oversample
    taus = collocation_sites(problem.basis.knots, per_span)
    samples = problem.samples(dv, taus)
    reports = []

    # Endpoint conditions are exact by construction; report the residuals
    # at their two sites, tau = 0 and 1.
    # The sites run from 0.0 to 1.0, where the clamped basis is a unit row,
    # so rows 0 and -1 are one control point times 1 whatever the product's
    # summation order.  T's bounds T_MIN <= T < inf hold by construction
    # too, and are checked with them: the limit checks read T only as
    # |q'/T| or T^2, so a negated or an infinite T would pass them.
    q = samples.values(0)
    residuals = [q[0] - problem.q_init, q[-1] - problem.q_goal,
                 samples.values(1)[[0, -1]], samples.values(2)[[0, -1]]]
    t_viol = T_MIN - dv.T if math.isfinite(dv.T) else math.inf
    end_viol = float(np.concatenate(
        [np.abs(r).ravel() for r in residuals] + [[t_viol]]).max())
    reports.append(FamilyReport("endpoint_conditions", "eq", end_viol, 2))

    for fam in problem.families:
        v = fam.dense_violation(samples)
        reports.append(FamilyReport(fam.name, "ineq", float(v), taus.size))
    return VerificationReport(reports, oversample)

