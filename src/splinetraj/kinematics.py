"""Forward kinematics lifted to spline space.

Revolute joints are parameterized by q = tan(theta / 2^n); the tangent
half-angle substitution turns every trigonometric entry of a
Denavit-Hartenberg transform into a polynomial in q, so link transforms
become matrices of B-splines over a shared positive denominator spline.
Prismatic joints substitute the offset directly and keep denominator 1.

The module also hosts fast numeric evaluation of the same rational forms
(values and gradients at sample points), which the planner uses for
signed-distance clearance, dense verification and export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bspline import BSpline, KnotVector, clamp_knots
from .spline_algebra import (
    DEFAULT_CONFIG,
    FitOperator,
    RefitConfig,
    RefitError,
    add,
    collocation_sites,
    elevated_union,
    multiply,
    refit,
    scale,
)

__all__ = [
    "DHLink",
    "DHChain",
    "HalfAngleJoint",
    "RationalSplineMatrix",
    "half_angle_trig",
    "dh_transform",
    "compose",
    "forward_kinematics",
    "transform_point",
    "recover_theta",
    "polynomial_dynamics_constraint",
    "NumericFK",
    "halfangle_cos_sin",
    "homogeneous",
]

REVOLUTE = "revolute"
PRISMATIC = "prismatic"


@dataclass(frozen=True)
class DHLink:
    """One Denavit-Hartenberg link.

    The joint variable replaces theta_offset (revolute) or adds to d
    (prismatic); the stored value acts as a constant offset either way.
    """

    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0
    joint_kind: str = REVOLUTE

    def __post_init__(self):
        if self.joint_kind not in (REVOLUTE, PRISMATIC):
            raise ValueError(f"unknown joint kind {self.joint_kind!r}")

    def entry_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constant matrices (Mc, Ms, M0) with T = Mc*cos(v) + Ms*sin(v) + M0.

        v is the revolute joint variable; the theta offset is folded into
        Mc and Ms via the angle-sum identities.  For prismatic links Mc
        carries the coefficient of the variable offset instead (Ms = 0).
        """
        ca, sa = np.cos(self.alpha), np.sin(self.alpha)
        if self.joint_kind == REVOLUTE:
            Ac = np.array(
                [
                    [1.0, 0.0, 0.0, self.a],
                    [0.0, ca, -sa, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                ]
            )
            As = np.array(
                [
                    [0.0, -ca, sa, 0.0],
                    [1.0, 0.0, 0.0, self.a],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                ]
            )
            A0 = np.array(
                [
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, sa, ca, self.d],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
            c0, s0 = np.cos(self.theta_offset), np.sin(self.theta_offset)
            return Ac * c0 + As * s0, -Ac * s0 + As * c0, A0
        Md = np.zeros((4, 4))
        Md[2, 3] = 1.0
        M0 = self.numeric_transform(0.0)
        return Md, np.zeros((4, 4)), M0

    def numeric_transform(self, variable: float) -> np.ndarray:
        """Classic numeric DH matrix at one joint value."""
        if self.joint_kind == REVOLUTE:
            th = self.theta_offset + variable
            dd = self.d
        else:
            th = self.theta_offset
            dd = self.d + variable
        ct, st = np.cos(th), np.sin(th)
        ca, sa = np.cos(self.alpha), np.sin(self.alpha)
        return np.array(
            [
                [ct, -st * ca, st * sa, self.a * ct],
                [st, ct * ca, -ct * sa, self.a * st],
                [0.0, sa, ca, dd],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class DHChain:
    """Serial chain: constant base pose, DH links, one collision cuboid per link."""

    base_pose: np.ndarray
    links: tuple[DHLink, ...]
    link_cuboids: tuple[np.ndarray, ...]

    def __post_init__(self):
        base = np.asarray(self.base_pose, dtype=float)
        if base.shape != (4, 4) or not np.all(np.isfinite(base)):
            raise ValueError("base_pose must be a finite 4x4 matrix")
        if len(self.links) < 1:
            raise ValueError("chain needs at least one link")
        if len(self.link_cuboids) != len(self.links):
            raise ValueError("one cuboid (8 vertices) required per link")
        cuboids = []
        for verts in self.link_cuboids:
            v = np.asarray(verts, dtype=float)
            if v.shape != (8, 3) or not np.all(np.isfinite(v)):
                raise ValueError("cuboid must be 8 finite vertices in R^3")
            v.flags.writeable = False
            cuboids.append(v)
        base = base.copy()
        base.flags.writeable = False
        object.__setattr__(self, "base_pose", base)
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "link_cuboids", tuple(cuboids))

    def __len__(self):
        return len(self.links)

    def numeric_fk(self, joint_values, link_index: int) -> np.ndarray:
        """Plain numeric forward kinematics up to the given link (1-based)."""
        T = self.base_pose.copy()
        for j in range(link_index):
            T = T @ self.links[j].numeric_transform(joint_values[j])
        return T


@dataclass(frozen=True)
class HalfAngleJoint:
    """Substituted revolute joint variable q = tan(theta / 2^n)."""

    q: BSpline
    halving_depth: int = 1

    def __post_init__(self):
        if self.q.dim != 1:
            raise ValueError("joint spline must be scalar-valued")
        if self.halving_depth < 1:
            raise ValueError("halving_depth must be a positive integer")

    @property
    def theta_range(self) -> float:
        """Half-width of the open recoverable joint range."""
        return 2 ** (self.halving_depth - 1) * np.pi


class RationalSplineMatrix:
    """Matrix of B-splines over a shared scalar denominator spline.

    All numerator entries live on one basis (stored as a single
    vector-valued spline with one coordinate per entry in row-major order),
    and the denominator shares that basis.  The denominator must be
    strictly positive on [0, 1]; positivity of its control points is the
    preferred certificate, with dense sampling as fallback.
    """

    __slots__ = ("numerators", "denominator", "shape", "positive_certified")

    def __init__(self, numerators: BSpline, denominator: BSpline, shape: tuple[int, int]):
        r, c = shape
        if numerators.dim != r * c:
            raise ValueError(
                f"numerator spline dim {numerators.dim} does not match shape {shape}"
            )
        if denominator.dim != 1:
            raise ValueError("denominator must be scalar-valued")
        if not denominator.same_basis(numerators):
            raise ValueError("numerators and denominator must share a basis")
        certified = bool(np.all(denominator.control_points > 0.0))
        if not certified:
            samples = denominator.eval(np.linspace(0.0, 1.0, 1001))[:, 0]
            if samples.min() <= 0.0:
                raise ValueError("denominator not strictly positive on [0, 1]")
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "shape", (r, c))
        object.__setattr__(self, "positive_certified", certified)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSplineMatrix is immutable")

    @property
    def degree(self) -> int:
        return self.numerators.degree

    def entry(self, i: int, j: int) -> BSpline:
        """Scalar numerator spline of entry (i, j)."""
        r, c = self.shape
        col = i * c + j
        return BSpline(
            self.numerators.degree,
            self.numerators.knots,
            self.numerators.control_points[:, col : col + 1],
        )

    def eval(self, taus) -> np.ndarray:
        """Matrix values numerators(tau)/denominator(tau); (..., r, c)."""
        scalar = np.isscalar(taus) or (
            isinstance(taus, np.ndarray) and np.ndim(taus) == 0
        )
        t = np.atleast_1d(np.asarray(taus, dtype=float))
        nums = self.numerators.eval(t)
        dens = self.denominator.eval(t)[:, 0]
        out = nums.reshape(len(t), *self.shape) / dens[:, None, None]
        return out[0] if scalar else out

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "RationalSplineMatrix":
        """Constant matrix with denominator identically 1 (degree-0 splines)."""
        mat = np.asarray(matrix, dtype=float)
        knots = clamp_knots([], 0)
        num = BSpline(0, knots, mat.reshape(1, -1))
        den = BSpline(0, knots, [[1.0]])
        return cls(num, den, mat.shape)

    def __repr__(self):
        return (
            f"RationalSplineMatrix(shape={self.shape}, degree={self.degree}, "
            f"n_coefficients={self.numerators.n_coefficients})"
        )


def _as_shared_basis(splines: dict[str, BSpline], degree: int, knots: KnotVector,
                     cfg: RefitConfig) -> dict[str, BSpline]:
    """Re-express splines exactly on a common richer basis."""
    taus = collocation_sites(knots, degree, cfg.spans_samples(degree))
    op = FitOperator(degree, knots, taus)
    out = {}
    for name, s in splines.items():
        if s.degree == degree and s.knots == knots:
            out[name] = s
            continue
        fitted, resid = op.fit(s.eval(taus))
        if resid > cfg.residual_tolerance:
            raise RefitError(f"basis elevation of {name}", float(taus[0]), resid,
                             cfg.residual_tolerance)
        out[name] = fitted
    return out


def half_angle_trig(
    joint: HalfAngleJoint, cfg: RefitConfig = DEFAULT_CONFIG
) -> tuple[BSpline, BSpline, BSpline]:
    """Spline numerators of cos/sin and their shared positive denominator.

    Depth 1 is the classic substitution cos = (1 - q^2)/(1 + q^2),
    sin = 2q/(1 + q^2).  Greater depths apply the double-angle identities
    recursively, squaring the denominator at each level, so that
    cos_num/den and sin_num/den equal cos(theta), sin(theta) with
    theta = 2^n * atan-chain recovery.
    """
    q = joint.q
    q2 = multiply(q, q, cfg)
    basis_deg, basis_knots = q2.degree, q2.knots
    shared = _as_shared_basis({"q": q}, basis_deg, basis_knots, cfg)
    ones = np.ones((q2.n_coefficients, 1))
    cos_num = BSpline(basis_deg, basis_knots, ones - q2.control_points)
    sin_num = BSpline(basis_deg, basis_knots, 2.0 * shared["q"].control_points)
    den = BSpline(basis_deg, basis_knots, ones + q2.control_points)
    for _ in range(joint.halving_depth - 1):
        cc = multiply(cos_num, cos_num, cfg)
        ss = multiply(sin_num, sin_num, cfg)
        sc = multiply(sin_num, cos_num, cfg)
        dd = multiply(den, den, cfg)
        cos_num = BSpline(cc.degree, cc.knots, cc.control_points - ss.control_points)
        sin_num = scale(sc, 2.0)
        den = dd
    return cos_num, sin_num, den


def dh_transform(
    link: DHLink,
    joint,
    cfg: RefitConfig = DEFAULT_CONFIG,
) -> RationalSplineMatrix:
    """Link transform as a rational spline matrix.

    Revolute links take a HalfAngleJoint and produce the denominator-cleared
    half-angle matrix; prismatic links take a scalar BSpline for the
    variable offset and keep denominator 1.
    """
    if link.joint_kind == REVOLUTE:
        if not isinstance(joint, HalfAngleJoint):
            raise TypeError("revolute link requires a HalfAngleJoint")
        cos_num, sin_num, den = half_angle_trig(joint, cfg)
        Mc, Ms, M0 = link.entry_matrices()
        coeffs = (
            cos_num.control_points @ Mc.reshape(1, 16)
            + sin_num.control_points @ Ms.reshape(1, 16)
            + den.control_points @ M0.reshape(1, 16)
        )
        num = BSpline(den.degree, den.knots, coeffs)
        return RationalSplineMatrix(num, den, (4, 4))
    if not isinstance(joint, BSpline) or joint.dim != 1:
        raise TypeError("prismatic link requires a scalar BSpline offset")
    Md, _, M0 = link.entry_matrices()
    ones = np.ones((joint.n_coefficients, 1))
    coeffs = joint.control_points @ Md.reshape(1, 16) + ones @ M0.reshape(1, 16)
    num = BSpline(joint.degree, joint.knots, coeffs)
    den = BSpline(joint.degree, joint.knots, ones)
    return RationalSplineMatrix(num, den, (4, 4))


def compose(
    A: RationalSplineMatrix,
    B: RationalSplineMatrix,
    cfg: RefitConfig = DEFAULT_CONFIG,
) -> RationalSplineMatrix:
    """Product of two rational spline matrices.

    Numerator entries are the spline matrix product; the denominator is
    the product of the two denominators.  Every entry is fit in one batch
    on a shared basis that represents the products exactly, and the fit
    residual is checked.
    """
    ra, ca = A.shape
    rb, cb = B.shape
    if ca != rb:
        raise ValueError(f"incompatible shapes {A.shape} x {B.shape}")
    p3 = A.degree + B.degree
    knots3 = elevated_union(
        [(A.numerators.knots, A.degree), (B.numerators.knots, B.degree)], p3
    )
    taus = collocation_sites(knots3, p3, cfg.spans_samples(p3))
    op = FitOperator(p3, knots3, taus)
    Avals = A.numerators.eval(taus).reshape(len(taus), ra, ca)
    Bvals = B.numerators.eval(taus).reshape(len(taus), rb, cb)
    Cvals = np.einsum("sik,skj->sij", Avals, Bvals).reshape(len(taus), ra * cb)
    dvals = A.denominator.eval(taus)[:, 0] * B.denominator.eval(taus)[:, 0]
    num, num_resid = op.fit(Cvals)
    den, den_resid = op.fit(dvals)
    worst = max(num_resid, den_resid)
    if worst > cfg.residual_tolerance * max(
        1.0, np.abs(Cvals).max(), np.abs(dvals).max()
    ):
        raise RefitError("compose", float(taus[0]), worst, cfg.residual_tolerance)
    return RationalSplineMatrix(num, den, (ra, cb))


def forward_kinematics(
    chain: DHChain,
    joints,
    link_index: int,
    cfg: RefitConfig = DEFAULT_CONFIG,
) -> RationalSplineMatrix:
    """Base-to-link transform T0 * prod_j T_j as a rational spline matrix.

    Spline degrees grow additively with chain depth.
    """
    if not 1 <= link_index <= len(chain):
        raise ValueError(f"link index {link_index} outside 1..{len(chain)}")
    if len(joints) < link_index:
        raise ValueError("one joint trajectory required per link")
    M = RationalSplineMatrix.constant(chain.base_pose)
    for j in range(link_index):
        M = compose(M, dh_transform(chain.links[j], joints[j], cfg), cfg)
    return M


def transform_point(
    T: RationalSplineMatrix,
    p_local,
    cfg: RefitConfig = DEFAULT_CONFIG,
) -> tuple[BSpline, BSpline]:
    """Trajectory of a local-frame point in the base frame.

    Returns the rational point (num, den): a 3-vector numerator spline and
    the shared scalar denominator.  Constant points need no refit; a moving
    local point (scalar-per-coordinate BSpline) goes through the algebra.
    """
    if T.shape != (4, 4):
        raise ValueError("transform_point expects a 4x4 rational matrix")
    if isinstance(p_local, BSpline):
        if p_local.dim != 3:
            raise ValueError("moving local point must be a 3-vector spline")
        cols = []
        for i in range(3):
            acc = None
            for j in range(3):
                pj = BSpline(
                    p_local.degree,
                    p_local.knots,
                    p_local.control_points[:, j : j + 1],
                )
                term = multiply(T.entry(i, j), pj, cfg)
                acc = term if acc is None else add(acc, term, cfg)
            acc = add(acc, T.entry(i, 3), cfg)
            cols.append(acc)
        basis = cols[0]
        coeffs = np.hstack([c.control_points for c in cols])
        num = BSpline(basis.degree, basis.knots, coeffs)
        taus = collocation_sites(num.knots, num.degree, cfg.spans_samples(num.degree))
        den, resid = refit(taus, T.denominator.eval(taus), num.degree, num.knots)
        if resid > cfg.residual_tolerance:
            raise RefitError("transform_point", float(taus[0]), resid,
                             cfg.residual_tolerance)
        return num, den
    point = np.asarray(p_local, dtype=float)
    if point.shape != (3,):
        raise ValueError("local point must be a 3-vector")
    hom = np.append(point, 1.0)
    entry_coeffs = T.numerators.control_points.reshape(-1, 4, 4)
    num_coeffs = entry_coeffs @ hom
    num = BSpline(T.degree, T.numerators.knots, num_coeffs[:, :3])
    return num, T.denominator


def recover_theta(joint: HalfAngleJoint, taus, theta_init: float | None = None) -> np.ndarray:
    """Branch-continuous joint angles from the substituted variable.

    theta = 2^n * atan(q) is defined up to multiples of 2^n * pi; samples
    are unwrapped sequentially so consecutive angles stay on the same
    branch, seeded by theta_init when given.
    """
    t = np.atleast_1d(np.asarray(taus, dtype=float))
    qvals = joint.q.eval(t)[:, 0]
    n = joint.halving_depth
    period = (2.0**n) * np.pi
    raw = (2.0**n) * np.arctan(qvals)
    out = np.empty_like(raw)
    prev = raw[0] if theta_init is None else theta_init
    for k, val in enumerate(raw):
        out[k] = val + period * np.round((prev - val) / period)
        prev = out[k]
    return out


def polynomial_dynamics_constraint(
    state: BSpline,
    rhs_builder,
    cfg: RefitConfig = DEFAULT_CONFIG,
) -> BSpline:
    """Residual spline derivative(state) - f(state) for a polynomial f.

    rhs_builder receives the state spline and must assemble f(state) with
    the spline algebra (add/multiply over the state and constants).  The
    planner drives the residual's control points to zero, which by the
    convex hull property pins the residual function itself to zero.
    """
    rhs = rhs_builder(state)
    if not isinstance(rhs, BSpline):
        raise TypeError("rhs_builder must return a BSpline")
    if rhs.dim != state.dim:
        raise ValueError("rhs dimension must match the state dimension")
    return add(state.derivative(), scale(rhs, -1.0), cfg)


def halfangle_cos_sin(qvals: np.ndarray, depth: int, with_grad: bool = False):
    """cos/sin of the recovered angle from substituted values, vectorized.

    Uses the rational forms level by level (no trig calls), which keeps the
    numerics identical to the spline construction.  With with_grad, also
    returns d(cos)/dq and d(sin)/dq.
    """
    q = np.asarray(qvals, dtype=float)
    w = 1.0 + q * q
    c = (1.0 - q * q) / w
    s = 2.0 * q / w
    if with_grad:
        dc = -4.0 * q / (w * w)
        ds = 2.0 * (1.0 - q * q) / (w * w)
    for _ in range(depth - 1):
        if with_grad:
            dc, ds = 2.0 * (c * dc - s * ds), 2.0 * (ds * c + s * dc)
        c, s = c * c - s * s, 2.0 * s * c
    if with_grad:
        return c, s, dc, ds
    return c, s


class NumericFK:
    """Vectorized numeric evaluation of the rational chain transforms.

    Values and joint-coefficient gradients of link transforms, separated
    into the shared positive denominator and the numerator matrices so the
    results match the rational spline construction exactly as functions.
    """

    def __init__(self, chain: DHChain, halving_depths):
        self.chain = chain
        self.depths = tuple(int(d) for d in halving_depths)
        if len(self.depths) != len(chain):
            raise ValueError("one halving depth per link required")
        self._entry = [link.entry_matrices() for link in chain.links]
        self._kinds = [link.joint_kind for link in chain.links]

    def link_values(self, qmat: np.ndarray, with_grad: bool = False):
        """Per-link transform factors at S samples.

        qmat has shape (S, L): substituted values for revolute links,
        variable offsets for prismatic links.  Returns per link the numeric
        transform T_j (S,4,4) and, when requested, its derivative dT_j/dq_j.
        """
        S, L = qmat.shape
        Ts, dTs = [], []
        for j in range(L):
            Mc, Ms, M0 = self._entry[j]
            qj = qmat[:, j]
            if self._kinds[j] == REVOLUTE:
                if with_grad:
                    c, s, dc, ds = halfangle_cos_sin(qj, self.depths[j], True)
                else:
                    c, s = halfangle_cos_sin(qj, self.depths[j])
                Ts.append(
                    c[:, None, None] * Mc
                    + s[:, None, None] * Ms
                    + M0[None, :, :]
                )
                if with_grad:
                    dTs.append(dc[:, None, None] * Mc + ds[:, None, None] * Ms)
            else:
                Ts.append(qj[:, None, None] * Mc + M0[None, :, :])
                if with_grad:
                    dTs.append(np.broadcast_to(Mc, (S, 4, 4)).copy())
        if with_grad:
            return Ts, dTs
        return Ts

    def transforms(self, qmat: np.ndarray, link_index: int) -> np.ndarray:
        """Cumulative base-to-link transforms T0..T_link at S samples."""
        Ts = self.link_values(qmat[:, :link_index])
        out = np.broadcast_to(self.chain.base_pose, (qmat.shape[0], 4, 4)).copy()
        for T in Ts:
            out = out @ T
        return out

    def chain_state(self, qmat: np.ndarray, link_index: int):
        """Prefix transforms and the cumulative denominator for one link.

        Returns a dict with:
          prefix:   list of cumulative transforms, prefix[j] = T0*T1..Tj
          Ts:       the per-link factors
          den:      cumulative denominator of the link transform (S,), the
                    product of (1 + q_j^2)^(2^(n_j - 1)) over revolute links
        """
        q = qmat[:, :link_index]
        Ts = self.link_values(q)
        S = qmat.shape[0]
        prefix = [np.broadcast_to(self.chain.base_pose, (S, 4, 4)).copy()]
        for T in Ts:
            prefix.append(prefix[-1] @ T)
        den = np.ones(S)
        for j in range(link_index):
            if self._kinds[j] == REVOLUTE:
                den = den * (1.0 + q[:, j] * q[:, j]) ** (2 ** (self.depths[j] - 1))
        return {"prefix": prefix, "Ts": Ts, "den": den}

    @staticmethod
    def vertex_positions(state, verts: np.ndarray) -> np.ndarray:
        """Positions (S, V, 3) of local-frame vertices under prefix[-1]."""
        hom = np.hstack([verts, np.ones((verts.shape[0], 1))])
        return np.einsum("sij,vj->svi", state["prefix"][-1], hom)[:, :, :3]

    def shared_state(self, qmat: np.ndarray, with_grad: bool = False):
        """Full-chain factors computed once for use by every link.

        prefix[k] is the base-to-link-k transform; A[j] = prefix[j] @ dT_j
        is the shared left part of every d(position)/d(q_j).
        """
        if with_grad:
            Ts, dTs = self.link_values(qmat, True)
        else:
            Ts = self.link_values(qmat)
        S = qmat.shape[0]
        prefix = [np.broadcast_to(self.chain.base_pose, (S, 4, 4)).copy()]
        for T in Ts:
            prefix.append(prefix[-1] @ T)
        state = {"prefix": prefix, "Ts": Ts}
        if with_grad:
            state["A"] = [prefix[j] @ dTs[j] for j in range(len(Ts))]
        return state

    @staticmethod
    def body_positions(state, link_index: int, verts: np.ndarray,
                       hom: np.ndarray | None = None) -> np.ndarray:
        """Positions (S, V, 3) of one link's local vertices; hom is their
        precomputed ``homogeneous(verts)`` block when the caller has it."""
        if hom is None:
            hom = homogeneous(verts)
        out = state["prefix"][link_index] @ hom  # (S, 4, V)
        return out[:, :3, :].transpose(0, 2, 1)

    @staticmethod
    def body_position_grads(state, link_index: int, verts: np.ndarray,
                            hom: np.ndarray | None = None) -> np.ndarray:
        """d(position)/d(q_j) for one link from the shared state; (k, S, V, 3)."""
        Ts, A = state["Ts"], state["A"]
        S = Ts[0].shape[0]
        R = homogeneous(verts) if hom is None else hom  # (4, V), then (S, 4, V)
        grads = np.empty((link_index, S, verts.shape[0], 3))
        for j in range(link_index - 1, -1, -1):
            grads[j] = (A[j] @ R)[:, :3, :].transpose(0, 2, 1)
            if j:
                R = Ts[j] @ R
        return grads


def homogeneous(verts: np.ndarray) -> np.ndarray:
    """Local vertices (V, 3) as homogeneous columns (4, V)."""
    return np.hstack([verts, np.ones((verts.shape[0], 1))]).T
