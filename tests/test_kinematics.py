"""Kinematics: half-angle substitution, rational spline transforms, FK oracles."""

import numpy as np

from splinetraj.bspline import BSpline, clamp_knots
from splinetraj.kinematics import (
    DHChain,
    DHLink,
    HalfAngleJoint,
    NumericFK,
    RationalSplineMatrix,
    compose,
    dh_transform,
    forward_kinematics,
    half_angle_trig,
    halfangle_cos_sin,
    polynomial_dynamics_constraint,
    recover_theta,
    transform_point,
)
from splinetraj.spline_algebra import RefitConfig, add, multiply, refit, collocation_sites

CFG = RefitConfig()
CUBIC_KNOTS = clamp_knots(np.round(np.arange(0.1, 0.95, 0.1), 10), 3)


def oracle_dh(a, alpha, d, theta):
    """Independent numeric DH matrix, transcribed from the rotation/offset blocks."""
    ct, st, ca, sa = np.cos(theta), np.sin(theta), np.cos(alpha), np.sin(alpha)
    return np.array(
        [
            [ct, -st * ca, st * sa, a * ct],
            [st, ct * ca, -ct * sa, a * st],
            [0, sa, ca, d],
            [0, 0, 0, 1],
        ]
    )


def random_joint(rng, depth=1, scale=0.8):
    n = len(CUBIC_KNOTS) - 4
    coeffs = rng.uniform(-scale, scale, (n, 1))
    return HalfAngleJoint(BSpline(3, CUBIC_KNOTS, coeffs), halving_depth=depth)


def constant_joint(value, depth=1):
    n = len(CUBIC_KNOTS) - 4
    return HalfAngleJoint(
        BSpline(3, CUBIC_KNOTS, np.full((n, 1), float(value))), halving_depth=depth
    )


def default_cuboid():
    return np.array(
        [[x, y, z] for x in (-0.1, 0.0) for y in (-0.03, 0.03) for z in (-0.03, 0.03)]
    )


THREE_LINK = DHChain(
    base_pose=np.eye(4),
    links=(
        DHLink(a=0.5, alpha=-np.pi / 2, d=0.0),
        DHLink(a=0.44, alpha=np.pi, d=0.0),
        DHLink(a=0.35, alpha=-np.pi / 2, d=0.0),
    ),
    link_cuboids=(default_cuboid(), default_cuboid(), default_cuboid()),
)

FANUC = DHChain(
    base_pose=np.eye(4),
    links=(
        DHLink(a=0.05, alpha=-np.pi / 2, d=0.0),
        DHLink(a=0.44, alpha=np.pi, d=0.0),
        DHLink(a=0.035, alpha=-np.pi / 2, d=0.0),
        DHLink(a=0.0, alpha=np.pi / 2, d=-0.42),
        DHLink(a=0.0, alpha=-np.pi / 2, d=0.0),
        DHLink(a=0.0, alpha=np.pi, d=-0.19),
    ),
    link_cuboids=tuple(default_cuboid() for _ in range(6)),
)


class TestHalfAngleTrig:
    def test_zero_joint(self):
        cos_num, sin_num, den = half_angle_trig(constant_joint(0.0), CFG)
        taus = np.linspace(0, 1, 50)
        c = cos_num.eval(taus)[:, 0] / den.eval(taus)[:, 0]
        s = sin_num.eval(taus)[:, 0] / den.eval(taus)[:, 0]
        np.testing.assert_allclose(c, 1.0, atol=1e-12)
        np.testing.assert_allclose(s, 0.0, atol=1e-12)

    def test_unit_joint_quarter_turn(self):
        cos_num, sin_num, den = half_angle_trig(constant_joint(1.0), CFG)
        taus = np.linspace(0, 1, 20)
        np.testing.assert_allclose(
            cos_num.eval(taus)[:, 0] / den.eval(taus)[:, 0], 0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            sin_num.eval(taus)[:, 0] / den.eval(taus)[:, 0], 1.0, atol=1e-12
        )

    def test_depth_two_against_trig_oracle(self):
        rng = np.random.default_rng(5)
        taus = np.linspace(0, 1, 300)
        for _ in range(5):
            joint = random_joint(rng, depth=2)
            cos_num, sin_num, den = half_angle_trig(joint, CFG)
            q = joint.q.eval(taus)[:, 0]
            theta = 4.0 * np.arctan(q)
            np.testing.assert_allclose(
                cos_num.eval(taus)[:, 0] / den.eval(taus)[:, 0],
                np.cos(theta),
                atol=1e-7,
            )
            np.testing.assert_allclose(
                sin_num.eval(taus)[:, 0] / den.eval(taus)[:, 0],
                np.sin(theta),
                atol=1e-7,
            )

    def test_trig_identity(self):
        rng = np.random.default_rng(7)
        taus = np.linspace(0, 1, 500)
        for depth in (1, 2):
            joint = random_joint(rng, depth=depth)
            cos_num, sin_num, den = half_angle_trig(joint, CFG)
            c, s, d = (
                cos_num.eval(taus)[:, 0],
                sin_num.eval(taus)[:, 0],
                den.eval(taus)[:, 0],
            )
            np.testing.assert_allclose((c * c + s * s) / (d * d), 1.0, atol=1e-8)

    def test_denominator_positive_control_points(self):
        rng = np.random.default_rng(11)
        for depth in (1, 2):
            for _ in range(10):
                _, _, den = half_angle_trig(random_joint(rng, depth=depth), CFG)
                assert np.all(den.control_points > 0.0)


class TestDHTransform:
    def test_constant_zero_joint(self):
        link = DHLink(a=0.5, alpha=-np.pi / 2, d=0.0)
        M = dh_transform(link, constant_joint(0.0), CFG)
        for tau in np.linspace(0, 1, 25):
            np.testing.assert_allclose(
                M.eval(tau), oracle_dh(0.5, -np.pi / 2, 0.0, 0.0), atol=1e-12
            )

    def test_random_joint_against_oracle(self):
        rng = np.random.default_rng(13)
        taus = np.linspace(0, 1, 100)
        for link in THREE_LINK.links:
            joint = random_joint(rng)
            M = dh_transform(link, joint, CFG)
            q = joint.q.eval(taus)[:, 0]
            for tau, qv in zip(taus, q):
                ref = oracle_dh(link.a, link.alpha, link.d, 2.0 * np.arctan(qv))
                np.testing.assert_allclose(M.eval(tau), ref, atol=1e-7)

    def test_prismatic(self):
        link = DHLink(a=0.1, alpha=0.0, d=0.2, theta_offset=0.3, joint_kind="prismatic")
        n = len(CUBIC_KNOTS) - 4
        rng = np.random.default_rng(17)
        offset = BSpline(3, CUBIC_KNOTS, rng.uniform(-0.2, 0.2, (n, 1)))
        M = dh_transform(link, offset, CFG)
        taus = np.linspace(0, 1, 40)
        dens = M.denominator.eval(taus)[:, 0]
        np.testing.assert_allclose(dens, 1.0, atol=1e-14)
        for tau in taus:
            dval = 0.2 + offset.eval(tau)[0]
            np.testing.assert_allclose(
                M.eval(tau), oracle_dh(0.1, 0.0, dval, 0.3), atol=1e-10
            )

    def test_rotation_block_orthonormal(self):
        rng = np.random.default_rng(19)
        taus = np.linspace(0, 1, 60)
        joint = random_joint(rng)
        link = DHLink(a=0.3, alpha=0.7, d=0.1)
        M = dh_transform(link, joint, CFG)
        mats = M.eval(taus)
        for R in mats[:, :3, :3]:
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-7)


class TestCompose:
    def test_identity(self):
        rng = np.random.default_rng(23)
        M = dh_transform(THREE_LINK.links[0], random_joint(rng), CFG)
        I = RationalSplineMatrix.constant(np.eye(4))
        out = compose(M, I, CFG)
        taus = np.linspace(0, 1, 50)
        np.testing.assert_allclose(out.eval(taus), M.eval(taus), atol=1e-9)

    def test_constant_product(self):
        rng = np.random.default_rng(29)
        A = rng.uniform(-1, 1, (4, 4))
        B = rng.uniform(-1, 1, (4, 4))
        out = compose(
            RationalSplineMatrix.constant(A), RationalSplineMatrix.constant(B), CFG
        )
        np.testing.assert_allclose(out.eval(0.3), A @ B, atol=1e-12)

    def test_two_transforms_pointwise(self):
        rng = np.random.default_rng(31)
        j1, j2 = random_joint(rng), random_joint(rng)
        M1 = dh_transform(THREE_LINK.links[0], j1, CFG)
        M2 = dh_transform(THREE_LINK.links[1], j2, CFG)
        out = compose(M1, M2, CFG)
        taus = np.linspace(0, 1, 100)
        vals = out.eval(taus)
        ref = np.einsum("sij,sjk->sik", M1.eval(taus), M2.eval(taus))
        np.testing.assert_allclose(vals, ref, atol=1e-6)


class TestForwardKinematics:
    def test_single_link_equals_compose(self):
        rng = np.random.default_rng(37)
        joint = random_joint(rng)
        fk = forward_kinematics(THREE_LINK, [joint], 1, CFG)
        direct = compose(
            RationalSplineMatrix.constant(THREE_LINK.base_pose),
            dh_transform(THREE_LINK.links[0], joint, CFG),
            CFG,
        )
        taus = np.linspace(0, 1, 30)
        np.testing.assert_allclose(fk.eval(taus), direct.eval(taus), atol=1e-9)

    def test_constant_joints_match_numeric(self):
        qvals = [0.2, -0.4, 0.1]
        joints = [constant_joint(q) for q in qvals]
        fk = forward_kinematics(THREE_LINK, joints, 3, CFG)
        thetas = [2.0 * np.arctan(q) for q in qvals]
        ref = np.eye(4)
        for link, th in zip(THREE_LINK.links, thetas):
            ref = ref @ oracle_dh(link.a, link.alpha, link.d, th)
        for tau in np.linspace(0, 1, 10):
            np.testing.assert_allclose(fk.eval(tau), ref, atol=1e-8)

    def test_three_link_random_joints_oracle(self):
        rng = np.random.default_rng(41)
        joints = [random_joint(rng) for _ in range(3)]
        fk = forward_kinematics(THREE_LINK, joints, 3, CFG)
        taus = np.linspace(0, 1, 50)
        qs = np.column_stack([j.q.eval(taus)[:, 0] for j in joints])
        for k, tau in enumerate(taus):
            ref = np.eye(4)
            for link, qv in zip(THREE_LINK.links, qs[k]):
                ref = ref @ oracle_dh(link.a, link.alpha, link.d, 2 * np.arctan(qv))
            np.testing.assert_allclose(fk.eval(tau), ref, atol=1e-6)

    def test_degree_growth(self):
        rng = np.random.default_rng(43)
        joints = [random_joint(rng) for _ in range(2)]
        fk = forward_kinematics(THREE_LINK, joints, 2, CFG)
        assert fk.degree == 12


class TestTransformPoint:
    def test_identity_transform(self):
        I = RationalSplineMatrix.constant(np.eye(4))
        num, den = transform_point(I, np.array([0.1, -0.2, 0.3]), CFG)
        np.testing.assert_allclose(
            num.eval(0.5) / den.eval(0.5), [0.1, -0.2, 0.3], atol=1e-14
        )

    def test_constant_transform_and_point(self):
        T = oracle_dh(0.2, 0.4, 0.1, 0.6)
        M = RationalSplineMatrix.constant(T)
        p = np.array([0.05, 0.02, -0.07])
        num, den = transform_point(M, p, CFG)
        ref = (T @ np.append(p, 1.0))[:3]
        np.testing.assert_allclose(num.eval(0.7) / den.eval(0.7), ref, atol=1e-13)

    def test_fk_vertex_against_numeric_oracle(self):
        rng = np.random.default_rng(47)
        joints = [random_joint(rng) for _ in range(2)]
        fk = forward_kinematics(THREE_LINK, joints, 2, CFG)
        vert = THREE_LINK.link_cuboids[1][3]
        num, den = transform_point(fk, vert, CFG)
        taus = np.linspace(0, 1, 100)
        pos = num.eval(taus) / den.eval(taus)
        for k, tau in enumerate(taus):
            ref = np.eye(4)
            for link, joint in zip(THREE_LINK.links, joints):
                qv = joint.q.eval(tau)[0]
                ref = ref @ oracle_dh(link.a, link.alpha, link.d, 2 * np.arctan(qv))
            np.testing.assert_allclose(pos[k], (ref @ np.append(vert, 1))[:3], atol=1e-6)


class TestRecoverTheta:
    def test_zero(self):
        out = recover_theta(constant_joint(0.0), np.linspace(0, 1, 10))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_unit(self):
        out = recover_theta(constant_joint(1.0), np.linspace(0, 1, 10))
        np.testing.assert_allclose(out, np.pi / 2, atol=1e-12)

    def test_continuity_across_pi_depth_two(self):
        # theta sweeps 0 .. 1.4*pi, crossing pi, with n = 2.
        knots = CUBIC_KNOTS
        n = len(knots) - 4
        theta_targets = np.linspace(0.0, 1.4 * np.pi, n)
        q = BSpline(3, knots, np.tan(theta_targets / 4.0)[:, None])
        joint = HalfAngleJoint(q, halving_depth=2)
        taus = np.linspace(0, 1, 500)
        theta = recover_theta(joint, taus, theta_init=0.0)
        steps = np.abs(np.diff(theta))
        assert steps.max() < np.pi

    def test_round_trip_1_5_pi(self):
        # Joint sweeping -1.5*pi .. 1.5*pi at depth 2: recovered angles must
        # satisfy the substitution identity tan(theta/4) = q at every sample.
        knots = clamp_knots(np.round(np.linspace(0.05, 0.95, 19), 10), 3)
        n = len(knots) - 4
        theta_targets = np.linspace(-1.5 * np.pi, 1.5 * np.pi, n)
        q = BSpline(3, knots, np.tan(theta_targets / 4.0)[:, None])
        joint = HalfAngleJoint(q, halving_depth=2)
        taus = np.linspace(0, 1, 200)
        recovered = recover_theta(joint, taus, theta_init=-1.5 * np.pi)
        qvals = q.eval(taus)[:, 0]
        np.testing.assert_allclose(np.tan(recovered / 4.0), qvals, atol=1e-9)
        assert recovered.min() < -1.2 * np.pi and recovered.max() > 1.2 * np.pi
        assert np.abs(np.diff(recovered)).max() < np.pi


class TestPolynomialDynamics:
    def test_zero_rhs_constant_state(self):
        state = BSpline.constant([2.0], degree=3, knots=CUBIC_KNOTS)
        resid = polynomial_dynamics_constraint(
            state, lambda s: BSpline.constant([0.0]), CFG
        )
        np.testing.assert_allclose(resid.control_points, 0.0, atol=1e-12)

    def test_constant_rhs_linear_state(self):
        k = 1.7
        u = CUBIC_KNOTS.values
        greville = np.array([u[i + 1 : i + 4].mean() for i in range(len(u) - 4)])
        state = BSpline(3, CUBIC_KNOTS, (k * greville)[:, None])
        resid = polynomial_dynamics_constraint(
            state, lambda s: BSpline.constant([k]), CFG
        )
        taus = np.linspace(0, 1, 100)
        np.testing.assert_allclose(resid.eval(taus), 0.0, atol=1e-10)

    def test_exponential_residual_matches_representation_error(self):
        sites = collocation_sites(CUBIC_KNOTS, 3, 16)
        state, _ = refit(sites, np.exp(sites), 3, CUBIC_KNOTS)
        resid = polynomial_dynamics_constraint(state, lambda s: s, CFG)
        taus = np.linspace(0, 1, 1000)
        independent = state.derivative().eval(taus) - state.eval(taus)
        np.testing.assert_allclose(resid.eval(taus), independent, atol=1e-10)


class TestNumericFK:
    def test_matches_spline_fk(self):
        rng = np.random.default_rng(53)
        joints = [random_joint(rng) for _ in range(3)]
        fk = forward_kinematics(THREE_LINK, joints, 3, CFG)
        nfk = NumericFK(THREE_LINK, [1, 1, 1])
        taus = np.linspace(0, 1, 40)
        qmat = np.column_stack([j.q.eval(taus)[:, 0] for j in joints])
        T = nfk.transforms(qmat, 3)
        np.testing.assert_allclose(T, fk.eval(taus), atol=1e-6)

    def test_denominator_product(self):
        rng = np.random.default_rng(59)
        joints = [random_joint(rng) for _ in range(2)]
        fk = forward_kinematics(THREE_LINK, joints, 2, CFG)
        nfk = NumericFK(THREE_LINK, [1, 1, 1])
        taus = np.linspace(0, 1, 25)
        qmat = np.column_stack([j.q.eval(taus)[:, 0] for j in joints])
        state = nfk.chain_state(qmat, 2)
        np.testing.assert_allclose(
            state["den"], fk.denominator.eval(taus)[:, 0], atol=1e-8
        )

    def test_vertex_gradients_finite_difference(self):
        rng = np.random.default_rng(61)
        nfk = NumericFK(THREE_LINK, [1, 1, 1])
        taus = np.linspace(0.1, 0.9, 7)
        qmat = rng.uniform(-0.5, 0.5, (taus.size, 3))
        verts = THREE_LINK.link_cuboids[2]
        state = nfk.shared_state(qmat, with_grad=True)
        grads = nfk.body_position_grads(state, 3, verts)
        h = 1e-7
        for j in range(3):
            qp, qm = qmat.copy(), qmat.copy()
            qp[:, j] += h
            qm[:, j] -= h
            pp = nfk.vertex_positions(nfk.chain_state(qp, 3), verts)
            pm = nfk.vertex_positions(nfk.chain_state(qm, 3), verts)
            np.testing.assert_allclose(grads[j], (pp - pm) / (2 * h), atol=1e-6)

    def test_halfangle_cos_sin_gradients(self):
        rng = np.random.default_rng(67)
        q = rng.uniform(-1.5, 1.5, 100)
        for depth in (1, 2, 3):
            c, s, dc, ds = halfangle_cos_sin(q, depth, with_grad=True)
            theta = (2.0**depth) * np.arctan(q)
            np.testing.assert_allclose(c, np.cos(theta), atol=1e-12)
            np.testing.assert_allclose(s, np.sin(theta), atol=1e-12)
            h = 1e-7
            cp, sp = halfangle_cos_sin(q + h, depth)
            cm, sm = halfangle_cos_sin(q - h, depth)
            np.testing.assert_allclose(dc, (cp - cm) / (2 * h), atol=1e-5)
            np.testing.assert_allclose(ds, (sp - sm) / (2 * h), atol=1e-5)
