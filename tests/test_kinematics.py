"""Kinematics: half-angle link numerators and their chain products in
Bernstein form, numeric FK, against independent DH oracles."""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from splinetraj.bernstein import ChainNumerators, bezier_extraction, product
from splinetraj.bspline import BSpline, clamp_knots
from splinetraj.kinematics import (
    DHChain,
    DHLink,
    NumericFK,
    halfangle_cos_sin,
)
from splinetraj.spline_algebra import FitOperator, add, collocation_sites, multiply

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


class Joint(NamedTuple):
    """One revolute joint: the spline of q = tan(theta / 2^n) and n."""

    q: BSpline
    halving_depth: int = 1


def random_joint(rng, depth=1, scale=0.8):
    n = len(CUBIC_KNOTS) - 4
    coeffs = rng.uniform(-scale, scale, (n, 1))
    return Joint(BSpline(3, CUBIC_KNOTS, coeffs), halving_depth=depth)


def constant_joint(value, depth=1):
    n = len(CUBIC_KNOTS) - 4
    return Joint(BSpline(3, CUBIC_KNOTS, np.full((n, 1), float(value))), halving_depth=depth)


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


def eval_spans(poly, knots, taus):
    """Values (T, r, c) at taus of per-span Bernstein polynomials
    (S, n + 1, r, c) on the spans of knots."""
    breaks = knots.distinct()
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    s = np.clip(np.searchsorted(breaks, taus, side="right") - 1, 0, len(breaks) - 2)
    t = ((taus - breaks[s]) / (breaks[s + 1] - breaks[s]))[:, None]
    n = poly.shape[1] - 1
    i = np.arange(n + 1)
    basis = np.array([math.comb(n, k) for k in i]) * t**i * (1.0 - t) ** (n - i)
    return np.einsum("ti,tirc->trc", basis, poly[s])


def prefixes(chain, joints):
    """Prefix products P_0..P_L of a chain at Joint or offset splines."""
    splines = [j.q if isinstance(j, Joint) else j for j in joints]
    depths = [j.halving_depth if isinstance(j, Joint) else 1 for j in joints]
    numerators = ChainNumerators(chain, depths,
                                 bezier_extraction(CUBIC_KNOTS, 3), 3)
    coeffs = np.column_stack([s.control_points[:, 0] for s in splines])
    return numerators.forward(coeffs)["prefix"]


def rational_eval(P, taus):
    """Transforms P / den at taus; den is P's bottom-right entry."""
    vals = eval_spans(P, CUBIC_KNOTS, taus)
    return vals / vals[:, 3:4, 3:4]


def trig_fk(chain, joint_values, link_index):
    """Trig FK oracle up to link ``link_index`` (1-based): the base pose
    times each link's ``oracle_dh``, its joint value added to the angle
    (revolute) or to the offset (prismatic)."""
    T = chain.base_pose
    for link, value in zip(chain.links[:link_index], joint_values):
        if link.joint_kind == "revolute":
            T = T @ oracle_dh(link.a, link.alpha, link.d, link.theta_offset + value)
        else:
            T = T @ oracle_dh(link.a, link.alpha, link.d + value, link.theta_offset)
    return T


def single(link, base=None):
    base = np.eye(4) if base is None else base
    return DHChain(base_pose=base, links=(link,), link_cuboids=(default_cuboid(),))


# a link whose transform is the bare rotation [[c, -s], [s, c]] about z
PLAIN = single(DHLink(a=0.0, alpha=0.0, d=0.0))


def trig_numerators(joint):
    """cos and sin numerators and the denominator of one revolute joint,
    per span: entries (0, 0), (1, 0) and (3, 3) of the plain link's P_1."""
    P = prefixes(PLAIN, [joint])[1]
    return P[..., 0:1, 0:1], P[..., 1:2, 0:1], P[..., 3:4, 3:4]


def trig_values(joint, taus):
    c, s, d = (eval_spans(x, CUBIC_KNOTS, taus)[:, 0, 0] for x in trig_numerators(joint))
    return c, s, d


class TestHalfAngleTrig:
    def test_zero_joint(self):
        c, s, d = trig_values(constant_joint(0.0), np.linspace(0, 1, 50))
        np.testing.assert_allclose(c / d, 1.0, atol=1e-12)
        np.testing.assert_allclose(s / d, 0.0, atol=1e-12)

    def test_unit_joint_quarter_turn(self):
        c, s, d = trig_values(constant_joint(1.0), np.linspace(0, 1, 20))
        np.testing.assert_allclose(c / d, 0.0, atol=1e-12)
        np.testing.assert_allclose(s / d, 1.0, atol=1e-12)

    def test_depth_two_against_trig_oracle(self):
        rng = np.random.default_rng(5)
        taus = np.linspace(0, 1, 300)
        for _ in range(5):
            joint = random_joint(rng, depth=2)
            c, s, d = trig_values(joint, taus)
            theta = 4.0 * np.arctan(joint.q.eval(taus)[:, 0])
            np.testing.assert_allclose(c / d, np.cos(theta), atol=1e-7)
            np.testing.assert_allclose(s / d, np.sin(theta), atol=1e-7)

    def test_trig_identity(self):
        rng = np.random.default_rng(7)
        taus = np.linspace(0, 1, 500)
        for depth in (1, 2):
            c, s, d = trig_values(random_joint(rng, depth=depth), taus)
            np.testing.assert_allclose((c * c + s * s) / (d * d), 1.0, atol=1e-8)

    def test_denominator_positive_control_points(self):
        rng = np.random.default_rng(11)
        for depth in (1, 2):
            for _ in range(10):
                _, _, den = trig_numerators(random_joint(rng, depth=depth))
                assert np.all(den > 0.0)


# Prismatic links at fixed angles whose cosines and sines take both signs,
# so that the revolute cosine matrix holds zeros of both signs.
PRISMATIC_LINKS = {
    "plain": DHLink(0.0, 0.0, 0.0, joint_kind="prismatic"),
    "offset_angle": DHLink(0.1, 0.0, 0.2, theta_offset=0.3, joint_kind="prismatic"),
    "obtuse": DHLink(-0.25, 2.5, 0.4, theta_offset=-2.2, joint_kind="prismatic"),
    "negative_zero_a": DHLink(-0.0, -np.pi / 2, 0.0, theta_offset=np.pi,
                              joint_kind="prismatic"),
    "threelink_third": replace(THREE_LINK.links[2], joint_kind="prismatic"),
}


class TestDHTransform:
    def test_constant_zero_joint(self):
        link = DHLink(a=0.5, alpha=-np.pi / 2, d=0.0)
        P = prefixes(single(link), [constant_joint(0.0)])[1]
        np.testing.assert_allclose(
            rational_eval(P, np.linspace(0, 1, 25)),
            np.broadcast_to(oracle_dh(0.5, -np.pi / 2, 0.0, 0.0), (25, 4, 4)),
            atol=1e-12,
        )

    def test_random_joint_against_oracle(self):
        rng = np.random.default_rng(13)
        taus = np.linspace(0, 1, 100)
        for link in THREE_LINK.links:
            joint = random_joint(rng)
            M = rational_eval(prefixes(single(link), [joint])[1], taus)
            q = joint.q.eval(taus)[:, 0]
            for Mk, qv in zip(M, q):
                ref = oracle_dh(link.a, link.alpha, link.d, 2.0 * np.arctan(qv))
                np.testing.assert_allclose(Mk, ref, atol=1e-7)

    def test_prismatic(self):
        link = DHLink(a=0.1, alpha=0.0, d=0.2, theta_offset=0.3, joint_kind="prismatic")
        n = len(CUBIC_KNOTS) - 4
        rng = np.random.default_rng(17)
        offset = BSpline(3, CUBIC_KNOTS, rng.uniform(-0.2, 0.2, (n, 1)))
        P = prefixes(single(link), [offset])[1]
        taus = np.linspace(0, 1, 40)
        vals = eval_spans(P, CUBIC_KNOTS, taus)
        np.testing.assert_allclose(vals[:, 3, 3], 1.0, atol=1e-14)
        for M, tau in zip(vals, taus):
            dval = 0.2 + offset.eval(tau)[0]
            np.testing.assert_allclose(M, oracle_dh(0.1, 0.0, dval, 0.3), atol=1e-10)

    @pytest.mark.parametrize("link", PRISMATIC_LINKS.values(),
                             ids=PRISMATIC_LINKS.keys())
    def test_prismatic_entries_are_classic_dh_at_offset_zero(self, link):
        # The revolute construction at the fixed angle: equal to the classic
        # matrix up to the sign of some zeros, which np.array_equal ignores.
        Mc, Ms, M0 = link.entry_matrices()
        classic = oracle_dh(link.a, link.alpha, link.d, link.theta_offset)
        assert np.array_equal(M0, classic)
        unit_z = np.zeros((4, 4))
        unit_z[2, 3] = 1.0
        assert np.array_equal(Mc, unit_z)
        assert not Ms.any()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("field", ["a", "alpha", "d", "theta_offset"],
                             ids=["a", "alpha", "d", "theta_offset"])
    def test_rejects_non_finite_parameters(self, field, value):
        params = dict(a=0.1, alpha=0.2, d=0.3, theta_offset=0.4, joint_kind="prismatic")
        params[field] = value
        with pytest.raises(ValueError, match=f"DH parameter {field} must be finite"):
            DHLink(**params)

    def test_rotation_block_orthonormal(self):
        rng = np.random.default_rng(19)
        link = DHLink(a=0.3, alpha=0.7, d=0.1)
        P = prefixes(single(link), [random_joint(rng)])[1]
        for R in rational_eval(P, np.linspace(0, 1, 60))[:, :3, :3]:
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-7)


class TestCompose:
    """Chaining two transforms is the per-span product of their numerators."""

    def test_identity(self):
        rng = np.random.default_rng(23)
        N = prefixes(single(THREE_LINK.links[0]), [random_joint(rng)])[1]
        identity = np.broadcast_to(np.eye(4), (N.shape[0], 1, 4, 4))
        out = product(N, identity)
        taus = np.linspace(0, 1, 50)
        np.testing.assert_allclose(
            eval_spans(out, CUBIC_KNOTS, taus), eval_spans(N, CUBIC_KNOTS, taus), atol=1e-9
        )

    def test_constant_product(self):
        rng = np.random.default_rng(29)
        A = rng.uniform(-1, 1, (4, 4))
        B = rng.uniform(-1, 1, (4, 4))
        out = product(A[None, None], B[None, None])
        np.testing.assert_allclose(out[0, 0], A @ B, atol=1e-12)

    def test_two_transforms_pointwise(self):
        rng = np.random.default_rng(31)
        N1 = prefixes(single(THREE_LINK.links[0]), [random_joint(rng)])[1]
        N2 = prefixes(single(THREE_LINK.links[1]), [random_joint(rng)])[1]
        taus = np.linspace(0, 1, 100)
        vals = eval_spans(product(N1, N2), CUBIC_KNOTS, taus)
        ref = eval_spans(N1, CUBIC_KNOTS, taus) @ eval_spans(N2, CUBIC_KNOTS, taus)
        np.testing.assert_allclose(vals, ref, atol=1e-6)


class TestForwardKinematics:
    def test_single_link_equals_compose(self):
        rng = np.random.default_rng(37)
        joint = random_joint(rng)
        base = oracle_dh(0.1, 0.4, -0.2, 0.9)
        chain = DHChain(base_pose=base, links=THREE_LINK.links[:1],
                        link_cuboids=THREE_LINK.link_cuboids[:1])
        fk = prefixes(chain, [joint])[1]
        N = prefixes(single(THREE_LINK.links[0]), [joint])[1]
        direct = product(np.broadcast_to(base, (N.shape[0], 1, 4, 4)), N)
        taus = np.linspace(0, 1, 30)
        np.testing.assert_allclose(
            eval_spans(fk, CUBIC_KNOTS, taus), eval_spans(direct, CUBIC_KNOTS, taus),
            atol=1e-9,
        )

    def test_constant_joints_match_numeric(self):
        qvals = [0.2, -0.4, 0.1]
        P = prefixes(THREE_LINK, [constant_joint(q) for q in qvals])[3]
        ref = np.eye(4)
        for link, q in zip(THREE_LINK.links, qvals):
            ref = ref @ oracle_dh(link.a, link.alpha, link.d, 2.0 * np.arctan(q))
        for M in rational_eval(P, np.linspace(0, 1, 10)):
            np.testing.assert_allclose(M, ref, atol=1e-8)

    def test_three_link_random_joints_oracle(self):
        rng = np.random.default_rng(41)
        joints = [random_joint(rng) for _ in range(3)]
        taus = np.linspace(0, 1, 50)
        fk = rational_eval(prefixes(THREE_LINK, joints)[3], taus)
        qs = np.column_stack([j.q.eval(taus)[:, 0] for j in joints])
        for k in range(taus.size):
            ref = np.eye(4)
            for link, qv in zip(THREE_LINK.links, qs[k]):
                ref = ref @ oracle_dh(link.a, link.alpha, link.d, 2 * np.arctan(qv))
            np.testing.assert_allclose(fk[k], ref, atol=1e-6)

    def test_degree_growth(self):
        rng = np.random.default_rng(43)
        P = prefixes(THREE_LINK, [random_joint(rng) for _ in range(3)])
        assert [x.shape[1] - 1 for x in P] == [0, 6, 12, 18]


class TestTransformPoint:
    """A local point [v; 1] carried by a prefix product: num = P_k [v; 1],
    den = the bottom entry, as the robot-side plane rows use it."""

    @staticmethod
    def point(P, v, taus):
        vals = eval_spans(P @ np.append(v, 1.0)[:, None], CUBIC_KNOTS, taus)[:, :, 0]
        return vals[:, :3] / vals[:, 3:]

    def test_identity_transform(self):
        P = prefixes(PLAIN, [constant_joint(0.0)])[1]
        np.testing.assert_allclose(
            self.point(P, np.array([0.1, -0.2, 0.3]), [0.5])[0], [0.1, -0.2, 0.3],
            atol=1e-14,
        )

    def test_constant_transform_and_point(self):
        T = oracle_dh(0.2, 0.4, 0.1, 0.6)
        chain = DHChain(base_pose=T, links=PLAIN.links, link_cuboids=PLAIN.link_cuboids)
        P = prefixes(chain, [constant_joint(0.0)])[1]
        p = np.array([0.05, 0.02, -0.07])
        ref = (T @ np.append(p, 1.0))[:3]
        np.testing.assert_allclose(self.point(P, p, [0.7])[0], ref, atol=1e-13)

    def test_fk_vertex_against_numeric_oracle(self):
        rng = np.random.default_rng(47)
        joints = [random_joint(rng) for _ in range(3)]
        P = prefixes(THREE_LINK, joints)[2]
        vert = THREE_LINK.link_cuboids[1][3]
        taus = np.linspace(0, 1, 100)
        pos = self.point(P, vert, taus)
        for k, tau in enumerate(taus):
            ref = np.eye(4)
            for link, joint in zip(THREE_LINK.links[:2], joints):
                qv = joint.q.eval(tau)[0]
                ref = ref @ oracle_dh(link.a, link.alpha, link.d, 2 * np.arctan(qv))
            np.testing.assert_allclose(pos[k], (ref @ np.append(vert, 1))[:3], atol=1e-6)


def recover(joint, taus):
    """Angles of one sampled joint, as the export recovers them."""
    return (2.0**joint.halving_depth) * np.arctan(joint.q.eval(taus)[:, 0])


class TestRecoverTheta:
    def test_zero(self):
        out = recover(constant_joint(0.0), np.linspace(0, 1, 10))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_unit(self):
        out = recover(constant_joint(1.0), np.linspace(0, 1, 10))
        np.testing.assert_allclose(out, np.pi / 2, atol=1e-12)

    def test_continuity_across_pi_depth_two(self):
        # theta sweeps 0 .. 1.4*pi, crossing pi, with n = 2.
        knots = CUBIC_KNOTS
        n = len(knots) - 4
        theta_targets = np.linspace(0.0, 1.4 * np.pi, n)
        q = BSpline(3, knots, np.tan(theta_targets / 4.0)[:, None])
        taus = np.linspace(0, 1, 500)
        theta = recover(Joint(q, halving_depth=2), taus)
        steps = np.abs(np.diff(theta))
        assert steps.max() < np.pi

    def test_round_trip_1_5_pi(self):
        # Joint sweeping -1.5*pi .. 1.5*pi at depth 2: recovered angles must
        # satisfy the substitution identity tan(theta/4) = q at every sample.
        knots = clamp_knots(np.round(np.linspace(0.05, 0.95, 19), 10), 3)
        n = len(knots) - 4
        theta_targets = np.linspace(-1.5 * np.pi, 1.5 * np.pi, n)
        q = BSpline(3, knots, np.tan(theta_targets / 4.0)[:, None])
        taus = np.linspace(0, 1, 200)
        recovered = recover(Joint(q, halving_depth=2), taus)
        qvals = q.eval(taus)[:, 0]
        np.testing.assert_allclose(np.tan(recovered / 4.0), qvals, atol=1e-9)
        assert recovered.min() < -1.2 * np.pi and recovered.max() > 1.2 * np.pi
        assert np.abs(np.diff(recovered)).max() < np.pi

    def test_recovered_angles_per_joint(self):
        # The export's route: revolute columns 2^n atan q, prismatic
        # offsets as they are, mobile coordinates as they are.
        import json

        from splinetraj.planner import DecisionVector, assemble
        from splinetraj.scenario import ChainRobot, parse_scenario

        from tests.test_planner import SCENARIO_DIR

        prismatic = json.loads((SCENARIO_DIR / "threelink.json").read_text())
        prismatic["robot"]["links"][2]["kind"] = "prismatic"
        prismatic["boundary"] = {"initial": [-60, 40, 0.1], "goal": [60, 40, 0.3],
                                 "units": "deg"}
        prismatic["obstacles"] = []
        scenarios = [json.loads((SCENARIO_DIR / f"{name}.json").read_text())
                     for name in ("threelink", "mobile2d")] + [prismatic]
        taus = np.linspace(0, 1, 200)
        for obj in scenarios:
            prob = assemble(parse_scenario(obj))
            rng = np.random.default_rng(3)
            C = rng.uniform(-2.0, 2.0, (prob.basis.n_coeffs, prob.layout.n_coords))
            got = prob.samples(DecisionVector(C, 1.0, []), taus).joint(0)
            robot = prob.scenario.robot
            for j in range(prob.layout.n_coords):
                column = BSpline(prob.basis.degree, prob.basis.knots, C[:, j : j + 1])
                want = column.eval(taus)[:, 0]
                if isinstance(robot, ChainRobot) and robot.revolute[j]:
                    joint = Joint(column, robot.halving_depths[j])
                    want = recover(joint, taus)
                assert got[:, j].tobytes() == want.tobytes(), (obj["name"], j)


def angle_map_cases():
    """Inputs of the joint map q -> factor atan q, with their ids."""
    rng = np.random.default_rng(21)
    big = np.tan(np.pi / 2 - 1e-9)
    yield "signed_zeros", np.array([0.0, -0.0, 0.0, -0.0, -0.0])
    yield "tiny", np.array([-0.0, 1e-300, -1e-300, 0.0])
    # sign flips through +-infinity in q, where theta reaches +-factor pi / 2
    yield "big_and_inf", np.array([big, -big, big, -big, -0.0, big, np.inf, -np.inf])
    yield "uniform", rng.uniform(-5.0, 5.0, 400)
    yield "tan_grid", np.tan(np.linspace(-3.0, 3.0, 301) / 2.0)
    yield "normal", rng.standard_normal(50) * 1e3
    yield "nan", np.array([0.5, np.nan, 0.5])


class TestAngleMap:
    """The one map from coordinates back to joint values."""

    @pytest.mark.parametrize("q", [q for _, q in angle_map_cases()],
                             ids=[name for name, _ in angle_map_cases()])
    def test_angles_are_factor_atan(self, q):
        from splinetraj.planner import _angles
        from splinetraj.scenario import ChainRobot

        links = THREE_LINK.links + (DHLink(0.1, 0.0, 0.0, joint_kind="prismatic"),)
        chain = DHChain(np.eye(4), links, (default_cuboid(),) * 4)
        robot = ChainRobot(chain, (1, 2, 3, 1))
        got = _angles(robot, np.column_stack([q] * 4))
        inf = np.isinf(q)
        for j, factor in enumerate((2.0, 4.0, 8.0)):
            assert got[:, j].tobytes() == (factor * np.arctan(q)).tobytes()
            assert (got[inf, j] == np.sign(q[inf]) * factor * np.pi / 2).all()
            assert (np.isnan(got[:, j]) == np.isnan(q)).all()
        assert got[:, 3].tobytes() == q.tobytes()  # a prismatic offset

    def test_far_coefficients_stay_in_range(self):
        # Joint 1's interior coefficients alternate +-1e5, so q jumps
        # through 0 between samples (679.8 to -436.4 at sample 252): each
        # angle is still 2 atan q, inside +-pi, with no branch carried over.
        from splinetraj.planner import DecisionVector, assemble, initial_guess
        from splinetraj.scenario import load_scenario

        from tests.test_planner import SCENARIO_DIR

        prob = assemble(load_scenario(SCENARIO_DIR / "threelink.json"))
        start = initial_guess(prob)
        C = start.joint_coeffs.copy()
        C[3:-3, 0] = 1e5 * (-1.0) ** np.arange(C.shape[0] - 6)
        samples = prob.samples(DecisionVector(C, start.T, start.plane_coeffs),
                               np.linspace(0.0, 1.0, 1000))
        theta = samples.joint(0)[:, 0]
        assert (np.abs(theta) < prob.scenario.robot.half_range[0]).all()
        assert theta.tobytes() == (2.0 * np.arctan(samples.values(0)[:, 0])).tobytes()


def dynamics_residual(state, rhs):
    """derivative(state) - rhs(state) with the exact spline algebra."""
    return add(state.derivative(), multiply(BSpline.constant([-1.0]), rhs(state)))


class TestPolynomialDynamics:
    def test_zero_rhs_constant_state(self):
        state = BSpline.constant([2.0], degree=3, knots=CUBIC_KNOTS)
        resid = dynamics_residual(state, lambda s: BSpline.constant([0.0]))
        np.testing.assert_allclose(resid.control_points, 0.0, atol=1e-12)

    def test_constant_rhs_linear_state(self):
        k = 1.7
        u = CUBIC_KNOTS.values
        greville = np.array([u[i + 1 : i + 4].mean() for i in range(len(u) - 4)])
        state = BSpline(3, CUBIC_KNOTS, (k * greville)[:, None])
        resid = dynamics_residual(state, lambda s: BSpline.constant([k]))
        taus = np.linspace(0, 1, 100)
        np.testing.assert_allclose(resid.eval(taus), 0.0, atol=1e-10)

    def test_exponential_residual_matches_representation_error(self):
        sites = collocation_sites(CUBIC_KNOTS, 16)
        coeffs = FitOperator(3, CUBIC_KNOTS, sites).fit_coefficients(
            np.exp(sites)[:, None])
        state = BSpline(3, CUBIC_KNOTS, coeffs)
        resid = dynamics_residual(state, lambda s: s)
        taus = np.linspace(0, 1, 1000)
        independent = state.derivative().eval(taus) - state.eval(taus)
        np.testing.assert_allclose(resid.eval(taus), independent, atol=1e-10)


# Revolute joints at depths 1 and 2 interleaved with a prismatic one
# (whose depth the forms ignore), under a rotated and shifted base.
MIXED_CHAIN = DHChain(
    base_pose=np.array([[0.0, -1.0, 0.0, 0.1], [1.0, 0.0, 0.0, -0.2],
                        [0.0, 0.0, 1.0, 0.3], [0.0, 0.0, 0.0, 1.0]]),
    links=(
        DHLink(a=0.5, alpha=-np.pi / 2, d=0.1),
        DHLink(0.1, 0.0, 0.2, theta_offset=0.3, joint_kind="prismatic"),
        DHLink(a=0.44, alpha=np.pi, d=0.0, theta_offset=0.7),
        DHLink(a=0.35, alpha=-np.pi / 2, d=0.05),
        DHLink(a=0.2, alpha=np.pi / 3, d=-0.1),
    ),
    link_cuboids=(default_cuboid(),) * 5,
)
MIXED_DEPTHS = [1, 2, 2, 1, 2]


def per_link_state(chain, depths, qmat, idx):
    """NumericFK's factors formed link by link, each joint's forms on its
    own column: T_j = c Mc + s Ms + M0, the prefix products, and
    A_j = prefix_j @ (dc Mc + ds Ms) at the samples idx."""
    Ts, dTs = [], []
    for link, depth, q in zip(chain.links, depths, qmat.T):
        Mc, Ms, M0 = link.entry_matrices()
        if link.joint_kind == "revolute":
            c, s, dc, ds = halfangle_cos_sin(q, depth, with_grad=True)
        else:
            c, s, dc, ds = q, np.zeros_like(q), np.ones_like(q), np.zeros_like(q)
        Ts.append(c[:, None, None] * Mc + s[:, None, None] * Ms + M0)
        dTs.append(dc[:, None, None] * Mc + ds[:, None, None] * Ms)
    prefix = [np.broadcast_to(chain.base_pose, (len(qmat), 4, 4)).copy()]
    for T in Ts:
        prefix.append(prefix[-1] @ T)
    A = [prefix[j][idx] @ dT[idx] for j, dT in enumerate(dTs)]
    return Ts, prefix, A


class TestNumericFK:
    def test_matches_spline_fk(self):
        rng = np.random.default_rng(53)
        joints = [random_joint(rng) for _ in range(3)]
        nfk = NumericFK(THREE_LINK, [1, 1, 1])
        taus = np.linspace(0, 1, 40)
        qmat = np.column_stack([j.q.eval(taus)[:, 0] for j in joints])
        T = nfk.chain_state(qmat, 3)["prefix"][-1]
        for k in range(taus.size):
            ref = np.eye(4)
            for link, qv in zip(THREE_LINK.links, qmat[k]):
                ref = ref @ oracle_dh(link.a, link.alpha, link.d, 2 * np.arctan(qv))
            np.testing.assert_allclose(T[k], ref, atol=1e-12)

    def test_denominator_product(self):
        rng = np.random.default_rng(59)
        nfk = NumericFK(THREE_LINK, [1, 2, 1])
        qmat = rng.uniform(-0.9, 0.9, (25, 3))
        state = nfk.chain_state(qmat, 3)
        # depth 2 squares its joint's factor
        ref = (1 + qmat[:, 0] ** 2) * (1 + qmat[:, 1] ** 2) ** 2 * (1 + qmat[:, 2] ** 2)
        np.testing.assert_allclose(state["den"], ref, rtol=1e-14)

    @pytest.mark.parametrize("q", [-0.3, 0.0, 0.25],
                             ids=["retracted", "zero", "extended"])
    def test_prismatic_joint_is_linear(self, q):
        # T = q Mc + M0 and dT/dq = Mc, bit for bit, on either side of 0.
        links = THREE_LINK.links[:2] + (PRISMATIC_LINKS["threelink_third"],)
        chain = DHChain(np.eye(4), links, THREE_LINK.link_cuboids)
        nfk = NumericFK(chain, [1, 2, 1])
        rng = np.random.default_rng(71)
        qmat = np.column_stack([rng.uniform(-0.8, 0.8, (6, 2)), np.full(6, q)])
        Mc, _, M0 = links[2].entry_matrices()
        T = nfk.link_values(qmat)[2]
        assert T.tobytes() == np.broadcast_to(q * Mc + M0, T.shape).tobytes()
        state = nfk.gradient_state(nfk.shared_state(qmat), qmat, np.arange(6))
        assert state["A"][2].tobytes() == (state["prefix"][2] @ Mc).tobytes()

    def test_vertex_gradients_finite_difference(self):
        rng = np.random.default_rng(61)
        nfk = NumericFK(THREE_LINK, [1, 1, 1])
        taus = np.linspace(0.1, 0.9, 7)
        qmat = rng.uniform(-0.5, 0.5, (taus.size, 3))
        verts = THREE_LINK.link_cuboids[2]
        state = nfk.gradient_state(nfk.shared_state(qmat), qmat,
                                   np.arange(len(qmat)))
        grads = nfk.body_position_grads(state, 3, verts)
        h = 1e-7
        for j in range(3):
            qp, qm = qmat.copy(), qmat.copy()
            qp[:, j] += h
            qm[:, j] -= h
            pp = nfk.vertex_positions(nfk.chain_state(qp, 3), verts)
            pm = nfk.vertex_positions(nfk.chain_state(qm, 3), verts)
            np.testing.assert_allclose(grads[j], (pp - pm) / (2 * h), atol=1e-6)

    @pytest.mark.parametrize("links", [5, 3, 1], ids=["all_links", "first_three",
                                                       "first_link"])
    def test_grouped_forms_equal_per_link(self, links):
        # Links grouped as prismatic or revolute at one depth form the same
        # bits as link by link, the groups interleaved along the chain and
        # cut to the first links as ``chain_state`` cuts them.
        nfk = NumericFK(MIXED_CHAIN, MIXED_DEPTHS)
        rng = np.random.default_rng(73)
        qmat = rng.uniform(-0.9, 0.9, (17, 5))[:, :links]
        idx = np.array([0, 3, 4, 11, 16])
        Ts, prefix, A = per_link_state(MIXED_CHAIN, MIXED_DEPTHS, qmat, idx)
        values = nfk.link_values(qmat)
        state = nfk.shared_state(qmat)
        cut = nfk.gradient_state(state, qmat, idx)
        assert len(values) == len(state["Ts"]) == len(cut["A"]) == links
        for j in range(links):
            assert values[j].tobytes() == Ts[j].tobytes()
            assert state["Ts"][j].tobytes() == Ts[j].tobytes()
            assert cut["Ts"][j].tobytes() == Ts[j][idx].tobytes()
            assert cut["A"][j].tobytes() == A[j].tobytes()
        assert len(state["prefix"]) == links + 1
        for k in range(links + 1):
            assert state["prefix"][k].tobytes() == prefix[k].tobytes()
            assert cut["prefix"][k].tobytes() == prefix[k][idx].tobytes()

    def test_link_groups_key_on_kind_and_depth(self):
        # A prismatic link at depth 1 groups apart from the revolute links
        # at depth 1; ChainNumerators and NumericFK share these groups.
        depths = [1, 1, 2, 1, 2]
        groups = MIXED_CHAIN.link_groups(depths)
        assert [(rev, d, links.tolist()) for rev, d, links in groups] == [
            (True, 1, [0, 3]), (False, 1, [1]), (True, 2, [2, 4])]
        numerators = ChainNumerators(MIXED_CHAIN, depths,
                                     bezier_extraction(CUBIC_KNOTS, 3), 3)
        assert [(rev, d, links.tolist()) for rev, d, links in numerators.groups] == [
            (rev, d, links.tolist()) for rev, d, links in groups]

    @pytest.mark.parametrize("depths", [[0, 2, 2, 1, 2], [1, 0, 2, 1, 2], [1, 2, 2, 1, -1]],
                             ids=["revolute_depth_0", "prismatic_depth_0",
                                  "negative_depth"])
    def test_depth_below_one_rejected(self, depths):
        from splinetraj.scenario import ChainRobot, ScenarioError

        with pytest.raises(ValueError, match="halving depths must be at least 1"):
            NumericFK(MIXED_CHAIN, depths)
        with pytest.raises(ScenarioError, match="halving_depth: must be at least 1"):
            ChainRobot(MIXED_CHAIN, tuple(depths))

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
