"""The robot's joint map gives the bytes of the per-kind code it replaced.

Each robot states its joint map (``revolute``, ``factors``,
``half_range``, ``world_dim``), and the boundary rows, the coefficient
box, the sampled angles and rates and the recoverable-range check read
it.  The ``reference_*`` functions are the expressions those ran before,
one branch per robot kind with the factor 2^n and the range 2^(n-1) pi
written out, kept to compare bytes with.
"""

import numpy as np
import pytest

from splinetraj.planner import (
    CUSHION,
    CoeffBoxFamily,
    DecisionVector,
    assemble,
)
from splinetraj.scenario import ChainRobot, ScenarioError, parse_scenario
from splinetraj.spline_algebra import collocation_sites
from tests.test_family_vjp import (
    _bundled_dict,
    _perturbed_point,
    _twolink_moving_sphere_dict,
)


def _with_box(obj, lo, hi):
    if lo is not None:
        obj["limits"]["angle_min"] = lo
    if hi is not None:
        obj["limits"]["angle_max"] = hi
    return obj


def _prismatic():
    obj = _twolink_moving_sphere_dict()
    obj["robot"]["links"][1] = {"a": 0.0, "alpha": 0.0, "d": 0.2,
                                "kind": "prismatic"}
    obj["boundary"] = {"initial": [-1.0, 0.1], "goal": [1.0, 0.3], "units": "rad"}
    obj["limits"] = {"velocity": 2.0, "acceleration": 4.0, "units": "rad"}
    return _with_box(obj, [-2.6, 0.0], [2.6, 0.5])


def _depth2():
    obj = _twolink_moving_sphere_dict()
    obj["robot"]["halving_depth"] = 2
    del obj["limits"]["angle_max"]  # one-sided: -300 deg is inside +-360 deg
    return _with_box(obj, -300, None)


# Each scenario with a box on its coordinates: a position box for the
# mobile robots (one-sided for mobile3d), angle limits inside the
# recoverable range for the chains.
SCENARIOS = {
    "mobile2d": lambda: _with_box(_bundled_dict("mobile2d"),
                                  [-0.4, -0.6], [3.4, 0.6]),
    "mobile3d": lambda: _with_box(_bundled_dict("mobile3d"), None,
                                  [2.8, 1.4, 1.4]),
    "threelink": lambda: _with_box(_bundled_dict("threelink"), -150, 150),
    "prismatic": _prismatic,
    "depth2": _depth2,
}


def reference_boundary_rows(scenario):
    robot = scenario.robot
    ends = (scenario.boundary_initial, scenario.boundary_goal)
    if isinstance(robot, ChainRobot):
        depths, revolute = robot.halving_depths, robot.revolute
        return tuple(np.where(revolute, np.tan(theta / (2.0 ** np.array(depths))),
                              theta) for theta in ends)
    return tuple(theta.copy() for theta in ends)


def reference_box(scenario):
    """The coefficient bounds, cushioned, and the raw box."""
    robot, n = scenario.robot, scenario.n_coords
    lo, hi = scenario.limits.angle_min, scenario.limits.angle_max
    lo = np.full(n, -np.inf) if lo is None else lo
    hi = np.full(n, np.inf) if hi is None else hi
    qlo, qhi = lo, hi
    if isinstance(robot, ChainRobot):
        depths_arr = np.array(robot.halving_depths, dtype=float)
        half_range = (2.0 ** (depths_arr - 1)) * np.pi
        qlo = np.where(lo > -half_range, np.tan(np.maximum(
            lo, -half_range * (1 - 1e-9)) / (2.0**depths_arr)), -np.inf)
        qhi = np.where(hi < half_range, np.tan(np.minimum(
            hi, half_range * (1 - 1e-9)) / (2.0**depths_arr)), np.inf)
        qlo = np.where(robot.revolute, qlo, lo)
        qhi = np.where(robot.revolute, qhi, hi)
    span = np.where(np.isfinite(qhi) & np.isfinite(qlo),
                    np.maximum(qhi - qlo, 1.0), 1.0)
    return qlo + CUSHION * span, qhi - CUSHION * span, lo, hi


def reference_box_violation(scenario, values, raw_lo, raw_hi):
    robot = scenario.robot
    if isinstance(robot, ChainRobot):
        depths = [d if r else None for d, r in
                  zip(robot.halving_depths, robot.revolute)]
        angle = [d is not None for d in depths]
        scale = 2.0 ** np.array([d or 0 for d in depths])
        values = np.where(angle, scale * np.arctan(values), values)
    worst = float(np.maximum(values - raw_hi, raw_lo - values).max())
    return 0.0 if worst <= 0.0 else worst


def reference_angles_and_rates(scenario, values, T):
    robot = scenario.robot
    q, qd = values(0), values(1)
    if not isinstance(robot, ChainRobot):
        return q, qd / T
    factors = np.where(robot.revolute, 2.0 ** np.array(robot.halving_depths), 1.0)
    angles = np.where(robot.revolute, factors * np.arctan(q), q)
    qr = q * robot.revolute
    return angles, factors * qd / (T * (1.0 + qr * qr))


@pytest.fixture(scope="module")
def problems():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = assemble(parse_scenario(SCENARIOS[name]()))
        return cache[name]

    return get


@pytest.mark.parametrize("name", list(SCENARIOS))
class TestJointMap:
    def test_boundary_rows(self, problems, name):
        problem = problems(name)
        for got, want in zip((problem.q_init, problem.q_goal),
                             reference_boundary_rows(problem.scenario)):
            assert got.tobytes() == want.tobytes()
        assert problem.layout.top_rows.tobytes() == np.tile(
            problem.q_init, (3, 1)).tobytes()

    def test_coefficient_box(self, problems, name):
        problem = problems(name)
        box, = [f for f in problem.families if isinstance(f, CoeffBoxFamily)]
        assert box.name == ("angle_limits" if problem.nfk is not None
                            else "position_limits")
        for got, want in zip((box.lo, box.hi, box.raw_lo, box.raw_hi),
                             reference_box(problem.scenario)):
            assert got.tobytes() == want.tobytes()
        taus = collocation_sites(problem.basis.knots, 40)
        point = problem.layout.unpack(_perturbed_point(problem, np.random.default_rng(5)))
        for scale in (1.0, 8.0):  # 8x breaks the box
            dv = DecisionVector(scale * point.joint_coeffs, point.T,
                                point.plane_coeffs)
            samples = problem.samples(dv, taus)
            want = reference_box_violation(problem.scenario, samples.values(0),
                                           box.raw_lo, box.raw_hi)
            assert float(box.dense_violation(samples)).hex() == float(want).hex()

    def test_sampled_angles_and_rates(self, problems, name):
        problem = problems(name)
        point = problem.layout.unpack(_perturbed_point(problem, np.random.default_rng(7)))
        taus = collocation_sites(problem.basis.knots, 40)
        samples = problem.samples(point, taus)
        angles, rates = reference_angles_and_rates(problem.scenario,
                                                   samples.values, point.T)
        assert samples.joint(0).tobytes() == angles.tobytes()
        assert samples.joint(1).tobytes() == rates.tobytes()

    def test_recoverable_range_error(self, name):
        obj = SCENARIOS[name]()
        robot = parse_scenario(obj).robot
        if not isinstance(robot, ChainRobot):
            assert np.isposinf(robot.half_range).all()
            return
        # The last angle goes past its range; a prismatic offset never does.
        k = int(np.flatnonzero(robot.revolute)[-1])
        depth = robot.halving_depths[k]
        half_range = 2 ** (depth - 1) * np.pi
        n = robot.n_coords
        goal = [1e6 if not r else 0.0 for r in robot.revolute]
        goal[k] = 1.001 * half_range
        obj["boundary"] = {"initial": [0.0] * n, "goal": goal, "units": "rad"}
        obj["limits"].pop("angle_min", None)
        obj["limits"].pop("angle_max", None)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(obj)
        assert str(exc.value) == (
            f"boundary: joint {k + 1} angle outside the recoverable "
            f"range (+-{half_range:.4f} rad) at halving depth {depth}")


def test_limits_at_or_beyond_the_range_add_no_rows():
    # threelink's bundled +-200 deg lie beyond its depth-1 range +-180 deg.
    problem = assemble(parse_scenario(_bundled_dict("threelink")))
    assert not any(isinstance(f, CoeffBoxFamily) for f in problem.families)


def test_mobile_positions_are_the_coordinates(problems):
    problem = problems("mobile2d")
    point = problem.layout.unpack(_perturbed_point(problem, np.random.default_rng(3)))
    samples = problem.samples(point, np.linspace(0.0, 1.0, 50))
    body, = problem.bodies
    assert samples.positions(body).tobytes() == (
        samples.values(0)[:, None, :].tobytes())
