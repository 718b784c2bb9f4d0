"""Every constraint family's vjp against central finite differences.

At a seeded, perturbed initial guess, vjp(w) @ d must match the directional
derivative w @ (r(x + h d) - r(x - h d)) / 2h for random weights w and
directions d.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from splinetraj.planner import (
    ChainAccelFamily,
    ChainRateFamily,
    CoeffBoxFamily,
    DerivBoxFamily,
    DynamicsResidualFamily,
    PlaneNormFamily,
    PlaneObstacleSideFamily,
    PlaneRobotSideFamily,
    SDFClearanceFamily,
    assemble,
    initial_guess,
)
from splinetraj.scenario import load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src/splinetraj/scenarios"


def _bundled(name):
    return load_scenario(SCENARIO_DIR / f"{name}.json")


def _bundled_dict(name):
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def _mobile(**overrides):
    base = {
        "name": "vjp_mobile",
        "robot": {"kind": "mobile", "dimension": 2, "radius": 0.15},
        "boundary": {"initial": [0.0, 0.0], "goal": [3.0, 0.0], "units": "m"},
        "limits": {"velocity": 1.5, "acceleration": 6.0},
        "workspace": {"min": [-0.5, -1.5], "max": [3.5, 1.5]},
    }
    base.update(overrides)
    return parse_scenario(base)


def _twolink_moving_sphere_dict():
    obj = _bundled_dict("threelink")
    obj["name"] = "twolink_moving_sphere"
    obj["robot"]["links"] = obj["robot"]["links"][:2]
    obj["robot"]["cuboids"] = obj["robot"]["cuboids"][:2]
    obj["boundary"]["initial"] = [-60, 40]
    obj["boundary"]["goal"] = [60, 40]
    obj["obstacles"] = [
        {"kind": "sphere", "center": [0.6, -0.6, -0.5], "radius": 0.1,
         "motion": {"kind": "linear", "target": [0.6, 0.6, -0.5]}},
    ]
    return obj


def _twolink_moving_sphere():
    return parse_scenario(_twolink_moving_sphere_dict())


def _twolink_depth2_moving_sphere():
    obj = _twolink_moving_sphere_dict()
    obj["name"] = "twolink_depth2_moving_sphere"
    obj["robot"]["halving_depth"] = 2
    return parse_scenario(obj)


def _prismatic_moving_sphere():
    obj = _twolink_moving_sphere_dict()
    obj["name"] = "prismatic_moving_sphere"
    obj["robot"]["links"][1] = {"a": 0.0, "alpha": 0.0, "d": 0.2,
                                "kind": "prismatic"}
    obj["boundary"] = {"initial": [-1.0, 0.1], "goal": [1.0, 0.3],
                       "units": "rad"}
    obj["limits"] = {"velocity": 2.0, "acceleration": 4.0}
    return parse_scenario(obj)


def _threelink_angle_limits():
    obj = _bundled_dict("threelink")
    obj["name"] = "threelink_angle_limits"
    obj["limits"]["angle_min"] = -150
    obj["limits"]["angle_max"] = 150
    obj["obstacles"] = []
    return parse_scenario(obj)


SCENARIOS = {
    "mobile2d": lambda: _bundled("mobile2d"),
    "threelink": lambda: _bundled("threelink"),
    "twolink_moving_sphere": _twolink_moving_sphere,
    "twolink_depth2_moving_sphere": _twolink_depth2_moving_sphere,
    "prismatic_moving_sphere": _prismatic_moving_sphere,
    "mobile_position_limits": lambda: _mobile(
        limits={"velocity": 1.5, "acceleration": 6.0,
                "angle_min": [-0.2, -0.4], "angle_max": [3.2, 0.4]},
    ),
    "threelink_angle_limits": _threelink_angle_limits,
    "mobile_dynamics": lambda: _mobile(dynamics={"poly": [[0.0, -0.5], [1.0]]}),
}

CASES = [
    ("mobile2d", DerivBoxFamily, 2),
    ("mobile2d", SDFClearanceFamily, 1),
    ("threelink", ChainRateFamily, 1),
    ("threelink", ChainAccelFamily, 1),
    ("threelink", SDFClearanceFamily, 1),
    ("twolink_moving_sphere", PlaneRobotSideFamily, 2),
    ("twolink_moving_sphere", PlaneObstacleSideFamily, 2),
    ("twolink_moving_sphere", PlaneNormFamily, 2),
    ("twolink_depth2_moving_sphere", PlaneRobotSideFamily, 2),
    ("prismatic_moving_sphere", PlaneRobotSideFamily, 2),
    ("mobile_position_limits", CoeffBoxFamily, 1),
    ("threelink_angle_limits", CoeffBoxFamily, 1),
    ("mobile_dynamics", DynamicsResidualFamily, 1),
]


@pytest.fixture(scope="module")
def problems():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = assemble(SCENARIOS[name]())
        return cache[name]

    return get


def _perturbed_point(problem, rng):
    dv = initial_guess(problem)
    dv.joint_coeffs = dv.joint_coeffs + rng.uniform(-0.1, 0.1, dv.joint_coeffs.shape)
    dv.T *= 1.1
    for a, b in dv.plane_coeffs:
        a += rng.uniform(-0.05, 0.05, a.shape)
        b += rng.uniform(-0.05, 0.05, b.shape)
    return problem.layout.pack(dv)


@pytest.mark.parametrize(
    "scenario,cls,count", CASES,
    ids=[f"{s}-{c.__name__}" for s, c, _ in CASES],
)
def test_vjp_matches_central_differences(problems, scenario, cls, count):
    problem = problems(scenario)
    families = [f for f in problem.families if type(f) is cls]
    assert len(families) == count
    rng = np.random.default_rng(29)
    x = _perturbed_point(problem, rng)
    h = 1e-6
    for fam in families:
        r, vjp = fam.evaluate(x)
        for _ in range(3):
            w = rng.standard_normal(r.size)
            d = rng.standard_normal(x.size)
            d[problem.layout.idx_T] *= 0.1
            analytic = float(vjp(w) @ d)
            rp = fam.evaluate(x + h * d)[0]
            rm = fam.evaluate(x - h * d)[0]
            numeric = float(w @ (rp - rm) / (2.0 * h))
            scale = float(np.abs(w) @ np.abs(rp - rm)) / (2.0 * h)
            assert abs(analytic - numeric) <= 1e-6 * max(1.0, scale), (
                fam.name, analytic, numeric
            )
