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
    DecisionVector,
    DerivBoxFamily,
    PlaneNormFamily,
    PlaneObstacleSideFamily,
    PlaneRobotSideFamily,
    SDFClearanceFamily,
    assemble,
    initial_guess,
)
from splinetraj.scenario import load_scenario, parse_scenario
from splinetraj.spline_algebra import collocation_sites
from tests.test_planner import PerCoordinateSamples

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
    ("prismatic_moving_sphere", ChainRateFamily, 1),
    ("prismatic_moving_sphere", ChainAccelFamily, 1),
    ("mobile_position_limits", CoeffBoxFamily, 1),
    ("threelink_angle_limits", CoeffBoxFamily, 1),
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
    for ab in dv.plane_coeffs:
        ab[:, :-1] += rng.uniform(-0.05, 0.05, ab[:, :-1].shape)
        ab[:, -1] += rng.uniform(-0.05, 0.05, ab[:, -1].shape)
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


def reference_dense_violation(fam, samples, robot):
    """The per-coordinate loops of the limit families' dense checks, as
    they ran before they read the sampled matrix; kept as the byte-for-byte
    reference.  Other families read the matrix as they did."""
    worst = 0.0
    cols = samples.columns
    if isinstance(fam, DerivBoxFamily):
        for j, d in enumerate(cols(fam.power)):
            vals = d / samples.T**fam.power
            worst = max(worst, float(np.maximum(np.abs(vals) - fam.bound[j], 0.0).max()))
    elif isinstance(fam, CoeffBoxFamily):
        for j, vals in enumerate(cols(0)):
            if robot.revolute[j]:
                vals = robot.factors[j] * np.arctan(vals)
            if np.isfinite(fam.raw_hi[j]):
                worst = max(worst, float(np.maximum(vals - fam.raw_hi[j], 0.0).max()))
            if np.isfinite(fam.raw_lo[j]):
                worst = max(worst, float(np.maximum(fam.raw_lo[j] - vals, 0.0).max()))
    elif isinstance(fam, ChainRateFamily):
        for j, (q, qd) in enumerate(zip(cols(0), cols(1))):
            q = q * fam.revolute[j]
            theta_dot = fam.factors[j] * qd / (samples.T * (1.0 + q * q))
            worst = max(
                worst, float(np.maximum(np.abs(theta_dot) - fam.bound[j], 0.0).max())
            )
    elif isinstance(fam, ChainAccelFamily):
        for j, (q, qd, qdd) in enumerate(zip(cols(0), cols(1), cols(2))):
            q = q * fam.revolute[j]
            W = 1.0 + q * q
            theta_dd = fam.factors[j] * (qdd * W - 2.0 * q * qd * qd) / (samples.T**2 * W * W)
            worst = max(
                worst, float(np.maximum(np.abs(theta_dd) - fam.bound[j], 0.0).max())
            )
    else:
        return fam.dense_violation(samples)
    return worst


@pytest.mark.parametrize(
    "scenario,cls,count", CASES,
    ids=[f"{s}-{c.__name__}" for s, c, _ in CASES],
)
def test_dense_violation_matches_per_coordinate_reference(problems, scenario, cls,
                                                          count):
    problem = problems(scenario)
    families = [f for f in problem.families if type(f) is cls]
    rng = np.random.default_rng(31)
    taus = collocation_sites(problem.basis.knots, 80)
    # At the perturbed point, at a third of its T, where the rate and
    # acceleration checks read well above zero, and with its
    # joint coefficients scaled 8x, which breaks the angle and position boxes.
    point = problem.layout.unpack(_perturbed_point(problem, rng))
    for T, scale in ((point.T, 1.0), (point.T / 3.0, 1.0), (point.T, 8.0)):
        dv = DecisionVector(scale * point.joint_coeffs, T, point.plane_coeffs)
        samples = problem.samples(dv, taus)
        reference = PerCoordinateSamples(problem, dv, taus)
        for fam in families:
            got = fam.dense_violation(samples)
            want = reference_dense_violation(fam, reference,
                                             problem.scenario.robot)
            assert float(got).hex() == float(want).hex(), (fam.name, T, got, want)


def reference_sdf_vjp(fam, x, w):
    """SDFClearanceFamily's vjp as it ran with FK gradients at every
    sample; kept as the bit-for-bit reference for the vjp that takes them
    only at samples whose rows carry weight."""
    dv = fam.layout.unpack(x)
    qmat = fam.Bpos @ dv.joint_coeffs
    dim = fam.field.dim
    if fam.nfk is None:
        positions = [qmat[:, None, :]]
    else:
        state = fam.nfk.gradient_state(fam.nfk.shared_state(qmat), qmat,
                                       np.arange(len(qmat)))
        positions = [fam.nfk.body_positions(state, b.link_index, b.verts, hom)
                     for b, hom in zip(fam.bodies, fam._homs)]
    flat = np.concatenate([p.reshape(-1, p.shape[2])[:, :dim] for p in positions])
    _, gradient = fam.field.query_extended(flat)
    grads = gradient(np.arange(len(flat)))
    _, margin_dT = fam.margins(dv.T)
    gC = np.zeros_like(dv.joint_coeffs)
    gT = 0.0
    off = 0
    for b, (body, pos) in enumerate(zip(fam.bodies, positions)):
        S, V, _ = pos.shape
        wb = w[off : off + S * V].reshape(S, V)
        g = grads[off : off + S * V].reshape(S, V, dim)
        off += S * V
        gT += float(margin_dT[b] @ wb.sum(axis=1))
        wpos = -wb[:, :, None] * g
        if fam.nfk is None:
            gC += fam.Bpos.T @ wpos[:, 0, : fam.layout.n_coords]
            continue
        dpos = fam.nfk.body_position_grads(state, body.link_index, body.verts,
                                           fam._homs[b])
        contrib = (wpos * dpos[:, :, :, :dim]).sum(axis=(2, 3))
        for j in range(body.link_index):
            gC[:, j] += fam.Bpos.T @ contrib[j]
    return fam.layout.grad(dC=gC, dT=gT)


def _sdf_weights(fam, rng):
    """Weights that reach the vjp: none, one vertex, one sample of every
    body, about 0.4% of the rows at random, and every row."""
    n = fam.n_rows
    S = fam.taus.size
    one_vertex = np.zeros(n)
    one_vertex[rng.integers(n)] = rng.uniform(0.1, 2.0)
    one_sample = np.zeros(n)
    s = int(rng.integers(S))
    off = 0
    for body in fam.bodies:
        V = body.verts.shape[0]
        one_sample[off + s * V : off + (s + 1) * V] = rng.uniform(0.1, 2.0, V)
        off += S * V
    sparse = np.zeros(n)
    rows = rng.choice(n, max(1, round(0.004 * n)), replace=False)
    sparse[rows] = rng.uniform(0.1, 2.0, rows.size)
    dense = rng.standard_normal(n)
    return {"zero": np.zeros(n), "one_vertex": one_vertex,
            "one_sample": one_sample, "sparse": sparse, "dense": dense}


@pytest.mark.parametrize("scenario", ["threelink", "fanuc6_static", "mobile2d"])
def test_sdf_vjp_matches_full_sample_reference(scenario):
    problem = assemble(_bundled(scenario))
    (fam,) = [f for f in problem.families if type(f) is SDFClearanceFamily]
    rng = np.random.default_rng(37)
    for _ in range(3):
        x = _perturbed_point(problem, rng)
        _, vjp = fam.evaluate(x)
        for kind, w in _sdf_weights(fam, rng).items():
            got = vjp(w)
            want = reference_sdf_vjp(fam, x, w)
            assert got.tobytes() == want.tobytes(), (kind, got - want)


@pytest.mark.parametrize("scenario", ["threelink", "mobile2d"],
                         ids=["threelink", "mobile2d"])
def test_sdf_vjp_asks_gradients_only_at_weighted_samples(scenario, monkeypatch):
    # On a chain, weight on a few rows asks the field for the gradients of
    # every vertex of every body at those rows' samples, and nothing else;
    # all-zero weight asks for no row and cuts the FK state to no sample.
    # The mobile body asks for every sample's row either way.  All-zero
    # weight leaves the T-only gradient (zero).  Both equal the all-sample
    # reference bit for bit.
    problem = assemble(_bundled(scenario))
    (fam,) = [f for f in problem.families if type(f) is SDFClearanceFamily]
    rng = np.random.default_rng(41)
    x = _perturbed_point(problem, rng)
    B, S, V = len(fam.bodies), fam.taus.size, fam.bodies[0].verts.shape[0]
    few = np.zeros(fam.n_rows)
    few[rng.choice(fam.n_rows, 4, replace=False)] = rng.uniform(0.1, 2.0, 4)
    zero = np.zeros(fam.n_rows)
    references = [reference_sdf_vjp(fam, x, w) for w in (few, zero)]

    asked, cuts = [], []
    query = fam.field.query_extended

    def recording_query(points):
        vals, gradient = query(points)

        def recording_gradient(rows):
            asked.append(np.sort(rows).tolist())
            return gradient(rows)

        return vals, recording_gradient

    monkeypatch.setattr(fam.field, "query_extended", recording_query)
    if fam.nfk is not None:
        cut = fam.nfk.gradient_state

        def recording_cut(state, qmat, idx):
            cuts.append(idx.tolist())
            return cut(state, qmat, idx)

        monkeypatch.setattr(fam.nfk, "gradient_state", recording_cut)
    _, vjp = fam.evaluate(x)

    assert vjp(few).tobytes() == references[0].tobytes()
    samples = np.flatnonzero(few.reshape(B, S, V).any(axis=(0, 2)))
    rows = (S * V * np.arange(B)[:, None, None] + V * samples[:, None]
            + np.arange(V))
    every_sample = list(range(S))
    assert asked == [every_sample if fam.nfk is None else np.sort(rows.ravel()).tolist()]
    assert cuts == ([] if fam.nfk is None else [samples.tolist()])

    asked.clear()
    cuts.clear()
    got = vjp(zero)
    assert asked == [every_sample if fam.nfk is None else []]
    assert cuts == ([] if fam.nfk is None else [[]])
    assert got.tobytes() == references[1].tobytes()
    t_only = fam.layout.grad(dC=np.zeros_like(fam.layout.unpack(x).joint_coeffs),
                             dT=0.0)
    assert got.tobytes() == t_only.tobytes()
