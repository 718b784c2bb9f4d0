"""Scenario configuration: strict JSON parsing, validation, serialization.

All quantities are stored internally in SI units (meters, radians,
seconds); the file format may declare angle blocks in degrees, which are
converted on load and written back normalized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bspline import BSpline, KnotVector, clamp_knots
from .collision import ObstaclePrimitive
from .kinematics import DHChain, DHLink
from .nlp import SolverConfig

__all__ = [
    "ScenarioError",
    "MobileRobot",
    "ChainRobot",
    "Limits",
    "CollisionSettings",
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "scenario_to_dict",
    "save_scenario",
]

DEG = np.pi / 180.0


class ScenarioError(ValueError):
    """Scenario file violates the schema; the message names the field."""


def _require_keys(obj: dict, path: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{path}.{key}: missing required field")


def _vector(obj, path: str, size: int | None = None) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 1 or (size is not None and arr.size != size):
        raise ScenarioError(f"{path}: expected a vector"
                            + (f" of length {size}" if size else ""))
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{path}: entries must be finite")
    return arr


@dataclass(frozen=True)
class MobileRobot:
    """Spherical holonomic vehicle."""

    dimension: int
    radius: float

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ScenarioError("robot.dimension: must be 2 or 3")
        if self.radius <= 0.0:
            raise ScenarioError("robot.radius: must be positive")

    @property
    def n_coords(self) -> int:
        return self.dimension


@dataclass(frozen=True)
class ChainRobot:
    """DH chain with per-joint half-angle depths."""

    chain: DHChain
    halving_depths: tuple[int, ...]

    def __post_init__(self):
        if len(self.halving_depths) != len(self.chain):
            raise ScenarioError("robot.halving_depth: one entry per link required")

    @property
    def n_coords(self) -> int:
        return len(self.chain)


@dataclass(frozen=True)
class Limits:
    """Per-coordinate bounds in SI units (rad or m based)."""

    velocity: np.ndarray
    acceleration: np.ndarray
    angle_min: np.ndarray | None = None
    angle_max: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.velocity <= 0.0):
            raise ScenarioError("limits.velocity: must be positive")
        if np.any(self.acceleration <= 0.0):
            raise ScenarioError("limits.acceleration: must be positive")


@dataclass(frozen=True)
class CollisionSettings:
    """Collision machinery knobs; None selects the documented defaults."""

    cell_size: float | None = None
    collocation_per_span: int = 8
    margin: float | None = None
    lipschitz_factor: float | None = None
    static_mode: str = "sdf"

    def __post_init__(self):
        if self.collocation_per_span < 2:
            raise ScenarioError("collision.collocation_per_span: must be >= 2")
        if self.static_mode not in ("sdf", "hyperplane"):
            raise ScenarioError("collision.static_mode: must be 'sdf' or 'hyperplane'")


@dataclass(frozen=True)
class Scenario:
    name: str
    robot: MobileRobot | ChainRobot
    basis_degree: int
    basis_interior: np.ndarray
    boundary_initial: np.ndarray
    boundary_goal: np.ndarray
    limits: Limits
    obstacles: tuple[ObstaclePrimitive, ...]
    workspace_min: np.ndarray
    workspace_max: np.ndarray
    solver: SolverConfig
    collision: CollisionSettings
    dynamics_poly: tuple[tuple[float, ...], ...] | None = None

    @property
    def n_coords(self) -> int:
        return self.robot.n_coords

    def basis_knots(self) -> KnotVector:
        return clamp_knots(self.basis_interior, self.basis_degree)

    @property
    def is_mobile(self) -> bool:
        return isinstance(self.robot, MobileRobot)


def _parse_motion(obj, path: str, dim: int, nominal: np.ndarray) -> BSpline | None:
    if obj is None:
        return None
    _require_keys(obj, path, ["kind"], ["target", "degree", "knots", "control_points"])
    kind = obj["kind"]
    if kind == "static":
        return None
    if kind == "linear":
        target = _vector(obj.get("target"), f"{path}.target", dim)
        return BSpline(1, KnotVector([0.0, 0.0, 1.0, 1.0]),
                       np.stack([nominal, target]))
    if kind == "spline":
        for key in ("degree", "knots", "control_points"):
            if key not in obj:
                raise ScenarioError(f"{path}.{key}: missing for spline motion")
        spline = BSpline(obj["degree"], obj["knots"], obj["control_points"])
        if spline.dim != dim:
            raise ScenarioError(f"{path}.control_points: dimension mismatch")
        if spline.domain != (0.0, 1.0):
            raise ScenarioError(f"{path}.knots: motion domain must be [0, 1]")
        return spline
    raise ScenarioError(f"{path}.kind: unknown motion kind {kind!r}")


def _parse_obstacle(obj, path: str, dim: int) -> ObstaclePrimitive:
    _require_keys(obj, path, ["kind"], ["center", "radius", "min", "max",
                                        "vertices", "motion"])
    kind = obj.get("kind")
    try:
        if kind == "sphere":
            center = _vector(obj.get("center"), f"{path}.center", dim)
            radius = float(obj.get("radius", 0.0))
            motion = _parse_motion(obj.get("motion"), f"{path}.motion", dim, center)
            return ObstaclePrimitive.sphere(center, radius, motion=motion)
        if kind == "box":
            lo = _vector(obj.get("min"), f"{path}.min", dim)
            hi = _vector(obj.get("max"), f"{path}.max", dim)
            nominal = 0.5 * (lo + hi)
            motion = _parse_motion(obj.get("motion"), f"{path}.motion", dim, nominal)
            return ObstaclePrimitive.box(lo, hi, motion=motion)
        if kind == "polytope":
            verts = np.asarray(obj.get("vertices"), dtype=float)
            if verts.ndim != 2 or verts.shape[1] != dim:
                raise ScenarioError(f"{path}.vertices: expected (k, {dim}) array")
            motion = _parse_motion(obj.get("motion"), f"{path}.motion", dim,
                                   verts.mean(axis=0))
            return ObstaclePrimitive.polytope(verts, motion=motion)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    raise ScenarioError(f"{path}.kind: unknown obstacle kind {kind!r}")


def _parse_robot(obj):
    _require_keys(obj, "robot", ["kind"],
                  ["dimension", "radius", "base_pose", "links", "cuboids",
                   "halving_depth"])
    kind = obj["kind"]
    if kind == "mobile":
        for key in ("dimension", "radius"):
            if key not in obj:
                raise ScenarioError(f"robot.{key}: missing required field")
        return MobileRobot(int(obj["dimension"]), float(obj["radius"]))
    if kind == "chain":
        for key in ("base_pose", "links", "cuboids"):
            if key not in obj:
                raise ScenarioError(f"robot.{key}: missing required field")
        base = _vector(obj["base_pose"], "robot.base_pose", 16).reshape(4, 4)
        links = []
        for i, entry in enumerate(obj["links"]):
            _require_keys(entry, f"robot.links[{i}]", ["a", "alpha", "d"],
                          ["theta0", "kind"])
            links.append(
                DHLink(
                    a=float(entry["a"]),
                    alpha=float(entry["alpha"]),
                    d=float(entry["d"]),
                    theta_offset=float(entry.get("theta0", 0.0)),
                    joint_kind=entry.get("kind", "revolute"),
                )
            )
        cuboids = []
        for i, verts in enumerate(obj["cuboids"]):
            arr = np.asarray(verts, dtype=float)
            if arr.shape != (8, 3):
                raise ScenarioError(f"robot.cuboids[{i}]: expected 8x3 vertices")
            cuboids.append(arr)
        depths = obj.get("halving_depth", 1)
        if isinstance(depths, (int, float)):
            depths = [int(depths)] * len(links)
        try:
            chain = DHChain(base, tuple(links), tuple(cuboids))
        except ValueError as exc:
            raise ScenarioError(f"robot: {exc}") from exc
        return ChainRobot(chain, tuple(int(d) for d in depths))
    raise ScenarioError(f"robot.kind: unknown robot kind {kind!r}")


def parse_scenario(obj: dict) -> Scenario:
    """Validate a scenario dictionary; unknown fields are rejected."""
    _require_keys(
        obj, "scenario",
        ["name", "robot", "boundary", "limits", "workspace"],
        ["basis", "obstacles", "solver", "collision", "dynamics"],
    )
    robot = _parse_robot(obj["robot"])
    n = robot.n_coords
    is_chain = isinstance(robot, ChainRobot)

    basis_obj = obj.get("basis", {})
    _require_keys(basis_obj, "basis", [], ["degree", "interior_knots"])
    degree = int(basis_obj.get("degree", 3))
    if degree < 3:
        raise ScenarioError("basis.degree: planner requires degree >= 3")
    interior = np.asarray(
        basis_obj.get("interior_knots", np.round(np.arange(0.1, 0.95, 0.1), 10)),
        dtype=float,
    )
    n_coeff = len(interior) + degree + 1
    if n_coeff < 7:
        raise ScenarioError("basis.interior_knots: need at least 7 coefficients "
                            "(6 are pinned by the boundary conditions)")

    bnd = obj["boundary"]
    _require_keys(bnd, "boundary", ["initial", "goal"], ["units"])
    scale = DEG if (is_chain and bnd.get("units", "rad") == "deg") else 1.0
    if bnd.get("units", "rad") not in ("rad", "deg", "m"):
        raise ScenarioError("boundary.units: must be 'rad', 'deg', or 'm'")
    q_init = _vector(bnd["initial"], "boundary.initial", n) * scale
    q_goal = _vector(bnd["goal"], "boundary.goal", n) * scale

    lim = obj["limits"]
    _require_keys(lim, "limits", ["velocity", "acceleration"],
                  ["angle_min", "angle_max", "units"])
    lscale = DEG if (is_chain and lim.get("units", "rad") == "deg") else 1.0

    def _limit_vec(value, path):
        if isinstance(value, (int, float)):
            return np.full(n, float(value))
        return _vector(value, path, n)

    velocity = _limit_vec(lim["velocity"], "limits.velocity") * lscale
    acceleration = _limit_vec(lim["acceleration"], "limits.acceleration") * lscale
    angle_min = angle_max = None
    if "angle_min" in lim:
        angle_min = _limit_vec(lim["angle_min"], "limits.angle_min") * lscale
    if "angle_max" in lim:
        angle_max = _limit_vec(lim["angle_max"], "limits.angle_max") * lscale
    limits = Limits(velocity, acceleration, angle_min, angle_max)

    ws = obj["workspace"]
    _require_keys(ws, "workspace", ["min", "max"])
    wdim = 2 if (not is_chain and robot.dimension == 2) else 3
    ws_min = _vector(ws["min"], "workspace.min", wdim)
    ws_max = _vector(ws["max"], "workspace.max", wdim)
    if np.any(ws_min >= ws_max):
        raise ScenarioError("workspace: min must be strictly below max")

    obs_dim = wdim
    obstacles = tuple(
        _parse_obstacle(o, f"obstacles[{i}]", obs_dim)
        for i, o in enumerate(obj.get("obstacles", []))
    )

    solver_obj = obj.get("solver", {})
    _require_keys(solver_obj, "solver", [],
                  ["feas_tol", "opt_tol", "max_outer", "max_inner",
                   "knot_refine"])
    solver = SolverConfig(
        feas_tol=float(solver_obj.get("feas_tol", 1e-6)),
        opt_tol=float(solver_obj.get("opt_tol", 1e-5)),
        max_outer=int(solver_obj.get("max_outer", 50)),
        max_inner=int(solver_obj.get("max_inner", 500)),
        knot_refine=bool(solver_obj.get("knot_refine", False)),
    )

    col_obj = obj.get("collision", {})
    _require_keys(col_obj, "collision", [],
                  ["cell_size", "collocation_per_span", "margin",
                   "lipschitz_factor", "static_mode"])

    def _auto(value):
        if value is None or value == "auto":
            return None
        return float(value)

    collision = CollisionSettings(
        cell_size=_auto(col_obj.get("cell_size")),
        collocation_per_span=int(col_obj.get("collocation_per_span", 8)),
        margin=_auto(col_obj.get("margin")),
        lipschitz_factor=_auto(col_obj.get("lipschitz_factor")),
        static_mode=col_obj.get("static_mode", "sdf"),
    )

    dynamics = None
    if "dynamics" in obj and obj["dynamics"] is not None:
        dyn = obj["dynamics"]
        _require_keys(dyn, "dynamics", ["poly"])
        if is_chain:
            raise ScenarioError("dynamics: ODE constraints support mobile robots only")
        rows = dyn["poly"]
        if len(rows) != n:
            raise ScenarioError("dynamics.poly: one coefficient row per coordinate")
        dynamics = tuple(tuple(float(v) for v in row) for row in rows)

    # Physical consistency checks.
    if is_chain:
        for k, (depth, qi, qg) in enumerate(
            zip(robot.halving_depths, q_init, q_goal)
        ):
            half_range = 2 ** (depth - 1) * np.pi
            if abs(qi) >= half_range or abs(qg) >= half_range:
                raise ScenarioError(
                    f"boundary: joint {k + 1} angle outside the recoverable "
                    f"range (+-{half_range:.4f} rad) at halving depth {depth}"
                )
    if limits.angle_min is not None and limits.angle_max is not None:
        if np.any(q_goal < limits.angle_min) or np.any(q_goal > limits.angle_max):
            raise ScenarioError("boundary.goal: outside the configured angle limits")
        if np.any(q_init < limits.angle_min) or np.any(q_init > limits.angle_max):
            raise ScenarioError("boundary.initial: outside the configured angle limits")

    return Scenario(
        name=str(obj["name"]),
        robot=robot,
        basis_degree=degree,
        basis_interior=interior,
        boundary_initial=q_init,
        boundary_goal=q_goal,
        limits=limits,
        obstacles=obstacles,
        workspace_min=ws_min,
        workspace_max=ws_max,
        solver=solver,
        collision=collision,
        dynamics_poly=dynamics,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {p}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: malformed JSON ({exc})") from exc
    return parse_scenario(obj)


def _motion_to_dict(motion: BSpline | None):
    if motion is None:
        return {"kind": "static"}
    return {
        "kind": "spline",
        "degree": motion.degree,
        "knots": motion.knots.values.tolist(),
        "control_points": motion.control_points.tolist(),
    }


def _obstacle_to_dict(obs: ObstaclePrimitive) -> dict:
    if obs.kind == "sphere":
        return {
            "kind": "sphere",
            "center": obs.center.tolist(),
            "radius": obs.radius,
            "motion": _motion_to_dict(obs.motion),
        }
    if obs.kind == "box":
        return {
            "kind": "box",
            "min": obs.box_min.tolist(),
            "max": obs.box_max.tolist(),
            "motion": _motion_to_dict(obs.motion),
        }
    return {
        "kind": "polytope",
        "vertices": obs.vertices_arr.tolist(),
        "motion": _motion_to_dict(obs.motion),
    }


def scenario_to_dict(s: Scenario) -> dict:
    """Normalized (SI-unit) dictionary form; parse_scenario round-trips it."""
    if isinstance(s.robot, MobileRobot):
        robot = {"kind": "mobile", "dimension": s.robot.dimension,
                 "radius": s.robot.radius}
    else:
        chain = s.robot.chain
        robot = {
            "kind": "chain",
            "base_pose": chain.base_pose.reshape(-1).tolist(),
            "links": [
                {"a": l.a, "alpha": l.alpha, "d": l.d, "theta0": l.theta_offset,
                 "kind": l.joint_kind}
                for l in chain.links
            ],
            "cuboids": [c.tolist() for c in chain.link_cuboids],
            "halving_depth": list(s.robot.halving_depths),
        }
    out = {
        "name": s.name,
        "robot": robot,
        "basis": {"degree": s.basis_degree,
                  "interior_knots": s.basis_interior.tolist()},
        "boundary": {"initial": s.boundary_initial.tolist(),
                     "goal": s.boundary_goal.tolist(), "units": "rad"},
        "limits": {
            "velocity": s.limits.velocity.tolist(),
            "acceleration": s.limits.acceleration.tolist(),
            "units": "rad",
        },
        "obstacles": [_obstacle_to_dict(o) for o in s.obstacles],
        "workspace": {"min": s.workspace_min.tolist(),
                      "max": s.workspace_max.tolist()},
        "solver": s.solver.to_json(),
        "collision": {
            "cell_size": s.collision.cell_size if s.collision.cell_size else "auto",
            "collocation_per_span": s.collision.collocation_per_span,
            "margin": s.collision.margin if s.collision.margin else "auto",
            "lipschitz_factor": (
                s.collision.lipschitz_factor
                if s.collision.lipschitz_factor
                else "auto"
            ),
            "static_mode": s.collision.static_mode,
        },
    }
    if s.limits.angle_min is not None:
        out["limits"]["angle_min"] = s.limits.angle_min.tolist()
    if s.limits.angle_max is not None:
        out["limits"]["angle_max"] = s.limits.angle_max.tolist()
    if s.dynamics_poly is not None:
        out["dynamics"] = {"poly": [list(row) for row in s.dynamics_poly]}
    return out


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")
