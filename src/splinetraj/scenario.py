"""Scenario configuration: strict JSON parsing and validation.

All quantities are stored internally in SI units (meters, radians,
seconds); the file format may declare angle blocks in degrees, which are
converted on load (revolute joints only; prismatic offsets stay in
meters).

Each robot states its joint map.  ``revolute`` marks the half-angle
coordinates q = tan(theta / 2^n); ``factors`` gives theta = factor * atan q,
2^n, or 1 for a linear coordinate (a prismatic offset; every coordinate of
a mobile robot), read as it is; ``half_range`` is the recoverable range
2^(n-1) pi, +inf for a linear coordinate; ``world_dim`` is the workspace
dimension.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bspline import BSpline, KnotVector, clamp_knots
from .collision import ObstaclePrimitive
from .kinematics import DHChain, DHLink

__all__ = [
    "ScenarioError",
    "MobileRobot",
    "ChainRobot",
    "Limits",
    "CollisionSettings",
    "Scenario",
    "load_scenario",
    "parse_scenario",
]

DEG = np.pi / 180.0


class ScenarioError(ValueError):
    """A scenario file, a stored solution of one or a command-line
    argument is invalid; the message names the field."""


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


def _floats(obj) -> np.ndarray | None:
    """obj as a float array, or None when it is ragged or holds anything
    but numbers (true, false and strings are not numbers)."""
    items = np.asarray(obj, dtype=object)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in items.flat):
        return None
    return items.astype(float)


def _vector(obj, path: str, size: int | None = None) -> np.ndarray:
    arr = _floats(obj)
    if arr is None or arr.ndim != 1 or (size is not None and arr.size != size):
        raise ScenarioError(f"{path}: expected a vector"
                            + (f" of length {size}" if size else ""))
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{path}: entries must be finite")
    return arr


def _points(obj, path: str, dim: int) -> np.ndarray:
    """A (k, dim) array of finite coordinates."""
    arr = _floats(obj)
    if (arr is None or arr.ndim != 2 or arr.shape[1] != dim
            or not np.all(np.isfinite(arr))):
        raise ScenarioError(f"{path}: expected a finite (k, {dim}) array")
    return arr


def _list(value, path: str):
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{path}: expected a list")
    return value


def _is_number(value) -> bool:
    """A finite real number; true, false and strings are not numbers."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _number(value, path: str) -> float:
    if not _is_number(value):
        raise ScenarioError(f"{path}: must be a finite number")
    return float(value)


def _count(value, path: str, minimum: int = 1) -> int:
    """An integer >= minimum; an integral float such as 2.0 counts."""
    if not _is_number(value) or value != int(value) or value < minimum:
        raise ScenarioError(f"{path}: must be an integer >= {minimum}")
    return int(value)


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

    @property
    def world_dim(self) -> int:
        return self.dimension

    @property
    def revolute(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=bool)

    @property
    def factors(self) -> np.ndarray:
        return np.ones(self.dimension)

    @property
    def half_range(self) -> np.ndarray:
        return np.full(self.dimension, np.inf)


@dataclass(frozen=True)
class ChainRobot:
    """DH chain with per-joint half-angle depths."""

    chain: DHChain
    halving_depths: tuple[int, ...]

    def __post_init__(self):
        if len(self.halving_depths) != len(self.chain):
            raise ScenarioError("robot.halving_depth: one entry per link required")
        if any(d < 1 for d in self.halving_depths):
            raise ScenarioError("robot.halving_depth: must be at least 1")
        if any(d > 4 for d in self.halving_depths):  # rows grow as 2^depth
            raise ScenarioError("robot.halving_depth: must be at most 4")

    @property
    def n_coords(self) -> int:
        return len(self.chain)

    world_dim = 3

    @property
    def revolute(self) -> np.ndarray:
        """True where the joint is revolute, False where prismatic."""
        return np.array([link.joint_kind == "revolute" for link in self.chain.links])

    @property
    def factors(self) -> np.ndarray:
        return np.where(self.revolute, 2.0 ** np.array(self.halving_depths), 1.0)

    @property
    def half_range(self) -> np.ndarray:
        return np.where(self.revolute, 0.5 * np.pi * self.factors, np.inf)


@dataclass(frozen=True)
class Limits:
    """Per-coordinate bounds in SI units (rad or m based).  A box side
    that the scenario leaves out is infinite and bounds nothing."""

    velocity: np.ndarray
    acceleration: np.ndarray
    angle_min: np.ndarray
    angle_max: np.ndarray

    def __post_init__(self):
        if np.any(self.velocity <= 0.0):
            raise ScenarioError("limits.velocity: must be positive")
        if np.any(self.acceleration <= 0.0):
            raise ScenarioError("limits.acceleration: must be positive")
        if np.any(self.angle_min > self.angle_max):
            raise ScenarioError("limits.angle_min: must not exceed angle_max")


@dataclass(frozen=True)
class CollisionSettings:
    """Collision machinery knobs.

    The SDF grid spacing, the motion margin and its Lipschitz factor are
    not settings: the planner always derives them (``planner.static_field``
    and ``SDFClearanceFamily``), so the clearance guarantee holds and the
    field's size stays bounded.
    """

    collocation_per_span: int = 8
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
    collision: CollisionSettings

    @property
    def n_coords(self) -> int:
        return self.robot.n_coords

    def basis_knots(self) -> KnotVector:
        return clamp_knots(self.basis_interior, self.basis_degree)


def _kind(obj, path: str, noun: str, keys: dict) -> str:
    """The ``kind`` of the object ``obj``: a key of ``keys``, which maps
    each kind to its (required, optional) keys besides ``kind``.  A key of
    another kind is an unknown field."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    if "kind" not in obj:
        raise ScenarioError(f"{path}.kind: missing required field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in keys:
        raise ScenarioError(f"{path}.kind: unknown {noun} kind {kind!r}")
    required, optional = keys[kind]
    _require_keys(obj, path, ("kind", *required), optional)
    return kind


_MOTION_KEYS = {"static": ((), ()), "linear": (("target",), ()),
                "spline": (("degree", "knots", "control_points"), ())}
_OBSTACLE_KEYS = {"sphere": (("center", "radius"), ("motion",)),
                  "box": (("min", "max"), ("motion",)),
                  "polytope": (("vertices",), ("motion",))}
_ROBOT_KEYS = {"mobile": (("dimension", "radius"), ()),
               "chain": (("base_pose", "links", "cuboids"), ("halving_depth",))}


def _parse_motion(obj, path: str, dim: int, nominal: np.ndarray) -> BSpline | None:
    if obj is None:
        return None
    kind = _kind(obj, path, "motion", _MOTION_KEYS)
    if kind == "static":
        return None
    if kind == "linear":
        target = _vector(obj["target"], f"{path}.target", dim)
        return BSpline(1, KnotVector([0.0, 0.0, 1.0, 1.0]),
                       np.stack([nominal, target]))
    spline = BSpline(_count(obj["degree"], f"{path}.degree", 0),
                     KnotVector(_vector(obj["knots"], f"{path}.knots")),
                     _points(obj["control_points"], f"{path}.control_points", dim))
    if spline.domain != (0.0, 1.0):
        raise ScenarioError(f"{path}.knots: motion domain must be [0, 1]")
    return spline


def _parse_obstacle(obj, path: str, dim: int) -> ObstaclePrimitive:
    """The obstacle ``obj``, built by its kind's classmethod: first the
    static shape, whose ``center`` a linear motion starts from, then the
    same fields with the motion.  What the primitive rejects is a
    ScenarioError naming ``path``."""
    kind = _kind(obj, path, "obstacle", _OBSTACLE_KEYS)
    try:
        if kind == "sphere":
            shape = {"center": _vector(obj["center"], f"{path}.center", dim),
                     "radius": _number(obj["radius"], f"{path}.radius")}
        elif kind == "box":
            shape = {"box_min": _vector(obj["min"], f"{path}.min", dim),
                     "box_max": _vector(obj["max"], f"{path}.max", dim)}
        else:
            shape = {"vertices": _points(obj["vertices"], f"{path}.vertices", dim)}
        build = getattr(ObstaclePrimitive, kind)
        center = build(**shape).center
        motion = _parse_motion(obj.get("motion"), f"{path}.motion", dim, center)
        return build(**shape, motion=motion)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_robot(obj):
    if _kind(obj, "robot", "robot", _ROBOT_KEYS) == "mobile":
        return MobileRobot(_count(obj["dimension"], "robot.dimension", 2),
                           _number(obj["radius"], "robot.radius"))
    base = _vector(obj["base_pose"], "robot.base_pose", 16).reshape(4, 4)
    links = []
    for i, entry in enumerate(_list(obj["links"], "robot.links")):
        path = f"robot.links[{i}]"
        _require_keys(entry, path, ["a", "alpha", "d"], ["theta0", "kind"])
        a, alpha, d, theta0 = (_number(entry.get(key, 0.0), f"{path}.{key}")
                               for key in ("a", "alpha", "d", "theta0"))
        kind = entry.get("kind", "revolute")
        if kind not in ("revolute", "prismatic"):
            raise ScenarioError(f"{path}.kind: must be 'revolute' or 'prismatic'")
        links.append(DHLink(a, alpha, d, theta0, kind))
    cuboids = []
    for i, verts in enumerate(_list(obj["cuboids"], "robot.cuboids")):
        arr = _points(verts, f"robot.cuboids[{i}]", 3)
        if arr.shape != (8, 3):
            raise ScenarioError(f"robot.cuboids[{i}]: expected 8x3 vertices")
        cuboids.append(arr)
    depths = obj.get("halving_depth", 1)
    if not isinstance(depths, (list, tuple)):
        depths = [depths] * len(links)
    depths = tuple(_count(d, "robot.halving_depth") for d in depths)
    try:
        chain = DHChain(base, tuple(links), tuple(cuboids))
    except ValueError as exc:
        raise ScenarioError(f"robot: {exc}") from exc
    return ChainRobot(chain, depths)


def parse_scenario(obj: dict) -> Scenario:
    """Validate a scenario dictionary; unknown fields are rejected."""
    _require_keys(
        obj, "scenario",
        ["name", "robot", "boundary", "limits", "workspace"],
        ["basis", "obstacles", "solver", "collision"],
    )
    if "solver" in obj:  # the settings are nlp constants; name any key set
        _require_keys(obj["solver"], "solver", [])
        raise ScenarioError("scenario.solver: unknown field")
    if not isinstance(obj["name"], str):
        raise ScenarioError("name: must be a string")
    robot = _parse_robot(obj["robot"])
    n = robot.n_coords
    is_chain = isinstance(robot, ChainRobot)

    basis_obj = obj.get("basis", {})
    _require_keys(basis_obj, "basis", [], ["degree", "interior_knots"])
    degree = _count(basis_obj.get("degree", 3), "basis.degree", 3)
    interior = _vector(
        basis_obj.get("interior_knots", np.round(np.arange(0.1, 0.95, 0.1), 10)),
        "basis.interior_knots",
    )
    # The planner differentiates the trajectory twice, which takes every
    # interior knot at most degree - 1 times.
    if (np.any(interior <= 0.0) or np.any(interior >= 1.0)
            or np.any(np.diff(interior) < 0.0)
            or np.unique(interior, return_counts=True)[1].max(initial=0) >= degree):
        raise ScenarioError("basis.interior_knots: must be sorted, strictly inside "
                            "(0, 1) and each at most degree - 1 times")
    n_coeff = len(interior) + degree + 1
    if n_coeff < 7:
        raise ScenarioError("basis.interior_knots: need at least 7 coefficients "
                            "(6 are pinned by the boundary conditions)")

    bnd = obj["boundary"]
    _require_keys(bnd, "boundary", ["initial", "goal"], ["units"])

    def _unit_scale(block, path):
        units = block.get("units", "rad")
        if units not in ("rad", "deg", "m"):
            raise ScenarioError(f"{path}.units: must be 'rad', 'deg', or 'm'")
        # Degrees convert angles only; linear coordinates are meters.
        return np.where(robot.revolute, DEG, 1.0) if units == "deg" else 1.0

    scale = _unit_scale(bnd, "boundary")
    q_init = _vector(bnd["initial"], "boundary.initial", n) * scale
    q_goal = _vector(bnd["goal"], "boundary.goal", n) * scale

    lim = obj["limits"]
    _require_keys(lim, "limits", ["velocity", "acceleration"],
                  ["angle_min", "angle_max", "units"])
    lscale = _unit_scale(lim, "limits")

    def _limit_vec(value, path):
        if isinstance(value, (list, tuple, np.ndarray)):
            return _vector(value, path, n)
        return np.full(n, _number(value, path))  # one value for every coordinate

    def _side(key, missing):  # a box side left out bounds nothing
        return (_limit_vec(lim[key], f"limits.{key}") * lscale if key in lim
                else np.full(n, missing))

    velocity = _limit_vec(lim["velocity"], "limits.velocity") * lscale
    acceleration = _limit_vec(lim["acceleration"], "limits.acceleration") * lscale
    angle_min, angle_max = _side("angle_min", -np.inf), _side("angle_max", np.inf)
    limits = Limits(velocity, acceleration, angle_min, angle_max)

    ws = obj["workspace"]
    _require_keys(ws, "workspace", ["min", "max"])
    ws_min = _vector(ws["min"], "workspace.min", robot.world_dim)
    ws_max = _vector(ws["max"], "workspace.max", robot.world_dim)
    if np.any(ws_min >= ws_max):
        raise ScenarioError("workspace: min must be strictly below max")

    obstacles = tuple(
        _parse_obstacle(o, f"obstacles[{i}]", robot.world_dim)
        for i, o in enumerate(_list(obj.get("obstacles", []), "obstacles"))
    )

    col_obj = obj.get("collision", {})
    _require_keys(col_obj, "collision", [],
                  ["collocation_per_span", "static_mode"])
    collision = CollisionSettings(
        collocation_per_span=_count(col_obj.get("collocation_per_span", 8),
                                    "collision.collocation_per_span", 2),
        static_mode=col_obj.get("static_mode", "sdf"),
    )

    # Physical consistency checks; only an angle has a finite range.
    half_range = robot.half_range
    outside = np.maximum(np.abs(q_init), np.abs(q_goal)) >= half_range
    if outside.any():
        k = int(np.argmax(outside))
        raise ScenarioError(
            f"boundary: joint {k + 1} angle outside the recoverable range "
            f"(+-{half_range[k]:.4f} rad) at halving depth {robot.halving_depths[k]}"
        )
    unbounded = ~robot.revolute & ~np.isfinite(limits.angle_max - limits.angle_min)
    if (
        is_chain
        and collision.static_mode == "sdf"
        and any(o.is_static for o in obstacles)
        and unbounded.any()
    ):
        k = int(np.argmax(unbounded)) + 1
        raise ScenarioError(
            f"limits: prismatic joint {k} needs angle_min and angle_max (its "
            "offset range) to bound the SDF motion margin"
        )
    if not is_chain:
        for end, q in (("initial", q_init), ("goal", q_goal)):
            if np.any(q < ws_min) or np.any(q > ws_max):
                raise ScenarioError(f"boundary.{end}: outside the workspace box")
    for end, q in (("goal", q_goal), ("initial", q_init)):
        if np.any(q < limits.angle_min) or np.any(q > limits.angle_max):
            raise ScenarioError(f"boundary.{end}: outside the configured angle limits")

    return Scenario(
        name=obj["name"],
        robot=robot,
        basis_degree=degree,
        basis_interior=interior,
        boundary_initial=q_init,
        boundary_goal=q_goal,
        limits=limits,
        obstacles=obstacles,
        workspace_min=ws_min,
        workspace_max=ws_max,
        collision=collision,
    )


def _read_json(path):
    """The JSON value in the file at ``path``.  A file that is missing, a
    directory, unreadable, not UTF-8 text or not JSON is invalid input:
    ScenarioError naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioError(f"{path}: cannot read ({reason})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: malformed JSON ({exc})") from exc


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    return parse_scenario(_read_json(path))

