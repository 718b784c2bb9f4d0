"""Minimum-time trajectory planning with constraint-satisfying B-splines.

Trajectories are clamped B-splines over normalized time; every continuous
constraint (joint limits, static clearance, separation from moving convex
obstacles) is relaxed to finitely many conditions on spline control points
through the convex hull property, and the resulting nonlinear program is
solved by an embedded augmented Lagrangian method.
"""

from .bspline import (
    BSpline,
    DegreeError,
    DomainError,
    KnotVector,
    basis_matrix,
    clamp_knots,
)
from .collision import (
    ObstaclePrimitive,
    SignedDistanceField,
    build_sdf,
)
from .kinematics import DHChain, DHLink
from .planner import (
    DecisionVector,
    PlanningProblem,
    Solution,
    VerificationReport,
    assemble,
    initial_guess,
    solve,
    verify,
)
from .scenario import (
    ChainRobot,
    MobileRobot,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
)
from .spline_algebra import add, multiply

__version__ = "0.1.0"

__all__ = [
    "BSpline",
    "ChainRobot",
    "DHChain",
    "DHLink",
    "DecisionVector",
    "DegreeError",
    "DomainError",
    "KnotVector",
    "MobileRobot",
    "ObstaclePrimitive",
    "PlanningProblem",
    "Scenario",
    "ScenarioError",
    "SignedDistanceField",
    "Solution",
    "VerificationReport",
    "add",
    "assemble",
    "basis_matrix",
    "build_sdf",
    "clamp_knots",
    "initial_guess",
    "load_scenario",
    "multiply",
    "parse_scenario",
    "solve",
    "verify",
]
