"""Clamped B-spline curves on the normalized parameter interval [0, 1].

Provides knot vectors, vectorized Cox-de Boor basis evaluation, spline
evaluation and closed-form derivatives.  The convex-hull relaxations live
in the planner's constraint families, as sign conditions on control points.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "DegreeError",
    "KnotVector",
    "BSpline",
    "basis_matrix",
    "clamp_knots",
]


class DomainError(ValueError):
    """Parameter value outside the spline's knot domain."""


class DegreeError(ValueError):
    """Operation undefined for the spline's degree."""


class KnotVector:
    """Non-decreasing sequence of knot values.

    Immutable; the backing array is read-only after construction.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("knot vector must be one-dimensional")
        if arr.size < 2:
            raise ValueError("knot vector needs at least two entries")
        if not np.all(np.isfinite(arr)):
            raise ValueError("knot values must be finite")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("knot vector must be non-decreasing")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("KnotVector is immutable")

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        if not isinstance(other, KnotVector):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.values + 0.0).tobytes())

    @property
    def first(self) -> float:
        return float(self.values[0])

    @property
    def last(self) -> float:
        return float(self.values[-1])

    def multiplicity(self, value: float) -> int:
        """Number of knots exactly equal to ``value``."""
        return int(np.count_nonzero(self.values == value))

    def distinct(self) -> np.ndarray:
        """Distinct knot values in increasing order."""
        return np.unique(self.values)

    def interior_distinct(self) -> np.ndarray:
        """Distinct knot values strictly inside the domain."""
        uniq = self.distinct()
        return uniq[(uniq > self.first) & (uniq < self.last)]

    def max_multiplicity(self) -> int:
        _, counts = np.unique(self.values, return_counts=True)
        return int(counts.max())

    def validate_for_degree(self, degree: int) -> None:
        """Check the multiplicity bound for a spline of the given degree."""
        if degree < 0:
            raise DegreeError("degree must be non-negative")
        if self.max_multiplicity() > degree + 1:
            raise ValueError(
                f"knot multiplicity {self.max_multiplicity()} exceeds degree+1 = {degree + 1}"
            )


def clamp_knots(interior, degree: int) -> KnotVector:
    """Build a clamped knot vector on [0, 1] from interior knots.

    The first and last knots are repeated degree+1 times so the spline
    interpolates its end control points.

    Args:
        interior: Sorted knot values strictly inside (0, 1).
        degree: Spline degree.

    Returns:
        KnotVector ``[0]*(p+1) + interior + [1]*(p+1)``.
    """
    if degree < 0:
        raise DegreeError("degree must be non-negative")
    inner = np.asarray(interior, dtype=float)
    if inner.size and (np.any(inner <= 0.0) or np.any(inner >= 1.0)):
        raise ValueError("interior knots must lie strictly inside (0, 1)")
    if inner.size and np.any(np.diff(inner) < 0.0):
        raise ValueError("interior knots must be sorted")
    full = np.concatenate(
        [np.zeros(degree + 1), inner, np.ones(degree + 1)]
    )
    return KnotVector(full)


def basis_matrix(knots: KnotVector, degree: int, taus) -> np.ndarray:
    """Evaluate all basis functions at many parameters at once.

    The Cox-de Boor recursion (Piegl & Tiller, The NURBS Book, 2.2),
    vectorized over both the basis index and the parameter values.  0/0
    terms evaluate to 0, and the last nonempty knot span is closed on the
    right, so the last basis function of a clamped spline is 1 at the end.

    Returns:
        Array of shape (len(taus), n_basis) with entries B_{i,p}(tau_k).
    """
    u = knots.values
    t = np.atleast_1d(np.asarray(taus, dtype=float))
    if t.size and (t.min() < knots.first or t.max() > knots.last):
        raise DomainError("parameter values outside knot domain")
    m = len(u) - 1
    end = u[-1]
    tcol = t[:, None]
    left = u[:-1][None, :]
    right = u[1:][None, :]
    B = ((tcol >= left) & (tcol < right)).astype(float)
    closes = (u[1:] == end) & (u[:-1] < u[1:])
    if np.any(closes):
        B[:, closes] += (tcol == end).astype(float)
    for k in range(1, degree + 1):
        ncols = m - k
        d1 = u[k : k + ncols] - u[:ncols]
        d2 = u[k + 1 : k + 1 + ncols] - u[1 : 1 + ncols]
        with np.errstate(divide="ignore", invalid="ignore"):
            w1 = np.where(d1 > 0.0, (tcol - u[:ncols][None, :]) / d1, 0.0)
            w2 = np.where(
                d2 > 0.0, (u[k + 1 : k + 1 + ncols][None, :] - tcol) / d2, 0.0
            )
        B = w1 * B[:, :ncols] + w2 * B[:, 1 : 1 + ncols]
    return B


class BSpline:
    """B-spline curve S(tau) = sum_i c_i B_{i,p}(tau) in R^d.

    Control points are stored one per row.  Instances are immutable and safe
    to share between threads.
    """

    __slots__ = ("degree", "knots", "control_points")

    def __init__(self, degree: int, knots: KnotVector, control_points):
        if degree < 0:
            raise DegreeError("degree must be non-negative")
        coeffs = np.array(control_points, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] < 1:
            raise ValueError("control points must form an (n+1, d) array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("control points must be finite")
        expected = len(knots) - degree - 2
        if coeffs.shape[0] != expected + 1:
            raise ValueError(
                f"{coeffs.shape[0]} control points inconsistent with "
                f"{len(knots)} knots at degree {degree} (need {expected + 1})"
            )
        knots.validate_for_degree(degree)
        coeffs.flags.writeable = False
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "control_points", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("BSpline is immutable")

    @property
    def dim(self) -> int:
        return self.control_points.shape[1]

    @property
    def n_coefficients(self) -> int:
        return self.control_points.shape[0]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.knots.first, self.knots.last)

    def basis(self, taus) -> np.ndarray:
        return basis_matrix(self.knots, self.degree, taus)

    def eval(self, taus):
        """Evaluate the curve.

        A scalar parameter returns a (d,) point; an array of m parameters
        returns an (m, d) array.
        """
        scalar = np.isscalar(taus) or (
            isinstance(taus, np.ndarray) and taus.ndim == 0
        )
        B = self.basis(taus)
        out = B @ self.control_points
        return out[0] if scalar else out

    def derivative(self) -> "BSpline":
        """Spline of the first derivative with respect to tau.

        The new knot vector drops the first and last knots; coefficients are
        d_i = p (c_{i+1} - c_i) / (u_{i+p+1} - u_{i+1}), with d_i = 0 over
        zero-length knot spans.
        """
        p = self.degree
        if p == 0:
            raise DegreeError("cannot differentiate a degree-0 spline")
        if self.n_coefficients < 2:
            raise DegreeError("need at least two control points to differentiate")
        u = self.knots.values
        c = self.control_points
        spans = u[p + 1 : p + 1 + (c.shape[0] - 1)] - u[1 : c.shape[0]]
        diff = c[1:] - c[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(spans[:, None] > 0.0, p * diff / spans[:, None], 0.0)
        return BSpline(p - 1, KnotVector(u[1:-1]), d)

    @classmethod
    def constant(cls, value, degree: int = 0, knots: KnotVector | None = None) -> "BSpline":
        """Constant curve; by partition of unity every coefficient equals value."""
        if knots is None:
            knots = clamp_knots([], degree)
        point = np.atleast_1d(np.asarray(value, dtype=float))
        n = len(knots) - degree - 1
        return cls(degree, knots, np.tile(point, (n, 1)))
