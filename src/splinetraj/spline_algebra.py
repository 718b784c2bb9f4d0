"""Closed algebra over B-splines with arbitrary degrees and knot vectors.

Addition and multiplication are exact.  Both operands are extracted onto
the common break points of the result space (``elevated_union``) as
per-span Bernstein polynomials, raised or multiplied there with the
``bernstein`` engine, and lifted back to B-spline coefficients by that
space's left inverse; nothing is sampled or fitted.  ``multiply`` is
the per-coordinate outer product; the planner builds the fixed rows of
its separating-plane families with it.

``FitOperator`` is the least-squares fit of sampled values onto a fixed
basis that the planner's chain rate and acceleration families use.
"""

from __future__ import annotations

import numpy as np

from .bernstein import bezier_extraction, elevate, left_inverse, product, to_spans
from .bspline import BSpline, KnotVector, basis_matrix

__all__ = [
    "NumericalError",
    "elevated_union",
    "collocation_sites",
    "FitOperator",
    "add",
    "multiply",
]


class NumericalError(RuntimeError):
    """Rank-deficient or otherwise unusable least-squares system."""


def _check_normalized(knots: KnotVector) -> None:
    if knots.first != 0.0 or knots.last != 1.0:
        raise ValueError("knot vector must be normalized to [0, 1]")


def elevated_union(
    inputs: list[tuple[KnotVector, int]], target_degree: int
) -> KnotVector:
    """Knot vector on which sums/products of the inputs are exactly representable.

    A knot of multiplicity k in a degree-p input leaves the input C^{p-k}
    there; representing that smoothness at degree p3 needs multiplicity
    k + (p3 - p).  Taking the maximum over the inputs covers both addition
    (p3 = max p_i) and multiplication (p3 = sum p_i).
    """
    values: dict[float, int] = {}
    for knots, degree in inputs:
        _check_normalized(knots)
        if degree > target_degree:
            raise ValueError("input degree exceeds target degree")
        lift = target_degree - degree
        for v in knots.interior_distinct():
            v = float(v)
            mult = knots.multiplicity(v) + lift
            values[v] = max(values.get(v, 0), mult)
    values = {v: min(m, target_degree + 1) for v, m in values.items()}
    values[0.0] = target_degree + 1
    values[1.0] = target_degree + 1
    merged = np.concatenate(
        [np.full(m, v) for v, m in sorted(values.items())]
    )
    return KnotVector(merged)


def collocation_sites(knots: KnotVector, per_span: int) -> np.ndarray:
    """Uniform collocation sites per knot span, endpoints included, deduplicated."""
    breaks = knots.distinct()
    pieces = [
        np.linspace(a, b, per_span)
        for a, b in zip(breaks[:-1], breaks[1:])
        if b > a
    ]
    return np.unique(np.concatenate(pieces))


class FitOperator:
    """Precomputed least-squares fit of sampled values onto a fixed basis.

    The economy SVD of the collocation matrix is stored and applied in
    factored form, which keeps full solve accuracy at high degree (an
    explicitly multiplied-out pseudoinverse loses ~cond*eps) while staying
    linear in the sampled values with an exact adjoint.
    """

    def __init__(self, degree: int, knots: KnotVector, taus: np.ndarray):
        B = basis_matrix(knots, degree, taus)
        n_coeff = B.shape[1]
        if B.shape[0] < n_coeff:
            raise NumericalError(
                f"{B.shape[0]} samples underdetermine {n_coeff} coefficients"
            )
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
        if s[-1] <= s[0] * np.finfo(float).eps * max(B.shape):
            raise NumericalError(
                f"collocation matrix numerically rank deficient "
                f"(condition {s[0] / max(s[-1], np.finfo(float).tiny):.3e})"
            )
        self.degree = degree
        self.knots = knots
        self.taus = taus
        self.matrix = B
        self._U = U
        self._s = s
        self._Vt = Vt
        self.condition = float(s[0] / s[-1])

    @property
    def n_coefficients(self) -> int:
        return self.matrix.shape[1]

    def fit_coefficients(self, values: np.ndarray) -> np.ndarray:
        """Least-squares coefficients (n_coefficients, d) of the site
        values (n_sites, d)."""
        return self._Vt.T @ ((self._U.T @ values) / self._s[:, None])

    def adjoint_apply(self, weights: np.ndarray) -> np.ndarray:
        """Transpose of the fit map: coefficient weights (n_coefficients,
        d) to site weights (n_sites, d)."""
        return self._U @ ((self._Vt @ weights) / self._s[:, None])


def _on_common_spans(s1: BSpline, s2: BSpline, degree: int):
    """Result space of the given degree and both operands' per-span
    Bernstein coefficients on its spans, (S, p_i + 1, d_i) each."""
    if s1.domain != (0.0, 1.0) or s2.domain != (0.0, 1.0):
        raise ValueError("spline algebra requires the normalized domain [0, 1]")
    knots = elevated_union([(s1.knots, s1.degree), (s2.knots, s2.degree)], degree)
    breaks = knots.distinct()
    spans = [
        to_spans(bezier_extraction(s.knots, s.degree, breaks), s.control_points, s.degree)
        for s in (s1, s2)
    ]
    return knots, spans


def _lift(knots: KnotVector, degree: int, spans: np.ndarray) -> BSpline:
    coeffs = left_inverse(knots, degree) @ spans.reshape(-1, spans.shape[-1])
    return BSpline(degree, knots, coeffs)


def add(s1: BSpline, s2: BSpline) -> BSpline:
    """Pointwise sum of two splines as a spline of degree max(p1, p2).

    Splines sharing a basis are added coefficientwise; otherwise both are
    degree-elevated per span and summed in Bernstein form.
    """
    if s1.dim != s2.dim:
        raise ValueError(f"cannot add splines of dimension {s1.dim} and {s2.dim}")
    if s1.degree == s2.degree and s1.knots == s2.knots:
        return BSpline(s1.degree, s1.knots, s1.control_points + s2.control_points)
    p3 = max(s1.degree, s2.degree)
    knots, (a, b) = _on_common_spans(s1, s2, p3)
    return _lift(knots, p3, elevate(a, p3 - s1.degree) + elevate(b, p3 - s2.degree))


def multiply(s1: BSpline, s2: BSpline) -> BSpline:
    """Pointwise outer product as a spline of degree p1 + p2.

    Coordinate i * d2 + j of the result is coordinate i of s1 times
    coordinate j of s2, so a scalar operand (d = 1) scales every
    coordinate of the other.
    """
    p3 = s1.degree + s2.degree
    knots, (a, b) = _on_common_spans(s1, s2, p3)
    # (S, p1 + 1, d1, 1) times (S, p2 + 1, 1, d2): an outer product per span
    y = product(a[..., None], b[:, :, None, :])
    return _lift(knots, p3, y.reshape(y.shape[0], p3 + 1, -1))
