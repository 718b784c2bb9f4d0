"""Spline algebra: exact add/multiply, the union knot vector, the
least-squares fit operator, pointwise and exact rational oracles."""

from fractions import Fraction

import numpy as np
import pytest

from splinetraj.bernstein import left_inverse
from splinetraj.bspline import BSpline, KnotVector, basis_matrix, clamp_knots
from splinetraj.spline_algebra import (
    FitOperator,
    NumericalError,
    add,
    collocation_sites,
    elevated_union,
    multiply,
)
from tests.test_bernstein import (
    close,
    exact_coefficients,
    exact_extraction,
    exact_pieces,
    padd,
    pmul,
    pscale,
    pshift,
    to_bernstein,
)

PAPER_INTERIOR = np.round(np.arange(0.1, 0.95, 0.1), 10)


def random_spline(rng, degree=None, dim=1, max_interior=6):
    p = int(rng.integers(1, 5)) if degree is None else degree
    k = int(rng.integers(0, max_interior + 1))
    grid = np.arange(0.05, 0.96, 0.05)
    interior = np.sort(rng.choice(grid, size=min(k, grid.size), replace=False))
    knots = clamp_knots(interior, p)
    n = len(knots) - p - 1
    return BSpline(p, knots, rng.uniform(-2.0, 2.0, (n, dim)))


def fit(taus, values, degree, knots):
    """Least-squares spline through samples and its worst residual."""
    op = FitOperator(degree, knots, np.asarray(taus, dtype=float))
    vals = np.asarray(values, dtype=float).reshape(len(op.taus), -1)
    coeffs = op.fit_coefficients(vals)
    return BSpline(degree, knots, coeffs), float(np.abs(op.matrix @ coeffs - vals).max())


class TestKnotUnion:
    """``elevated_union`` at the operands' own degree is their knot union:
    every distinct knot with the larger of its two multiplicities."""

    def test_idempotent(self):
        u = clamp_knots([0.3, 0.6], 3)
        merged = elevated_union([(u, 3), (u, 3)], 3)
        np.testing.assert_array_equal(merged.values, u.values)

    def test_construction_rule(self):
        u1 = KnotVector([0, 0, 0.5, 1, 1])
        u2 = KnotVector([0, 0, 1, 1])
        merged = elevated_union([(u1, 1), (u2, 1)], 1)
        np.testing.assert_array_equal(merged.values, [0, 0, 0.5, 1, 1])
        assert merged.multiplicity(0.5) == 1

    def test_contains_all_distinct_knots(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = int(rng.integers(1, 5))
            s1 = random_spline(rng, degree=p)
            s2 = random_spline(rng, degree=p)
            merged = elevated_union([(s1.knots, p), (s2.knots, p)], p)
            assert np.all(np.diff(merged.values) >= 0)
            for v in np.concatenate([s1.knots.distinct(), s2.knots.distinct()]):
                assert v in merged.values

    def test_max_multiplicity_kept(self):
        u1 = KnotVector([0, 0, 0, 0.5, 0.5, 1, 1, 1])
        u2 = KnotVector([0, 0, 0, 0.5, 1, 1, 1])
        merged = elevated_union([(u1, 2), (u2, 2)], 2)
        assert merged.multiplicity(0.5) == 2


class TestCollocation:
    def test_covers_every_span(self):
        knots = clamp_knots([0.25, 0.5], 3)
        taus = collocation_sites(knots, 5)
        assert taus[0] == 0.0 and taus[-1] == 1.0
        for a, b in [(0, 0.25), (0.25, 0.5), (0.5, 1.0)]:
            assert np.count_nonzero((taus >= a) & (taus <= b)) >= 5

    def test_default_density_determines_full_rank(self):
        knots = clamp_knots(PAPER_INTERIOR, 3)
        # the planner's fit density, 4 (p + 1) sites per span
        taus = collocation_sites(knots, 16)
        op = FitOperator(3, knots, taus)
        assert op.condition < 1e4


class TestRefit:
    """The least-squares fit the planner's chain rate and acceleration
    families use."""

    def test_recovers_representable_target(self):
        rng = np.random.default_rng(3)
        s = random_spline(rng, degree=3, dim=2)
        taus = collocation_sites(s.knots, 16)
        fitted, resid = fit(taus, s.eval(taus), 3, s.knots)
        assert resid < 1e-12
        np.testing.assert_allclose(fitted.control_points, s.control_points, atol=1e-10)

    def test_low_degree_polynomial_exact(self):
        knots = clamp_knots(PAPER_INTERIOR, 3)
        taus = collocation_sites(knots, 16)
        _, resid = fit(taus, taus**2, 3, knots)
        assert resid < 1e-10

    def test_matches_normal_equations_oracle(self):
        # Independent least-squares solve via explicit normal equations.
        knots = clamp_knots(PAPER_INTERIOR, 3)
        taus = collocation_sites(knots, 16)
        target = np.sin(2 * np.pi * taus)
        fitted, resid = fit(taus, target, 3, knots)
        B = basis_matrix(knots, 3, taus)
        coeffs = np.linalg.solve(B.T @ B, B.T @ target)
        oracle_resid = np.abs(B @ coeffs - target).max()
        assert resid == pytest.approx(oracle_resid, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(fitted.control_points[:, 0], coeffs, atol=1e-9)

    def test_underdetermined_rejected(self):
        knots = clamp_knots([], 3)
        with pytest.raises(NumericalError):
            FitOperator(3, knots, np.array([0.0, 1.0]))


class TestAdd:
    def test_shared_basis_exact_doubling(self):
        rng = np.random.default_rng(5)
        s = random_spline(rng, degree=3)
        doubled = add(s, s)
        np.testing.assert_array_equal(doubled.control_points, 2 * s.control_points)

    def test_constants(self):
        a = BSpline.constant([1.25], degree=2, knots=clamp_knots([], 2))
        b = BSpline.constant([-0.5], degree=3, knots=clamp_knots([0.5], 3))
        out = add(a, b)
        taus = np.linspace(0, 1, 50)
        np.testing.assert_allclose(out.eval(taus), 0.75, atol=1e-12)

    def test_degree_law(self):
        rng = np.random.default_rng(7)
        s1 = random_spline(rng, degree=2)
        s2 = random_spline(rng, degree=4)
        assert add(s1, s2).degree == 4

    def test_dense_pointwise_oracle(self):
        rng = np.random.default_rng(11)
        taus = np.linspace(0, 1, 500)
        for _ in range(30):
            s1 = random_spline(rng, degree=3)
            s2 = random_spline(rng, degree=2)
            out = add(s1, s2)
            np.testing.assert_allclose(
                out.eval(taus), s1.eval(taus) + s2.eval(taus), atol=1e-9
            )

    def test_commutative_at_evaluation(self):
        rng = np.random.default_rng(13)
        taus = np.linspace(0, 1, 300)
        s1, s2 = random_spline(rng), random_spline(rng)
        np.testing.assert_allclose(
            add(s1, s2).eval(taus), add(s2, s1).eval(taus), atol=1e-10
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            add(random_spline(rng, dim=2), random_spline(rng, dim=3))


class TestMultiply:
    def test_identity(self):
        rng = np.random.default_rng(19)
        one = BSpline.constant([1.0])
        s = random_spline(rng, degree=3, dim=2)
        out = multiply(one, s)
        taus = np.linspace(0, 1, 200)
        np.testing.assert_allclose(out.eval(taus), s.eval(taus), atol=1e-10)

    def test_degree_law_two_cubics(self):
        rng = np.random.default_rng(23)
        s1 = random_spline(rng, degree=3)
        s2 = random_spline(rng, degree=3)
        assert multiply(s1, s2).degree == 6

    def test_dense_pointwise_oracle(self):
        rng = np.random.default_rng(29)
        taus = np.linspace(0, 1, 500)
        for _ in range(30):
            s1 = random_spline(rng)
            s2 = random_spline(rng)
            out = multiply(s1, s2)
            np.testing.assert_allclose(
                out.eval(taus)[:, 0],
                s1.eval(taus)[:, 0] * s2.eval(taus)[:, 0],
                atol=1e-8,
            )

    def test_scalar_times_vector(self):
        rng = np.random.default_rng(31)
        s = random_spline(rng, degree=2)
        v = random_spline(rng, degree=3, dim=3)
        out = multiply(s, v)
        assert out.dim == 3
        taus = np.linspace(0, 1, 100)
        np.testing.assert_allclose(
            out.eval(taus), s.eval(taus) * v.eval(taus), atol=1e-8
        )

    def test_vector_times_vector_is_the_outer_product(self):
        # Coordinate i * d2 + j is s1_i(tau) s2_j(tau).
        rng = np.random.default_rng(37)
        taus = np.linspace(0, 1, 400)
        for d1, d2 in ((2, 3), (3, 2), (4, 4)):
            s1, s2 = random_spline(rng, dim=d1), random_spline(rng, dim=d2)
            out = multiply(s1, s2)
            assert out.dim == d1 * d2
            expected = s1.eval(taus)[:, :, None] * s2.eval(taus)[:, None, :]
            np.testing.assert_allclose(
                out.eval(taus), expected.reshape(len(taus), -1), atol=1e-8
            )

    def test_commutative_at_evaluation(self):
        rng = np.random.default_rng(41)
        taus = np.linspace(0, 1, 300)
        s1, s2 = random_spline(rng), random_spline(rng)
        np.testing.assert_allclose(
            multiply(s1, s2).eval(taus),
            multiply(s2, s1).eval(taus),
            atol=1e-10,
        )


class TestAlgebraProperties:
    def test_distributivity_at_evaluation(self):
        rng = np.random.default_rng(43)
        taus = np.linspace(0, 1, 300)
        for _ in range(10):
            a = random_spline(rng, max_interior=3)
            b = random_spline(rng, max_interior=3)
            c = random_spline(rng, max_interior=3)
            lhs = multiply(a, add(b, c))
            rhs = add(multiply(a, b), multiply(a, c))
            np.testing.assert_allclose(lhs.eval(taus), rhs.eval(taus), atol=1e-8)

    def test_hull_soundness_after_algebra(self):
        rng = np.random.default_rng(47)
        taus = np.linspace(0, 1, 1000)
        for _ in range(20):
            s1 = random_spline(rng)
            s2 = random_spline(rng)
            total = add(s1, s2)
            prod = multiply(s1, s2)
            truth_sum = s1.eval(taus) + s2.eval(taus)
            truth_prod = s1.eval(taus) * s2.eval(taus)
            for spline, truth in ((total, truth_sum), (prod, truth_prod)):
                c = spline.control_points
                assert np.all(truth >= c.min(axis=0) - 1e-8)
                assert np.all(truth <= c.max(axis=0) + 1e-8)

    def test_elevated_union_covers_smoothness(self):
        u = elevated_union([(clamp_knots([0.5], 1), 1), (clamp_knots([], 4), 4)], 5)
        # A degree-1 kink at 0.5 needs multiplicity 5 in the degree-5 space.
        assert u.multiplicity(0.5) == 5

    def test_linear_combination_exact(self):
        # A weighted sum on one basis: constant weights times each spline.
        rng = np.random.default_rng(53)
        s1 = random_spline(rng, degree=3, max_interior=0)
        s2 = BSpline(3, s1.knots, rng.uniform(-1, 1, s1.control_points.shape))
        out = add(multiply(BSpline.constant([2.0]), s1),
                  multiply(BSpline.constant([-0.5]), s2))
        assert out.degree == 3 and out.knots == s1.knots
        np.testing.assert_allclose(
            out.control_points, 2.0 * s1.control_points - 0.5 * s2.control_points,
            rtol=0, atol=1e-14,
        )

    def test_scale(self):
        rng = np.random.default_rng(59)
        s = random_spline(rng)
        out = multiply(BSpline.constant([-3.0]), s)
        assert out.degree == s.degree and out.knots == s.knots
        np.testing.assert_allclose(
            out.control_points, -3.0 * s.control_points, rtol=0, atol=1e-13
        )


# --- exact rational oracle --------------------------------------------------


def exact_on_spans(s, breaks):
    """Per span of ``breaks``, each coordinate of s as an exact power-basis
    polynomial in the span's local parameter."""
    u = [Fraction(v) for v in s.knots.values]
    own = [i for i in range(len(u) - 1) if u[i] < u[i + 1]]
    pieces = exact_pieces(s.knots, s.degree)
    out = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        lo, hi = Fraction(float(lo)), Fraction(float(hi))
        k = next(k for k, i in enumerate(own) if u[i] <= lo and hi <= u[i + 1])
        a, b = u[own[k]], u[own[k] + 1]
        coords = []
        for d in range(s.dim):
            poly = [Fraction(0)]
            for basis_poly, c in zip(pieces[k], s.control_points[:, d]):
                poly = padd(poly, pscale(basis_poly, Fraction(float(c))))
            coords.append(pshift(poly, (lo - a) / (b - a), (hi - lo) / (b - a)))
        out.append(coords)
    return out


def assert_exact(result, s1, s2, combine):
    """result's coefficients against the exact ones of combine(s1, s2)."""
    breaks = result.knots.distinct()
    p1 = exact_on_spans(s1, breaks)
    p2 = exact_on_spans(s2, breaks)
    E = exact_extraction(result.knots, result.degree)
    n = result.n_coefficients
    for d in range(result.dim):
        bez = []
        for c1, c2 in zip(p1, p2):
            y = combine(c1[d if len(c1) > 1 else 0], c2[d if len(c2) > 1 else 0])
            bez.extend(to_bernstein(y, result.degree))
        # also asserts that the result space holds the function exactly
        exact = exact_coefficients(E, bez, n, result.degree)
        assert close(result.control_points[:, d], exact) <= 1e-12, d


DOUBLE_KNOT = clamp_knots([0.2, 0.45, 0.45, 0.7], 3)
OTHER_KNOTS = clamp_knots([0.3, 0.45, 0.8], 2)


class TestExactAlgebra:
    """add and multiply of splines on different knot vectors against exact
    rational arithmetic, to 1e-12 relative."""

    def operands(self, seed, dim1=1, dim2=1):
        rng = np.random.default_rng(seed)
        s1 = BSpline(3, DOUBLE_KNOT, rng.uniform(-2, 2, (len(DOUBLE_KNOT) - 4, dim1)))
        s2 = BSpline(2, OTHER_KNOTS, rng.uniform(-2, 2, (len(OTHER_KNOTS) - 3, dim2)))
        return s1, s2

    def test_add_matches_exact_sum(self):
        s1, s2 = self.operands(61, 2, 2)
        out = add(s1, s2)
        assert out.degree == 3
        # the double knot at 0.45 keeps its multiplicity in the sum
        assert out.knots.multiplicity(0.45) == 2
        assert_exact(out, s1, s2, padd)

    def test_multiply_matches_exact_product(self):
        s1, s2 = self.operands(67)
        out = multiply(s1, s2)
        assert out.degree == 5
        # C^1 at the double knot of the cubic: multiplicity 2 + 2 at degree 5
        assert out.knots.multiplicity(0.45) == 4
        assert_exact(out, s1, s2, pmul)

    def test_scalar_times_vector_matches_exact_product(self):
        s1, s2 = self.operands(71, dim1=3)
        assert_exact(multiply(s2, s1), s2, s1, pmul)
        assert_exact(multiply(s1, s2), s1, s2, pmul)


class TestLeftInverseCache:
    """add/multiply build a result space per call; the left inverses they
    cache stay bounded, and an evicted space comes back unchanged."""

    def test_cache_stays_bounded(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            s1, s2 = random_spline(rng), random_spline(rng)
            add(s1, s2)
            multiply(s1, s2)
        info = left_inverse.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize

    def test_evicted_space_rebuilds_same_matrix(self):
        bound = left_inverse.cache_info().maxsize
        assert bound is not None
        knots = clamp_knots([0.25, 0.5, 0.75], 7)
        first = left_inverse(knots, 7).copy()
        for k in range(bound + 1):
            left_inverse(clamp_knots([0.5 + 1e-3 * (k + 1)], 3), 3)
        misses = left_inverse.cache_info().misses
        again = left_inverse(knots, 7)
        assert left_inverse.cache_info().misses == misses + 1  # rebuilt
        assert again.tobytes() == first.tobytes()
