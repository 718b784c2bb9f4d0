"""Core B-spline tests against independent oracles.

The basis oracle below is a literal term-by-term transcription of the
Cox-de Boor recursion, kept deliberately naive and separate from the
library implementation.
"""

import numpy as np
import pytest

from splinetraj.bspline import (
    BSpline,
    DegreeError,
    DomainError,
    KnotVector,
    basis_matrix,
    clamp_knots,
)


def oracle_basis(u, i, p, tau):
    """Independent recursive transcription of the basis recursion."""
    u = np.asarray(u, dtype=float)
    if p == 0:
        if u[i] <= tau < u[i + 1]:
            return 1.0
        if tau == u[-1] and u[i + 1] == u[-1] and u[i] < u[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    if u[i + p] - u[i] != 0.0:
        left = (tau - u[i]) / (u[i + p] - u[i]) * oracle_basis(u, i, p - 1, tau)
    right = 0.0
    if u[i + p + 1] - u[i + 1] != 0.0:
        right = (u[i + p + 1] - tau) / (u[i + p + 1] - u[i + 1]) * oracle_basis(
            u, i + 1, p - 1, tau
        )
    return left + right


CLAMPED_CUBIC = KnotVector([0, 0, 0, 0, 0.5, 1, 1, 1, 1])


def random_clamped(rng, degree=None, dim=1, max_interior=6):
    p = int(rng.integers(1, 5)) if degree is None else degree
    k = int(rng.integers(0, max_interior + 1))
    # Draw interiors from a coarse grid so knot spans never degenerate.
    grid = np.arange(0.1, 0.91, 0.05)
    interior = np.sort(rng.choice(grid, size=min(k, grid.size), replace=False))
    knots = clamp_knots(interior, p)
    n = len(knots) - p - 1
    coeffs = rng.uniform(-2.0, 2.0, size=(n, dim))
    return BSpline(p, knots, coeffs)


class TestKnotVector:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            KnotVector([0, 0.5, 0.4, 1])

    def test_multiplicity_bound(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1])
        with pytest.raises(ValueError):
            kv.validate_for_degree(1)
        kv.validate_for_degree(2)

    def test_immutable(self):
        kv = KnotVector([0, 1])
        with pytest.raises(AttributeError):
            kv.values = np.array([0.0, 2.0])
        with pytest.raises(ValueError):
            kv.values[0] = 3.0

    def test_signed_zero_eq_and_hash(self):
        neg, pos = KnotVector([-0.0, 0.5, 1]), KnotVector([0.0, 0.5, 1])
        assert neg == pos
        assert hash(neg) == hash(pos)
        assert len({neg, pos}) == 1


class TestClampKnots:
    def test_paper_13_coefficient_sequence(self):
        interior = np.round(np.arange(0.1, 0.95, 0.1), 10)
        kv = clamp_knots(interior, 3)
        expected = [0, 0, 0, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 1, 1, 1]
        assert len(kv) == 17
        np.testing.assert_allclose(kv.values, expected)

    def test_empty_interior_linear(self):
        kv = clamp_knots([], 1)
        np.testing.assert_array_equal(kv.values, [0, 0, 1, 1])

    def test_single_interior_quadratic(self):
        kv = clamp_knots([0.5], 2)
        np.testing.assert_array_equal(kv.values, [0, 0, 0, 0.5, 1, 1, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            clamp_knots([0.0, 0.5], 2)
        with pytest.raises(ValueError):
            clamp_knots([0.6, 0.4], 2)


class TestBasisMatrix:
    def test_matches_scalar_eval(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_clamped(rng)
            taus = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 8)])
            B = basis_matrix(s.knots, s.degree, taus)
            for r, tau in enumerate(taus):
                for i in range(s.n_coefficients):
                    assert B[r, i] == pytest.approx(
                        oracle_basis(s.knots.values, i, s.degree, tau), abs=1e-14
                    )

    def test_clamped_endpoint(self):
        B = basis_matrix(CLAMPED_CUBIC, 3, [0.0, 1.0])
        assert B[0, 0] == 1.0
        assert B[1, 4] == 1.0

    def test_matches_oracle_midspan(self):
        val = basis_matrix(CLAMPED_CUBIC, 3, [0.25])[0, 2]
        ref = oracle_basis(CLAMPED_CUBIC.values, 2, 3, 0.25)
        assert val == pytest.approx(ref, abs=1e-15)

    def test_matches_oracle_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_clamped(rng)
            u = s.knots
            taus = rng.uniform(0.0, 1.0, size=10)
            B = basis_matrix(u, s.degree, taus)
            for i in range(s.n_coefficients):
                for r, tau in enumerate(taus):
                    assert B[r, i] == pytest.approx(
                        oracle_basis(u.values, i, s.degree, tau), abs=1e-14
                    )

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_clamped(rng)
            tau = rng.uniform(0, 1)
            assert np.all(basis_matrix(s.knots, s.degree, [tau]) >= 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            basis_matrix(CLAMPED_CUBIC, 3, [1.5])

    def test_column_count(self):
        # One column per coefficient, one row per parameter, also for none.
        B = basis_matrix(CLAMPED_CUBIC, 3, np.linspace(0, 1, 7))
        assert B.shape == (7, len(CLAMPED_CUBIC) - 3 - 1)
        assert basis_matrix(CLAMPED_CUBIC, 3, []).shape == (0, 5)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_clamped(rng)
            taus = np.linspace(0, 1, 97)
            sums = basis_matrix(s.knots, s.degree, taus).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestEval:
    def test_constant_control_points(self):
        c = np.array([1.5, -2.0, 0.25])
        s = BSpline(3, CLAMPED_CUBIC, np.tile(c, (5, 1)))
        for tau in np.linspace(0, 1, 21):
            np.testing.assert_allclose(s.eval(tau), c, atol=1e-14)

    def test_clamped_endpoint_interpolation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_clamped(rng, dim=2)
            np.testing.assert_array_equal(s.eval(0.0), s.control_points[0])
            np.testing.assert_array_equal(s.eval(1.0), s.control_points[-1])

    def test_matches_basis_oracle_sum(self):
        rng = np.random.default_rng(17)
        s = random_clamped(rng, degree=3, dim=2)
        taus = rng.uniform(0, 1, 100)
        vals = s.eval(taus)
        for r, tau in enumerate(taus):
            ref = sum(
                s.control_points[i] * oracle_basis(s.knots.values, i, 3, tau)
                for i in range(s.n_coefficients)
            )
            np.testing.assert_allclose(vals[r], ref, atol=1e-12)

    def test_domain_error(self):
        s = random_clamped(np.random.default_rng(0))
        with pytest.raises(DomainError):
            s.eval(-0.01)

    def test_shape_conventions(self):
        s = random_clamped(np.random.default_rng(1), dim=3)
        assert s.eval(0.5).shape == (3,)
        assert s.eval([0.2, 0.4]).shape == (2, 3)


class TestDerivative:
    def test_constant_spline_zero(self):
        s = BSpline(3, CLAMPED_CUBIC, np.full((5, 1), 4.2))
        d = s.derivative()
        assert d.degree == 2
        np.testing.assert_array_equal(d.control_points, 0.0)

    def test_linear_interpolant_constant_slope(self):
        # Greville abscissae make the cubic reproduce the straight line k*tau.
        k = 3.7
        knots = clamp_knots([0.25, 0.5, 0.75], 3)
        u = knots.values
        greville = np.array([u[i + 1 : i + 4].mean() for i in range(len(u) - 4)])
        s = BSpline(3, knots, (k * greville)[:, None])
        d = s.derivative()
        for tau in np.linspace(0, 1, 33):
            assert d.eval(tau)[0] == pytest.approx(k, abs=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(23)
        h = 1e-6
        for _ in range(20):
            s = random_clamped(rng, degree=3)
            d = s.derivative()
            taus = rng.uniform(0.01, 0.99, 200)
            fd = (s.eval(taus + h) - s.eval(taus - h)) / (2 * h)
            np.testing.assert_allclose(d.eval(taus), fd, atol=1e-6)

    def test_second_derivative_finite_difference(self):
        rng = np.random.default_rng(29)
        h = 1e-5
        for _ in range(10):
            s = random_clamped(rng, degree=4)
            d1 = s.derivative()
            d2 = d1.derivative()
            taus = rng.uniform(0.02, 0.98, 100)
            fd = (d1.eval(taus + h) - d1.eval(taus - h)) / (2 * h)
            np.testing.assert_allclose(d2.eval(taus), fd, atol=1e-5)

    def test_knot_stripping(self):
        s = random_clamped(np.random.default_rng(2), degree=3)
        d = s.derivative()
        np.testing.assert_array_equal(d.knots.values, s.knots.values[1:-1])

    def test_degree_zero_error(self):
        s = BSpline(0, KnotVector([0, 0.5, 1]), [[1.0], [2.0]])
        with pytest.raises(DegreeError):
            s.derivative()


class TestInvariants:
    """Spec-level invariants over randomized splines."""

    def test_simple(self):
        # A linear spline passes through its control points, so its range
        # is exactly the control points' min/max.
        s = BSpline(1, KnotVector([0, 0, 0.5, 1, 1]), [[0.0], [2.0], [1.0]])
        np.testing.assert_allclose(s.eval([0.0, 0.5, 1.0])[:, 0], [0.0, 2.0, 1.0])
        vals = s.eval(np.linspace(0, 1, 1001))[:, 0]
        assert vals.min() == s.control_points.min() == 0.0
        assert vals.max() == s.control_points.max() == 2.0

    def test_single_control_point(self):
        s = BSpline(0, KnotVector([0, 1]), [[3.5]])
        taus = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(basis_matrix(s.knots, 0, taus), np.ones((11, 1)))
        np.testing.assert_array_equal(s.eval(taus), np.full((11, 1), 3.5))

    def test_dense_sampling_containment(self):
        rng = np.random.default_rng(31)
        taus = np.linspace(0, 1, 1000)
        for _ in range(200):
            s = random_clamped(rng, dim=int(rng.integers(1, 4)))
            vals = s.eval(taus)
            assert np.all(vals >= s.control_points.min(axis=0) - 1e-12)
            assert np.all(vals <= s.control_points.max(axis=0) + 1e-12)

    def test_hull_containment_bulk(self):
        rng = np.random.default_rng(37)
        taus = np.linspace(0, 1, 1000)
        for _ in range(1000):
            p = int(rng.integers(1, 5))
            k = int(rng.integers(0, 4))
            knots = clamp_knots(np.sort(rng.uniform(0.1, 0.9, k)), p)
            n = len(knots) - p - 1
            s = BSpline(p, knots, rng.uniform(-5, 5, (n, 1)))
            vals = s.eval(taus)[:, 0]
            assert vals.min() >= s.control_points.min() - 1e-12
            assert vals.max() <= s.control_points.max() + 1e-12


class TestSerialization:
    def test_structure_validation(self):
        with pytest.raises(ValueError):
            BSpline(3, CLAMPED_CUBIC, np.zeros((7, 1)))
