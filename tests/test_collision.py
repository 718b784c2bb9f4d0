"""Collision: SDF construction/query oracles, and the planner's clearance
and separating-plane families on hand-checkable geometry."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splinetraj.bernstein import bezier_extraction, left_inverse, product, to_spans
from splinetraj.bspline import BSpline, basis_matrix, clamp_knots
from splinetraj.collision import (
    EMPTY_FIELD_VALUE,
    LATTICE_MAX_NODES,
    ObstaclePrimitive,
    OutOfBoundsError,
    SignedDistanceField,
    box_sphere_distance,
    build_sdf,
    lattice_path,
    point_box_distance,
)
from splinetraj.kinematics import DHChain, DHLink, NumericFK
from splinetraj.planner import (
    DecisionVector,
    PlaneNormFamily,
    PlaneObstacleSideFamily,
    PlaneRobotSideFamily,
    SDFClearanceFamily,
    TrackedBody,
    TrajectoryBasis,
    VariableLayout,
    assemble,
    static_field,
)
from splinetraj.scenario import load_scenario, parse_scenario
from splinetraj.spline_algebra import elevated_union
from tests.test_kinematics import trig_fk

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src/splinetraj/scenarios"

CUBIC = clamp_knots(np.round(np.arange(0.1, 0.95, 0.1), 10), 3)
BASIS = TrajectoryBasis(3, CUBIC)


# Closed-form signed distances, written apart from the program's
# per-axis formula: the sphere's |p - c| - r, and the box's distance to
# its nearest point (the point clipped into it) outside and minus the
# distance to its nearest face inside.
def brute_force_sphere_sd(pts, center, radius):
    return np.linalg.norm(pts - center, axis=1) - radius


def brute_force_box_sd(pts, lo, hi):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    outside = np.linalg.norm(np.clip(pts, lo, hi) - pts, axis=1)
    to_face = np.minimum(pts - lo, hi - pts).min(axis=1)
    return np.where(to_face > 0.0, -to_face, outside)


def signed_distance(shape, pts):
    """The program's signed distance of ``shape`` at points (N, dim)."""
    return shape.distance_at(list(np.atleast_2d(pts).T))


class TestBuildSDF:
    def test_sphere_node_values(self):
        sphere = ObstaclePrimitive.sphere([0.0, 0.0, 0.0], 0.5)
        field = build_sdf([sphere], ([-2, -2, -2], [2, 2, 2]), 0.25)
        # Node exactly 1.0 from the center along x.
        vals, _ = field.query_extended([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert vals[0] == pytest.approx(0.5, abs=1e-12)
        assert vals[1] == pytest.approx(-0.5, abs=1e-12)

    def test_two_overlapping_boxes_brute_force(self):
        rng = np.random.default_rng(3)
        b1 = ObstaclePrimitive.box([-0.5, -0.5], [0.3, 0.4])
        b2 = ObstaclePrimitive.box([0.0, -0.2], [0.8, 0.6])
        field = build_sdf([b1, b2], ([-2, -2], [2, 2]), 0.1)
        pts = rng.uniform(-2, 2, (1000, 2))
        # Snap to grid nodes so interpolation does not enter the comparison.
        pts = field.origin + np.round((pts - field.origin) / 0.1) * 0.1
        pts = np.clip(pts, field.origin, field.upper)
        vals, _ = field.query_extended(pts)
        ref = np.minimum(
            brute_force_box_sd(pts, [-0.5, -0.5], [0.3, 0.4]),
            brute_force_box_sd(pts, [0.0, -0.2], [0.8, 0.6]),
        )
        np.testing.assert_allclose(vals, ref, atol=1e-10)

    def test_empty_primitive_set_sentinel(self):
        # The minimum over no primitives, at every node, in 2D and 3D.
        for bounds in (([-1, -1], [1, 1]), ([-1, -1, -0.5], [1, 0.5, 1])):
            field = build_sdf([], bounds, 0.5)
            assert (field.values == EMPTY_FIELD_VALUE).all()

    def test_rejects_moving_primitive(self):
        motion = BSpline(3, CUBIC, np.zeros((13, 2)))
        sphere = ObstaclePrimitive.sphere([0.0, 0.0], 0.2, motion=motion)
        with pytest.raises(ValueError):
            build_sdf([sphere], ([-1, -1], [1, 1]), 0.1)

    def test_lipschitz_along_axes(self):
        sphere = ObstaclePrimitive.sphere([0.1, -0.2], 0.4)
        box = ObstaclePrimitive.box([-0.9, -0.9], [-0.3, -0.1])
        field = build_sdf([sphere, box], ([-1.5, -1.5], [1.5, 1.5]), 0.05)
        for axis in range(2):
            diffs = np.abs(np.diff(field.values, axis=axis))
            assert diffs.max() <= field.cell_size * (1 + 1e-12)


def _pairs_in(rng, lo, hi, n, steps):
    """n points uniform in the box [lo, hi] and each one's partner a
    random step away, one step length per point from ``steps``."""
    p = rng.uniform(lo, hi, (n, lo.size))
    d = rng.standard_normal((n, lo.size))
    d *= (rng.choice(steps, n) / np.linalg.norm(d, axis=1))[:, None]
    return p, p + d


class TestFieldLipschitz:
    """The interpolated field and its outside extension V(clip p) -
    |p - clip p| change by at most sqrt(dim) per unit of motion: the
    factor that the SDF motion margin and the sample screen both scale
    by.  Checked on random point pairs over ``threelink``'s 3D field, at
    step lengths from a fifth of a cell to half the box."""

    STEPS = (0.2, 1.0, 3.0, 60.0)  # in cells

    @pytest.fixture(scope="class")
    def field(self):
        return static_field(load_scenario(SCENARIO_DIR / "threelink.json"))

    @pytest.mark.parametrize("region", ["inside", "outside", "straddling"],
                             ids=["inside", "outside", "straddling"])
    def test_value_moves_at_most_sqrt_dim_per_unit(self, field, region):
        rng = np.random.default_rng({"inside": 61, "outside": 62,
                                     "straddling": 63}[region])
        lo, hi = field.origin, field.upper
        steps = field.cell_size * np.array(self.STEPS)
        if region == "inside":
            p, q = _pairs_in(rng, lo, hi, 20000, steps)
            keep = ((q >= lo) & (q <= hi)).all(axis=1)
        else:
            # Points within half a metre outside the box, partners on
            # either side of it.
            p, q = _pairs_in(rng, lo - 0.5, hi + 0.5, 60000, steps)
            p_out = ((p < lo) | (p > hi)).any(axis=1)
            q_out = ((q < lo) | (q > hi)).any(axis=1)
            keep = p_out & (q_out if region == "outside" else ~q_out)
        p, q = p[keep], q[keep]
        assert len(p) > 2000
        vp, _ = field.query_extended(p)
        vq, _ = field.query_extended(q)
        dist = np.linalg.norm(p - q, axis=1)
        assert np.all(np.abs(vp - vq) <= math.sqrt(3) * dist * (1 + 1e-12))
        if region != "inside":  # the extension itself is what was read
            clipped = np.clip(p, lo, hi)
            want = field.query_extended(clipped)[0] - np.linalg.norm(p - clipped, axis=1)
            np.testing.assert_allclose(vp, want, rtol=0, atol=1e-12)


class TestSDFQuery:
    def setup_method(self):
        self.sphere = ObstaclePrimitive.sphere([0.0, 0.0, 0.0], 0.5)
        self.field = build_sdf([self.sphere], ([-2, -2, -2], [2, 2, 2]), 0.05)

    def test_grid_node_exact(self):
        idx = (10, 20, 30)
        p = self.field.origin + np.array(idx) * self.field.cell_size
        vals, _ = self.field.query_extended(p)
        assert vals[0] == pytest.approx(self.field.values[idx], abs=1e-12)

    def test_boundary_within_cell(self):
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        vals, _ = self.field.query_extended(0.5 * dirs)
        assert np.abs(vals).max() <= self.field.cell_size

    def test_random_queries_vs_analytic(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.8, 1.8, (2000, 3))
        # Stay a few cells away from the center kink of the sphere SD.
        pts = pts[np.linalg.norm(pts, axis=1) > 0.2]
        vals, _ = self.field.query_extended(pts)
        ref = brute_force_sphere_sd(pts, np.zeros(3), 0.5)
        assert np.abs(vals - ref).max() <= self.field.cell_size

    def test_gradient_points_outward(self):
        _, grads = full_query(self.field, [1.0, 0.0, 0.0])
        assert grads[0, 0] > 0.5
        np.testing.assert_allclose(grads[0, 1:], 0.0, atol=0.05)

    def test_out_of_bounds(self):
        # Points past every face, edge and corner of the field get a value,
        # not an error: V(clip(p)) - |p - clip(p)|, which stays below the
        # true signed distance, with a gradient pointing back inside.
        rng = np.random.default_rng(11)
        pts = rng.uniform(-6.0, 6.0, (400, 3))
        pts = pts[np.abs(pts).max(axis=1) > 2.0]
        clipped = np.clip(pts, self.field.origin, self.field.upper)
        vals, grads = full_query(self.field, pts)
        inside, _ = self.field.query_extended(clipped)
        dist = np.linalg.norm(pts - clipped, axis=1)
        np.testing.assert_allclose(vals, inside - dist, rtol=0, atol=1e-12)
        ref = brute_force_sphere_sd(pts, np.zeros(3), 0.5)
        assert np.all(vals <= ref + self.field.cell_size)
        excess = pts - clipped
        away = excess != 0.0
        np.testing.assert_array_equal(grads[away], -(excess / dist[:, None])[away])
        assert np.all(np.sum(grads * excess, axis=1) < 0.0)

    def test_extended_query_lower_bound(self):
        p = np.array([[3.0, 0.0, 0.0]])
        vals, grads = full_query(self.field, p)
        inside_vals, _ = self.field.query_extended([2.0, 0.0, 0.0])
        assert vals[0] == pytest.approx(inside_vals[0] - 1.0, abs=1e-12)
        assert grads[0][0] < 0.0


def full_query(field, pts):
    """query_extended's values and the gradients of every point."""
    vals, gradient = field.query_extended(pts)
    return vals, gradient(np.arange(vals.size))


def reference_interpolate(field, pts):
    """The fancy-indexed 2D/3D interpolation formulas the flat-gather
    kernel replaced, kept as a bitwise reference."""
    t = (pts - field.origin) / field.cell_size
    idx = np.clip(np.floor(t).astype(int), 0, np.array(field.dims) - 2)
    f = t - idx
    g = 1.0 - f
    V = field.values
    grads = np.empty_like(pts)
    if field.dim == 2:
        i, j = idx[:, 0], idx[:, 1]
        v00, v01 = V[i, j], V[i, j + 1]
        v10, v11 = V[i + 1, j], V[i + 1, j + 1]
        fx, fy, gx, gy = f[:, 0], f[:, 1], g[:, 0], g[:, 1]
        out = gx * (gy * v00 + fy * v01) + fx * (gy * v10 + fy * v11)
        grads[:, 0] = gy * (v10 - v00) + fy * (v11 - v01)
        grads[:, 1] = gx * (v01 - v00) + fx * (v11 - v10)
        return out, grads / field.cell_size
    i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
    v000, v001 = V[i, j, k], V[i, j, k + 1]
    v010, v011 = V[i, j + 1, k], V[i, j + 1, k + 1]
    v100, v101 = V[i + 1, j, k], V[i + 1, j, k + 1]
    v110, v111 = V[i + 1, j + 1, k], V[i + 1, j + 1, k + 1]
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    gx, gy, gz = g[:, 0], g[:, 1], g[:, 2]
    c00 = gz * v000 + fz * v001
    c01 = gz * v010 + fz * v011
    c10 = gz * v100 + fz * v101
    c11 = gz * v110 + fz * v111
    c0 = gy * c00 + fy * c01
    c1 = gy * c10 + fy * c11
    out = gx * c0 + fx * c1
    grads[:, 0] = c1 - c0
    grads[:, 1] = gx * (c01 - c00) + fx * (c11 - c10)
    e00 = v001 - v000
    e01 = v011 - v010
    e10 = v101 - v100
    e11 = v111 - v110
    grads[:, 2] = gx * (gy * e00 + fy * e01) + fx * (gy * e10 + fy * e11)
    return out, grads / field.cell_size


def reference_query_extended(field, pts):
    clipped = np.clip(pts, field.origin, field.upper)
    vals, grads = reference_interpolate(field, clipped)
    excess = pts - clipped
    dist = np.linalg.norm(excess, axis=1)
    outside = dist > 0.0
    if np.any(outside):
        vals = vals - dist
        unit = np.zeros_like(excess)
        unit[outside] = excess[outside] / dist[outside, None]
        grads = np.where(excess != 0.0, -unit, grads)
    return vals, grads


def assert_bitwise(actual, expected):
    actual = np.ascontiguousarray(actual)
    assert actual.shape == expected.shape
    assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestInterpolationKernel:
    """The flat-gather kernel against the reference formulas, bit for bit."""

    @pytest.mark.parametrize("dims", [(7, 5), (6, 9, 4), (2, 2, 2)])
    def test_bitwise_equal_to_reference(self, dims):
        rng = np.random.default_rng(len(dims) * 100 + dims[0])
        origin = rng.uniform(-1.0, 1.0, len(dims))
        field = SignedDistanceField(origin, 0.37, rng.normal(size=dims))
        lo, hi, h = field.origin, field.upper, field.cell_size
        inside = rng.uniform(lo, hi, (500, len(dims)))
        last_cell = hi - rng.uniform(0.0, h, (100, len(dims)))
        nodes = lo + h * rng.integers(0, np.array(dims), (100, len(dims)))
        corners = np.array([lo, hi])
        pts = np.vstack([inside, last_cell, nodes, corners])
        for mine, ref in zip(full_query(field, pts),
                             reference_interpolate(field, pts)):
            assert_bitwise(mine, ref)
        span = hi - lo
        outside = rng.uniform(lo - span, hi + span, (500, len(dims)))
        one_axis = inside.copy()
        one_axis[:, 0] = hi[0] + rng.uniform(0.0, 1.0, inside.shape[0])
        for batch in (pts, outside, one_axis, np.vstack([outside, pts])):
            mine = full_query(field, batch)
            ref = reference_query_extended(field, batch)
            for a, b in zip(mine, ref):
                assert_bitwise(a, b)

    def test_query_extended_rejects_nan(self):
        field = SignedDistanceField([0.0, 0.0], 0.5, np.zeros((4, 4)))
        with pytest.raises(OutOfBoundsError):
            field.query_extended(np.array([[0.5, 0.5], [np.nan, 0.2]]))
        with pytest.raises(OutOfBoundsError):
            field.query_extended(np.array([[9.0, np.nan]]))

    @pytest.mark.parametrize("dims", [(5,), (3, 3, 3, 3)])
    def test_rejects_rank_other_than_2_or_3(self, dims):
        with pytest.raises(ValueError):
            SignedDistanceField(np.zeros(len(dims)), 0.1, np.zeros(dims))


class TestLazyGradient:
    """``gradient(rows)`` gives the reference gradients of exactly the rows
    asked, bit for bit, whichever rows are asked together, at points
    inside the field, on its faces and outside it."""

    FIELDS = {"2d": (7, 5), "3d": (6, 9, 4)}
    WHERE = ("inside", "faces", "outside", "one_axis_clipped", "mixed")
    ROWS = ("all", "random", "empty", "repeated")

    @staticmethod
    def points(field, where, rng):
        lo, hi = field.origin, field.upper
        n, dim = 200, field.dim
        inside = rng.uniform(lo, hi, (n, dim))
        if where == "inside":
            return inside
        if where == "faces":
            axis = rng.integers(dim, size=n)
            inside[np.arange(n), axis] = np.where(rng.integers(2, size=n),
                                                  hi[axis], lo[axis])
            return inside
        if where == "outside":
            span = hi - lo
            return rng.uniform(lo - span, hi + span, (n, dim))
        if where == "one_axis_clipped":
            inside[:, -1] = lo[-1] - rng.uniform(0.0, 1.0, n)
            return inside
        return np.vstack([TestLazyGradient.points(field, w, rng)
                          for w in TestLazyGradient.WHERE[:-1]])

    @pytest.mark.parametrize("rows", ROWS, ids=list(ROWS))
    @pytest.mark.parametrize("where", WHERE, ids=list(WHERE))
    @pytest.mark.parametrize("dims", sorted(FIELDS), ids=sorted(FIELDS))
    def test_rows_equal_reference(self, dims, where, rows):
        shape = self.FIELDS[dims]
        rng = np.random.default_rng([len(shape), self.WHERE.index(where),
                                     self.ROWS.index(rows)])
        field = SignedDistanceField(rng.uniform(-1.0, 1.0, len(shape)), 0.37,
                                    rng.normal(size=shape))
        pts = self.points(field, where, rng)
        n = len(pts)
        picked = {"all": np.arange(n),
                  "random": rng.choice(n, n // 5, replace=False),
                  "empty": np.array([], dtype=int),
                  "repeated": np.array([n - 1, 0, n - 1, 7, 0])}[rows]
        vals, gradient = field.query_extended(pts)
        ref_vals, ref_grads = reference_query_extended(field, pts)
        assert_bitwise(vals, ref_vals)
        assert_bitwise(gradient(picked), ref_grads[picked])

    @pytest.mark.parametrize("dims", sorted(FIELDS), ids=sorted(FIELDS))
    def test_nan_point_raises(self, dims):
        shape = self.FIELDS[dims]
        field = SignedDistanceField(np.zeros(len(shape)), 0.5, np.zeros(shape))
        pts = np.full((4, len(shape)), 0.5)
        pts[2, -1] = np.nan
        with pytest.raises(OutOfBoundsError):
            field.query_extended(pts)

    def test_value_query_memory_stays_within_its_state(self):
        # A 3D query holds f, g, the 8 corner values and the lerp levels
        # (20 doubles a point) and, at its peak, the 8 corner indices, the
        # points' (dim, N) copy and their clipped copy: 35 doubles a point.
        # The kernel that formed every gradient with the values took 48.
        import tracemalloc

        field = static_field(load_scenario(SCENARIO_DIR / "threelink.json"))
        pts = np.random.default_rng(3).uniform(field.origin, field.upper,
                                               (48000, 3))
        tracemalloc.start()
        try:
            vals, _ = field.query_extended(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals.shape == (48000,)
        assert peak < 36 * 8 * len(pts)


class TestFieldGridRejected:
    """A grid the query cannot read is rejected when it is made, naming
    the field: a NaN cell size passed ``cell_size <= 0`` and made the
    first query raise OutOfBoundsError at a point inside the field, and
    an axis of one node made the corner gather wrap to index -1."""

    CASES = {
        "nan_cell_size": (lambda: SignedDistanceField(
            [0.0, 0.0], np.nan, np.zeros((4, 4))), "cell_size must be finite"),
        "inf_cell_size": (lambda: SignedDistanceField(
            [0.0, 0.0], np.inf, np.zeros((4, 4))), "cell_size must be finite"),
        "nan_origin": (lambda: SignedDistanceField(
            [np.nan, 0.0], 0.5, np.zeros((4, 4))), "origin must be finite"),
        "inf_origin_3d": (lambda: SignedDistanceField(
            [0.0, -np.inf, 0.0], 0.5, np.zeros((3, 3, 3))), "origin must be finite"),
        "one_node_axis_2d": (lambda: SignedDistanceField(
            [0.0, 0.0], 0.5, np.zeros((1, 4))),
            "values must hold at least 2 nodes along each axis"),
        "one_node_axis_3d": (lambda: SignedDistanceField(
            [0.0, 0.0, 0.0], 0.5, np.zeros((4, 4, 1))),
            "values must hold at least 2 nodes along each axis"),
        "build_nan_cell_size": (lambda: build_sdf(
            [], ([0.0, 0.0], [1.0, 1.0]), np.nan), "cell_size must be finite"),
        "build_inf_cell_size": (lambda: build_sdf(
            [], ([0.0, 0.0], [1.0, 1.0]), np.inf), "cell_size must be finite"),
        "build_nan_bound": (lambda: build_sdf(
            [], ([0.0, np.nan], [1.0, 1.0]), 0.1), "bounds must be finite"),
        "build_inf_bound": (lambda: build_sdf(
            [], ([0.0, 0.0], [np.inf, 1.0]), 0.1), "bounds must be finite"),
    }

    @pytest.mark.parametrize("case", sorted(CASES), ids=sorted(CASES))
    def test_rejected_naming_the_field(self, case):
        build, message = self.CASES[case]
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


class TestNonFiniteGeometry:
    """The constructors reject NaN and infinite geometry, naming the field."""

    CASES = {
        "sphere_nan_center": (lambda: ObstaclePrimitive.sphere([np.nan, 0.0], 0.2),
                              "center"),
        "sphere_inf_radius": (lambda: ObstaclePrimitive.sphere([0.0, 0.0], np.inf),
                              "radius"),
        "sphere_nan_radius": (lambda: ObstaclePrimitive.sphere([0.0, 0.0], np.nan),
                              "radius"),
        "box_nan_min": (lambda: ObstaclePrimitive.box([np.nan, 0.0], [1.0, 1.0]),
                        "box_min"),
        "box_inf_max": (lambda: ObstaclePrimitive.box([0.0, 0.0], [np.inf, 1.0]),
                        "box_max"),
        "polytope_nan_vertex": (lambda: ObstaclePrimitive.polytope(
            [[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]]), "vertices"),
    }

    @pytest.mark.parametrize("case", sorted(CASES), ids=sorted(CASES))
    def test_rejected_naming_the_field(self, case):
        build, field = self.CASES[case]
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            build()


class TestBlockedBuild:
    """build_sdf fills the grid in slabs; the field must equal a one-shot
    evaluation over every node bit for bit."""

    @staticmethod
    def one_shot(primitives, lo, hi, cell):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        dims = np.maximum(np.ceil((hi - lo) / cell).astype(int) + 1, 2)
        axes = [lo[i] + cell * np.arange(dims[i]) for i in range(lo.size)]
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=1)
        values = np.min(np.stack([signed_distance(p, pts) for p in primitives]), axis=0)
        return values.reshape(dims)

    @pytest.mark.parametrize("block", [1, 97, 1 << 16])
    def test_blocked_equals_one_shot_3d(self, monkeypatch, block):
        from splinetraj import collision

        monkeypatch.setattr(collision, "SDF_BLOCK_POINTS", block)
        prims = [
            ObstaclePrimitive.sphere([0.3, -0.2, 0.1], 0.35),
            ObstaclePrimitive.box([-0.8, -0.1, -0.6], [-0.2, 0.7, 0.2]),
            ObstaclePrimitive.polytope(
                [[0.5, 0.5, -0.5], [0.9, 0.4, -0.4], [0.6, 0.9, -0.3],
                 [0.6, 0.6, 0.1]]
            ),
        ]
        bounds = ([-1.0, -1.1, -0.9], [1.05, 1.0, 0.8])
        field = build_sdf(prims, bounds, 0.07)
        assert_bitwise(field.values, self.one_shot(prims, *bounds, 0.07))

    def test_blocked_equals_one_shot_2d(self, monkeypatch):
        from splinetraj import collision

        monkeypatch.setattr(collision, "SDF_BLOCK_POINTS", 50)
        prims = [
            ObstaclePrimitive.polytope([[0.0, 0.0], [0.6, 0.1], [0.2, 0.7]]),
            ObstaclePrimitive.sphere([-0.5, 0.4], 0.3),
        ]
        bounds = ([-1.0, -1.0], [1.0, 1.2])
        field = build_sdf(prims, bounds, 0.05)
        assert_bitwise(field.values, self.one_shot(prims, *bounds, 0.05))

    SINGLE_KIND = {
        "sphere_2d": ([ObstaclePrimitive.sphere([0.3, -0.2], 0.35),
                       ObstaclePrimitive.sphere([-0.6, 0.5], 0.2)],
                      ([-1.0, -1.1], [1.05, 1.0]), 0.03),
        "sphere_3d": ([ObstaclePrimitive.sphere([0.3, -0.2, 0.1], 0.35),
                       ObstaclePrimitive.sphere([-0.6, 0.5, -0.4], 0.2)],
                      ([-1.0, -1.1, -0.9], [1.05, 1.0, 0.8]), 0.07),
        "box_2d": ([ObstaclePrimitive.box([-0.8, -0.1], [-0.2, 0.7]),
                    ObstaclePrimitive.box([0.1, -0.9], [0.6, -0.3])],
                   ([-1.0, -1.1], [1.05, 1.0]), 0.03),
        "box_3d": ([ObstaclePrimitive.box([-0.8, -0.1, -0.6], [-0.2, 0.7, 0.2]),
                    ObstaclePrimitive.box([0.1, -0.9, 0.0], [0.6, -0.3, 0.5])],
                   ([-1.0, -1.1, -0.9], [1.05, 1.0, 0.8]), 0.07),
    }

    @pytest.mark.parametrize("block", [1, 97])
    @pytest.mark.parametrize("case", sorted(SINGLE_KIND))
    def test_single_kind_equals_one_shot(self, monkeypatch, case, block):
        # Spheres and boxes broadcast their axis terms; each kind alone,
        # in slabs of one node row and of a few rows.
        from splinetraj import collision

        monkeypatch.setattr(collision, "SDF_BLOCK_POINTS", block)
        prims, bounds, cell = self.SINGLE_KIND[case]
        field = build_sdf(prims, bounds, cell)
        assert_bitwise(field.values, self.one_shot(prims, *bounds, cell))

    @pytest.mark.parametrize("name", ["mobile2d", "mobile3d", "threelink",
                                      "fanuc6_static"])
    def test_bundled_field_equals_one_shot(self, name):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
        field = static_field(scenario)
        statics = [o for o in scenario.obstacles if o.is_static]
        assert_bitwise(field.values, self.one_shot(
            statics, scenario.workspace_min, scenario.workspace_max,
            field.cell_size))

    def test_build_memory_stays_within_a_few_slabs(self):
        # The field plus a few slabs of SDF_BLOCK_POINTS nodes; a point
        # block with its meshgrid took 18 slabs on threelink.
        import tracemalloc

        from splinetraj import collision

        scenario = load_scenario(SCENARIO_DIR / "threelink.json")
        tracemalloc.start()
        try:
            field = static_field(scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = int(np.prod(field.dims[1:]))
        slab = (collision.SDF_BLOCK_POINTS // row) * row * field.values.itemsize
        assert peak < field.values.nbytes + 6 * slab


class TestDistanceValues:
    """``distance_at`` at points and ``build_sdf`` at its nodes equal
    the closed-form references, in 2D and 3D, inside and outside."""

    SHAPES = {
        "sphere_2d": (ObstaclePrimitive.sphere([0.2, -0.1], 0.6),
                      lambda p: brute_force_sphere_sd(p, [0.2, -0.1], 0.6)),
        "sphere_3d": (ObstaclePrimitive.sphere([0.3, -0.2, 0.1], 0.35),
                      lambda p: brute_force_sphere_sd(p, [0.3, -0.2, 0.1], 0.35)),
        "box_2d": (ObstaclePrimitive.box([-0.4, -0.6], [0.5, 0.2]),
                   lambda p: brute_force_box_sd(p, [-0.4, -0.6], [0.5, 0.2])),
        "box_3d": (ObstaclePrimitive.box([-0.8, -0.1, -0.6], [-0.2, 0.7, 0.2]),
                   lambda p: brute_force_box_sd(p, [-0.8, -0.1, -0.6],
                                                [-0.2, 0.7, 0.2])),
    }

    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_points(self, case):
        shape, reference = self.SHAPES[case]
        pts = np.random.default_rng(19).uniform(-1.5, 1.5, (5000, shape.dim))
        values = signed_distance(shape, pts)
        want = reference(pts)
        assert (values < 0).any() and (values > 0).any()
        np.testing.assert_allclose(values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_grid_nodes(self, case):
        shape, reference = self.SHAPES[case]
        lo, hi = -np.ones(shape.dim), np.array([1.05, 1.0, 0.8][:shape.dim])
        cell = 0.03 if shape.dim == 2 else 0.07
        field = build_sdf([shape], (lo, hi), cell)
        grid = np.meshgrid(*[lo[i] + cell * np.arange(n)
                             for i, n in enumerate(field.dims)], indexing="ij")
        nodes = np.stack(grid, axis=-1).reshape(-1, shape.dim)
        np.testing.assert_allclose(field.values.ravel(), reference(nodes),
                                   rtol=0, atol=1e-12)
        # One primitive's field is its distance_at at the nodes, bit for bit.
        assert field.values.tobytes() == shape.distance_at(grid).tobytes()


class TestCornersSweptByABall:
    """Every obstacle is its corners, offsets from its center, swept by a
    ball of its radius: the signed distance at center + corner is
    -radius, so 0 on the vertices of a box or polytope."""

    SHAPES = {  # the shape and its number of corners
        "sphere_2d": (ObstaclePrimitive.sphere([0.2, -0.1], 0.6), 1),
        "sphere_3d": (ObstaclePrimitive.sphere([0.3, -0.2, 0.1], 0.35), 1),
        "box_2d": (ObstaclePrimitive.box([-0.4, -0.6], [0.5, 0.2]), 4),
        "box_3d": (ObstaclePrimitive.box([-0.8, -0.1, -0.6], [-0.2, 0.7, 0.2]), 8),
        "polytope_2d": (ObstaclePrimitive.polytope(
            [[0.1, -0.3], [0.9, 0.2], [0.5, 0.9], [-0.4, 0.7]]), 4),
        "polytope_3d": (ObstaclePrimitive.polytope(
            [[0.1, 0.0, -0.2], [1.1, 0.2, 0.0], [0.3, 0.9, 0.1], [0.2, 0.1, 0.8],
             [0.9, 0.8, 0.7]]), 5),
    }

    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_distance_at_the_corners_is_minus_the_radius(self, case):
        shape, n_corners = self.SHAPES[case]
        assert shape.corners.shape == (n_corners, shape.dim)
        assert (shape.radius > 0.0) == (shape.kind == "sphere")
        values = signed_distance(shape, shape.center + shape.corners)
        np.testing.assert_allclose(values, -shape.radius, rtol=0, atol=1e-12)


class TestSignCorrectness:
    def test_sphere_box_polytope_signs(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.5, 1.5, (10000, 2))
        sphere = ObstaclePrimitive.sphere([0.2, -0.1], 0.6)
        inside = np.linalg.norm(pts - np.array([0.2, -0.1]), axis=1) < 0.6
        signs = signed_distance(sphere, pts) < 0
        np.testing.assert_array_equal(signs, inside)

        box = ObstaclePrimitive.box([-0.4, -0.6], [0.5, 0.2])
        inside = np.all((pts > [-0.4, -0.6]) & (pts < [0.5, 0.2]), axis=1)
        signs = signed_distance(box, pts) < 0
        np.testing.assert_array_equal(signs, inside)

        from scipy.spatial import Delaunay

        verts = rng.uniform(-0.8, 0.8, (12, 2))
        poly = ObstaclePrimitive.polytope(verts)
        tri = Delaunay(verts)
        inside = tri.find_simplex(pts) >= 0
        signs = signed_distance(poly, pts) < 0
        # Boundary-grazing points may disagree within float noise; exclude them.
        clear = np.abs(signed_distance(poly, pts)) > 1e-9
        np.testing.assert_array_equal(signs[clear], inside[clear])

    def test_polytope_outside_is_lower_bound(self):
        rng = np.random.default_rng(13)
        verts = rng.uniform(-0.5, 0.5, (10, 3))
        poly = ObstaclePrimitive.polytope(verts)
        pts = rng.uniform(-2, 2, (500, 3))
        sd = signed_distance(poly, pts)
        # True distance to the hull is at least the support-form value.
        from scipy.spatial import ConvexHull
        from scipy.optimize import linprog

        hull = ConvexHull(verts)
        for p, v in zip(pts[:50], sd[:50]):
            if v <= 0:
                continue
            # Distance lower bound check via any hull vertex.
            true_dist = np.linalg.norm(verts - p, axis=1).min()
            assert v <= true_dist + 1e-9


def reference_lattice_distance(field, start, goal, clearance):
    """Dijkstra over the whole lattice that ``lattice_path`` describes,
    built move by move from shifted node masks: the length from start to
    goal through the nearest nodes, or inf."""
    from itertools import product

    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    dims = np.array(field.dims)
    stride = next(k for k in range(1, 100)
                  if np.prod(-(-dims // k)) <= LATTICE_MAX_NODES)
    values = field.values[(slice(None, None, stride),) * field.dim]
    step = stride * field.cell_size
    kept = values >= clearance + field.dim * step
    ids = np.arange(values.size).reshape(values.shape)
    rows, cols, lengths = [], [], []
    for move in product((-1, 0, 1), repeat=field.dim):
        if not any(move):
            continue
        src = tuple(slice(max(0, -m), n - max(0, m)) for m, n in zip(move, values.shape))
        dst = tuple(slice(max(0, m), n - max(0, -m)) for m, n in zip(move, values.shape))
        both = kept[src] & kept[dst]
        rows.append(ids[src][both])
        cols.append(ids[dst][both])
        lengths.append(np.full(both.sum(), step * math.sqrt(sum(m * m for m in move))))
    graph = coo_matrix((np.concatenate(lengths), (np.concatenate(rows),
                                                  np.concatenate(cols))),
                       shape=(values.size,) * 2).tocsr()
    ends = [tuple(np.clip(np.rint((np.asarray(p) - field.origin) / step).astype(int),
                          0, np.array(values.shape) - 1)) for p in (start, goal)]
    if not (kept[ends[0]] and kept[ends[1]]):
        return math.inf
    dist = dijkstra(graph, indices=ids[ends[0]])[ids[ends[1]]]
    nodes = [field.origin + step * np.array(e) for e in ends]
    return (dist + np.linalg.norm(nodes[0] - start)
            + np.linalg.norm(goal - nodes[1]))


def bench2d_field(obstacles):
    return build_sdf(obstacles, ([-0.5, -1.5], [3.5, 1.5]), 4.0 / 128)


def mobile_sdf_field(name):
    from perfbench.workloads import generate

    return static_field(parse_scenario(next(o for o in generate("mobile_sdf")
                                            if o["name"] == name)))


class TestLatticePath:
    START, GOAL = np.array([0.0, 0.0]), np.array([3.0, 0.0])

    @pytest.mark.parametrize("field", [
        pytest.param(lambda: mobile_sdf_field("bench2d_slalom_5_0"), id="slalom_5_0"),
        pytest.param(lambda: mobile_sdf_field("bench2d_one_sided_1_0"),
                     id="one_sided_1_0"),
        # A wall with one gap at the edge: the detour is longer than the
        # first search region admits, so the region grows.
        pytest.param(lambda: bench2d_field([ObstaclePrimitive.box([1.4, -1.2],
                                                                  [1.6, 1.6])]),
                     id="wall_with_edge_gap"),
        # Two staggered walls: the first region holds only the path that
        # winds between them; the shorter one passes under both, outside
        # it, so the found path is too long to accept and the region grows.
        pytest.param(lambda: bench2d_field([
            ObstaclePrimitive.box([0.9, -0.6], [1.1, 1.6]),
            ObstaclePrimitive.box([1.9, -1.2], [2.1, 0.6])]), id="staggered_walls"),
    ])
    def test_shortest_path_of_the_whole_lattice_that_clears(self, field):
        field = field()
        clearance = 0.152
        path = lattice_path(field, self.START, self.GOAL, clearance)
        assert path.points is not None
        assert path.length == pytest.approx(
            reference_lattice_distance(field, self.START, self.GOAL, clearance),
            rel=1e-12)
        np.testing.assert_array_equal(path.points[0], self.START)
        np.testing.assert_array_equal(path.points[-1], self.GOAL)
        # Every point of every edge clears the clearance.
        s = np.linspace(0.0, 1.0, 11)[:, None, None]
        seg = path.points[1:-1]
        dense = (seg[:-1] + s * (seg[1:] - seg[:-1])).reshape(-1, 2)
        assert field.query_extended(dense)[0].min() >= clearance

    def test_walled_off_goal_has_no_path(self):
        field = bench2d_field([ObstaclePrimitive.box([1.4, -1.6], [1.6, 1.6])])
        path = lattice_path(field, self.START, self.GOAL, 0.152)
        assert path.points is None and math.isnan(path.length)
        assert path.nodes > 0
        assert reference_lattice_distance(field, self.START, self.GOAL,
                                          0.152) == math.inf

    def test_goal_node_too_close_has_no_path(self):
        field = bench2d_field([ObstaclePrimitive.sphere([3.0, 0.3], 0.2)])
        assert lattice_path(field, self.START, self.GOAL, 0.152).points is None

    def test_3d_lattice_is_strided_to_the_node_cap(self):
        scn = load_scenario(SCENARIO_DIR / "mobile3d.json")
        field = static_field(scn)
        assert field.values.size > LATTICE_MAX_NODES
        start, goal = np.array([0.0, 0.0, 0.0]), np.array([2.4, 0.6, -0.3])
        path = lattice_path(field, start, goal, 0.0)
        assert 0 < path.nodes <= LATTICE_MAX_NODES
        assert path.length == pytest.approx(
            reference_lattice_distance(field, start, goal, 0.0), rel=1e-12)
        # Interior nodes sit on the strided lattice: 5 field cells apart.
        steps = np.abs(np.diff(path.points[1:-1], axis=0)).max(axis=1)
        np.testing.assert_allclose(steps, 5 * field.cell_size, rtol=1e-12)


def layout_for(C, world_dim, n_planes=0):
    return VariableLayout(C.shape[0], C.shape[1], world_dim, n_planes, C[:3], C[-3:])


def point_body(radius=0.0):
    return TrackedBody("body", 0, np.zeros((1, 3)), radius, 1.0, 1.0)


def point_robot_problem():
    """A 2-D point robot's problem on BASIS: the hand-built families'
    dense checks read no more of it than its basis and its lack of FK."""
    return replace(assemble(load_scenario(SCENARIO_DIR / "mobile2d.json")),
                   basis=BASIS)


class TestStaticClearance:
    """The planner's SDF clearance rows: field value minus the derived
    motion margin margins(T) at each collocation parameter (cushion 0, a
    point body)."""

    def setup_method(self):
        self.field = build_sdf(
            [ObstaclePrimitive.sphere([0.0, 0.0], 0.3)], ([-2, -2], [2, 2]), 0.02
        )

    def clearance(self, start, end, taus, T=1.0):
        C = np.linspace(start, end, 13)
        layout = layout_for(C, 2)
        fam = SDFClearanceFamily("sdf", layout, self.field, taus, [point_body()],
                                 0.0, BASIS, None)
        dv = DecisionVector(C, T, [])
        r, _ = fam.evaluate(layout.pack(dv))
        return -r, fam, dv

    def test_far_trajectory_positive(self):
        taus = np.linspace(0, 1, 40)
        out, fam, dv = self.clearance([1.2, 1.2], [1.5, 1.0], taus)
        assert out.min() > 0.5
        samples = point_robot_problem().samples(dv, np.linspace(0, 1, 1000))
        assert fam.dense_violation(samples) == 0.0

    def test_through_obstacle_negative(self):
        taus = np.linspace(0, 1, 40)
        out, _, _ = self.clearance([-1.0, 0.0], [1.0, 0.0], taus)
        k = int(np.argmin(out))
        assert out[k] < -0.2
        assert 0.3 < taus[k] < 0.7

    def test_rational_point_form(self):
        # A chain vertex is tracked at its rational half-angle position;
        # the rows must read the field where the plain DH transforms put it.
        chain = DHChain(
            base_pose=np.eye(4),
            links=(DHLink(a=0.5, alpha=-np.pi / 2, d=0.0), DHLink(a=0.44, alpha=np.pi, d=0.0)),
            link_cuboids=tuple(
                np.array([[x, y, z] for x in (-0.3, 0.0) for y in (-0.05, 0.05)
                          for z in (-0.05, 0.05)]) for _ in range(2)
            ),
        )
        field = build_sdf([ObstaclePrimitive.sphere([0.6, 0.2, -0.3], 0.15)],
                          ([-1.2, -1.2, -1.0], [1.2, 1.2, 1.0]), 0.05)
        rng = np.random.default_rng(3)
        C = rng.uniform(-0.8, 0.8, (13, 2))
        taus = np.linspace(0, 1, 20)
        body = TrackedBody("link2", 2, chain.link_cuboids[1], 0.0, 1.0, 1.0)
        layout = layout_for(C, 3)
        fam = SDFClearanceFamily("sdf", layout, field, taus, [body], 0.0,
                                 BASIS, NumericFK(chain, [1, 1]))
        r, _ = fam.evaluate(layout.pack(DecisionVector(C, 1.0, [])))
        margin = np.repeat(fam.margins(1.0)[0][0], 8)
        theta = 2.0 * np.arctan(basis_matrix(CUBIC, 3, taus) @ C)
        hom = np.hstack([body.verts, np.ones((8, 1))]).T
        pos = np.concatenate([(trig_fk(chain, t, 2) @ hom)[:3].T for t in theta])
        vals, _ = field.query_extended(pos)
        np.testing.assert_allclose(-r + margin, vals, rtol=0, atol=1e-12)

    def test_margin_shifts_residuals(self):
        # A longer travel time lets the body move farther between samples;
        # the rows shift by exactly the change of the derived margin.
        taus = np.linspace(0, 1, 11)
        base, fam, _ = self.clearance([1.2, 1.2], [1.5, 1.0], taus, T=1.0)
        shifted, _, _ = self.clearance([1.2, 1.2], [1.5, 1.0], taus, T=4.0)
        m1, m4 = fam.margins(1.0)[0][0], fam.margins(4.0)[0][0]
        assert m4[5] > m1[5] > 0.0
        np.testing.assert_allclose(shifted, base - (m4 - m1), rtol=0, atol=1e-12)
        # Mid-trajectory at T = 4 the velocity bound (1 m/s) binds: the
        # margin is sqrt(dim) x speed x half the sample gap in seconds.
        assert fam.lipschitz == math.sqrt(2)
        assert m4[5] == pytest.approx(math.sqrt(2) * 1.0 * 0.05 * 4.0, rel=1e-12)


def separation(obstacle, C, a, b, radius):
    """The three separating-plane families for a disc robot (cushion 0) at
    joint coefficients C and plane coefficients (a, b): their raw control
    point rows (robot side, feasible >= 0; obstacle side and norm, feasible
    <= 0), the families and the decision vector."""
    layout = layout_for(C, 2, 1)
    fams = (
        PlaneRobotSideFamily("robot", layout, BASIS, 0, point_body(radius), 0.0, None),
        PlaneObstacleSideFamily("obstacle", layout, BASIS, 0, obstacle, 0.0),
        PlaneNormFamily("norm", layout, BASIS, 0, 0.0),
    )
    dv = DecisionVector(C, 1.0, [np.column_stack([a, b])])
    x = layout.pack(dv)
    robot, obst, norm = (f.evaluate(x)[0] for f in fams)
    return (-robot, obst, norm), fams, dv


def constant_plane(normal, offset):
    return np.tile(np.asarray(normal, float), (13, 1)), np.full(13, float(offset))


def standing(point):
    return np.tile(np.asarray(point, float), (13, 1))


class TestHyperplaneConstraints:
    def test_hand_checkable_separation(self):
        # Obstacle sphere at x = -1, robot disc around x = +1; the plane
        # x = 0 (a = (0.9, 0), b = 0) separates them.
        sphere = ObstaclePrimitive.sphere([-1.0, 0.0], 0.4)
        (robot, obst, norm), _, _ = separation(
            sphere, standing([1.0, 0.0]), *constant_plane([0.9, 0.0], 0.0), 0.2)
        assert robot.min() >= -1e-9 and obst.max() <= 1e-9 and norm.max() <= 1e-9
        assert robot.min() == pytest.approx(0.9 - 0.2, abs=1e-9)

    def test_vertex_on_wrong_side_flagged(self):
        sphere = ObstaclePrimitive.sphere([-1.0, 0.0], 0.4)
        (robot, obst, norm), _, _ = separation(
            sphere, standing([-0.1, 0.0]), *constant_plane([0.9, 0.0], 0.0), 0.2)
        assert robot.min() < 0.0
        assert obst.max() <= 1e-9 and norm.max() <= 1e-9

    def test_norm_family(self):
        sphere = ObstaclePrimitive.sphere([-1.0, 0.0], 0.1)
        (_, _, norm), _, _ = separation(
            sphere, standing([1.0, 0.0]), *constant_plane([1.2, 0.0], 0.0), 0.1)
        assert norm.max() == pytest.approx(1.2**2 - 1.0, abs=1e-9)

    def test_box_obstacle_per_corner(self):
        box = ObstaclePrimitive.box([-1.5, -0.3], [-0.7, 0.3])
        (_, obst, _), fams, _ = separation(
            box, standing([1.0, 0.0]), *constant_plane([1.0, 0.0], 0.2), 0.1)
        assert fams[1].obstacle.corners.shape[0] == 4
        assert obst.size % 4 == 0
        # Corners at x in {-1.5, -0.7}: a.v + b = x + 0.2 <= 0 for all.
        assert obst.max() == pytest.approx(-0.5, abs=1e-9)

    def test_moving_sphere(self):
        motion = BSpline(3, CUBIC, np.linspace([-1.5, -0.5], [-0.5, 0.5], 13))
        sphere = ObstaclePrimitive.sphere([0.0, 0.0], 0.2, motion=motion)
        (_, obst, _), _, _ = separation(
            sphere, standing([1.0, 0.0]), *constant_plane([1.0, 0.0], 0.3), 0.1)
        # a . c(tau) + b + radius on the space of the plane times the motion
        rows = BSpline(6, elevated_union([(CUBIC, 3), (CUBIC, 3)], 6), obst[:, None])
        taus = np.linspace(0, 1, 200)
        expected = motion.eval(taus)[:, 0] + 0.3 + 0.2
        np.testing.assert_allclose(rows.eval(taus)[:, 0], expected, atol=1e-9)

    def test_hull_relaxation_soundness(self):
        # Whenever all control point rows satisfy the sign conditions,
        # dense sampling never finds a violation.
        rng = np.random.default_rng(17)
        taus = np.linspace(0, 1, 10000)
        sphere = ObstaclePrimitive.sphere([-1.0, 0.0], 0.3)
        problem = point_robot_problem()
        found = 0
        for _ in range(10):
            C = rng.uniform(0.5, 1.5, (13, 2))
            a = np.hstack([rng.uniform(0.3, 0.9, (13, 1)), rng.uniform(-0.2, 0.2, (13, 1))])
            b = rng.uniform(-0.1, 0.1, 13)
            (robot, obst, norm), fams, dv = separation(sphere, C, a, b, 0.05)
            if robot.min() < 0.0 or obst.max() > 0.0 or norm.max() > 0.0:
                continue
            found += 1
            samples = problem.samples(dv, taus)
            for fam in fams:
                assert fam.dense_violation(samples) == 0.0, fam.name
        assert found >= 3


def span_obstacle_rows(basis, obstacle):
    """PlaneObstacleSideFamily's G built directly per span in Bernstein
    form, the planner's construction before ``spline_algebra.multiply``:
    the reference for G's bytes."""
    p = basis.degree
    motion = obstacle.motion
    inputs = [(basis.knots, p)]
    if motion is not None:
        inputs.append((motion.knots, motion.degree))
        target = p + motion.degree
    else:
        target = p
    knots = elevated_union(inputs, target)
    breaks = knots.distinct()
    units = to_spans(bezier_extraction(basis.knots, p, breaks),
                     np.eye(basis.n_coeffs), p)  # (S, p + 1, n)
    if motion is None:
        centers = np.broadcast_to(obstacle.center,
                                  (units.shape[0], 1, obstacle.dim))
    else:
        centers = to_spans(bezier_extraction(motion.knots, motion.degree, breaks),
                           motion.control_points, motion.degree)
    corners = centers[..., None] + obstacle.corners.T  # (S, m + 1, d, K)
    ones = np.ones(corners.shape[:2] + (1, corners.shape[3]))
    corners = np.concatenate([corners, ones], axis=2)
    n, d1, K = basis.n_coeffs, corners.shape[2], corners.shape[3]
    planes = np.einsum("sji,ef->sjief", units, np.eye(d1)).reshape(
        units.shape[0], p + 1, n * d1, d1)
    y = product(planes, corners)  # (S, p + m + 1, n * d1, K)
    G = left_inverse(knots, target) @ y.reshape(-1, n * d1 * K)
    return G.reshape(-1, n * d1, K).transpose(2, 0, 1).reshape(-1, n * d1)


def span_norm_rows(basis):
    """PlaneNormFamily's Q built directly per span, the reference for its
    bytes."""
    p, n = basis.degree, basis.n_coeffs
    units = to_spans(bezier_extraction(basis.knots, p), np.eye(n), p)
    y = product(units[..., :, None], units[..., None, :])  # (S, 2p + 1, n, n)
    lift = left_inverse(elevated_union([(basis.knots, p)], 2 * p), 2 * p)
    return (lift @ y.reshape(-1, n * n)).reshape(-1, n, n)


class TestFixedPlaneRows:
    """The obstacle-side and norm rows come from ``spline_algebra.multiply``
    and keep the bytes of the direct per-span construction."""

    @pytest.mark.parametrize("name, mode", [("fanuc6_dynamic", None),
                                            ("mobile2d", "hyperplane"),
                                            ("mobile3d", "hyperplane")])
    def test_bytes_match_the_span_construction(self, name, mode):
        obj = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        if mode is not None:
            obj.setdefault("collision", {})["static_mode"] = mode
        problem = assemble(parse_scenario(obj))
        obstacle_side = [f for f in problem.families
                         if isinstance(f, PlaneObstacleSideFamily)]
        norms = [f for f in problem.families if isinstance(f, PlaneNormFamily)]
        assert obstacle_side and len(norms) == len(obstacle_side)
        for fam in obstacle_side:
            assert fam.G.tobytes() == span_obstacle_rows(
                problem.basis, fam.obstacle).tobytes(), fam.name
        Q = span_norm_rows(problem.basis).tobytes()
        for fam in norms:
            assert fam.Q.tobytes() == Q, fam.name

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_box_on_a_spline_motion(self, degree):
        # A moving box's rows round differently from the span construction
        # (its corner offsets join the motion's control points before the
        # break points are inserted), so they are checked against the
        # pointwise definition a . corner_k(tau) + b instead of its bytes.
        rng = np.random.default_rng(53 + degree)
        knots = clamp_knots([0.37, 0.6], degree)
        motion = BSpline(degree, knots, rng.uniform(-1.5, -0.5, (degree + 3, 2)))
        box = ObstaclePrimitive.box([-0.2, -0.3], [0.2, 0.1], motion=motion)
        a = rng.uniform(-1.0, 1.0, (13, 2))
        b = rng.uniform(-1.0, 1.0, 13)
        (_, obst, _), fams, _ = separation(box, standing([1.0, 0.0]), a, b, 0.1)
        offsets = fams[1].obstacle.corners
        space = elevated_union([(CUBIC, 3), (knots, degree)], 3 + degree)
        taus = np.linspace(0, 1, 1001)
        plane = BSpline(3, CUBIC, np.column_stack([a, b])).eval(taus)
        center = motion.eval(taus)
        for k, rows in enumerate(obst.reshape(len(offsets), -1)):
            expected = (plane[:, :2] * (center + offsets[k])).sum(axis=1) + plane[:, 2]
            got = BSpline(3 + degree, space, rows[:, None]).eval(taus)[:, 0]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


class TestConvexDistanceOracle:
    def test_point_box(self):
        d = point_box_distance(np.array([[2.0, 0.0, 0.0]]), [-1, -1, -1], [1, 1, 1])
        assert d[0] == pytest.approx(1.0)
        d = point_box_distance(np.array([[0.0, 0.0, 0.0]]), [-1, -1, -1], [1, 1, 1])
        assert d[0] == 0.0
        d = point_box_distance(np.array([[2.0, 2.0, 0.0]]), [-1, -1, -1], [1, 1, 1])
        assert d[0] == pytest.approx(np.sqrt(2.0))

    def test_box_sphere_with_transform(self):
        # Box rotated 90 degrees about z, shifted along x.
        T = np.eye(4)
        T[:3, :3] = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        T[0, 3] = 2.0
        dist = box_sphere_distance(
            T, [-0.5, -0.25, -0.25], [0.5, 0.25, 0.25], [0.0, 0.0, 0.0], 0.5
        )
        # Local y-halfwidth 0.25 faces world x; surface at x = 2 - 0.25.
        assert dist == pytest.approx(2.0 - 0.25 - 0.5, abs=1e-12)
