"""Collision geometry: convex obstacle primitives and signed distance fields.

Static obstacles are baked into a signed distance field that the planner
queries at collocation parameters with a Lipschitz-based motion margin.
The field lives in memory only: the planner builds it from the scenario
(``planner.static_field``), and ``query_extended`` is its one query: it
returns the values at once and the gradients of the points asked for
later, so a caller that reads only values forms no gradient.
Each obstacle's signed distance has one formula, which fills the field's
grid: ``ObstaclePrimitive.distance_at``, over one array per axis.
Moving obstacles are kept apart by time-varying separating hyperplanes,
whose constraint rows the planner computes in Bernstein form; this module
supplies their shapes (centers, corners, radii) and the exact box-sphere
distance used to check the result.  ``lattice_path`` searches the
field's nodes for a collision-free path, from which the planner seeds its
initial guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bspline import BSpline

__all__ = [
    "ObstaclePrimitive",
    "SignedDistanceField",
    "OutOfBoundsError",
    "build_sdf",
    "LatticePath",
    "lattice_path",
    "point_box_distance",
    "box_sphere_distance",
]

EMPTY_FIELD_VALUE = 1e9
SDF_BLOCK_POINTS = 1 << 16
# Most nodes of the lattice that ``lattice_path`` searches: it takes every
# stride-th field node along each axis, with the smallest stride that
# leaves at most this many.
LATTICE_MAX_NODES = 1 << 14
# The first search region of ``lattice_path`` admits paths this fraction
# longer than the obstacle-free lattice distance; each miss doubles the
# slack.
LATTICE_SLACK = 0.125


class OutOfBoundsError(ValueError):
    """Query point that no clipping puts inside the field (a NaN one)."""


def _convex_face_planes(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward face normals and offsets (n . x <= h) of a convex vertex set."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(vertices)
    except QhullError as exc:  # a hull too flat for qhull's initial simplex
        raise ValueError("polytope vertices are too close to flat") from exc
    eqs = hull.equations  # rows [n, -h] with n . x + (-h) <= 0
    normals = eqs[:, :-1]
    offsets = -eqs[:, -1]
    scales = np.linalg.norm(normals, axis=1)
    return normals / scales[:, None], offsets / scales


def _finite(name: str, value) -> np.ndarray:
    """value as a float array, which must hold finite numbers only."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


class ObstaclePrimitive:
    """Convex obstacle: sphere, axis-aligned box, or convex polytope, each
    its ``corners`` (offsets from ``center``) swept by a ball of ``radius``.
    A sphere is one zero corner and its radius; a box is its 2^d corners
    and a polytope its vertices less their mean, with radius 0.0.
    ``motion`` is an optional center trajectory over the normalized time
    domain [0, 1], clamped at both ends; the shape translates rigidly
    along it.
    """

    def __init__(self, kind, *, center=None, radius=None, box_min=None,
                 box_max=None, vertices=None, motion: BSpline | None = None):
        self.kind = kind
        self.motion = motion
        if kind == "sphere":
            self.center = _finite("center", center)
            self.radius = float(_finite("radius", radius))
            if self.radius <= 0.0:
                raise ValueError("sphere radius must be positive")
            self.corners = np.zeros((1, self.center.size))
        elif kind == "box":
            self.box_min = _finite("box_min", box_min)
            self.box_max = _finite("box_max", box_max)
            if np.any(self.box_min >= self.box_max):
                raise ValueError("box min must be strictly below max componentwise")
            self.center = 0.5 * (self.box_min + self.box_max)
            axes = [np.array([l, h]) for l, h in zip(self.box_min - self.center,
                                                     self.box_max - self.center)]
            grid = np.meshgrid(*axes, indexing="ij")
            self.corners = np.stack([g.ravel() for g in grid], axis=1)
            self.radius = 0.0
        elif kind == "polytope":
            vertices = _finite("vertices", vertices)
            d = vertices.shape[1]
            if vertices.shape[0] < d + 1:
                raise ValueError("polytope needs at least d+1 vertices")
            if np.linalg.matrix_rank(vertices[1:] - vertices[0]) < d:
                raise ValueError("polytope vertices must be affinely independent")
            self._normals, self._offsets = _convex_face_planes(vertices)
            self.center = vertices.mean(axis=0)
            self.corners = vertices - self.center
            self.radius = 0.0
        else:
            raise ValueError(f"unknown obstacle kind {kind!r}")
        self.dim = self.center.size
        if motion is not None:
            if motion.dim != self.dim:
                raise ValueError("motion spline dimension must match the obstacle")
            if any(motion.knots.multiplicity(u) != motion.degree + 1
                   for u in motion.domain):
                raise ValueError("motion knots must start and end with degree + 1 "
                                 "equal knots")

    @classmethod
    def sphere(cls, center, radius, motion=None):
        return cls("sphere", center=center, radius=radius, motion=motion)

    @classmethod
    def box(cls, box_min, box_max, motion=None):
        return cls("box", box_min=box_min, box_max=box_max, motion=motion)

    @classmethod
    def polytope(cls, vertices, motion=None):
        return cls("polytope", vertices=vertices, motion=motion)

    @property
    def is_static(self) -> bool:
        return self.motion is None

    def center_at(self, taus) -> np.ndarray:
        t = np.atleast_1d(np.asarray(taus, dtype=float))
        if self.motion is None:
            return np.tile(self.center, (t.size, 1))
        return self.motion.eval(t)

    def distance_at(self, coords) -> np.ndarray:
        """Signed distance of the static shape at its nominal position at
        the points whose coordinates are ``coords``, one array per axis;
        the arrays broadcast together, to the result's shape.

        Spheres and boxes are analytic and exact: per-axis terms, their
        squares added axis by axis.  Polytopes use the support-function
        form max_i(n_i . p - h_i) over face normals: exact inside and on
        the boundary, a lower bound outside near edges and corners, hence
        conservative for clearance constraints.
        """
        if self.kind == "polytope":
            coords = np.broadcast_arrays(*coords)
            pts = np.stack([c.ravel() for c in coords], axis=1)
            return (pts @ self._normals.T - self._offsets).max(axis=1).reshape(
                coords[0].shape)
        box = self.kind == "box"
        center = self.center
        if box:
            half = 0.5 * (self.box_max - self.box_min)
        sq = worst = None
        for a, x in enumerate(coords):
            d = x - center[a]
            if box:
                q = np.abs(d) - half[a]
                d = np.maximum(q, 0.0)
                worst = q if worst is None else np.maximum(worst, q)
            sq = d * d if sq is None else sq + d * d
        if box:
            return np.sqrt(sq) + np.minimum(worst, 0.0)
        return np.sqrt(sq) - self.radius


class SignedDistanceField:
    """Regular 2D or 3D grid of signed distances with multilinear interpolation."""

    def __init__(self, origin, cell_size: float, values: np.ndarray):
        self.origin = _finite("origin", origin)
        self.cell_size = float(_finite("cell_size", cell_size))
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != self.origin.size:
            raise ValueError("values rank must match origin dimension")
        if self.values.ndim not in (2, 3):
            raise ValueError("signed distance fields must be 2D or 3D")
        if min(self.values.shape) < 2:
            raise ValueError("values must hold at least 2 nodes along each axis")
        self.dims = self.values.shape
        self.upper = self.origin + self.cell_size * (np.array(self.dims) - 1)
        # Flat C-order view for gathers: node (i, j[, k]) sits at
        # strides . (i, j[, k]), and the 2^dim corners of a cell at its
        # lowest node plus offsets, in the order (0,0[,0]), (0,0[,1]), ...
        self._flat = np.ascontiguousarray(self.values).reshape(-1)
        strides = np.cumprod((self.dims[1:] + (1,))[::-1])[::-1]
        shifts = np.indices((2,) * self.dim).reshape(self.dim, -1)
        self._cell_corners = (strides @ shifts)[:, None]
        self._strides = strides.astype(float)
        self._max_cell = np.array(self.dims, dtype=float)[:, None] - 2.0
        # Rows of an interpolation state (see ``_gather``): f, g, the 2^dim
        # corner values V, then the lerp levels c (and cc in 3D).
        sizes = [self.dim, self.dim, 2**self.dim, 2 ** (self.dim - 1)]
        sizes += [2] * (self.dim - 2)
        ends = np.cumsum(sizes)
        self._state_rows = int(ends[-1])
        self._state_slices = [slice(e - n, e) for n, e in zip(sizes, ends)]

    @property
    def dim(self) -> int:
        return len(self.dims)

    def _gather(self, pts: np.ndarray) -> np.ndarray:
        """The interpolation state of points inside the field, given as
        (dim, N) rows: one (R, N) block whose rows are the fractions f and
        their complements g (dim rows each), the 2^dim corner values V of
        each point's cell, fetched in one flat gather, and room for the lerp
        levels that ``_lerp`` fills.  ``_rows`` names the rows."""
        state = np.empty((self._state_rows, pts.shape[1]))
        f, g, V = self._rows(state)[:3]
        t = np.divide(pts - self.origin[:, None], self.cell_size, out=f)
        # t >= 0 inside the field, so truncation is the floor.  The cell
        # indices are whole numbers far below 2^53, exact as floats, and so
        # is their flat index; every corner index is in range.
        idx = np.trunc(t)
        np.minimum(idx, self._max_cell, out=idx)
        np.subtract(t, idx, out=f)
        np.subtract(1.0, f, out=g)
        base = (self._strides @ idx).astype(np.intp)
        del idx  # the corner indices below are the query's largest temporary
        self._flat.take(base + self._cell_corners, out=V, mode="clip")
        return state

    def _rows(self, state: np.ndarray) -> list[np.ndarray]:
        """f, g, V and the lerp levels c (and cc in 3D) of a state block."""
        return [state[rows] for rows in self._state_slices]

    def _lerp(self, state: np.ndarray) -> np.ndarray:
        """Values (N,) of the interpolant from ``_gather``'s state, whose
        lerp levels it fills.  The lerps run along z, y, x (3D) or y, x (2D)
        on whole rows of corners at once."""
        if self.dim == 2:
            f, g, V, c = self._rows(state)
            # v00 v01 v10 v11 -> (gy v00 + fy v01, gy v10 + fy v11)
            np.add(g[1] * V[0::2], f[1] * V[1::2], out=c)
            return g[0] * c[0] + f[0] * c[1]
        f, g, V, c, cc = self._rows(state)
        np.add(g[2] * V[0::2], f[2] * V[1::2], out=c)  # c00 c01 c10 c11
        np.add(g[1] * c[0::2], f[1] * c[1::2], out=cc)  # c0 c1
        return g[0] * cc[0] + f[0] * cc[1]

    def _gradients(self, state: np.ndarray) -> np.ndarray:
        """Gradients (dim, n) of the interpolant from the state of n points
        (``_gather``'s block after ``_lerp``, or columns cut from it)."""
        grads = np.empty((self.dim, state.shape[1]))
        if self.dim == 2:
            f, g, V, _ = self._rows(state)
            d = V[2:] - V[:2]  # v10 - v00, v11 - v01
            np.add(g[1] * d[0], f[1] * d[1], out=grads[0])
            e = V[1::2] - V[0::2]  # v01 - v00, v11 - v10
            np.add(g[0] * e[0], f[0] * e[1], out=grads[1])
        else:
            f, g, V, c, cc = self._rows(state)
            np.subtract(cc[1], cc[0], out=grads[0])
            d = c[1::2] - c[0::2]  # c01 - c00, c11 - c10
            np.add(g[0] * d[0], f[0] * d[1], out=grads[1])
            e = V[1::2] - V[0::2]  # v001 - v000, v011 - v010, v101 - v100, v111 - v110
            ee = g[1] * e[0::2] + f[1] * e[1::2]
            np.add(g[0] * ee[0], f[0] * ee[1], out=grads[2])
        return np.divide(grads, self.cell_size, out=grads)

    def query_extended(self, points: np.ndarray):
        """Interpolated values (N,) at points (N, dim), with a Lipschitz
        lower-bound extension outside the field, and ``gradient``: the
        function that gives the gradients (len(rows), dim) of the points
        ``rows`` (any index of the N points) from this batch's state.

        Inside, the gradient is the exact derivative of the multilinear
        interpolant in each cell (continuous value, per-cell-face piecewise
        gradient), so values and gradients are mutually consistent for the
        optimizer.  Outside, value = V(clip(p)) - |p - clip(p)|, which is a
        valid lower bound on the true signed distance (the field is
        1-Lipschitz) and drives an optimizer back toward the interior.  A
        NaN coordinate raises OutOfBoundsError.

        The query works on the points as one contiguous (dim, N) block:
        passing the transpose of such a block costs no copy.  The gradients
        are formed only when asked, on the rows asked for, by the same
        operations as the values' own, so they do not depend on which rows
        are asked together.
        """
        pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)).T)
        # np.maximum/np.minimum skip np.clip's Python wrapper.  With the
        # bound first, a tie of zeros keeps the point's zero, as np.clip
        # does, and a NaN passes through to the check below.
        clipped = np.maximum(self.origin[:, None], pts)
        np.minimum(self.upper[:, None], clipped, out=clipped)
        # A batch inside the field forms no excess; a NaN is never equal.
        extended = False
        if (clipped != pts).any():
            excess = pts - clipped
            # Clipping puts every point inside the field but a NaN one.
            if np.isnan(excess).any():
                bad = pts[:, np.isnan(excess).any(axis=0)][:, 0]
                raise OutOfBoundsError(f"query point {bad.tolist()} outside field bounds")
            dist = np.linalg.norm(excess, axis=0)
            outside = dist > 0.0
            extended = bool(outside.any())
        state = self._gather(clipped)
        vals = self._lerp(state)
        if extended:
            vals = vals - dist

        def gradient(rows) -> np.ndarray:
            grads = self._gradients(state[:, rows])
            if not extended:
                return grads.T
            ex, out = excess[:, rows], outside[rows]
            unit = np.zeros_like(ex)
            unit[:, out] = ex[:, out] / dist[rows][out]
            return np.where(ex != 0.0, -unit, grads).T

        return vals, gradient


def build_sdf(primitives, bounds, cell_size: float) -> SignedDistanceField:
    """Sample min-over-primitives signed distance on a regular grid.

    Every node starts at EMPTY_FIELD_VALUE, the minimum over no
    primitives, and each primitive lowers it to its own distance where
    that is smaller.  The grid is filled in slabs along its first axis, so
    the working memory beyond the field itself stays at a few slabs of
    about SDF_BLOCK_POINTS nodes.  Each primitive fills a slab through
    ``ObstaclePrimitive.distance_at`` on the slab's axes, each shaped to
    broadcast along its own dimension: the same bits as at each node alone.

    Args:
        primitives: Static obstacle primitives (moving ones are rejected).
        bounds: (lower, upper) workspace corners.
        cell_size: Grid node spacing in meters.
    """
    lo = _finite("bounds", bounds[0])
    hi = _finite("bounds", bounds[1])
    cell_size = float(_finite("cell_size", cell_size))
    if cell_size <= 0.0:
        raise ValueError("cell_size must be positive")
    if np.any(hi <= lo):
        raise ValueError("workspace upper corner must exceed lower corner")
    primitives = list(primitives)
    for p in primitives:
        if not p.is_static:
            raise ValueError("signed distance fields accept static primitives only")
    dims = np.maximum(np.ceil((hi - lo) / cell_size).astype(int) + 1, 2)
    # Axis i of the grid, shaped to broadcast along dimension i.
    axes = [(lo[i] + cell_size * np.arange(dims[i])).reshape(
        (-1,) + (1,) * (lo.size - 1 - i)) for i in range(lo.size)]
    values = np.full(tuple(dims), EMPTY_FIELD_VALUE)
    step = max(1, SDF_BLOCK_POINTS // int(np.prod(dims[1:])))
    for start in range(0, dims[0], step):
        slab_axes = [axes[0][start : start + step], *axes[1:]]
        block = values[start : start + step]
        for p in primitives:
            np.minimum(block, p.distance_at(slab_axes), out=block)
    return SignedDistanceField(lo, cell_size, values)


@dataclass(frozen=True)
class LatticePath:
    """Outcome of ``lattice_path``: how many lattice nodes were kept, and
    the polyline (P, dim) from start to goal through them, or None."""

    nodes: int
    points: np.ndarray | None

    @property
    def length(self) -> float:
        """The polyline's length in meters (nan without a path)."""
        if self.points is None:
            return float("nan")
        return float(np.linalg.norm(np.diff(self.points, axis=0), axis=1).sum())


def _free_lattice_distance(shape, node, step: float) -> np.ndarray:
    """Shortest-path length from ``node`` to every node of an obstacle-free
    lattice of ``shape`` and spacing ``step`` whose edges join each node to
    its 3^dim - 1 neighbours: sum_k (sqrt(k) - sqrt(k - 1)) a_k over the
    per-axis offsets sorted a_1 >= a_2 >= ...  (the octile distance in 2D).
    """
    dim = len(shape)
    axes = [step * np.abs(np.arange(n) - c).reshape((-1,) + (1,) * (dim - 1 - k))
            for k, (n, c) in enumerate(zip(shape, node))]
    if dim == 2:
        return np.maximum(*axes) + (np.sqrt(2.0) - 1.0) * np.minimum(*axes)
    offsets = np.sort(np.stack(np.broadcast_arrays(*axes)), axis=0)[::-1]
    weights = np.sqrt(np.arange(1, dim + 1)) - np.sqrt(np.arange(dim))
    return np.tensordot(weights, offsets, axes=1)


def lattice_path(field: SignedDistanceField, start, goal,
                 clearance: float) -> LatticePath:
    """Shortest path from ``start`` to ``goal`` through field nodes that
    clear ``clearance`` with room to spare.

    The lattice takes every stride-th node of the field along each axis,
    with the smallest stride that leaves at most LATTICE_MAX_NODES, and
    joins each node to its 3^dim - 1 neighbours.  A node stays in it when
    its value is at least clearance + sqrt(dim) x the longest edge (the
    cell diagonal, sqrt(dim) x stride x cell size): a point of an edge
    lies within half an edge of a node, and the interpolated field changes
    by at most sqrt(dim) per meter, so the whole edge clears ``clearance``.
    Start and goal join the nearest lattice node; when either of those is
    not kept, or no path joins them, ``points`` is None.

    Dijkstra's search (``scipy.sparse.csgraph``) runs on the kept nodes u
    with d(start, u) + d(u, goal) <= d(start, goal) + slack, d being the
    obstacle-free lattice distance.  Every path no longer than that bound
    lies inside the region, so a path found within it is a shortest path
    of the whole lattice; otherwise the slack, first LATTICE_SLACK x
    d(start, goal), doubles until the region holds every kept node, so the
    searches before the last one cost about as much as the last together.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    dim = field.dim
    dims = np.array(field.dims)
    stride = 1
    while np.prod(-(-dims // stride)) > LATTICE_MAX_NODES:
        stride += 1
    values = field.values[(slice(None, None, stride),) * dim]
    step = stride * field.cell_size
    kept = values >= clearance + dim * step
    n_kept = int(np.count_nonzero(kept))
    shape = values.shape
    ends = [tuple(np.clip(np.rint((np.asarray(p, dtype=float) - field.origin)
                                  / step).astype(int), 0, np.array(shape) - 1))
            for p in (start, goal)]
    if not (kept[ends[0]] and kept[ends[1]]):
        return LatticePath(n_kept, None)

    span = (_free_lattice_distance(shape, ends[0], step)
            + _free_lattice_distance(shape, ends[1], step))
    direct = float(span[ends[0]])
    # The region sits in a grid padded by one unused node on every side,
    # so each kept node's neighbours are at fixed flat offsets.
    padded = np.zeros(tuple(n + 2 for n in shape), dtype=bool)
    inner = padded[(slice(1, -1),) * dim]
    flat = padded.reshape(-1)
    strides = np.cumprod((padded.shape[1:] + (1,))[::-1])[::-1]
    moves = np.array([m for m in itertools.product((-1, 0, 1), repeat=dim) if any(m)])
    offsets = moves @ strides
    lengths = step * np.linalg.norm(moves, axis=1)
    source, target = (int((np.array(e) + 1) @ strides) for e in ends)
    label = np.zeros(flat.size, dtype=np.int32)
    slack = max(LATTICE_SLACK * direct, step)
    while True:
        np.logical_and(kept, span <= direct + slack, out=inner)
        nodes = np.flatnonzero(flat)
        label[nodes] = np.arange(nodes.size, dtype=np.int32)
        # Every node lists all its neighbours; an edge to a node outside
        # the region is infinitely long, so the search never takes it.
        neighbours = nodes[:, None] + offsets
        lengths_or_inf = np.where(flat[neighbours], lengths, np.inf)
        indptr = np.arange(0, lengths_or_inf.size + 1, offsets.size)
        graph = csr_matrix((lengths_or_inf.ravel(), label[neighbours].ravel(),
                            indptr), shape=(nodes.size, nodes.size))
        s, t = label[source], label[target]
        dist, pred = dijkstra(graph, indices=s, return_predecessors=True)
        if dist[t] <= direct + slack or nodes.size == n_kept:
            break
        slack *= 2.0
    if not np.isfinite(dist[t]):
        return LatticePath(n_kept, None)
    path = [t]
    while path[-1] != s:
        path.append(pred[path[-1]])
    index = np.stack(np.unravel_index(nodes[path[::-1]], padded.shape), axis=1) - 1
    points = np.vstack([start, field.origin + step * index, goal])
    return LatticePath(n_kept, points)


def point_box_distance(points: np.ndarray, box_min, box_max) -> np.ndarray:
    """Exact Euclidean distance from points to an axis-aligned box (0 inside)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.asarray(box_min, dtype=float)
    hi = np.asarray(box_max, dtype=float)
    q = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    return np.linalg.norm(q, axis=1)


def box_sphere_distance(transform: np.ndarray, box_min, box_max,
                        center, radius: float) -> float:
    """Exact distance between a rigidly placed box and a sphere.

    The box is axis-aligned in its local frame and placed by the
    homogeneous transform; the sphere center is expressed in that local
    frame by the inverse rigid transform, where the point-box distance is
    closed form.
    """
    R = transform[:3, :3]
    t = transform[:3, 3]
    local = R.T @ (np.asarray(center, dtype=float) - t)
    return float(point_box_distance(local[None, :], box_min, box_max)[0] - radius)
