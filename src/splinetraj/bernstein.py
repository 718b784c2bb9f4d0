"""Exact per-span Bernstein arithmetic for B-spline constraint rows.

A clamped B-spline restricted to one knot span is a polynomial, and its
Bernstein coefficients on that span follow from the B-spline coefficients
by knot insertion (Piegl & Tiller, *The NURBS Book*, section 5.6): each
inserted coefficient is a convex combination of two old ones, so nothing
is sampled and the hull can only tighten.  Products of polynomials in
Bernstein form are binomially scaled convolutions (Farouki & Rajan,
CAGD 1988), and their adjoints the matching correlations.  Each is one
gather and one batched matrix product per span: a cached flat index lays
out the weighted Toeplitz matrix of the left factor (for the adjoint, the
weighted correlation window of the product weights), so the number of
numpy calls does not grow with the degrees.

Polynomials are stored per span as arrays of shape (S, n + 1, r, c): S
spans, n + 1 Bernstein coefficients of degree n, each an r x c matrix.
Scalars use r = c = 1, so one product serves scalar, vector and matrix
factors alike.

A spline that lies in a target space (degree and knot vector) is
recovered from its per-span Bernstein coefficients by a fixed left
inverse of that space's extraction matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bspline import KnotVector

__all__ = [
    "bezier_extraction",
    "to_spans",
    "left_inverse",
    "elevation_matrix",
    "elevate",
    "elevate_vjp",
    "product",
    "product_vjp",
    "ChainNumerators",
]


def _gather(blocks: np.ndarray, weights: np.ndarray, u: int, v: int):
    """Flat gather positions and weights of a block matrix.

    Block (x, y) of the (X u, Y v) result is block ``blocks[x, y]`` of a
    contiguous (B, u, v) operand, times ``weights[x, y]``.  Both arrays are
    read-only and shaped (X u, Y v).
    """
    X, Y = blocks.shape
    index = (blocks[:, None, :, None] * (u * v)
             + np.arange(u)[None, :, None, None] * v + np.arange(v))
    scale = np.broadcast_to(weights[:, None, :, None], (X, u, Y, v))
    index, scale = index.reshape(X * u, Y * v), scale.reshape(X * u, Y * v)
    index.flags.writeable = False
    scale.flags.writeable = False
    return index, scale


def _weights(m: int, n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """C(m, i) C(n, j) / C(m + n, i + j) over index grids, correctly rounded;
    zero where i is outside 0..m."""
    i, j = np.broadcast_arrays(i, j)
    out = np.zeros(i.shape)
    for at in zip(*np.nonzero((i >= 0) & (i <= m))):
        a, b = int(i[at]), int(j[at])
        out[at] = math.comb(m, a) * math.comb(n, b) / math.comb(m + n, a + b)
    return out


@lru_cache(maxsize=None)
def _toeplitz(m: int, n: int, r: int, k: int):
    """Gather of the left factor's weighted Toeplitz matrix for :func:`product`.

    Block (l, j) is C(m, l - j) C(n, j) / C(m + n, l) times coefficient
    l - j of the (m + 1, r, k) factor, zero where l - j is outside 0..m.
    """
    l, j = np.arange(m + n + 1)[:, None], np.arange(n + 1)
    return _gather(np.clip(l - j, 0, m), _weights(m, n, l - j, j), r, k)


@lru_cache(maxsize=None)
def _correlation(m: int, n: int, r: int, c: int):
    """Gather of the weighted correlation window for :func:`product_vjp`.

    Block (i, j) is C(m, i) C(n, j) / C(m + n, i + j) times coefficient
    i + j of the (m + n + 1, r, c) product weights.
    """
    i, j = np.arange(m + 1)[:, None], np.arange(n + 1)
    return _gather(i + j, _weights(m, n, i, j), r, c)


def _insert_knot(coeffs: np.ndarray, knots: list, degree: int, t: float):
    """Boehm insertion of one knot value t; coefficients are rows."""
    p = degree
    k = int(np.searchsorted(knots, t, side="right")) - 1  # knots[k] <= t < knots[k+1]
    out = np.empty((coeffs.shape[0] + 1, coeffs.shape[1]))
    out[: k - p + 1] = coeffs[: k - p + 1]
    for i in range(k - p + 1, k + 1):
        alpha = (t - knots[i]) / (knots[i + p] - knots[i])
        out[i] = alpha * coeffs[i] + (1.0 - alpha) * coeffs[i - 1]
    out[k + 1 :] = coeffs[k:]
    return out, knots[: k + 1] + [t] + knots[k + 1 :]


def bezier_extraction(knots: KnotVector, degree: int, breaks=None) -> np.ndarray:
    """Matrix E with E @ c = per-span Bernstein coefficients of the spline c.

    Each interior break point is inserted until its multiplicity reaches
    the degree; the refined coefficients of each nonempty span are then
    its Bernstein coefficients (degree 0 needs one insertion per break).
    ``breaks`` (default: the distinct knots) may add break points, so
    splines on different knot vectors can be extracted onto one common set
    of spans.

    Returns:
        Array of shape (S * (degree + 1), n_coefficients), span-major.
    """
    u = [float(v) for v in knots.values]
    p = degree
    coeffs = np.eye(len(u) - p - 1)
    cuts = knots.distinct() if breaks is None else np.asarray(breaks, dtype=float)
    for t in cuts:
        if not u[0] < t < u[-1]:
            continue
        while u.count(float(t)) < max(p, 1):
            coeffs, u = _insert_knot(coeffs, u, p, float(t))
    blocks = [coeffs[i - p : i + 1] for i in range(p, len(u) - p - 1) if u[i] < u[i + 1]]
    return np.vstack(blocks)


def to_spans(extraction: np.ndarray, coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Per-span Bernstein coefficients (S, degree + 1, d) of splines (n, d)."""
    return (extraction @ coeffs).reshape(-1, degree + 1, coeffs.shape[1])


# Spaces kept by left_inverse's cache.  A planning problem uses one space
# per robot-side plane link plus a few shared ones, so the bound leaves
# every plan's spaces cached; callers of spline_algebra's add/multiply on
# ever-new knot vectors evict the oldest instead of growing the cache.
LEFT_INVERSE_CACHE_SIZE = 64


@lru_cache(maxsize=LEFT_INVERSE_CACHE_SIZE)
def left_inverse(knots: KnotVector, degree: int) -> np.ndarray:
    """Left inverse of the extraction matrix of a target space.

    It maps the per-span Bernstein coefficients of any spline in the space
    back to its B-spline coefficients.  The pseudo-inverse is used: the
    extraction matrix has condition number 2-3 for the spaces the planner
    builds (2.0 from target degree 6 to 39 on ten uniform spans), so the
    map adds no error of note.  A space evicted from the cache is rebuilt
    to the same matrix.
    """
    L = np.linalg.pinv(bezier_extraction(knots, degree))
    L.flags.writeable = False
    return L


@lru_cache(maxsize=None)
def elevation_matrix(n: int, r: int) -> np.ndarray:
    """Degree elevation from n to n + r in Bernstein form, (n + r + 1, n + 1)."""
    k, i = np.arange(n + r + 1)[:, None], np.arange(n + 1)
    # the product with the constant 1 of degree r: zero where k - i > r
    M = _weights(r, n, k - i, i)
    M.flags.writeable = False
    return M


def elevate(a: np.ndarray, r: int) -> np.ndarray:
    """Raise the degree of per-span polynomials (S, n + 1, ...) by r >= 0."""
    return np.einsum("ki,si...->sk...", elevation_matrix(a.shape[1] - 1, r), a)


def elevate_vjp(g: np.ndarray, r: int) -> np.ndarray:
    """Adjoint of :func:`elevate`: weights on the raised polynomials back."""
    return np.einsum("ki,sk...->si...", elevation_matrix(g.shape[1] - 1 - r, r), g)


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-span product of (S, m + 1, r, k) and (S, n + 1, k, c) polynomials.

    Coefficient l of degree m + n is the sum over i + j = l of
    C(m, i) C(n, j) / C(m + n, l) a_i b_j: one gather of the weighted
    Toeplitz matrix of a, shaped ((m + n + 1) r, (n + 1) k) per span, and
    one batched matrix product with b stacked as ((n + 1) k, c).
    """
    S, m1, r, k = a.shape
    n1, c = b.shape[1], b.shape[3]
    index, scale = _toeplitz(m1 - 1, n1 - 1, r, k)
    A = np.take(a.reshape(S, -1), index, axis=1)
    A *= scale
    return (A @ b.reshape(S, n1 * k, c)).reshape(S, m1 + n1 - 1, r, c)


def product_vjp(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Adjoint of :func:`product`: weights g on the product to (ga, gb).

    One gather of the weighted correlation window W[(i, .), (j, .)] =
    C(m, i) C(n, j) / C(m + n, i + j) g_{i + j}, shaped ((m + 1) r,
    (n + 1) c) per span, then one batched matrix product per operand.
    """
    S, m1, r, k = a.shape
    n1, c = b.shape[1], b.shape[3]
    index, scale = _correlation(m1 - 1, n1 - 1, r, c)
    W = np.take(g.reshape(S, -1), index, axis=1)
    W *= scale
    ga = W @ b.transpose(0, 1, 3, 2).reshape(S, n1 * c, k)
    gb = a.reshape(S, m1 * r, k).transpose(0, 2, 1) @ W
    return ga.reshape(a.shape), gb.reshape(S, k, n1, c).transpose(0, 2, 1, 3)


class ChainNumerators:
    """Per-span link numerators of a DH chain and their prefix products.

    A revolute link at halving depth d contributes the matrix polynomial
    c Mc + s Ms + den M0 of degree p 2^d in the trajectory basis degree p,
    with c = 1 - q^2, s = 2q, den = 1 + q^2 raised through the depth
    recursion c <- c^2 - s^2, s <- 2sc, den <- den^2.  A prismatic link is
    q Mc + M0, elevated to the same degree.  The prefix products
    P_k = base N_1 ... N_k carry the cumulative denominator in their
    bottom row, so a plane [a | b] dotted with P_k [v; 1] is
    den_k (b + a . pos_k(v)).  ``extraction`` is the trajectory basis's
    ``bezier_extraction(knots, degree)``, shared with its other users.

    Links of one kind and depth share every step up to their numerators,
    so each such group is built in one pass with its links stacked on the
    span axis; only the prefix products run link by link.
    """

    def __init__(self, chain, depths, extraction: np.ndarray, degree: int):
        self.degree = degree
        self.depths = depths = tuple(int(d) for d in depths)
        base = np.array(chain.base_pose, dtype=float)
        # Rows 0-2 of a prefix depend only on rows 0-2 of the base; the
        # homogeneous bottom row makes row 3 the cumulative denominator.
        base[3] = (0.0, 0.0, 0.0, 1.0)
        entries = [np.stack(link.entry_matrices()) for link in chain.links]
        # The base is constant, so it is folded into the first link: P_1 = N_1.
        entries[0] = base @ entries[0]
        # (Mc, Ms, M0) of each link as the rows of one (3, 16) matrix
        self.entries = np.stack(entries).reshape(len(entries), 3, 16)
        # (revolute, depth, ascending link indices) per group
        self.groups = chain.link_groups(depths)
        self.extraction = extraction
        self.n_spans = self.extraction.shape[0] // (degree + 1)
        self.base = np.broadcast_to(base, (self.n_spans, 1, 4, 4))

    def _parts(self, revolute: bool, depth: int, q: np.ndarray):
        """(c, s, den) stacked on the last axis from q (G S, p + 1, 1, 1),
        and the tape of the depth recursion."""
        p = self.degree
        if not revolute:
            csd = np.concatenate([q, np.zeros_like(q), np.ones_like(q)], axis=3)
            return elevate(csd, p * 2 ** depth - p), []
        q2 = product(q, q)
        c, s, den = 1.0 - q2, 2.0 * elevate(q, p), 1.0 + q2
        tape = []
        for _ in range(depth - 1):
            tape.append((c, s, den))
            c, s, den = (product(c, c) - product(s, s), 2.0 * product(s, c),
                         product(den, den))
        return np.concatenate([c, s, den], axis=3), tape

    def _parts_vjp(self, revolute: bool, q: np.ndarray, tape, g: np.ndarray):
        """Weights g on (c, s, den) back to weights on q."""
        p = self.degree
        if not revolute:
            return elevate_vjp(g[..., 0:1], g.shape[1] - 1 - p)
        gc, gs, gd = g[..., 0:1], g[..., 1:2], g[..., 2:3]
        for c, s, den in reversed(tape):
            gcc, gc2 = product_vjp(c, c, gc)
            gss, gs2 = product_vjp(s, s, -gc)
            gsc, gcs = product_vjp(s, c, 2.0 * gs)
            gdd, gd2 = product_vjp(den, den, gd)
            gc, gs, gd = gcc + gc2 + gcs, gss + gs2 + gsc, gdd + gd2
        ga, gb = product_vjp(q, q, gd - gc)
        return ga + gb + 2.0 * elevate_vjp(gs, p)

    def forward(self, joint_coeffs: np.ndarray) -> dict:
        """Prefix products P_0..P_L at the joint coefficients (n, L)."""
        S, p1 = self.n_spans, self.degree + 1
        # (L, S, p + 1): one scalar polynomial per link and span
        Q = (self.extraction @ joint_coeffs).T.reshape(-1, S, p1)
        numerators = [None] * len(self.entries)
        tapes = []
        for revolute, depth, links in self.groups:
            q = Q[links].reshape(-1, p1, 1, 1)
            csd, tape = self._parts(revolute, depth, q)
            N = csd.reshape(len(links), -1, 3) @ self.entries[links]
            for j, Nj in zip(links, N.reshape(len(links), S, -1, 4, 4)):
                numerators[j] = Nj
            tapes.append((q, tape))
        prefix = [self.base, numerators[0]]
        for N in numerators[1:]:
            prefix.append(product(prefix[-1], N))
        return {"prefix": prefix, "numerators": numerators, "tapes": tapes}

    def vjp(self, state: dict, link_index: int, gP: np.ndarray) -> np.ndarray:
        """Weights on prefix P_k back to joint coefficients (n, L)."""
        S, p1 = self.n_spans, self.degree + 1
        prefix, numerators = state["prefix"], state["numerators"]
        gN = [None] * link_index
        for j in range(link_index - 1, 0, -1):
            gP, gN[j] = product_vjp(prefix[j], numerators[j], gP)
        gN[0] = gP
        gQ = np.zeros((len(self.entries), S, p1))
        for (revolute, _, links), (q, tape) in zip(self.groups, state["tapes"]):
            links = links[links < link_index]
            if links.size == 0:
                continue
            rows = links.size * S
            g = (np.stack([gN[j] for j in links]).reshape(links.size, -1, 16)
                 @ self.entries[links].transpose(0, 2, 1))
            tape = [tuple(x[:rows] for x in level) for level in tape]
            g = self._parts_vjp(revolute, q[:rows], tape, g.reshape(rows, -1, 1, 3))
            gQ[links] = g.reshape(links.size, S, p1)
        return self.extraction.T @ gQ.reshape(len(gQ), -1).T
