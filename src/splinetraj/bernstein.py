"""Exact per-span Bernstein arithmetic for B-spline constraint rows.

A clamped B-spline restricted to one knot span is a polynomial, and its
Bernstein coefficients on that span follow from the B-spline coefficients
by knot insertion (Piegl & Tiller, *The NURBS Book*, section 5.6): each
inserted coefficient is a convex combination of two old ones, so nothing
is sampled and the hull can only tighten.  Products of polynomials in
Bernstein form are binomially scaled convolutions (Farouki & Rajan,
CAGD 1988), and their adjoints the matching correlations.

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


@lru_cache(maxsize=None)
def _binom(n: int) -> np.ndarray:
    """Binomial coefficients C(n, i), shaped to scale (S, n + 1, r, c)."""
    row = np.array([math.comb(n, i) for i in range(n + 1)], dtype=float)
    row.flags.writeable = False
    return row[:, None, None]


@lru_cache(maxsize=None)
def _window(m1: int, n1: int) -> np.ndarray:
    """Index array i + j of shape (m1, n1)."""
    return np.add.outer(np.arange(m1), np.arange(n1))


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
    its Bernstein coefficients.  ``breaks`` (default: the distinct knots)
    may add break points, so splines on different knot vectors can be
    extracted onto one common set of spans.

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
        while u.count(float(t)) < p:
            coeffs, u = _insert_knot(coeffs, u, p, float(t))
    blocks = [coeffs[i - p : i + 1] for i in range(p, len(u) - p - 1) if u[i] < u[i + 1]]
    return np.vstack(blocks)


def to_spans(extraction: np.ndarray, coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Per-span Bernstein coefficients (S, degree + 1, d) of splines (n, d)."""
    return (extraction @ coeffs).reshape(-1, degree + 1, coeffs.shape[1])


@lru_cache(maxsize=None)
def left_inverse(knots: KnotVector, degree: int) -> np.ndarray:
    """Left inverse of the extraction matrix of a target space.

    It maps the per-span Bernstein coefficients of any spline in the space
    back to its B-spline coefficients.  The pseudo-inverse is used: the
    extraction matrix has condition number 2-3 for the spaces the planner
    builds (2.0 from target degree 6 to 39 on ten uniform spans), so the
    map adds no error of note.
    """
    L = np.linalg.pinv(bezier_extraction(knots, degree))
    L.flags.writeable = False
    return L


@lru_cache(maxsize=None)
def elevation_matrix(n: int, r: int) -> np.ndarray:
    """Degree elevation from n to n + r in Bernstein form, (n + r + 1, n + 1)."""
    M = np.zeros((n + r + 1, n + 1))
    for i in range(n + 1):
        for j in range(r + 1):
            M[i + j, i] = math.comb(n, i) * math.comb(r, j) / math.comb(n + r, i + j)
    M.flags.writeable = False
    return M


def elevate(a: np.ndarray, r: int) -> np.ndarray:
    """Raise the degree of per-span polynomials (S, n + 1, ...) by r."""
    if r == 0:
        return a
    return np.einsum("ki,si...->sk...", elevation_matrix(a.shape[1] - 1, r), a)


def elevate_vjp(g: np.ndarray, r: int) -> np.ndarray:
    """Adjoint of :func:`elevate`: weights on the raised polynomials back."""
    if r == 0:
        return g
    return np.einsum("ki,sk...->si...", elevation_matrix(g.shape[1] - 1 - r, r), g)


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-span product of (S, m + 1, r, k) and (S, n + 1, k, c) polynomials.

    Bernstein coefficients of degree m + n: scale by C(m, i) and C(n, j),
    convolve (matrix products of the entries), divide by C(m + n, i + j).
    """
    m = a.shape[1] - 1
    n = b.shape[1] - 1
    sa = a * _binom(m)
    sb = b * _binom(n)
    out = np.zeros((a.shape[0], m + n + 1, a.shape[2], b.shape[3]))
    if n <= m:
        for j in range(n + 1):
            out[:, j : j + m + 1] += sa @ sb[:, j : j + 1]
    else:
        for i in range(m + 1):
            out[:, i : i + n + 1] += sa[:, i : i + 1] @ sb
    out /= _binom(m + n)
    return out


def product_vjp(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Adjoint of :func:`product`: weights g on the product to (ga, gb).

    The correlation window G[i, j] = g[i + j] turns both adjoints into one
    batched matrix product each.
    """
    S, m1, r, k = a.shape
    n1, c = b.shape[1], b.shape[3]
    A = (a * _binom(m1 - 1)).reshape(S, m1 * r, k)
    B = (b * _binom(n1 - 1)).transpose(0, 2, 1, 3).reshape(S, k, n1 * c)
    window = (g / _binom(m1 + n1 - 2))[:, _window(m1, n1)]  # (S, m1, n1, r, c)
    G = window.transpose(0, 1, 3, 2, 4).reshape(S, m1 * r, n1 * c)
    ga = (G @ B.transpose(0, 2, 1)).reshape(S, m1, r, k) * _binom(m1 - 1)
    gb = (A.transpose(0, 2, 1) @ G).reshape(S, k, n1, c).transpose(0, 2, 1, 3)
    return ga, gb * _binom(n1 - 1)


class ChainNumerators:
    """Per-span link numerators of a DH chain and their prefix products.

    A revolute link at halving depth d contributes the matrix polynomial
    c Mc + s Ms + den M0 of degree p 2^d in the trajectory basis degree p,
    with c = 1 - q^2, s = 2q, den = 1 + q^2 raised through the depth
    recursion c <- c^2 - s^2, s <- 2sc, den <- den^2.  A prismatic link is
    q Mc + M0, elevated to the same degree.  The prefix products
    P_k = base N_1 ... N_k carry the cumulative denominator in their
    bottom row, so a plane (a, b) dotted with P_k [v; 1] is
    den_k (b + a . pos_k(v)).
    """

    def __init__(self, chain, depths, knots: KnotVector, degree: int):
        self.degree = degree
        self.depths = tuple(int(d) for d in depths)
        # (Mc, Ms, M0) of each link as the rows of one (3, 16) matrix
        self.entries = [np.stack(link.entry_matrices()).reshape(3, 16)
                        for link in chain.links]
        self.revolute = [link.joint_kind == "revolute" for link in chain.links]
        self.extraction = bezier_extraction(knots, degree)
        self.n_spans = self.extraction.shape[0] // (degree + 1)
        base = np.array(chain.base_pose, dtype=float)
        # Rows 0-2 of a prefix depend only on rows 0-2 of the base; the
        # homogeneous bottom row makes row 3 the cumulative denominator.
        base[3] = (0.0, 0.0, 0.0, 1.0)
        self.base = np.broadcast_to(base, (self.n_spans, 1, 4, 4))

    def _link(self, j: int, q: np.ndarray):
        """Numerator of link j from q (S, p + 1, 1, 1), and the tape of it."""
        p = self.degree
        if self.revolute[j]:
            q2 = product(q, q)
            c, s, den = 1.0 - q2, 2.0 * elevate(q, p), 1.0 + q2
        else:
            c, s, den = q, np.zeros_like(q), np.ones_like(q)
        tape = []
        for _ in range(self.depths[j] - 1 if self.revolute[j] else 0):
            tape.append((c, s, den))
            c, s, den = (product(c, c) - product(s, s), 2.0 * product(s, c),
                         product(den, den))
        csd = elevate(np.concatenate([c, s, den], axis=3),
                      p * 2 ** self.depths[j] - (c.shape[1] - 1))
        N = (csd @ self.entries[j]).reshape(csd.shape[:2] + (4, 4))
        return N, tape

    def _link_vjp(self, j: int, q: np.ndarray, tape, gN: np.ndarray) -> np.ndarray:
        """Weights on link j's numerator back to weights on q."""
        p = self.degree
        g = gN.reshape(gN.shape[:2] + (1, 16)) @ self.entries[j].T
        if not self.revolute[j]:
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
        # (S, p + 1, L, 1, 1): one scalar polynomial per span and joint
        Q = to_spans(self.extraction, joint_coeffs, self.degree)[..., None, None]
        prefix = [self.base]
        links = []
        for j in range(len(self.entries)):
            q = Q[:, :, j]
            N, tape = self._link(j, q)
            links.append((q, N, tape))
            prefix.append(product(prefix[-1], N))
        return {"prefix": prefix, "links": links}

    def vjp(self, state: dict, link_index: int, gP: np.ndarray) -> np.ndarray:
        """Weights on prefix P_k back to joint coefficients (n, L)."""
        gC = np.zeros((self.extraction.shape[1], len(self.entries)))
        prefix = state["prefix"]
        for j in range(link_index - 1, -1, -1):
            q, N, tape = state["links"][j]
            gP, gN = product_vjp(prefix[j], N, gP)
            gq = self._link_vjp(j, q, tape, gN)
            gC[:, j] = self.extraction.T @ gq.reshape(-1)
        return gC
