"""The exact Bernstein engine against exact rational arithmetic.

The oracle is independent of the engine's algorithms: B-spline pieces come
from the Cox-de Boor recursion carried out on polynomials, products are
taken in the power basis, and every number is a ``fractions.Fraction``
(floating-point inputs convert exactly).  The engine must agree to 1e-12
relative.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from splinetraj.bernstein import (
    bezier_extraction,
    elevate,
    left_inverse,
    product,
    product_vjp,
)
from splinetraj.bspline import KnotVector, clamp_knots
from splinetraj.planner import PlaneRobotSideFamily, assemble, initial_guess
from splinetraj.scenario import parse_scenario
from splinetraj.spline_algebra import elevated_union

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src/splinetraj/scenarios"
REL = 1e-12


# --- exact polynomial arithmetic, power basis, coefficient lists ----------


def padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def pscale(p, s):
    return [s * c for c in p]


def pshift(p, alpha, h):
    """p(alpha + h x) as a polynomial in x."""
    out = [Fraction(0)]
    for c in reversed(p):
        out = padd(pmul(out, [alpha, h]), [c])
    return out


def to_bernstein(p, n):
    """Bernstein coefficients of degree n of a power-basis polynomial on [0, 1]."""
    p = p + [Fraction(0)] * (n + 1 - len(p))
    return [sum(Fraction(math.comb(i, j), math.comb(n, j)) * p[j] for j in range(i + 1))
            for i in range(n + 1)]


def from_bernstein(b):
    n = len(b) - 1
    return [sum((-1) ** (j - i) * math.comb(n, j) * math.comb(j, i) * b[i]
                for i in range(j + 1)) for j in range(n + 1)]


def exact_pieces(knots, degree):
    """Per span, the power-basis polynomial in the local parameter of every
    B-spline basis function, by the Cox-de Boor recursion on polynomials."""
    u = [Fraction(v) for v in knots.values]
    spans = [i for i in range(len(u) - 1) if u[i] < u[i + 1]]
    # N[i] maps a span index to the polynomial in tau (power basis).
    N = [{i: [Fraction(1)]} if i in spans else {} for i in range(len(u) - 1)]
    for k in range(1, degree + 1):
        nxt = []
        for i in range(len(u) - k - 1):
            piece = {}
            d1, d2 = u[i + k] - u[i], u[i + k + 1] - u[i + 1]
            if d1:
                for s, p in N[i].items():
                    piece[s] = padd(piece.get(s, []), pmul(p, [-u[i] / d1, 1 / d1]))
            if d2:
                for s, p in N[i + 1].items():
                    term = pmul(p, [u[i + k + 1] / d2, -1 / d2])
                    piece[s] = padd(piece.get(s, []), term)
            nxt.append(piece)
        N = nxt
    return [
        [pshift(N[i].get(s, [Fraction(0)]), u[s], u[s + 1] - u[s]) for i in range(len(N))]
        for s in spans
    ]


def exact_extraction(knots, degree):
    rows = []
    for span in exact_pieces(knots, degree):
        cols = [to_bernstein(p, degree) for p in span]
        rows.extend([[col[r] for col in cols] for r in range(degree + 1)])
    return rows


def exact_solve(A, b):
    """Solve the square system A x = b exactly by Gaussian elimination."""
    n = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[i][n] / M[i][i] for i in range(n)]


def exact_coefficients(E, bez, n_coeffs, degree):
    """B-spline coefficients of a spline in the space from its Bernstein
    pieces: on each span the basis restricted to the span is invertible."""
    out = [None] * n_coeffs
    for s in range(len(E) // (degree + 1)):
        block = E[s * (degree + 1) : (s + 1) * (degree + 1)]
        cols = [c for c in range(n_coeffs) if any(row[c] for row in block)]
        sol = exact_solve([[row[c] for c in cols] for row in block],
                          bez[s * (degree + 1) : (s + 1) * (degree + 1)])
        for c, v in zip(cols, sol):
            if out[c] is None:
                out[c] = v
            else:
                assert out[c] == v  # the spline lies in the space exactly
    return out


def close(values, exact):
    exact = np.array([float(v) for v in exact])
    scale = max(np.abs(exact).max(), 1e-300)
    return float(np.abs(np.asarray(values, dtype=float).ravel() - exact.ravel()).max()) / scale


# --- tests ------------------------------------------------------------------

KNOTS = clamp_knots([0.2, 0.45, 0.45, 0.7], 3)


def test_extraction_matches_cox_de_boor():
    exact = exact_extraction(KNOTS, 3)
    E = bezier_extraction(KNOTS, 3)
    assert E.shape == (len(exact), len(exact[0]))
    assert close(E, [v for row in exact for v in row]) <= REL
    # convex weights: every row is a partition of unity with nonnegative entries
    assert E.min() >= 0.0
    np.testing.assert_allclose(E.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_extraction_onto_added_breaks():
    E = bezier_extraction(KNOTS, 3, breaks=[0.0, 0.2, 0.3, 0.45, 0.7, 1.0])
    refined = KnotVector(np.sort(np.concatenate([KNOTS.values, [0.3]])))
    # the same spans as the knot vector with 0.3 inserted
    assert E.shape[0] == bezier_extraction(refined, 3).shape[0]
    assert np.all(E >= 0.0)


def test_left_inverse_recovers_coefficients():
    knots = elevated_union([(KNOTS, 3)], 9)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(len(knots) - 10)
    back = left_inverse(knots, 9) @ (bezier_extraction(knots, 9) @ c)
    np.testing.assert_allclose(back, c, rtol=0, atol=1e-13)
    assert np.linalg.cond(bezier_extraction(knots, 9)) < 3.0


@pytest.mark.parametrize("m,n", [(3, 2), (1, 4), (6, 6)])
def test_product_matches_power_basis(m, n):
    rng = np.random.default_rng(m * 10 + n)
    a = rng.standard_normal((2, m + 1, 2, 3))
    b = rng.standard_normal((2, n + 1, 3, 2))
    got = product(a, b)
    for s in range(2):
        for r in range(2):
            for c in range(2):
                total = [Fraction(0)]
                for k in range(3):
                    pa = from_bernstein([Fraction(v) for v in a[s, :, r, k]])
                    pb = from_bernstein([Fraction(v) for v in b[s, :, k, c]])
                    total = padd(total, pmul(pa, pb))
                assert close(got[s, :, r, c], to_bernstein(total, m + n)) <= REL


def test_elevation_matches_power_basis():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((1, 4, 1, 1))
    exact = to_bernstein(from_bernstein([Fraction(v) for v in a[0, :, 0, 0]]), 7)
    assert close(elevate(a, 4)[0, :, 0, 0], exact) <= REL


def test_product_vjp_is_the_adjoint():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 5, 4, 4))
    b = rng.standard_normal((3, 3, 4, 2))
    g = rng.standard_normal((3, 7, 4, 2))
    da = rng.standard_normal(a.shape)
    db = rng.standard_normal(b.shape)
    ga, gb = product_vjp(a, b, g)
    # product is bilinear: <g, d product> = <ga, da> + <gb, db> exactly
    lhs = float((g * (product(da, b) + product(a, db))).sum())
    assert abs(lhs - float((ga * da).sum() + (gb * db).sum())) <= 1e-12 * abs(lhs)


def _twolink_moving_sphere():
    obj = json.loads((SCENARIO_DIR / "threelink.json").read_text())
    obj["name"] = "oracle_twolink"
    obj["robot"]["links"] = obj["robot"]["links"][:2]
    obj["robot"]["cuboids"] = obj["robot"]["cuboids"][:2]
    obj["basis"] = {"degree": 3, "interior_knots": [0.25, 0.5, 0.75]}
    obj["boundary"]["initial"] = [-60, 40]
    obj["boundary"]["goal"] = [60, 40]
    obj["obstacles"] = [
        {"kind": "sphere", "center": [0.6, -0.6, -0.5], "radius": 0.1,
         "motion": {"kind": "linear", "target": [0.6, 0.6, -0.5]}},
    ]
    return parse_scenario(obj)


def test_robot_side_rows_match_exact_rationals():
    problem = assemble(_twolink_moving_sphere())
    rng = np.random.default_rng(12)
    dv = initial_guess(problem)
    dv.joint_coeffs = dv.joint_coeffs + rng.uniform(-0.2, 0.2, dv.joint_coeffs.shape)
    for a, b in dv.plane_coeffs:
        a += rng.uniform(-0.1, 0.1, a.shape)
        b += rng.uniform(-0.1, 0.1, b.shape)
    x = problem.layout.pack(dv)
    dv = problem.layout.unpack(x)
    chain = problem.scenario.robot.chain
    p = problem.basis.degree
    pieces = exact_pieces(problem.basis.knots, p)

    def spline_on_span(s, coeffs):
        total = [Fraction(0)]
        for poly, c in zip(pieces[s], coeffs):
            total = padd(total, pscale(poly, Fraction(float(c))))
        return total

    fams = [f for f in problem.families if isinstance(f, PlaneRobotSideFamily)]
    assert [f.body.link_index for f in fams] == [1, 2]
    for fam in fams:
        k = fam.body.link_index
        target = p + 2 * p * k
        knots = elevated_union([(problem.basis.knots, p)], target)
        E = exact_extraction(knots, target)
        n_t = len(E[0])
        a_c, b_c = dv.plane_coeffs[fam.plane_index]
        bez = [[] for _ in fam.body.verts]
        for s in range(len(pieces)):
            P = [[[Fraction(float(v))] for v in row] for row in chain.base_pose]
            cumden = [Fraction(1)]
            for j in range(k):
                q = spline_on_span(s, dv.joint_coeffs[:, j])
                q2 = pmul(q, q)
                cos_n = padd([Fraction(1)], pscale(q2, Fraction(-1)))
                sin_n = pscale(q, Fraction(2))
                den = padd([Fraction(1)], q2)
                Mc, Ms, M0 = chain.links[j].entry_matrices()
                N = [[padd(padd(pscale(cos_n, Fraction(float(Mc[r, c]))),
                                pscale(sin_n, Fraction(float(Ms[r, c])))),
                           pscale(den, Fraction(float(M0[r, c]))))
                      for c in range(4)] for r in range(4)]
                P = [[_psum([pmul(P[r][t], N[t][c]) for t in range(4)])
                      for c in range(4)] for r in range(4)]
                cumden = pmul(cumden, den)
            a = [spline_on_span(s, a_c[:, d]) for d in range(3)]
            b = spline_on_span(s, b_c)
            for v, vert in enumerate(fam.body.verts):
                hom = [Fraction(float(c)) for c in vert] + [Fraction(1)]
                pos = [_psum([pscale(P[r][c], hom[c]) for c in range(4)]) for r in range(3)]
                y = _psum([pmul(a[d], pos[d]) for d in range(3)] + [pmul(b, cumden)])
                bez[v].extend(to_bernstein(y, target))
        rows = (fam.cushion - fam.evaluate(x)[0]).reshape(len(bez), n_t)
        for v in range(len(bez)):
            exact = exact_coefficients(E, bez[v], n_t, target)
            assert close(rows[v], exact) <= REL, (fam.name, v)


def _psum(polys):
    out = [Fraction(0)]
    for p in polys:
        out = padd(out, p)
    return out
