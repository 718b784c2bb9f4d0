"""Denavit-Hartenberg chains and their numeric half-angle kinematics.

Revolute joints are parameterized by q = tan(theta / 2^n); the tangent
half-angle substitution turns every trigonometric entry of a
Denavit-Hartenberg transform into a rational function of q over a
positive denominator.  Prismatic joints substitute the offset directly
and keep denominator 1.

``NumericFK`` evaluates those rational forms (values and joint
gradients) at sample points, for signed-distance clearance, dense
verification and export: ``shared_state`` forms every link's prefix
transform in one pass and ``body_positions`` places a link's vertices.
The same forms as exact polynomial products, span by span, are
``bernstein.ChainNumerators``.

The joint variables live in one joint-space spline, the planner's
coefficient matrix.  A revolute column maps back by theta = 2^n atan q,
strictly inside the recoverable range +-2^(n-1) pi for every finite q
(``planner._angles``, read through ``planner.TrajectorySamples.joint``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DHLink",
    "DHChain",
    "NumericFK",
    "halfangle_cos_sin",
    "homogeneous",
]

REVOLUTE = "revolute"
PRISMATIC = "prismatic"


@dataclass(frozen=True)
class DHLink:
    """One Denavit-Hartenberg link.

    The joint variable replaces theta_offset (revolute) or adds to d
    (prismatic); the stored value acts as a constant offset either way.
    """

    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0
    joint_kind: str = REVOLUTE

    def __post_init__(self):
        if self.joint_kind not in (REVOLUTE, PRISMATIC):
            raise ValueError(f"unknown joint kind {self.joint_kind!r}")
        for name in ("a", "alpha", "d", "theta_offset"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"DH parameter {name} must be finite")

    def entry_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constant matrices (Mc, Ms, M0) with T = Mc*c + Ms*s + M0.

        A revolute link takes (c, s) = (cos v, sin v) of its variable v, the
        theta offset folded into Mc and Ms by the angle-sum identities.  A
        prismatic link is that link at its fixed angle, (c, s) = (q, 0), Mc
        the unit z offset and Ms = 0: M0 = Mc + A0 is the classic DH matrix
        at offset 0.
        """
        ca, sa = np.cos(self.alpha), np.sin(self.alpha)
        Ac = np.array(
            [
                [1.0, 0.0, 0.0, self.a],
                [0.0, ca, -sa, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        As = np.array(
            [
                [0.0, -ca, sa, 0.0],
                [1.0, 0.0, 0.0, self.a],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        A0 = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, sa, ca, self.d],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        c0, s0 = np.cos(self.theta_offset), np.sin(self.theta_offset)
        Mc, Ms = Ac * c0 + As * s0, -Ac * s0 + As * c0
        if self.joint_kind == REVOLUTE:
            return Mc, Ms, A0
        Md = np.zeros((4, 4))
        Md[2, 3] = 1.0
        return Md, np.zeros((4, 4)), Mc + A0


@dataclass(frozen=True)
class DHChain:
    """Serial chain: constant base pose, DH links, one collision cuboid per link."""

    base_pose: np.ndarray
    links: tuple[DHLink, ...]
    link_cuboids: tuple[np.ndarray, ...]

    def __post_init__(self):
        base = np.asarray(self.base_pose, dtype=float)
        if base.shape != (4, 4) or not np.all(np.isfinite(base)):
            raise ValueError("base_pose must be a finite 4x4 matrix")
        if len(self.links) < 1:
            raise ValueError("chain needs at least one link")
        if len(self.link_cuboids) != len(self.links):
            raise ValueError("one cuboid (8 vertices) required per link")
        cuboids = []
        for verts in self.link_cuboids:
            v = np.asarray(verts, dtype=float)
            if v.shape != (8, 3) or not np.all(np.isfinite(v)):
                raise ValueError("cuboid must be 8 finite vertices in R^3")
            v.flags.writeable = False
            cuboids.append(v)
        base = base.copy()
        base.flags.writeable = False
        object.__setattr__(self, "base_pose", base)
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "link_cuboids", tuple(cuboids))

    def __len__(self):
        return len(self.links)

    def link_groups(self, depths) -> list[tuple[bool, int, np.ndarray]]:
        """(revolute, halving depth, ascending link indices) per group of
        links alike in both, in order of each group's first link."""
        kinds = [(link.joint_kind == REVOLUTE, int(d))
                 for link, d in zip(self.links, depths)]
        return [(rev, d, np.array([j for j, kind in enumerate(kinds) if kind == (rev, d)]))
                for rev, d in dict.fromkeys(kinds)]


def halfangle_cos_sin(qvals: np.ndarray, depth: int, with_grad: bool = False):
    """cos/sin of the recovered angle from substituted values, vectorized.

    Uses the rational forms level by level (no trig calls), which keeps the
    numerics identical to the spline construction.  With with_grad, also
    returns d(cos)/dq and d(sin)/dq.
    """
    q = np.asarray(qvals, dtype=float)
    w = 1.0 + q * q
    c = (1.0 - q * q) / w
    s = 2.0 * q / w
    if with_grad:
        dc = -4.0 * q / (w * w)
        ds = 2.0 * (1.0 - q * q) / (w * w)
    for _ in range(depth - 1):
        if with_grad:
            dc, ds = 2.0 * (c * dc - s * ds), 2.0 * (ds * c + s * dc)
        c, s = c * c - s * s, 2.0 * s * c
    if with_grad:
        return c, s, dc, ds
    return c, s


class NumericFK:
    """Vectorized numeric evaluation of the rational chain transforms.

    Values and joint-coefficient gradients of link transforms, separated
    into the shared positive denominator and the numerator matrices so the
    results match the rational spline construction exactly as functions.
    Link j is c Mc + s Ms + M0, its (c, s, dc, ds) from ``_forms`` alone.
    Links whose forms are alike are grouped as in
    ``bernstein.ChainNumerators``, by ``DHChain.link_groups``: by joint
    kind and halving depth.  Each group forms its (c, s) or (dc, ds) once on
    a (k, S) block, and its transforms on a (k, S, 4, 4) block, so every
    link's T_j and A_j stays a contiguous (S, 4, 4) slice: element by
    element the same operations as link by link.
    """

    def __init__(self, chain: DHChain, halving_depths):
        self.chain = chain
        self.depths = tuple(int(d) for d in halving_depths)
        if len(self.depths) != len(chain):
            raise ValueError("one halving depth per link required")
        if min(self.depths) < 1:
            raise ValueError("halving depths must be at least 1")
        # Joint j's denominator is (1 + q^2)^power[j], power 0 if prismatic.
        self._den_powers = [2 ** (d - 1) if link.joint_kind == REVOLUTE else 0
                            for link, d in zip(chain.links, self.depths)]
        # (revolute, depth, ascending links, their Mc, Ms and M0 stacked
        # (k, 1, 4, 4)) per group.
        entries = [link.entry_matrices() for link in chain.links]
        self._groups = []
        for revolute, depth, links in chain.link_groups(self.depths):
            Mc, Ms, M0 = (np.stack([entries[j][m] for j in links])[:, None]
                          for m in range(3))
            self._groups.append((revolute, depth, links, Mc, Ms, M0))

    @staticmethod
    def _forms(revolute: bool, depth: int, q: np.ndarray, with_grad: bool = False):
        """A group's (c, s) at the values q, so that T = c Mc + s Ms + M0,
        then (dc, ds) with with_grad.  Revolute joints take the half-angle
        forms at their halving depth; prismatic ones are linear: (q, 0) and
        (1, 0)."""
        if revolute:
            return halfangle_cos_sin(q, depth, with_grad)
        zero = np.zeros_like(q)
        return (q, zero, np.ones_like(q), zero) if with_grad else (q, zero)

    def _grouped(self, qmat: np.ndarray):
        """Per group of the first L = qmat.shape[1] links: its kind and
        depth, its links, their (Mc, Ms, M0) and their values q as a
        contiguous (k, S) block."""
        L = qmat.shape[1]
        for revolute, depth, links, Mc, Ms, M0 in self._groups:
            k = int(np.count_nonzero(links < L))
            if k:
                q = np.ascontiguousarray(qmat.T[links[:k]])
                yield (revolute, depth), links[:k], (Mc[:k], Ms[:k], M0[:k]), q

    def link_values(self, qmat: np.ndarray) -> np.ndarray:
        """Per-link numeric transforms T_j (L, S, 4, 4) at S samples.

        qmat has shape (S, L): substituted values for revolute links,
        variable offsets for prismatic links.
        """
        Ts = np.empty((qmat.shape[1], qmat.shape[0], 4, 4))
        for kind, links, (Mc, Ms, M0), q in self._grouped(qmat):
            c, s = self._forms(*kind, q)
            Ts[links] = c[:, :, None, None] * Mc + s[:, :, None, None] * Ms + M0
        return Ts

    def chain_state(self, qmat: np.ndarray, link_index: int):
        """``shared_state`` of the first link_index links, plus ``den``: the
        cumulative denominator of the link transform (S,), the product of
        the joints' (1 + q_j^2)^(2^(n_j - 1)), a prismatic joint's being 1.
        Tests read it as the sampled oracle of the rational forms."""
        q = qmat[:, :link_index]
        state = self.shared_state(q)
        den = np.ones(q.shape[0])
        for j in range(link_index):
            den = den * (1.0 + q[:, j] * q[:, j]) ** self._den_powers[j]
        state["den"] = den
        return state

    @staticmethod
    def vertex_positions(state, verts: np.ndarray) -> np.ndarray:
        """Positions (S, V, 3) of local-frame vertices under the last prefix
        transform: ``body_positions`` at that link."""
        return NumericFK.body_positions(state, len(state["prefix"]) - 1, verts)

    def shared_state(self, qmat: np.ndarray):
        """Full-chain factors computed once for use by every link.

        prefix[k] (of an (L + 1, S, 4, 4) block) is the base-to-link-k
        transform and Ts[j] link j's transform; ``gradient_state`` adds
        A[j] = prefix[j] @ dT_j, the shared left part of every
        d(position)/d(q_j).
        """
        Ts = self.link_values(qmat)
        prefix = np.empty((Ts.shape[0] + 1,) + Ts.shape[1:])
        prefix[0] = self.chain.base_pose
        for j, T in enumerate(Ts):
            np.matmul(prefix[j], T, out=prefix[j + 1])
        return {"prefix": prefix, "Ts": Ts}

    def gradient_state(self, state, qmat: np.ndarray, idx: np.ndarray):
        """``state`` of the samples qmat (from ``shared_state``) cut to the
        samples ``idx``, with the gradient factors A taken there only.  It
        equals ``shared_state(qmat[idx])`` plus A bit for bit, since every
        factor is formed sample by sample."""
        prefix = state["prefix"][:, idx]
        return {"prefix": prefix, "Ts": state["Ts"][:, idx],
                "A": self._gradient_factors(prefix, qmat[idx])}

    def _gradient_factors(self, prefix, qmat: np.ndarray) -> np.ndarray:
        """A[j] = prefix[j] @ dT_j/dq_j (L, S, 4, 4) at the samples qmat."""
        A = np.empty((qmat.shape[1], qmat.shape[0], 4, 4))
        for kind, links, (Mc, Ms, _), q in self._grouped(qmat):
            _, _, dc, ds = self._forms(*kind, q, with_grad=True)
            dT = dc[:, :, None, None] * Mc + ds[:, :, None, None] * Ms
            for j, dT_j in zip(links, dT):
                np.matmul(prefix[j], dT_j, out=A[j])
        return A

    @staticmethod
    def body_positions(state, link_index: int, verts: np.ndarray,
                       hom: np.ndarray | None = None) -> np.ndarray:
        """Positions (S, V, 3) of one link's local vertices; hom is their
        precomputed ``homogeneous(verts)`` block when the caller has it."""
        if hom is None:
            hom = homogeneous(verts)
        out = state["prefix"][link_index] @ hom  # (S, 4, V)
        return out[:, :3, :].transpose(0, 2, 1)

    @staticmethod
    def body_position_grads(state, link_index: int, verts: np.ndarray,
                            hom: np.ndarray | None = None) -> np.ndarray:
        """d(position)/d(q_j) for one link from the shared state; (k, S, V, 3)."""
        Ts, A = state["Ts"], state["A"]
        S = Ts[0].shape[0]
        R = homogeneous(verts) if hom is None else hom  # (4, V), then (S, 4, V)
        grads = np.empty((link_index, S, verts.shape[0], 3))
        for j in range(link_index - 1, -1, -1):
            grads[j] = (A[j] @ R)[:, :3, :].transpose(0, 2, 1)
            if j:
                R = Ts[j] @ R
        return grads


def homogeneous(verts: np.ndarray) -> np.ndarray:
    """Local vertices (V, 3) as homogeneous columns (4, V)."""
    return np.hstack([verts, np.ones((verts.shape[0], 1))]).T
