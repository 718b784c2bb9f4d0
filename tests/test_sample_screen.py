"""The SDF clearance family's sample screen.

Under the solver's mask (the rows whose multiplier is zero) a chain's
``SDFClearanceFamily`` skips a sample when a Lipschitz bound from its
last formed value proves every row there clear.  A skipped row must be
one whose exact residual is <= 0, every formed row must equal the
unmasked row bit for bit, and so the augmented Lagrangian's value and
gradient must not move by a bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from splinetraj import nlp
from splinetraj.collision import OutOfBoundsError
from splinetraj.nlp import AugmentedLagrangianSolver
from splinetraj.planner import (
    T_MIN,
    SDFClearanceFamily,
    _chain_levers,
    assemble,
    initial_guess,
    solve,
)
from splinetraj.scenario import parse_scenario
from tests.test_planner import _bundled_dict

CHAINS = {
    "threelink": ("threelink",),
    "threelink+prismatic+retract": ("threelink", "+prismatic", "+retract"),
    "threelink+depth2": ("threelink", "+depth2"),
}


def _problem(name):
    return assemble(parse_scenario(_bundled_dict(*CHAINS[name])))


def _sdf(problem):
    (fam,) = [f for f in problem.families if type(f) is SDFClearanceFamily]
    return fam


def _stretched_start(problem):
    """``threelink``'s start with joints 2 and 3 at zero between the
    pinned rows: the arm reaches 1.29 m, past the field's 1.2 m box, so
    about 6% of the tracked points start outside the field."""
    dv = initial_guess(problem)
    C = dv.joint_coeffs.copy()
    C[3:-3, 1:] = 0.0
    dv.joint_coeffs = C
    return dv


def _record_skips(fam):
    """The list that each later screen of ``fam`` appends its skipped
    samples to."""
    skips = []
    screen = fam._screen

    def recorded(*args):
        skip, bound = screen(*args)
        skips.append(skip)
        return skip, bound

    fam._screen = recorded
    return skips


def _record_sites(nfk):
    """The list that each later ``shared_state`` of ``nfk`` appends its
    sample count to."""
    sites = []
    shared = nfk.shared_state

    def recorded(qmat):
        sites.append(len(qmat))
        return shared(qmat)

    nfk.shared_state = recorded
    return sites


class ScreenAudit:
    """Wraps a family so that every masked evaluation is checked against
    an unmasked one at the same point, then leaves the family's screen
    state as the masked call left it, so the solve runs as it would."""

    def __init__(self, fam):
        self.fam = fam
        self.evaluate, self.screen = fam.evaluate, fam._screen
        self.masked_calls = self.samples = self.skipped = 0
        fam.evaluate, fam._screen = self.checked, self.recorded

    def recorded(self, qmat, need, masked):
        self.skip, bound = self.screen(qmat, need, masked)
        return self.skip, bound

    def checked(self, x, masked=None):
        r, vjp = self.evaluate(x, masked)
        if masked is None:
            return r, vjp
        fam, skip = self.fam, self.skip
        state = fam._q_ref.copy(), fam._v_ref.copy()
        exact, _ = self.evaluate(x)
        fam._q_ref[...], fam._v_ref[...] = state
        B, S = len(fam.bodies), fam.taus.size
        got, want = r.reshape(B, S, -1), exact.reshape(B, S, -1)
        assert (want[:, skip] <= 0.0).all()
        assert (got[:, skip] < 0.0).all() and (got[:, skip] >= want[:, skip]).all()
        assert got[:, ~skip].tobytes() == want[:, ~skip].tobytes()
        weighted = ~masked.reshape(B, S, -1).all(axis=(0, 2))
        assert not (skip & weighted).any()
        self.masked_calls += 1
        self.samples += S
        self.skipped += int(skip.sum())
        return r, vjp


@pytest.mark.parametrize("name", [*CHAINS, "threelink-stretched_start"],
                         ids=[*CHAINS, "threelink-stretched_start"])
def test_skipped_rows_are_clear_and_formed_rows_exact(name, monkeypatch):
    # Over every masked evaluation of a solve: the skipped rows read a
    # bound at or above their exact residual, which is <= 0, and no
    # sample with a weighted row is skipped.  The stretched start runs
    # two outer iterations, with part of the arm outside the field.
    stretched = name.endswith("stretched_start")
    problem = _problem("threelink" if stretched else name)
    fam = _sdf(problem)
    guess = None
    if stretched:
        monkeypatch.setattr(nlp, "MAX_OUTER", 2)
        guess = _stretched_start(problem)
        outside = []
        query = fam.field.query_extended

        def recording_query(points):
            outside.append(((points < fam.field.origin)
                            | (points > fam.field.upper)).any(axis=1).sum())
            return query(points)

        monkeypatch.setattr(fam.field, "query_extended", recording_query)
    audit = ScreenAudit(fam)
    solution = solve(problem, guess)
    assert audit.masked_calls > 50
    assert audit.skipped > 0.5 * audit.samples
    if stretched:
        assert outside[0] > 0  # the first evaluation, at the start
    else:
        assert solution.converged


def _solver(problem):
    return AugmentedLagrangianSolver(problem.objective, problem.families,
                                     bounds=problem.layout.bounds(T_MIN))


@pytest.mark.parametrize("name", [*CHAINS, "mobile2d"], ids=[*CHAINS, "mobile2d"])
def test_al_value_grad_equals_the_unmasked_one(name):
    # Steps of a few milliradians from the start, as a line search
    # takes them, with zero multipliers and with large ones on a few
    # rows of every block (their samples carry weight and are formed).
    problem = (assemble(parse_scenario(_bundled_dict("mobile2d")))
               if name == "mobile2d" else _problem(name))
    solver = _solver(problem)
    fam = _sdf(problem)
    x0 = problem.layout.pack(initial_guess(problem))
    scales = solver._block_scales(solver._eval_blocks(x0))
    rng = np.random.default_rng(71)
    cuts = []
    if fam.nfk is not None:
        sites = _record_sites(fam.nfk)
        cut = fam.nfk.gradient_state

        def recorded_cut(state, qmat, idx):
            cuts.append(idx.size)
            return cut(state, qmat, idx)

        fam.nfk.gradient_state = recorded_cut
    free = problem.layout.n_free_c
    x = x0.copy()
    for rho in (10.0, 1e4):
        few = []
        for block in problem.families:
            mult = np.zeros(block.n_rows)
            rows = rng.choice(block.n_rows, min(3, block.n_rows), replace=False)
            mult[rows] = rho * rng.uniform(1.0, 2.0, rows.size)
            few.append(mult)
        zero = [np.zeros(block.n_rows) for block in problem.families]
        for multipliers in (zero, few):
            scaled = solver._scaled_multipliers(multipliers, rho)
            masks = solver._screen_masks(multipliers)
            for _ in range(4):
                x[:free] += rng.normal(0.0, 2e-3, free)
                got = solver._al_value_grad(x, rho, scaled, scales, masks)
                want = solver._al_value_grad(x, rho, scaled, scales)
                assert float(got[0]).hex() == float(want[0]).hex()
                assert got[1].tobytes() == want[1].tobytes()
    if fam.nfk is not None:
        S = fam.taus.size
        assert min(sites) < 0.5 * S  # the screen skipped samples
        assert max(cuts) > 0  # and the vjp ran on weighted ones


def test_rows_with_a_multiplier_are_never_skipped():
    # At the point the family last formed, every clear sample is
    # skipped under an all-true mask; unmasking one row at each of three
    # such samples forms exactly those three again, equal to the
    # unmasked rows.
    problem = _problem("threelink")
    fam = _sdf(problem)
    x0 = problem.layout.pack(initial_guess(problem))
    exact, _ = fam.evaluate(x0)
    skips = _record_skips(fam)
    everything = np.ones(fam.n_rows, dtype=bool)
    fam.evaluate(x0, everything)
    B, S = len(fam.bodies), fam.taus.size
    V = fam.n_rows // (B * S)
    chosen = np.flatnonzero(skips[-1])[[0, 5, 10]]
    mask = everything.reshape(B, S, V).copy()
    rng = np.random.default_rng(73)
    mask[rng.integers(B, size=3), chosen, rng.integers(V, size=3)] = False
    r, _ = fam.evaluate(x0, mask.reshape(-1))
    expected = skips[-2].copy()
    expected[chosen] = False
    assert (skips[-1] == expected).all()
    rows = r.reshape(B, S, V)[:, chosen]
    assert rows.tobytes() == exact.reshape(B, S, V)[:, chosen].tobytes()


@pytest.mark.parametrize("where", ["joint_coefficient", "travel_time"],
                         ids=["joint_coefficient", "travel_time"])
def test_nan_raises_as_it_does_unmasked(where):
    # A NaN coefficient puts NaN points into the field query
    # (OutOfBoundsError); a NaN T makes every row NaN, which the solver
    # rejects naming the family (FloatingPointError).  The screen lets
    # neither through, even where the family last formed every sample.
    problem = _problem("threelink")
    fam = _sdf(problem)
    solver = AugmentedLagrangianSolver(problem.objective, [fam])
    x0 = problem.layout.pack(initial_guess(problem))
    scales = solver._block_scales(solver._eval_blocks(x0))
    multipliers = [np.zeros(fam.n_rows)]
    scaled = solver._scaled_multipliers(multipliers, 10.0)
    x = x0.copy()
    x[problem.layout.idx_T if where == "travel_time" else 7] = np.nan
    error, match = ((FloatingPointError, "sdf_clearance") if where == "travel_time"
                    else (OutOfBoundsError, "outside field bounds"))
    for masks in (solver._screen_masks(multipliers), None):
        with pytest.raises(error, match=match):
            solver._al_value_grad(x, 10.0, scaled, scales, masks)


def test_an_infinite_lever_never_skips():
    # A prismatic joint without an upper limit gives the revolute joints
    # before it an infinite lever on the links past it.  No bound then
    # clears that link, not even where no coordinate moved (inf x 0).
    scenario = parse_scenario(_bundled_dict("threelink", "+prismatic"))
    problem = assemble(scenario)
    fam = _sdf(problem)
    unbounded = replace(scenario.limits,
                        angle_max=np.append(scenario.limits.angle_max[:2], np.inf))
    table = _chain_levers(replace(scenario, limits=unbounded))
    assert np.isinf(table.levers[2, :2]).all() and table.levers[2, 2] == 1.0
    assert np.isfinite(table.levers[:2]).all()
    open_fam = SDFClearanceFamily(fam.name, problem.layout, fam.field, fam.taus,
                                  fam.bodies, fam.cushion_gap, problem.basis,
                                  problem.nfk, levers=table)
    sites = _record_sites(problem.nfk)
    x0 = problem.layout.pack(initial_guess(problem))
    everything = np.ones(fam.n_rows, dtype=bool)
    x1 = x0.copy()
    x1[: problem.layout.n_free_c] += 1e-9
    for family in (fam, open_fam):
        family.evaluate(x0)
        family.evaluate(x0, everything)
        family.evaluate(x1, everything)
    S = fam.taus.size
    assert sites[:3] == [S, sites[1], sites[2]] and max(sites[1:3]) < S
    assert sites[3:] == [S, S, S]


def test_every_sample_skipped():
    # With the one obstacle far in a corner of the field every sample
    # is clear: under an all-true mask FK and the field query run on no
    # sample, every row reads a bound below zero, zero weight gives the
    # unmasked vjp's T-only gradient, and weight on a skipped row is an
    # error, not a silent zero.
    obj = _bundled_dict("threelink")
    obj["obstacles"] = [{"kind": "sphere", "center": [1.1, -1.1, 0.9],
                         "radius": 0.05}]
    problem = assemble(parse_scenario(obj))
    fam = _sdf(problem)
    x0 = problem.layout.pack(initial_guess(problem))
    exact, exact_vjp = fam.evaluate(x0)
    assert exact.max() < 0.0
    sites = _record_sites(problem.nfk)
    r, vjp = fam.evaluate(x0, np.ones(fam.n_rows, dtype=bool))
    assert sites == [0]
    assert (r < 0.0).all() and (r >= exact).all()
    zero = np.zeros(fam.n_rows)
    assert vjp(zero).tobytes() == exact_vjp(zero).tobytes()
    w = zero.copy()
    w[0] = 1.0
    with pytest.raises(ValueError, match="skipped sample"):
        vjp(w)


def test_offsets_outside_their_limits_are_formed():
    # The lever table holds while every prismatic offset stays inside
    # its limits, so a sample whose offset left them is formed even at
    # the point it was last formed at, where every clear in-limit
    # sample is skipped.
    problem = assemble(parse_scenario(_bundled_dict("threelink", "+prismatic")))
    fam = _sdf(problem)
    dv = initial_guess(problem)
    C = dv.joint_coeffs.copy()
    C[3:-3, 2] = 0.7  # past the 0.5 m limit in mid-motion
    dv.joint_coeffs = C
    x = problem.layout.pack(dv)
    fam.evaluate(x)
    skips = _record_skips(fam)
    fam.evaluate(x, np.ones(fam.n_rows, dtype=bool))
    offsets = (fam.Bpos @ C)[:, 2]
    outside = offsets > 0.5
    assert outside.sum() > 10 and (~outside).sum() > 10
    assert not skips[0][outside].any()
    assert skips[0][~outside].any()
