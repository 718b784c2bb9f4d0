"""Print a digest of every bundled scenario's exported outputs.

For each scenario under ``src/splinetraj/scenarios/``, for ``mobile2d``
and ``mobile3d`` with ``"static_mode": "hyperplane"``, for ``threelink``
and ``mobile2d`` with a limits box, for ``threelink`` with only its upper
side, for ``mobile2d`` with hexagons for circles, in SDF and in hyperplane
mode, for ``mobile2d`` standing still, for ``threelink`` with a
prismatic third joint, extending and retracting, each in SDF and in
hyperplane mode, for ``threelink`` at halving depth 2, and for
``mobile2d`` with its goal at its first obstacle's center (or for the
bundled names or scenario file paths given on the command line) this
plans it through ``splinetraj.cli.run`` with 1000 export samples and
prints one line:

    <scenario> <status> <float.hex(T)> <sha256 of solution.json>
        <sha256 of trajectory.csv> <sha256 of cartesian.csv>
        <sha256 of report.json's "verification" object>

A name with the suffix ``+hyperplane``, such as ``mobile2d+hyperplane``,
plans that scenario with its static obstacles as separating planes, built
in memory from the tree's bundled file: the two by default are the only
bundled route into a mobile robot's plane rows.  The suffix ``+limits``
adds a box on the coordinates: angle limits of +-150 degrees for
``threelink``, but 50 degrees above for its second joint, and the
position box [-0.4, -0.6] to [3.4, 0.6] for ``mobile2d``.  No bundled
scenario builds that box family otherwise: the bundled chains' limits
lie at or beyond the recoverable range, where they add no rows, and no
mobile scenario sets one.  The second joint of ``threelink`` rises past
50 degrees without the box, so there the box binds and the solver
enters its vjp; ``mobile2d``'s box stays slack.  The suffix ``+upper``
keeps only the upper side of that box (``angle_max``, no ``angle_min``):
a side left out bounds nothing, so ``threelink+upper`` is the default
list's one-sided box.  The suffix ``+polytope`` replaces each circle of
a 2D scenario by its circumscribed regular hexagon (vertices at
r / cos 30 degrees from the center, at 30, 90, ..., 330 degrees, rounded
to 6 decimals): no bundled scenario has a polytope obstacle, so
``mobile2d+polytope`` and ``mobile2d+polytope+hyperplane`` are the
default list's route into the polytope's field and plane rows.  The
suffix ``+still`` sets the goal to the start: ``mobile2d+still`` is the
default list's plan whose start equals its goal, which the solver takes
like any other.  The suffix ``+prismatic`` makes ``threelink``'s third
joint prismatic, moving 0.1 -> 0.3 m within offset limits [0, 0.5] m at
1 m/s and 2 m/s^2: no bundled scenario has a linear chain coordinate,
so ``threelink+prismatic`` and ``threelink+prismatic+hyperplane`` are
the default list's route into the linear joint of the kinematics, the
plane rows and the SDF speed bounds.  The suffix ``+retract``, after
``+prismatic``, moves that offset 0.2 -> -0.2 m within [-0.5, 0.5] m:
``threelink+prismatic+retract`` and its ``+hyperplane`` plan are the
default list's plans with a negative prismatic offset, where a zero
scaled by the offset takes its sign.  The suffix ``+depth2`` sets every
joint of a chain to halving depth 2: ``threelink+depth2`` is the default
list's route into the half-angle recursion's gradient at depth 2.
``threelink+depth2+hyperplane`` is left out: it took 8.4 s, and
``ChainNumerators``' depth recursion stays covered by the depth-2 case
of ``tests/test_family_vjp.py``.  The suffix ``+blocked`` moves the goal
of a mobile robot to its first obstacle's center: ``mobile2d+blocked``
is the default list's plan that cannot converge, so it reaches the
solver's stagnation and best-iterate path and the field's queries
outside its grid.  Suffixes chain and apply from left to right.  A scenario file reaches other plans that no bundled
scenario does.  A perfbench workload
name (``mobile_sdf``, ``arm_sdf``, ``arm_dynamic``) prints one such line
for each scenario of that workload, labelled
``<workload>/<scenario name>``, so every plan's T is compared, not a
mean over the workload; that label on the command line plans the one
scenario.

The verification object holds each family's dense violation, tolerance
and sample count; the run's timings sit beside it in ``report.json`` and
are left out, so the last digest covers what ``verify`` computed.

BLAS runs on one thread, as in the test suite and the benchmark, because
the chain solves take different iterations at other thread counts.  Two
trees whose digests match wrote the same bytes.  ``--tree`` plans with the
``src/`` (and ``perfbench/``) of another checkout, so one copy of this
script compares any two trees:

    python3 tools/output_digest.py --tree ../parent > parent.txt
    python3 tools/output_digest.py > change.txt
    diff parent.txt change.txt

The default list took 25 s wall on a 2-core x86-64 host with one BLAS
thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

OUTPUTS = ("solution.json", "trajectory.csv", "cartesian.csv")
# The +limits box of each scenario that takes one, in its file's units.
LIMITS = {"threelink": ([-150, -150, -150], [150, 50, 150]),
          "mobile2d": ([-0.4, -0.6], [3.4, 0.6])}


def _hyperplane(obj: dict) -> None:
    obj.setdefault("collision", {})["static_mode"] = "hyperplane"


def _limits(obj: dict) -> None:
    if obj["name"] not in LIMITS:
        raise SystemExit(f"{obj['name']}: no +limits box (one of {', '.join(LIMITS)})")
    obj["limits"]["angle_min"], obj["limits"]["angle_max"] = LIMITS[obj["name"]]


def _upper(obj: dict) -> None:
    _limits(obj)
    del obj["limits"]["angle_min"]


def _polytope(obj: dict) -> None:
    if len(obj["workspace"]["min"]) != 2:
        raise SystemExit(f"{obj['name']}: +polytope takes a 2D scenario")
    angles = np.radians(np.arange(30, 390, 60))
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for obstacle in obj.get("obstacles", []):
        if obstacle["kind"] == "sphere":
            center = np.asarray(obstacle.pop("center"), dtype=float)
            radius = obstacle.pop("radius") / np.cos(np.radians(30))
            obstacle.update(kind="polytope",
                            vertices=np.round(center + radius * unit, 6).tolist())


def _still(obj: dict) -> None:
    obj["boundary"]["goal"] = list(obj["boundary"]["initial"])


def _prismatic(obj: dict) -> None:
    if obj["name"] != "threelink":
        raise SystemExit(f"{obj['name']}: +prismatic takes threelink")
    obj["robot"]["links"][2]["kind"] = "prismatic"
    obj["boundary"]["initial"][2], obj["boundary"]["goal"][2] = 0.1, 0.3
    # deg for the revolute joints, m for the prismatic one
    obj["limits"].update(velocity=[200, 200, 1.0], acceleration=[200, 200, 2.0],
                         angle_min=[-200, -200, 0.0], angle_max=[200, 200, 0.5])


def _retract(obj: dict) -> None:
    if obj["name"] != "threelink" or obj["robot"]["links"][2]["kind"] != "prismatic":
        raise SystemExit(f"{obj['name']}: +retract follows +prismatic")
    obj["boundary"]["initial"][2], obj["boundary"]["goal"][2] = 0.2, -0.2
    obj["limits"]["angle_min"][2] = -0.5


def _depth2(obj: dict) -> None:
    if obj["robot"]["kind"] != "chain":
        raise SystemExit(f"{obj['name']}: +depth2 takes a chain robot")
    obj["robot"]["halving_depth"] = 2


def _blocked(obj: dict) -> None:
    first = (obj.get("obstacles") or [{}])[0]
    if obj["robot"]["kind"] != "mobile" or "center" not in first:
        raise SystemExit(f"{obj['name']}: +blocked takes a mobile robot "
                         "whose first obstacle is a sphere")
    obj["boundary"]["goal"] = list(first["center"])


VARIANTS = {"+hyperplane": _hyperplane, "+limits": _limits, "+upper": _upper,
            "+polytope": _polytope, "+still": _still, "+prismatic": _prismatic,
            "+retract": _retract, "+depth2": _depth2, "+blocked": _blocked}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*",
                        help="bundled scenario names, scenario file paths, "
                             "perfbench workload names or <workload>/<scenario "
                             "name> labels, each optionally with "
                             "one or more of the suffixes +hyperplane, +limits, "
                             "+upper, +polytope, +still, +prismatic, "
                             "+retract, +depth2 and +blocked (default: "
                             "every bundled scenario, then mobile2d and mobile3d "
                             "+hyperplane, threelink and mobile2d +limits, "
                             "threelink +upper, mobile2d +polytope, +polytope+hyperplane and "
                             "+still, threelink +prismatic, "
                             "+prismatic+hyperplane, +prismatic+retract, "
                             "+prismatic+retract+hyperplane and +depth2, "
                             "mobile2d +blocked)")
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ (and perfbench/) is planned "
                             "(default: this one)")
    args = parser.parse_args(argv)

    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from splinetraj.scenario import parse_scenario

    for label, obj in plans(tree, args.scenarios):
        print(label, *digest(parse_scenario(obj)), flush=True)
    return 0


def plans(tree: Path, names: list[str]):
    """(label, scenario dict) for each of ``names``, or for the default
    list when there are none, each variant applied.  ``tree``'s ``src/``
    and root must lead ``sys.path``."""
    from jitter_sweep import scenario_dicts

    bundled = tree / "src" / "splinetraj" / "scenarios"
    names = names or (
        sorted(p.stem for p in bundled.glob("*.json"))
        + ["mobile2d+hyperplane", "mobile3d+hyperplane",
           "threelink+limits", "mobile2d+limits", "threelink+upper",
           "mobile2d+polytope",
           "mobile2d+polytope+hyperplane", "mobile2d+still",
           "threelink+prismatic", "threelink+prismatic+hyperplane",
           "threelink+prismatic+retract",
           "threelink+prismatic+retract+hyperplane",
           "threelink+depth2", "mobile2d+blocked"])
    for name in names:
        base, suffixes = name, []
        while key := next((k for k in VARIANTS if base.endswith(k)), None):
            base = base.removesuffix(key)
            suffixes.insert(0, key)
        one_file = (bundled / f"{base}.json").exists() or Path(base).is_file()
        for obj in scenario_dicts(tree, base):
            label = name if one_file or "/" in base else f"{name}/{obj['name']}"
            for key in suffixes:
                VARIANTS[key](obj)
            yield label, obj


def digest(scenario) -> list[str]:
    """Status, float.hex(T) and the output hashes of one plan."""
    from splinetraj.cli import run

    with tempfile.TemporaryDirectory() as tmp:
        report = run(scenario, output_dir=tmp, samples=1000)
        digests = [hashlib.sha256((Path(tmp) / f).read_bytes()).hexdigest()
                   for f in OUTPUTS]
        verification = json.loads(
            (Path(tmp) / "report.json").read_text())["verification"]
        blob = json.dumps(verification, sort_keys=True)
        digests.append(hashlib.sha256(blob.encode()).hexdigest())
    return [report.status, float(report.objective).hex(), *digests]


if __name__ == "__main__":
    sys.exit(main())
