"""Scenario generators for the plan-latency benchmark.

Each workload is one batch of scenario dicts built from a bundled
scenario file; a run plans the whole batch again and again.  The batches
are the same for every benchmark seed.  Layouts drawn from the seed made
the run-to-run spread of plan time and throughput 0.2-0.3 of the median
on ``mobile_sdf``, because the infeasible slaloms' solve times vary
chaotically with the geometry, and shifting the ``threelink`` obstacles
by even 1e-6 m made about a third of the plans stop ``infeasible`` in 3 s
instead of converging in 12-23 s.  Either would measure the seed, not
the code.
"""

from __future__ import annotations

import copy
import json
import random
from importlib import resources

# Layout styles of the mobile workload, one third of the batch each.
MOBILE_STYLES = ("clear", "one_sided", "slalom")
MOBILE_COUNTS = (1, 2, 3, 4, 5)
# Layouts per (style, count) pair, and the fixed seed they are drawn with.
MOBILE_REPLICATES = 2
MOBILE_LAYOUT_SEED = 0

# The arm_dynamic workload keeps this many links of fanuc6_dynamic.
ARM_DYNAMIC_LINKS = 4


def bundled(name: str) -> dict:
    """A bundled scenario file of the splinetraj package, as a dict."""
    path = resources.files("splinetraj") / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


def _r(value: float) -> float:
    return round(value, 6)


def mobile_obstacles(style: str, count: int, rng: random.Random) -> list[dict]:
    """Static circles between start (0, 0) and goal (3, 0) of bench2d.

    ``clear`` keeps every circle off the straight line, as in
    ``cli.benchmark_obstacles``.  ``one_sided`` presses every circle on
    the line from one side.  ``slalom`` presses them on the line from
    alternating sides.
    """
    xs = sorted(0.6 + 1.8 * (i + rng.random()) / count for i in range(count))
    side = rng.choice((-1.0, 1.0))
    out = []
    for i, x in enumerate(xs):
        if style == "clear":
            y = side * (0.5 + 0.3 * rng.random())
            side = -side
        elif style == "one_sided":
            y = side * (0.2 + 0.1 * rng.random())
        else:
            y = side * (0.2 + 0.1 * rng.random()) * (1.0 if i % 2 == 0 else -1.0)
        out.append({
            "kind": "sphere",
            "center": [_r(x), _r(y)],
            "radius": 0.2,
            "motion": {"kind": "static"},
        })
    return out


def mobile_sdf() -> list[dict]:
    """Layouts for every (obstacle count, style) pair, interleaved."""
    base = bundled("bench2d")
    rng = random.Random(MOBILE_LAYOUT_SEED)
    batch = []
    for rep in range(MOBILE_REPLICATES):
        for count in MOBILE_COUNTS:
            for style in MOBILE_STYLES:
                scen = copy.deepcopy(base)
                scen["name"] = f"bench2d_{style}_{count}_{rep}"
                scen["obstacles"] = mobile_obstacles(style, count, rng)
                scen["collision"]["static_mode"] = "sdf"
                batch.append(scen)
    return batch


def arm_sdf() -> list[dict]:
    """The bundled threelink scenario."""
    return [bundled("threelink")]


def arm_dynamic() -> list[dict]:
    """fanuc6_dynamic cut down to its first links."""
    scen = bundled("fanuc6_dynamic")
    n = ARM_DYNAMIC_LINKS
    scen["name"] = f"fanuc{n}_dynamic"
    robot = scen["robot"]
    robot["links"] = robot["links"][:n]
    robot["cuboids"] = robot["cuboids"][:n]
    for key in ("initial", "goal"):
        scen["boundary"][key] = scen["boundary"][key][:n]
    return [scen]


def warm_up_scenario() -> dict:
    """A cheap plan run once before timing, so lazy start-up is not timed."""
    scen = bundled("bench2d")
    scen["name"] = "warm_up"
    return scen


GENERATORS = {"mobile_sdf": mobile_sdf, "arm_sdf": arm_sdf,
              "arm_dynamic": arm_dynamic}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str) -> list[dict]:
    """The batch of scenario dicts of one workload."""
    return GENERATORS[workload]()
