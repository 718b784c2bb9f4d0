"""Workload generators of the plan-latency benchmark."""

import pytest

from splinetraj import parse_scenario

from perfbench.workloads import (
    MOBILE_COUNTS, MOBILE_REPLICATES, MOBILE_STYLES, WORKLOADS, generate,
)

ROBOT_RADIUS = 0.15  # bench2d's disc robot


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic_and_every_dict_parses(workload):
    batch = generate(workload)
    assert batch == generate(workload)
    for scenario in batch:
        parse_scenario(scenario)


def test_mobile_batch_covers_every_count_and_style():
    batch = generate("mobile_sdf")
    cells = sorted((len(s["obstacles"]), s["name"].split("_")[1]) for s in batch)
    assert cells == sorted(
        [(c, style.split("_")[0]) for c in MOBILE_COUNTS
         for style in MOBILE_STYLES] * MOBILE_REPLICATES)
    assert len({s["name"] for s in batch}) == len(batch)
    for scenario in batch:
        assert scenario["collision"]["static_mode"] == "sdf"


def test_mobile_layout_styles():
    for scenario in generate("mobile_sdf"):
        ys = [o["center"][1] for o in scenario["obstacles"]]
        radius = scenario["obstacles"][0]["radius"]
        style = scenario["name"].split("_")[1]
        if style == "clear":
            # The straight line y = 0 stays free for the robot.
            assert all(abs(y) - radius > ROBOT_RADIUS for y in ys)
            continue
        # Every circle blocks the straight line.
        assert all(abs(y) - radius < ROBOT_RADIUS for y in ys)
        signs = [y > 0 for y in ys]
        if style == "one":
            assert len(set(signs)) == 1
        else:
            assert all(a != b for a, b in zip(signs, signs[1:]))


def test_arm_dynamic_is_cut_to_four_links():
    (scenario,) = generate("arm_dynamic")
    parsed = parse_scenario(scenario)
    assert len(parsed.robot.chain) == 4
    assert parsed.n_coords == 4
    assert not parsed.obstacles[0].is_static
