"""One traced plan of the full bundled fanuc6_dynamic scenario.

The full scenario takes minutes, so it is not part of the repeated
benchmark runs.  Its per-layer metrics are recorded once, beside the
workloads, so the layer shares of the ``arm_dynamic`` workload (the same
code path on a 4-link arm) can be compared with the headline target.

Usage: python3 perfbench/reference.py [--out perfbench/reference/fanuc6_dynamic.json]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench  # noqa: E402  (pins BLAS threads first)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(Path(__file__).resolve().parent / "reference"
                             / "fanuc6_dynamic.json"))
    args = parser.parse_args(argv)

    bench.import_program()
    from perfbench.layers import install, layer_metrics, metric_units
    from perfbench.speed import SpeedProbe
    from perfbench.tracer import Tracer
    from perfbench.workloads import bundled, warm_up_scenario

    planner = bench.Planner()
    tracer = Tracer()
    with SpeedProbe() as probe:
        planner.plan(warm_up_scenario(), probe)
        install(tracer)
        try:
            plan = planner.plan(bundled("fanuc6_dynamic"), probe, tracer)
        finally:
            tracer.restore()
    tracer.save(bench.OUT / "spans-fanuc6_dynamic-reference.npz")

    metrics = layer_metrics(tracer)
    metrics["trace.plan_s.p50"] = plan["seconds"]
    units = metric_units()
    own, _ = tracer.self_times()
    record = {
        "scenario": "fanuc6_dynamic",
        "environment": bench.environment(),
        "plan": plan,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
        "self_time_share": {
            name: own[name] / plan["wall_s"]
            for name in sorted(own, key=own.get, reverse=True)
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}: {plan['status']}, T = {plan['T']:.6f} s, "
          f"{plan['seconds']:.1f} s traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
