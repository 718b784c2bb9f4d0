"""Plan-latency benchmark of splinetraj.

One closed-loop client in one process plans the batch of scenarios of a
workload through the public pipeline ``splinetraj.cli.run`` (assemble,
solve, verify, export) until the measuring time is up, checks every
output, and prints one JSON result as its last line of standard output.
Times are in reference seconds, which cancel the drift of a shared
host's speed (see ``speed.py``).

Usage:
    python3 perfbench/run.py --workload mobile_sdf --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` every plan runs twice, untraced and then traced, and the
result holds the per-layer metrics of the traced plans plus the tracing
overhead.  Spans of a traced run are written to
``.perfbench_out/spans-<workload>-<seed>.npz`` when it ends.
"""

import os

# Pinned before numpy is first imported, here and in every child process:
# iteration counts and timings change with the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SAMPLES = 1000
OVERSAMPLE = 10
SETUP_PROBES = 5
HULL_PREFIXES = ("velocity", "acceleration", "angle", "position", "plane",
                 "endpoint")


def import_program():
    """Import splinetraj from this checkout's ``src`` and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import splinetraj

    where = Path(splinetraj.__file__).resolve().parent
    if where != ROOT / "src" / "splinetraj":
        raise SystemExit(f"splinetraj was imported from {where}, "
                         f"not from {ROOT / 'src'}")


def measure_setup(workload: str) -> float:
    """Median set-up reference seconds over several fresh processes."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def check_outputs(report, out_dir: Path) -> list[str]:
    """Reasons a finished plan does not count as a verified, exported plan."""
    problems = []
    if report.status != "converged":
        problems.append(f"status {report.status}")
    for family, violation in report.family_violations.items():
        # Hull families must read exactly zero; for sdf_clearance a zero
        # violation means clearance >= 0 at every dense sample.
        if not (family.startswith(HULL_PREFIXES) or family == "sdf_clearance"):
            problems.append(f"verify: unexpected family {family}")
        elif violation != 0.0:
            problems.append(f"verify: {family} violation {violation:.3e}")
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    header, rows = lines[0].split(","), lines[1:]
    if len(rows) != SAMPLES:
        problems.append(f"export: {len(rows)} rows, expected {SAMPLES}")
    values = [[float(v) for v in row.split(",")] for row in rows]
    if any(len(row) != len(header) for row in values):
        problems.append("export: ragged trajectory.csv")
    elif not all(math.isfinite(v) for row in values for v in row):
        problems.append("export: non-finite value in trajectory.csv")
    elif rows and values[-1][1] != report.objective:
        problems.append("export: final t differs from the objective T")
    return problems


def bang_bang_time(scenario) -> float:
    """Lower bound on the travel time T of a parsed scenario.

    Each coordinate moving rest to rest under its own velocity and
    acceleration limits needs at least its bang-bang time; the slowest
    coordinate bounds T.
    """
    import numpy as np

    dist = np.abs(scenario.boundary_goal - scenario.boundary_initial)
    vel, acc = scenario.limits.velocity, scenario.limits.acceleration
    times = np.where(dist >= vel * vel / acc, dist / vel + vel / acc,
                     2.0 * np.sqrt(dist / acc))
    return float(times.max())


class Planner:
    """Plans one scenario dict at a time and records the outcome."""

    def __init__(self):
        from splinetraj import parse_scenario
        from splinetraj.cli import run

        self.parse = parse_scenario
        self.run = run
        OUT.mkdir(exist_ok=True)

    def plan(self, scenario: dict, probe, tracer=None) -> dict:
        """Plan one scenario dict, timed in reference seconds by ``probe``."""
        from perfbench.speed import reference_seconds

        parse, run = self.parse, self.run
        if tracer is not None:
            from perfbench.layers import PARSE, PLAN, RUN

            parse = tracer.wrap(parse, PARSE)
            run = tracer.wrap(run, RUN)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:

            def once():
                return run(parse(scenario), output_dir=tmp, samples=SAMPLES,
                           oversample=OVERSAMPLE)

            if tracer is not None:
                once = tracer.wrap(once, PLAN)
            report, wall, seconds = reference_seconds(probe, once)
            problems = check_outputs(report, Path(tmp))
        return {
            "scenario": scenario["name"],
            "status": report.status,
            "T": report.objective,
            "T_ratio": report.objective / bang_bang_time(self.parse(scenario)),
            "seconds": seconds,
            "wall_s": wall,
            "problems": problems,
        }


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def plan_batch(planner: Planner, batch: list[dict], seconds: float,
               probe, traced: bool):
    """Plan the whole batch again and again until ``seconds`` have passed.

    The time is checked only between passes, so every run plans the same
    mix of scenarios.  A traced batch plans each scenario untraced and
    then traced, so both sides see the same inputs.

    Returns (untraced plans, traced plans, reference seconds, tracer or None).
    """
    from perfbench.layers import install
    from perfbench.speed import reference_seconds
    from perfbench.tracer import Tracer

    tracer = Tracer() if traced else None
    plain, with_trace = [], []

    def passes():
        t0 = time.perf_counter()
        while not plain or time.perf_counter() - t0 < seconds:
            for scenario in batch:
                plain.append(planner.plan(scenario, probe))
                if traced:
                    install(tracer)
                    try:
                        with_trace.append(planner.plan(scenario, probe, tracer))
                    finally:
                        tracer.restore()

    _, _, batch_seconds = reference_seconds(probe, passes)
    return plain, with_trace, batch_seconds, tracer


def p50_verified(plans: list[dict]) -> float:
    """Median seconds to a verified, exported plan.

    Failed plans count in ``plan_ok_ratio`` and ``plans_per_min``; only
    when every plan failed does the median fall back to all of them.
    """
    verified = [p["seconds"] for p in plans if not p["problems"]]
    return statistics.median(verified or [p["seconds"] for p in plans])


def end_to_end(plans: list[dict], batch_s: float, setup_s: float) -> dict:
    attempted = len(plans)
    ok = sum(1 for p in plans if not p["problems"])
    return {
        "plan_s.p50": (p50_verified(plans), "s"),
        "plans_per_min": (60.0 * attempted / batch_s, "1/min"),
        "plan_ok_ratio": (ok / attempted, "ratio"),
        "travel_time_ratio.mean": (
            statistics.fmean(p["T_ratio"] for p in plans), "ratio"
        ),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(plain, traced, tracer) -> dict:
    from perfbench.layers import layer_metrics, metric_units

    values = layer_metrics(tracer)
    values["trace.plan_s.p50"] = p50_verified(traced)
    values["trace.overhead_s"] = p50_verified(traced) - p50_verified(plain)
    return {name: (values[name], unit) for name, unit in metric_units().items()}


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded; every workload is the same for "
                             "every seed (see workloads.py)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    import_program()
    args = parse_args(argv)
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import generate, warm_up_scenario

    setup_s = None if args.trace else measure_setup(args.workload)
    planner = Planner()
    batch = generate(args.workload)
    with SpeedProbe() as probe:
        planner.plan(warm_up_scenario(), probe)
        plain, traced, batch_s, tracer = plan_batch(
            planner, batch, args.seconds, probe, bool(args.trace))
    checked = traced if args.trace else plain
    if args.trace:
        metrics = per_layer(plain, traced, tracer)
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    else:
        metrics = end_to_end(plain, batch_s, setup_s)

    # A plan that claims convergence but fails a check is a wrong output;
    # a plan that honestly stops unconverged is only a failed plan.
    correct = not any(p["status"] == "converged" and p["problems"]
                      for p in plain + traced)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "plans": [[p["scenario"], p["status"], p["T"],
                                 p["seconds"], p["wall_s"], p["problems"]]
                                for p in checked]}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(checked),
        "failed": sum(1 for p in checked if p["problems"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
