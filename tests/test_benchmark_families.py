"""The benchmark's output check must stay satisfiable by the planner.

``perfbench.run.check_outputs`` counts a plan as failed when verify
reports a family whose name it does not know, so a new or renamed family
would fail every plan of a workload.  This assembles every scenario of
every benchmark workload and runs each family name, plus the
``endpoint_conditions`` that verify adds, through that check.
"""

from types import SimpleNamespace

import pytest

from perfbench.run import SAMPLES, check_outputs
from perfbench.workloads import WORKLOADS, generate
from splinetraj.planner import assemble
from splinetraj.scenario import parse_scenario


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_family_name_passes_the_benchmark_check(tmp_path, workload):
    # A well-formed export, so only the family names can fail the check.
    (tmp_path / "trajectory.csv").write_text("tau,t\n" + "1.0,1.0\n" * SAMPLES)
    for obj in generate(workload):
        names = [f.name for f in assemble(parse_scenario(obj)).families]
        report = SimpleNamespace(
            status="converged", objective=1.0,
            family_violations=dict.fromkeys(names + ["endpoint_conditions"], 0.0))
        assert check_outputs(report, tmp_path) == [], obj["name"]
