"""Set-up time of one fresh process: import splinetraj and splinetraj.cli,
then generate and parse one workload.  Prints the reference seconds taken
(see ``speed.py``), measured against the host speed right afterwards.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import splinetraj  # noqa: E402,F401
import splinetraj.cli  # noqa: E402,F401
from splinetraj import parse_scenario  # noqa: E402

from perfbench.workloads import generate  # noqa: E402

for scenario in generate(sys.argv[1]):
    parse_scenario(scenario)
_wall = time.perf_counter() - _t0

from perfbench.speed import REFERENCE_S, WINDOW, SpeedProbe  # noqa: E402

_probe = SpeedProbe()
_kernel = sorted(_probe.kernel_seconds() for _ in range(WINDOW))
print(repr(_wall * REFERENCE_S / _kernel[WINDOW // 2]))
