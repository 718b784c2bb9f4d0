"""Plan-latency benchmark of splinetraj: seeded workloads, output checks and
an outside-in tracer.  Run it with ``python3 perfbench/run.py --help``."""
