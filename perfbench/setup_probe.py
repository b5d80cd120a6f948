"""Time one fresh interpreter's set-up for a workload; prints seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS WORKDIR

The clock starts before broydenlab is imported and stops once the
workload's inputs are built, which is the point where a timed pass starts.
"""
import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

workload, seed, seconds, workdir = sys.argv[1:5]
WORKLOADS[workload](int(seed), int(seconds), Path(workdir))
print(f"{time.perf_counter() - T0:.9f}")
