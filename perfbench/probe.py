"""Set-up probe: prints CLOCK_MONOTONIC once a workload's first op is ready.

    python3 perfbench/probe.py <workload> <seed>

run.py starts this in a fresh interpreter several times per run; the time
from the start to the printed reading is the set-up time, which covers
``import telecert`` and the construction the workload needs.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports telecert from src/)

workloads.make(sys.argv[1], int(sys.argv[2])).prepare()
print(time.monotonic())
