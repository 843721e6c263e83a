"""One set-up measurement: a fresh process imports debondsim and builds a
workload's inputs, then prints ``ready`` and the CPU seconds the process has
used so far, from its start.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import checkout

checkout.import_debondsim()
import debondsim.energy_audit  # noqa: E402,F401  (what a solve-and-audit call needs)
import debondsim.griffith  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", repr(time.process_time()), flush=True)
