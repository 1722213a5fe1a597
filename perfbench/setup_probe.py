"""Time one set-up of a workload in a fresh interpreter and print it.

Run by run.py with frontlab's source on PYTHONPATH:
    python3 perfbench/setup_probe.py <workload> <seed>
The clock starts before frontlab is imported and stops once every front of
the workload is built and its jets are warm; the time printed is at the
reference host speed (hostspeed.py).  numpy is imported first: it is a
fixed third-party cost that no change to frontlab moves.  The last line of
stdout is JSON: `ref_s`, the time, and `premise`, why the host-speed
conversion does not hold for the set-up (null when it does).
"""

import json
import sys
import time

import numpy  # noqa: F401

import hostspeed

with hostspeed.HostSpeed(0.01) as host:
    start = time.perf_counter()
    import workloads  # noqa: E402  (imports frontlab)

    workloads.setup(sys.argv[1], int(sys.argv[2]))
    wall = time.perf_counter() - start
print(json.dumps({"ref_s": host.reference_seconds(wall),
                  "premise": host.premise_problem()}))
