"""One fresh-process set-up, timed from inside the process.

Usage: python3 perfbench/probe.py <workload> <src-dir>, with the workload's
set-up spec as one line of JSON on stdin.  Times ``import monadica`` plus
building the prebuilt objects on the process CPU-time clock, host-adjusted
by reference kernel runs in this same process just before and after, and
prints {"wall_s": ..., "adjusted_s": ...}.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    # Stay on one CPU, so the kernel runs and the set-up share it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload, src = sys.argv[1], sys.argv[2]
    spec = json.loads(sys.stdin.readline())
    sys.path.insert(0, src)
    import measure
    import workloads

    host = measure.HostRef()  # CPU time, like the in-process ops
    before = host.measure()
    w0, t0 = time.perf_counter(), time.process_time()
    workloads.SETUP[workload](spec, measure.NullTracer)
    cpu, wall = time.process_time() - t0, time.perf_counter() - w0
    factor = host.factor(before, host.measure())
    print(json.dumps({"wall_s": wall, "adjusted_s": cpu * factor}), flush=True)
