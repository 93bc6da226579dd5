"""How fast the host runs right now, from a fixed pure-Python loop.

The benchmark's reference host is a shared 2-vCPU virtual machine whose
ops can take up to 1.7 times their usual time for minutes on end, for
every workload at once.
Medians over more ops cannot remove a drift that outlasts a run, so the
measuring child also times this loop before its warm-up and after every
op.  ``op_s`` and ``events_per_s`` are then reported in *reference
seconds* (unit ``ref_s``): host seconds times :data:`REFERENCE_S` over
the run's median loop time, i.e. what the op would take on the
reference host when the loop takes exactly :data:`REFERENCE_S`.  Every
other time the benchmark reports is plain host time.

The loop does integer arithmetic on a tiny working set with the garbage
collector off, so it measures the processor, not the heap the workload
left behind.  It under-corrects: in slow periods the workloads slow by
more than the loop does.  Allocation-heavy and memory-bound loops tracked
no better across the four workloads, so the simplest one stays.
"""

from __future__ import annotations

import gc
import time

__all__ = ["REFERENCE_S", "calibrate"]

#: loop seconds on the reference host (2-vCPU KVM guest, Intel Xeon
#: Sapphire Rapids, Python 3.11) in its quieter periods
REFERENCE_S = 0.1
_ITERATIONS = 1_500_000


def calibrate() -> float:
    """Seconds of one run of the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(_ITERATIONS):
            total += i * i % 7
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
