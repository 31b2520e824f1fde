"""Kernel-time accounting and report generation (nsight/rocprof analog).

The passive records (profiles, counters, reports) import eagerly; the
*drivers* — which construct and run solvers — resolve on first access,
so :mod:`repro.solver` and :mod:`repro.acc` can import the counters at
module top without pulling in code that imports them back.
"""

from repro.common.lazy import lazy_exports
from repro.profiling.profiler import KernelRecord, Profile
from repro.profiling.counters import (
    HaloCounters,
    KernelCounters,
    SweepCounters,
    counters_report,
    kernel_counters,
)
from repro.profiling.reports import device_comparison_report, kernel_stats_report
from repro.profiling.roofline_plot import roofline_chart

#: Driver exports and the submodule each lives in (imported lazily).
_DRIVERS = {
    "ModeledRun": "modeled",
    "KernelBenchResult": "kernelbench",
    "StageTiming": "kernelbench",
    "bench_backend_matrix": "kernelbench",
    "bench_kernels": "kernelbench",
    "AllocationStats": "allocations",
    "measure_call_allocations": "allocations",
    "measure_step_allocations": "allocations",
}


__getattr__ = lazy_exports(__name__, _DRIVERS)

__all__ = [
    "KernelRecord",
    "Profile",
    "HaloCounters",
    "KernelCounters",
    "SweepCounters",
    "kernel_counters",
    "counters_report",
    "kernel_stats_report",
    "device_comparison_report",
    "roofline_chart",
    *_DRIVERS,
]
