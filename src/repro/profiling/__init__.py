"""Kernel-time accounting and report generation (nsight/rocprof analog).

The passive records (profiles, counters, reports) import eagerly; the
*drivers* — which construct and run solvers — resolve on first access,
so :mod:`repro.solver` and :mod:`repro.acc` can import the counters at
module top without pulling in code that imports them back.
"""

import importlib

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


def __getattr__(name: str):
    submodule = _DRIVERS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


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
