"""Kernel-time accounting and report generation (nsight/rocprof analog).

Every export resolves on first access: the solver imports the one leaf
it records into (:mod:`repro.profiling.counters`), and neither the
report writers nor the drivers — which construct and run solvers, and
so would import :mod:`repro.solver` back — load with it.
"""

from repro.common.lazy import lazy_exports

#: Every export and the submodule it lives in (imported lazily).
_EXPORTS = {
    "KernelRecord": "profiler", "Profile": "profiler",
    "HaloCounters": "counters", "KernelCounters": "counters",
    "SweepCounters": "counters", "counters_report": "counters",
    "kernel_counters": "counters",
    "roofline_chart": "roofline_plot",
    "AllocationStats": "allocations",
    "measure_call_allocations": "allocations",
    "measure_step_allocations": "allocations",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
