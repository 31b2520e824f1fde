"""An OpenACC-like directive model (paper §III.B-§III.D).

This package reproduces, in Python, the semantics the paper's
optimization story is written in:

* :mod:`repro.acc.directives` — ``parallel loop`` specifications with
  ``gang``/``vector``/``collapse(n)``/``seq``/``private`` clauses and
  their legality rules (illegal combinations raise
  :class:`~repro.common.errors.DirectiveError`, the analog of a
  compile-time rejection).
* :mod:`repro.acc.launch` — how a clause set plus loop extents maps to a
  launch configuration (gang count, vector length, exposed threads);
  this is where "default = one vector lane per gang" under-utilisation
  and the ``collapse(3)`` fix live.
* :mod:`repro.acc.compiler` — NVHPC/CCE/GNU compiler models: which
  vendor each targets, cross-module inlining behaviour (the Fypp
  workaround), and CCE's run-time-sized ``private`` allocation cliff.
* :mod:`repro.acc.data_region` — the device data environment:
  ``enter/exit data``, ``update host/device``, ``host_data use_device``
  residency rules, with transfer-cost accounting.
* :mod:`repro.acc.kernel` / :mod:`repro.acc.runtime` — kernels carry a
  real NumPy body (which executes) plus a workload description (which
  is priced on a simulated device by
  :class:`repro.hardware.costmodel.CostModel`).
* :mod:`repro.acc.gang` — the one piece that *executes* rather than
  models: a :class:`~repro.acc.gang.GangExecutor` realizes the gang
  axis of a directive nest as interleaved tile shares on forked workers
  over a shared workspace (vector stays NumPy SIMD), powering the
  solver's gang RHS path.
"""

from repro.common.lazy import lazy_exports
from repro.acc.gang import GangExecutor, plan_gang_width, tile_spans

#: The directive *models* and the submodule each lives in, imported on
#: first access: the solver needs only the gang executor above.
_EXPORTS = {
    "Clause": "directives", "LoopDirective": "directives",
    "ParallelLoopNest": "directives",
    "LaunchConfig": "launch", "derive_launch": "launch",
    "CompilerModel": "compiler", "COMPILERS": "compiler",
    "get_compiler": "compiler",
    "DeviceDataEnvironment": "data_region",
    "AccKernel": "kernel",
    "AccRuntime": "runtime",
    "FyppPreprocessor": "fypp", "inline_serial_subroutine": "fypp",
    "parse_directive": "parser", "parse_loop_nest": "parser",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["GangExecutor", "plan_gang_width", "tile_spans", *_EXPORTS]
