"""Per-kernel measured-vs-modeled timing harness (paper §IV-V analog).

The paper validates its roofline/cost model by putting *measured* kernel
times next to *modeled* ones for every device it benchmarks.  This
module is that measurement half for the execution backends: it marches
the real RHS on a chosen backend × dtype, reads the per-stage stopwatch
laps (``packing`` / ``weno`` / ``riemann`` / ``other`` — the same four
families :mod:`repro.hardware.workloads` prices), prices the same
problem with :class:`repro.hardware.CostModel`, and reports the
per-stage model error.

By default the cost model runs on the *measured-bandwidth* host device
(:func:`repro.hardware.measured_host_device` — the STREAM-triad probe),
so the model-error columns reflect the model's kernel physics, not the
gap between this host and the catalog's 460 GB/s server spec.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.backend import precision_dtype, resolve_backend
from repro.common import ConfigurationError, Stopwatch
from repro.hardware.costmodel import CostModel
from repro.hardware.devices import (
    DeviceSpec,
    default_host_device,
    measured_host_device,
)
from repro.hardware.workloads import ProblemShape, rhs_workloads
from repro.solver.rhs import RHS

#: Stopwatch lap name -> cost-model kernel class.
STAGE_CLASSES = {
    "packing": "pack",
    "weno": "weno",
    "riemann": "riemann",
    "other": "other",
}


@dataclass(frozen=True)
class StageTiming:
    """Measured vs modeled time of one kernel family, one RHS eval."""

    stage: str
    backend: str
    dtype: str
    measured_ns: float
    modeled_ns: float
    #: Grind time of this stage: ns per cell per PDE per RHS eval.
    grind_ns: float

    @property
    def model_error_pct(self) -> float:
        """Signed model error: positive means slower than modeled."""
        return 100.0 * (self.measured_ns - self.modeled_ns) / self.modeled_ns

    @property
    def measured_over_modeled(self) -> float:
        return self.measured_ns / self.modeled_ns

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["model_error_pct"] = self.model_error_pct
        return d


@dataclass(frozen=True)
class KernelBenchResult:
    """One backend × dtype sweep: per-stage timings plus totals."""

    backend: str
    dtype: str
    device: str
    stages: tuple[StageTiming, ...]
    repeats: int
    cells: int
    nvars: int

    @property
    def measured_ns(self) -> float:
        return sum(s.measured_ns for s in self.stages)

    @property
    def modeled_ns(self) -> float:
        return sum(s.modeled_ns for s in self.stages)

    @property
    def model_error_pct(self) -> float:
        return 100.0 * (self.measured_ns - self.modeled_ns) / self.modeled_ns

    @property
    def grind_ns(self) -> float:
        """ns per cell per PDE per RHS evaluation (the paper's metric)."""
        return self.measured_ns / (self.cells * self.nvars)

    def as_dict(self) -> dict:
        """BENCH_rhs.json record fragment (backend/dtype-stamped)."""
        return {
            "backend": self.backend,
            "dtype": self.dtype,
            "device": self.device,
            "repeats": self.repeats,
            "grind_ns": self.grind_ns,
            "measured_ns_per_rhs": self.measured_ns,
            "modeled_ns_per_rhs": self.modeled_ns,
            "model_error_pct": self.model_error_pct,
            "stages": {s.stage: s.as_dict() for s in self.stages},
        }

    def report(self) -> str:
        lines = [f"kernel bench: backend={self.backend} dtype={self.dtype} "
                 f"device={self.device!r} "
                 f"grind={self.grind_ns:.1f} ns/cell/PDE/RHS"]
        for s in self.stages:
            lines.append(
                f"  {s.stage:8s} measured {s.measured_ns / 1e6:8.3f} ms  "
                f"modeled {s.modeled_ns / 1e6:8.3f} ms  "
                f"error {s.model_error_pct:+7.1f}%")
        lines.append(
            f"  {'total':8s} measured {self.measured_ns / 1e6:8.3f} ms  "
            f"modeled {self.modeled_ns / 1e6:8.3f} ms  "
            f"error {self.model_error_pct:+7.1f}%")
        return "\n".join(lines)


def _modeled_stage_ns(device: DeviceSpec, shape: ProblemShape,
                      dtype: np.dtype) -> dict[str, float]:
    """Modeled nanoseconds per stage for one RHS evaluation.

    Workload byte counts are float64-calibrated; other dtypes scale the
    streamed bytes by the itemsize ratio (the memory-bound speedup the
    float32 option exists to buy), leaving FLOP counts alone.
    """
    model = CostModel(device)
    byte_ratio = np.dtype(dtype).itemsize / 8.0
    per_class: dict[str, float] = {}
    for work in rhs_workloads(shape):
        if byte_ratio != 1.0:
            work = dataclasses.replace(work, bytes=work.bytes * byte_ratio)
        per_class[work.kernel_class] = (per_class.get(work.kernel_class, 0.0)
                                        + model.kernel_time(work) * 1e9)
    return {stage: per_class[cls] for stage, cls in STAGE_CLASSES.items()}


def bench_kernels(layout, mixture, grid, bcs, config, q, *,
                  backend: object = "numpy", precision: str = "float64",
                  warmup: int = 1, repeats: int = 3,
                  device: DeviceSpec | None = None,
                  use_measured_bandwidth: bool = True,
                  **rhs_kwargs) -> KernelBenchResult:
    """Time pad/WENO/Riemann/divergence on one backend × dtype.

    ``q`` is the host-side conservative state; it is moved onto the
    backend through the explicit H2D seam before timing, so transfers
    never pollute the kernel laps.  ``device`` pins the cost-model
    hardware; by default the measured-bandwidth host stand-in is used
    (``use_measured_bandwidth=False`` falls back to catalog numbers).
    Extra keyword arguments reach the :class:`~repro.solver.rhs.RHS`
    (``sweep_layout``, ``fusion``, ``threads``, ...).
    """
    if repeats < 1 or warmup < 0:
        raise ConfigurationError(
            f"need repeats >= 1 and warmup >= 0, got {repeats}/{warmup}")
    be = resolve_backend(backend)
    dtype = precision_dtype(precision)
    sw = Stopwatch()
    rhs = RHS(layout, mixture, grid, bcs, config, stopwatch=sw,
              backend=be, precision=precision, **rhs_kwargs)
    try:
        q_dev = be.from_host(np.ascontiguousarray(q), dtype=dtype)
        for _ in range(warmup):
            rhs(q_dev)
        sw.laps.clear()
        t0 = time.perf_counter()
        for _ in range(repeats):
            rhs(q_dev)
        wall = time.perf_counter() - t0
    finally:
        rhs.close()

    if device is None:
        device = (measured_host_device() if use_measured_bandwidth
                  else default_host_device())
    shape = ProblemShape(cells=grid.num_cells, nvars=layout.nvars,
                         ndim=layout.ndim)
    modeled = _modeled_stage_ns(device, shape, dtype)
    # Laps cover the instrumented stages; anything between them (loop
    # glue, dispatch) is folded into "other" so stage times sum to the
    # wall clock and the totals row stays honest.
    laps = {k: v / repeats * 1e9 for k, v in sw.laps.items()}
    instrumented = sum(laps.values())
    laps["other"] = (laps.get("other", 0.0)
                     + max(0.0, wall / repeats * 1e9 - instrumented))
    stages = tuple(
        StageTiming(stage=stage, backend=be.name, dtype=dtype.name,
                    measured_ns=laps.get(stage, 0.0) or 1e-9,
                    modeled_ns=modeled[stage],
                    grind_ns=(laps.get(stage, 0.0)
                              / (grid.num_cells * layout.nvars)))
        for stage in STAGE_CLASSES)
    return KernelBenchResult(backend=be.name, dtype=dtype.name,
                             device=device.name, stages=stages,
                             repeats=repeats, cells=grid.num_cells,
                             nvars=layout.nvars)


def bench_backend_matrix(layout, mixture, grid, bcs, config, q, *,
                         backends=None, precisions=("float64",),
                         **kwargs) -> list[KernelBenchResult]:
    """One :func:`bench_kernels` sweep per backend × dtype.

    ``backends=None`` sweeps every registered backend
    (:data:`repro.backend.BACKEND_NAMES`).
    """
    from repro.backend import BACKEND_NAMES

    names = list(backends) if backends is not None else list(BACKEND_NAMES)
    return [bench_kernels(layout, mixture, grid, bcs, config, q,
                          backend=name, precision=prec, **kwargs)
            for name in names for prec in precisions]
