"""Per-kernel time accounting, the analog of nsight-compute / rocprof
summaries the paper's §V breakdowns are built from.

A :class:`Profile` accumulates :class:`KernelRecord` entries (modeled or
wall-clock seconds) and produces the derived quantities the paper
reports: percentage-of-runtime breakdowns by kernel family (Fig. 6),
absolute grind-time breakdowns (Fig. 7), and roofline placements
(Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import ConfigurationError
from repro.hardware.devices import DeviceSpec
from repro.hardware.roofline import RooflinePoint


@dataclass
class KernelRecord:
    """Accumulated statistics of one kernel."""

    name: str
    kernel_class: str
    seconds: float = 0.0
    flops: float = 0.0
    bytes: float = 0.0
    launches: int = 0

    def merge(self, seconds: float, flops: float, nbytes: float) -> None:
        self.seconds += seconds
        self.flops += flops
        self.bytes += nbytes
        self.launches += 1

    @property
    def intensity(self) -> float:
        if self.bytes <= 0.0:
            raise ConfigurationError(f"kernel {self.name!r} recorded no bytes")
        return self.flops / self.bytes

    @property
    def achieved_gflops(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.flops / self.seconds / 1e9


@dataclass
class Profile:
    """A collection of kernel records plus whole-run metadata.

    ``sweep`` optionally attaches a
    :class:`~repro.profiling.counters.SweepCounters` instance (the
    layout engine's measured data-movement tallies) so reports show the
    strided-vs-contiguous picture next to the kernel times; ``halo``
    attaches a cluster run's merged
    :class:`~repro.profiling.counters.HaloCounters` (messages, bytes,
    time spent waiting on a peer) the same way; ``recovery``
    likewise attaches a simulation's
    :class:`~repro.solver.resilience.RecoveryCounters` so reports show
    what the resilience machinery did (retries, rollbacks, checkpoints).
    ``tiling`` attaches an :meth:`RHS.tile_plan` dict (chosen tile
    counts + the resolved gang width and why) and ``tuning`` a
    :class:`~repro.tuning.TuningPlan`, so tuned-vs-heuristic execution
    choices are visible next to the kernel times.
    """

    device_name: str = "unknown"
    records: dict[str, KernelRecord] = field(default_factory=dict)
    sweep: object | None = None
    halo: object | None = None
    recovery: object | None = None
    tiling: dict | None = None
    tuning: object | None = None

    def record(self, name: str, kernel_class: str, seconds: float,
               flops: float = 0.0, nbytes: float = 0.0) -> None:
        rec = self.records.get(name)
        if rec is None:
            rec = KernelRecord(name, kernel_class)
            self.records[name] = rec
        elif rec.kernel_class != kernel_class:
            raise ConfigurationError(
                f"kernel {name!r} re-recorded with class {kernel_class!r} "
                f"(was {rec.kernel_class!r})")
        rec.merge(seconds, flops, nbytes)

    # -- aggregate views ------------------------------------------------------
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records.values())

    def class_seconds(self) -> dict[str, float]:
        """Seconds per kernel family ("weno", "riemann", "pack", "other")."""
        out: dict[str, float] = {}
        for r in self.records.values():
            out[r.kernel_class] = out.get(r.kernel_class, 0.0) + r.seconds
        return out

    def class_fractions(self) -> dict[str, float]:
        """Fraction of total time per kernel family (the Fig. 6 rows)."""
        total = self.total_seconds()
        if total <= 0.0:
            return {}
        return {k: v / total for k, v in self.class_seconds().items()}

    def grind_time_ns(self, *, cells: int, pdes: int, rhs_evals: int) -> float:
        """Nanoseconds per grid cell, PDE, and RHS evaluation (paper metric)."""
        work = cells * pdes * rhs_evals
        if work <= 0:
            raise ConfigurationError("cells, pdes, and rhs_evals must be positive")
        return self.total_seconds() / work * 1e9

    def roofline_points(self, device: DeviceSpec,
                        kernels: tuple[str, ...] | None = None) -> list[RooflinePoint]:
        """Roofline placement of (selected) kernels for Fig. 1."""
        pts = []
        for name, rec in self.records.items():
            if kernels is not None and name not in kernels:
                continue
            if rec.flops <= 0.0:
                continue
            pts.append(RooflinePoint(kernel=name, device=device,
                                     intensity=rec.intensity,
                                     achieved_gflops=rec.achieved_gflops))
        return pts

    # -- presentation ----------------------------------------------------------
    def report(self) -> str:
        """Plain-text summary table, longest kernels first."""
        total = self.total_seconds()
        lines = [f"profile on {self.device_name}: {total * 1e3:.3f} ms total",
                 f"{'kernel':<28} {'class':<8} {'ms':>10} {'%':>6} {'launches':>9}"]
        for rec in sorted(self.records.values(), key=lambda r: -r.seconds):
            pct = 100.0 * rec.seconds / total if total > 0 else 0.0
            lines.append(f"{rec.name:<28} {rec.kernel_class:<8} "
                         f"{rec.seconds * 1e3:>10.3f} {pct:>6.1f} {rec.launches:>9}")
        if self.sweep is not None:
            lines.append(self.sweep.summary())
        if self.halo is not None:
            lines.append(self.halo.summary())
        if self.recovery is not None and self.recovery.any():
            lines.append(self.recovery.summary())
        if self.tiling is not None and self.tiling.get("directions"):
            t = self.tiling
            parts = ", ".join(
                f"d{p['d']}: {p['tiles']} {p['kind']}"
                f"{' fused' if p['fused'] else ''} tiles"
                for p in t["directions"])
            lines.append(f"tiling ({t.get('source', 'heuristic')}): {parts}"
                         f"; gang {t.get('gang', '1')}")
        if self.tuning is not None:
            lines.append(self.tuning.summary())
        return "\n".join(lines)
