"""Tuning plans, case signatures, host fingerprints, and cache keys.

A :class:`TuningPlan` is one point in the execution-choice space the
registry spans: kernel fusion, the backend, the gang width, and the
tile-count override (it also names the sweep layout knob, whose two
values plan one schedule).  Every registered
combination is bitwise identical in results; a plan only moves time.

Plans are cached per ``(case signature, host fingerprint, registry
version)``: the signature captures what the *problem* looks like (grid
shape, variable count, order, solver, dtype), the fingerprint what the
*host* looks like (cores, catalog cache geometry, numpy version) — the
same case on a different machine, or the same machine after a numpy
upgrade, re-tunes instead of replaying a stale plan.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.acc.gang import plan_gang_width, usable_cores
from repro.backend import precision_dtype, resolve_backend, validate_backend
from repro.common import DTYPE, ConfigurationError
from repro.common.checks import integer, optional
from repro.hardware.devices import default_host_device
from repro.solver.sweep import validate_fusion, validate_sweep_layout

#: Sources a plan can come from (how much to trust its timings).
PLAN_SOURCES = ("heuristic", "tuned", "cache", "manual")


@dataclass(frozen=True)
class TuningPlan:
    """One execution configuration of the RHS hot path.

    ``measured_ns`` is the plan's own benchmarked time per RHS
    evaluation; ``modeled_ns`` is the time of the model-heuristic
    default plan (unfused, configured layout, heuristic tiling)
    measured in the same tuning session — their ratio is the
    measured-vs-modeled delta the profiler report and bench records
    surface.  Both are ``None`` for plans that were never timed
    (heuristic fallbacks, hand-written plans).
    """

    sweep_layout: str = "strided"
    #: Gang width: the width a tuned plan was measured at; ``None`` (a
    #: hand-written plan that does not say) leaves it to the driver.
    threads: int | None = None
    tiles: int | None = None
    #: Kernel-fusion knob (:data:`repro.solver.sweep.FUSION_MODES`).
    #: Plans serialized before the fusion axis existed load with the
    #: default ``"off"`` — but never silently: the derived registry
    #: version already invalidates every pre-fusion cache entry.
    fusion: str = "off"
    #: Execution backend the plan runs on.  A tuner axis, but gated:
    #: only backends whose results match the reference output bit for
    #: bit may win (see :meth:`repro.tuning.Autotuner.measure`).
    backend: str = "numpy"
    source: str = "heuristic"
    measured_ns: float | None = None
    modeled_ns: float | None = None

    def __post_init__(self) -> None:
        validate_sweep_layout(self.sweep_layout)
        validate_fusion(self.fusion)
        validate_backend(self.backend)
        plan_gang_width(self.threads, tiles=0)  # validates
        optional(integer(1))("plan tiles", self.tiles)
        if self.source not in PLAN_SOURCES:
            raise ConfigurationError(
                f"plan source must be one of {PLAN_SOURCES}, "
                f"got {self.source!r}")

    # ------------------------------------------------------------------
    def speedup_vs_modeled(self) -> float | None:
        """Measured-over-modeled speedup (>1 means the tuner won)."""
        if not self.measured_ns or not self.modeled_ns:
            return None
        return self.modeled_ns / self.measured_ns

    def summary(self) -> str:
        """One line for profiler reports and CLI output."""
        tiles = f" tiles={self.tiles}" if self.tiles is not None else ""
        fusion = f" fusion={self.fusion}" if self.fusion != "off" else ""
        backend = (f" backend={self.backend}"
                   if self.backend != "numpy" else "")
        line = (f"tuning ({self.source}): layout={self.sweep_layout} "
                f"threads={self.threads or 'planned'}{tiles}{fusion}{backend}")
        if self.measured_ns is not None:
            line += f"; measured {self.measured_ns / 1e6:.2f} ms/RHS"
            speed = self.speedup_vs_modeled()
            if speed is not None:
                line += (f", {speed:.2f}x vs modeled heuristic "
                         f"({self.modeled_ns / 1e6:.2f} ms)")
        return line

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-serialisable representation (cache entry / bench record)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, spec: dict) -> "TuningPlan":
        """Rebuild a plan from :meth:`as_dict` output; strict on keys."""
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"tuning plan must be a mapping, got {type(spec).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown tuning plan key(s) {unknown}; "
                f"choose from {sorted(known)}")
        return cls(**spec)


def heuristic_plan(*, threads: int | None = None,
                   sweep_layout: str = "strided", fusion: str = "off",
                   backend: str = "numpy") -> TuningPlan:
    """The untimed model-heuristic plan.

    The caller's configured knobs, tiling left to the L2 heuristic —
    exactly what a run without the tuner does.  Used whenever tuning is
    off, the cache is corrupt, or measurement is impossible.
    """
    return TuningPlan(sweep_layout=sweep_layout, threads=threads,
                      fusion=fusion, backend=backend, source="heuristic")


def resolve_plan(options, layout, mixture, grid, bcs, config, q,
                 batch: int | None = None):
    """Resolve ``options`` into what a driver runs: ``(options, plan,
    tuner)``.

    The one reading of the ``tuning`` knob, shared by the single-case
    and the batched driver.  The returned options carry the resolved
    backend and the plan's layout, fusion, backend and gang width (a
    plan without one leaves ``threads`` as configured); the plan's
    ``tiles`` is the one axis left for the RHS.  ``plan`` is None with
    tuning off, a hand-picked plan as is, and with ``"auto"`` the
    :class:`~repro.tuning.Autotuner`'s (the third element, else None) —
    keyed by the run's precision, backend and, for a stacked state
    ``q``, its ``batch`` width, so no two of them share a cache entry.
    """
    plan = tuner = None
    if isinstance(options.tuning, TuningPlan):
        plan = options.tuning
    elif options.tuning == "auto":
        # The tuner benchmarks RHS objects, which sit above this module
        # in the package graph.
        from repro.tuning.autotune import Autotuner, TuningCache

        tuner = Autotuner(cache=TuningCache(options.tuning_cache))
        plan = tuner.plan_for(
            layout, mixture, grid, bcs, config, q, threads=options.threads,
            sweep_layout=options.sweep_layout,
            dtype=precision_dtype(options.precision), batch=batch,
            backend=resolve_backend(options.backend).name)
    if plan is not None:
        options = replace(
            options, sweep_layout=plan.sweep_layout, fusion=plan.fusion,
            backend=plan.backend, threads=(options.threads if plan.threads
                                           is None else plan.threads))
    return replace(options, backend=resolve_backend(options.backend)), \
        plan, tuner


# ----------------------------------------------------------------------
def case_signature(layout, grid, config, dtype=DTYPE, *,
                   batch: int | None = None,
                   backend: str = "numpy",
                   threads: int | None = None) -> dict:
    """What the problem looks like, for cache keying.

    ``batch`` is the ensemble batch width.  It enters the signature
    only when set, so single-case keys are unchanged from earlier
    registry generations — but a batched plan can never silently reuse
    (or poison) a single-case plan, because a stacked RHS has a
    different slab geometry and therefore different winning knobs.
    """
    sig = {
        "grid": list(grid.shape),
        "nvars": layout.nvars,
        "weno_order": config.weno_order,
        "riemann_solver": config.riemann_solver,
        "dtype": str(np.dtype(dtype)),
    }
    if batch is not None:
        sig["batch"] = int(batch)
    if threads is not None:
        # An explicit width pins every candidate; a planned one follows
        # the fingerprint's usable cores.
        sig["threads"] = int(threads)
    if backend != "numpy":
        # Non-default backends key separately; default keys stay stable
        # across registry generations.
        sig["backend"] = backend
    return sig


def host_fingerprint(device=None) -> dict:
    """What the host looks like, for cache keying.

    Cache geometry comes from the device catalog entry the tile and
    layout heuristics consult (the default host device unless the run
    pinned one), so a plan tuned against one cache model never leaks
    onto another.
    """
    dev = device if device is not None else default_host_device()
    return {
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": usable_cores(),
        "numpy": np.__version__,
        "device": dev.name,
        "l2_bytes": dev.l2_bytes,
        "cores": dev.cores,
    }


def plan_cache_key(signature: dict, fingerprint: dict) -> str:
    """Deterministic cache key: signature + fingerprint + registry version."""
    import hashlib

    from repro.tuning.registry import REGISTRY_VERSION

    payload = json.dumps(
        {"signature": signature, "host": fingerprint,
         "registry": REGISTRY_VERSION},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
