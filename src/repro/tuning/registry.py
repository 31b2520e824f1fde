"""Execution-choice registry: the axes the autotuner enumerates.

The paper's biggest wins came from choosing the right implementation
for the hardware at hand — directive-loop vs vendor-library transposes
(§III.D), fused vs staged kernels (§III.C).  Those were compile-time
choices; here they are first-run-time choices over *bitwise-identical*
executions of the one kernel source:

* kernel fusion: staged or fused per-tile kernels (on backends whose
  :attr:`~repro.backend.Backend.supports_fusion`),
* per-launch tile count of the gang backend (the gang *width* is not
  an axis: every candidate runs at the configured or planned width).

The sweep memory layout is not an axis either: both values of the
knob plan one schedule (the arena layout rule), so every candidate
carries the configured value and a cached plan naming either layout
runs the same sweeps.

:data:`REGISTRY_VERSION` is baked into every tuning-cache key: it is
*derived* from the registered axes themselves, so adding or removing a
choice (a new layout, a new fusion mode) changes the version
automatically and invalidates stale cached plans instead of silently
replaying a winner chosen from a different search space.
"""

from __future__ import annotations

import hashlib

from repro.backend import BACKEND_NAMES, resolve_backend
from repro.solver.sweep import FUSION_MODES, SWEEP_LAYOUTS


def _derive_registry_version() -> str:
    """Fingerprint of the registered choice axes.

    Any change to the choice space — new sweep layout, new fusion mode,
    new backend — yields a new version string, so every cached plan
    tuned against the old space misses and re-tunes.  (The layout
    knob's values stay in it: no longer searched, they plan one
    schedule, so plans cached before that still hit and still hold.)
    """
    axes = [
        "layout:" + ",".join(SWEEP_LAYOUTS),
        "fusion:" + ",".join(FUSION_MODES),
        "backend:" + ",".join(BACKEND_NAMES),
    ]
    digest = hashlib.sha256(";".join(axes).encode()).hexdigest()[:12]
    return f"2:{digest}"


#: Derived from the choice axes (see :func:`_derive_registry_version`);
#: part of every cache key.  Caches written before the fusion axis
#: existed carried the literal version ``1`` and therefore always miss.
REGISTRY_VERSION = _derive_registry_version()


def candidate_plans(*, ndim: int, cpu_count: int,
                    threads: int | None = None,
                    sweep_layout: str = "strided",
                    backends: tuple = ("numpy",)) -> list[dict]:
    """The cross-product of execution plans the autotuner benchmarks.

    Parameters
    ----------
    ndim:
        Spatial dimensionality (no axis depends on it).
    cpu_count:
        Usable cores: the widest gang a planned candidate can resolve
        to, which sizes the explicit tile counts tried.
    threads / sweep_layout:
        The caller's configured values.  Every candidate carries
        ``threads`` unchanged (an explicit width pins it, ``None`` is
        planned by each candidate's RHS); the configured layout rides
        along unchanged (both values plan the same sweeps).
    backends:
        Backend names to enumerate (the configured backend first).
        Candidates on the other backends run the heuristic plan only.
        Fusion candidates are offered only on a backend that supports
        fusion.

    Returns plan dicts with keys ``sweep_layout``, ``threads``,
    ``tiles``, ``fusion``, ``backend``; the first entry is always the
    model-heuristic default plan (unfused at the configured threads and
    layout), whose measured time becomes the tuned plan's
    ``modeled_ns`` reference point.
    """
    workers = threads if threads is not None else max(1, cpu_count)
    # Serial sweeps take the heuristic slab count, which is checked
    # against measured tile sweeps for staged and fused sweeps alike
    # (EXPERIMENTS.md "Tile sweep"); a gang also tries one and two
    # slabs per member.
    tile_counts = [None] if workers == 1 else [None, workers, 2 * workers]

    primary = backends[0] if backends else "numpy"
    fusions = (("off", "on") if resolve_backend(primary).supports_fusion
               else ("off",))
    plans = [{"sweep_layout": sweep_layout, "threads": threads,
              "tiles": None, "fusion": "off", "backend": primary}]
    for backend in dict.fromkeys(backends):
        if backend == primary:
            continue
        plan = dict(plans[0], backend=backend)
        if plan not in plans:
            plans.append(plan)
    # "auto" fusion adds no distinct behaviour here (the tuner's
    # candidates always run the workspace path), so the axis is binary.
    for fusion in fusions:
        for tiles in tile_counts:
            plan = {"sweep_layout": sweep_layout, "threads": threads,
                    "tiles": tiles, "fusion": fusion, "backend": primary}
            if plan not in plans:
                plans.append(plan)
    return plans
