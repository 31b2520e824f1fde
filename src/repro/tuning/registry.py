"""Kernel-variant registry: the choice axes the autotuner enumerates.

The paper's biggest wins came from choosing the right kernel
implementation for the hardware at hand — Fypp-inlined vs
subroutine-call WENO (§III.E), directive-loop vs vendor-library
transposes (§III.D), compile-time-sized private arrays on CCE.  Those
were compile-time choices; here they are first-run-time choices over
*registered, interchangeable, bitwise-identical* implementations:

* WENO kernels: :data:`repro.weno.WENO_VARIANTS` (``chained`` /
  ``stacked``),
* Riemann kernels: :data:`repro.riemann.RIEMANN_VARIANTS`
  (``reference`` / ``fused``),
* sweep memory layout: ``strided`` / ``transposed`` / ``auto``,
* per-launch tile count of the gang backend (the gang *width* is not
  an axis: every candidate runs at the configured or planned width).

:data:`REGISTRY_VERSION` is baked into every tuning-cache key: it is
*derived* from the registered variant sets themselves, so adding or
removing a variant (a new WENO kernel, a new fusion mode) changes the
version automatically and invalidates stale cached plans instead of
silently replaying a winner chosen from a smaller search space.
"""

from __future__ import annotations

import hashlib

from repro.backend import BACKEND_NAMES
from repro.riemann import RIEMANN_VARIANTS
from repro.solver.sweep import FUSION_MODES, SWEEP_LAYOUTS
from repro.weno import WENO_VARIANTS


def _derive_registry_version() -> str:
    """Fingerprint of the registered variant axes.

    Any change to the choice space — new kernel variant, new sweep
    layout, new fusion mode — yields a new version string, so every
    cached plan tuned against the old space misses and re-tunes.
    """
    axes = [
        "weno:" + ",".join(WENO_VARIANTS),
        "riemann:" + ",".join(RIEMANN_VARIANTS),
        "layout:" + ",".join(SWEEP_LAYOUTS),
        "fusion:" + ",".join(FUSION_MODES),
        "backend:" + ",".join(BACKEND_NAMES),
    ]
    digest = hashlib.sha256(";".join(axes).encode()).hexdigest()[:12]
    return f"2:{digest}"


#: Derived from the variant axes (see :func:`_derive_registry_version`);
#: part of every cache key.  Caches written before the fusion axis
#: existed carried the literal version ``1`` and therefore always miss.
REGISTRY_VERSION = _derive_registry_version()


def candidate_plans(*, ndim: int, cpu_count: int,
                    threads: int | None = None,
                    sweep_layout: str = "auto",
                    backends: tuple = ("numpy",)) -> list[dict]:
    """The cross-product of execution plans the autotuner benchmarks.

    Parameters
    ----------
    ndim:
        Spatial dimensionality (1D has no non-contiguous direction, so
        the transposed layout is never a candidate there).
    cpu_count:
        Usable cores: the widest gang a planned candidate can resolve
        to, which sizes the explicit tile counts tried.
    threads / sweep_layout:
        The caller's configured values.  Every candidate carries
        ``threads`` unchanged (an explicit width pins it, ``None`` is
        planned by each candidate's RHS); the configured layout is
        always a candidate, so the tuner can only improve on (never
        silently discard) an explicit configuration.
    backends:
        Backend names to enumerate (the configured backend first).
        Candidates on non-default backends run the reference kernel
        pair only — the backend axis asks "where", the variant axes ask
        "how", and the cross product of both explodes the search space
        for no information (variant choice is backend-independent).

    Returns plan dicts with keys ``weno_variant``, ``riemann_variant``,
    ``sweep_layout``, ``threads``, ``tiles``, ``fusion``; the first
    entry is always the model-heuristic default plan (chained/reference
    unfused at the configured threads and layout), whose measured time
    becomes the tuned plan's ``modeled_ns`` reference point.
    """
    layouts = [sweep_layout]
    if ndim > 1:
        layouts += [m for m in ("strided", "transposed") if m != sweep_layout]
    elif sweep_layout != "strided":
        layouts.append("strided")
    workers = threads if threads is not None else max(1, cpu_count)
    # Serial sweeps take the heuristic slab count, which is checked
    # against measured tile sweeps for staged and fused sweeps alike
    # (EXPERIMENTS.md "Tile sweep"); a gang also tries one and two
    # slabs per member.
    tile_counts = [None] if workers == 1 else [None, workers, 2 * workers]

    primary = backends[0] if backends else "numpy"
    plans = [{"weno_variant": "chained", "riemann_variant": "reference",
              "sweep_layout": sweep_layout, "threads": threads,
              "tiles": None, "fusion": "off", "backend": primary}]
    for backend in dict.fromkeys(backends):
        if backend == primary:
            continue
        plan = dict(plans[0], backend=backend)
        if plan not in plans:
            plans.append(plan)
    for wv in WENO_VARIANTS:
        for rv in RIEMANN_VARIANTS:
            for mode in layouts:
                # "auto" adds no distinct behaviour here (the tuner's
                # candidates always run the workspace path), so the
                # fusion axis is binary.
                for fusion in ("off", "on"):
                    for tiles in tile_counts:
                        plan = {"weno_variant": wv, "riemann_variant": rv,
                                "sweep_layout": mode, "threads": threads,
                                "tiles": tiles, "fusion": fusion,
                                "backend": primary}
                        if plan not in plans:
                            plans.append(plan)
    return plans
