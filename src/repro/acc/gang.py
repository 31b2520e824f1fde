"""Real gang parallelism: thread-tiled execution of directive specs.

The rest of :mod:`repro.acc` *models* what ``parallel loop gang vector
collapse(n)`` would cost on a simulated device; this module *executes*
one on the host.  It extends the paper's §III.C gang/vector → hardware
mapping one row down to shared-memory Python:

===============  =========================  ==============================
OpenACC axis     GPU realisation (paper)    host realisation (here)
===============  =========================  ==============================
``gang``         thread block               contiguous tile on a pool thread
``vector``       SIMT lane                  NumPy SIMD inside the tile
``seq``          serial per thread          serial per tile
===============  =========================  ==============================

A :class:`GangExecutor` partitions the outermost (slowest-varying) axis
of an iteration space into contiguous tiles and runs one tile body per
worker thread.  NumPy releases the GIL inside its ufunc inner loops, so
tiles over large arrays genuinely overlap on multicore hosts; the
modeled-cost path (:mod:`repro.acc.runtime`) is untouched and keeps
pricing the same directives on simulated devices.

Determinism contract
--------------------
A tile body may *read* anywhere (halo-overlapped reads are expected) but
must *write* only to slices owned by its ``[lo, hi)`` span.  Under that
contract :meth:`GangExecutor.launch` is bitwise identical to running the
tiles serially in span order, because the elementwise NumPy kernels used
by the solver produce each output element from the same inputs with the
same operation order regardless of the slab extent (the same argument
that keeps this repo's distributed decompositions bitwise equal to
serial runs).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait as _wait_futures
from typing import Callable, Sequence

from repro.acc.directives import ParallelLoopNest
from repro.acc.launch import derive_launch
from repro.common import ConfigurationError


def tile_spans(extent: int, tiles: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` spans covering ``range(extent)``.

    The first ``extent % tiles`` spans are one element longer, so uneven
    extents (interior not divisible by the tile count) stay balanced to
    within one row.  ``tiles`` is clamped to ``extent``; an empty extent
    yields no spans.
    """
    if extent < 0:
        raise ConfigurationError(f"extent must be non-negative, got {extent}")
    if tiles < 1:
        raise ConfigurationError(f"tile count must be >= 1, got {tiles}")
    if extent == 0:
        return []
    tiles = min(tiles, extent)
    base, extra = divmod(extent, tiles)
    spans: list[tuple[int, int]] = []
    lo = 0
    for i in range(tiles):
        hi = lo + base + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


class GangExecutor:
    """Thread pool that realizes gang-partitioned loop specs as tile launches.

    Parameters
    ----------
    threads:
        Worker count.  ``threads=1`` is the serial contract: every launch
        runs inline on the calling thread, no pool is ever created, and
        there is zero executor overhead beyond the bounds bookkeeping.

    The pool itself is created lazily on the first genuinely parallel
    launch, so constructing an executor (e.g. from config plumbing) costs
    nothing.
    """

    def __init__(self, threads: int = 1) -> None:
        if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
            raise ConfigurationError(
                f"threads must be a positive integer, got {threads!r}")
        self.threads = threads
        self._pool: ThreadPoolExecutor | None = None
        #: Every :meth:`plan_tiles` decision (extent, resolved gangs,
        #: chosen tile count, working-set bytes, device) — the profiler
        #: report surfaces these so tuned-vs-heuristic tiling is
        #: comparable post-hoc.
        self.tile_plans: list[dict] = []

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether launches may use more than the calling thread."""
        return self.threads > 1

    def gangs_for(self, nest: ParallelLoopNest, extent: int) -> int:
        """Thread tiles a gang-partitioned nest maps to for ``extent`` rows.

        The gang axis of the resolved launch configuration becomes the
        tile axis (capped by the worker count and the row extent); the
        vector axis stays NumPy SIMD inside each tile.  A ``seq``-only
        nest resolves to a single gang and therefore a serial launch.
        """
        cfg = derive_launch(nest)
        return max(1, min(self.threads, cfg.num_gangs, extent))

    def plan_tiles(self, nest: ParallelLoopNest, extent: int, *,
                   bytes_per_slice: int = 0,
                   device=None, occupancy: float | None = None,
                   min_rows: int = 1) -> int:
        """Tile count for a gang nest over ``extent`` rows, L2-refined.

        Composes :meth:`gangs_for` (the directive → gang resolution)
        with :func:`repro.hardware.tiling.suggest_tile_count` (grow the
        tile count in worker multiples until one tile's working set fits
        ``occupancy`` of the device's last-level cache — the module
        default when omitted).  Sweep pipelines call this once per tiled
        extent — the strided and transposed layouts tile different axes,
        so their extents differ.
        """
        from repro.hardware.tiling import L2_OCCUPANCY, suggest_tile_count

        gangs = self.gangs_for(nest, extent)
        tiles = suggest_tile_count(
            extent, gangs, bytes_per_slice=bytes_per_slice, device=device,
            occupancy=L2_OCCUPANCY if occupancy is None else occupancy,
            min_rows=min_rows)
        self.tile_plans.append({
            "extent": extent,
            "gangs": gangs,
            "tiles": tiles,
            "bytes_per_slice": bytes_per_slice,
            "device": getattr(device, "name", device),
        })
        return tiles

    def tile_plan_summary(self) -> str:
        """One-line summary of the recorded tile-plan decisions."""
        if not self.tile_plans:
            return f"tiles: no planned launches ({self.threads} workers)"
        parts = [f"extent {p['extent']} -> {p['tiles']} tiles "
                 f"({p['gangs']} gangs)" for p in self.tile_plans]
        return f"tiles ({self.threads} workers): " + "; ".join(parts)

    # ------------------------------------------------------------------
    def launch(self, body: Callable[[int, int], object], extent: int, *,
               tiles: int | None = None,
               nest: ParallelLoopNest | None = None) -> list:
        """Run ``body(lo, hi)`` over contiguous tiles of ``range(extent)``.

        ``tiles`` fixes the tile count; when omitted it is derived from
        ``nest`` (via :meth:`gangs_for`) or defaults to one tile per
        worker.  Returns the bodies' return values in span order (so
        per-tile statistics reduce deterministically).  If any tile
        raises, all tiles are still waited on — shared buffers are never
        abandoned mid-write — and the first error (in span order) is
        re-raised.
        """
        if tiles is None:
            tiles = (self.gangs_for(nest, extent) if nest is not None
                     else min(self.threads, max(extent, 1)))
        spans = tile_spans(extent, tiles)
        if len(spans) <= 1 or not self.parallel:
            return [body(lo, hi) for lo, hi in spans]
        pool = self._ensure_pool()
        futures = [pool.submit(body, lo, hi) for lo, hi in spans]
        _wait_futures(futures)
        for f in futures:
            exc = f.exception()
            if exc is not None:
                raise exc
        return [f.result() for f in futures]

    def run(self, thunks: Sequence[Callable[[], object]]) -> list:
        """Run independent zero-argument tasks, one per worker slot."""
        if len(thunks) <= 1 or not self.parallel:
            return [t() for t in thunks]
        pool = self._ensure_pool()
        futures = [pool.submit(t) for t in thunks]
        _wait_futures(futures)
        for f in futures:
            exc = f.exception()
            if exc is not None:
                raise exc
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.threads, thread_name_prefix="gang")
        return self._pool

    def shutdown(self) -> None:
        """Join and discard the worker pool (recreated lazily if reused)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "GangExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
