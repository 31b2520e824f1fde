"""The direction sweep: one slab schedule, and the layout planning for it.

One body (:meth:`SweepEngine.sweep`) runs every workspace execution
mode of a direction sweep — ``pack → faces(span) → [scatter] →
divergence`` over slab tiles cut on the first spatial axis perpendicular
to the reconstruction axis (the stage graph's slab-axis rule, see
:func:`repro.acc.fusion.plan_fusion`).  The modes are parameters of
that body, not copies of it:

=============  =======================  =====================  ==========
mode           what a tile runs         ghost source           face span
=============  =======================  =====================  ==========
serial         the staged chain         physical BCs           whole
gang           same, on forked workers  physical BCs           whole
transposed     axis-last + scatter      physical BCs           whole
fused          one generated kernel     physical BCs (kernel)  whole
batched        any of the above         physical BCs           whole
rank-local     staged, or fused bulk    walls + transport      split
=============  =======================  =====================  ==========

Every mode plans N slab tiles (the ``tiles`` override, else the L2
heuristic; a batched engine's slab axis is the ensemble axis) and keeps
every pipeline intermediate in the calling worker's
:class:`~repro.solver.workspace.TileArena`, one tile wide and in one
memory order (the arena's layout rule), so every ufunc pass of every
mode is coalesced.  A rank-local engine packs its whole block once,
runs the ghost hook once, and cuts the phases around it into the same
tiles; the block the hook fills and the flux a split sweep carries
across it are block-sized, and a tile copies its part in or out — no
kernel pass reads or writes them.

Which directions sweep transposed is planned here too (paper §III.D):

``strided``
    Never transpose — every tile is a standard-order ``(nvars, x, y, z)``
    block and the kernels' axis-last operands are views of it (same
    memory order throughout: the inner loop runs along the trailing
    axis, the stencil reaches across rows of the cache-resident tile).
``transposed``
    Transpose every direction whose reconstruction axis is not already
    the trailing (contiguous) array axis.  (This repo packs C-order, so
    the *last* spatial axis is the coalesced one — the mirror image of
    the paper's Fortran layout, where x is contiguous and the y/z sweeps
    pay the strided penalty.)
``auto``
    Per-direction cost heuristic, informed by the device catalog: weigh
    the bytes the two physical transposes move against the bytes the
    strided inner loops would waste, and keep the strided layout when
    the whole padded sweep block fits in the device's per-core share of
    last-level cache (resident data makes strided passes cheap).

Every mode and layout is bitwise identical in results — each stage is
elementwise over faces and the slab axis is stencil-free in every stage,
so tiles, spans and layouts only move data.  The heuristic's constants
are deliberately coarse — the decision it must get right is "large sweep
block, strided axis" (transpose) vs "cache-resident block or
already-contiguous axis" (don't).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.acc.fusion import (
    FUSION_MODES,
    FusedKernelSpec,
    FusionContext,
    fused_kernel,
    kernel_signature,
    plan_fusion,
    select_backend,
    sweep_stage_graph,
    validate_fusion,
)
from repro.acc.gang import gang_share, tile_spans
from repro.backend import array_namespace
from repro.bc.boundary import fill_axis_ghosts
from repro.common import DTYPE, ConfigurationError, timed
from repro.fields.transpose import sweep_perm
from repro.hardware.devices import DeviceSpec, default_host_device
from repro.hardware.tiling import L2_OCCUPANCY, suggest_tile_count
from repro.riemann import resolve_riemann_flux
from repro.solver.positivity import limit_face_states
from repro.solver.workspace import TileArena
from repro.weno import halo_width, reconstruct_faces_span
from repro.weno.stacked import weno_passes_per_side

__all__ = ["FUSION_MODES", "SWEEP_LAYOUTS", "SweepEngine", "SweepPlan",
           "accumulate_divergence", "cache_budget_bytes",
           "plan_transposed_axes", "timed", "validate_fusion",
           "validate_sweep_layout"]

#: Valid values of the sweep-layout knob.
SWEEP_LAYOUTS = ("strided", "transposed", "auto")

#: Face-sized array passes of the in-place WENO kernels per sweep (both
#: sides) whose stencil operands are offset along the sweep axis rather
#: than the trailing one (``cells(offset)`` reads, moved-axis ``out``
#: writes).  Counted from ``_weno{3,5}_into``; order 1 is two plain
#: copies.  The ``auto`` waste model below prices each as a strided walk
#: of a block too large to cache; a tile pass is not one — its operands
#: share one memory order and the tile is cache-resident.
STRIDED_PASSES = {1: 4, 3: 34, 5: 70}

#: Cache-line size the waste model assumes (one strided element touch
#: of an uncached block drags a whole line through the hierarchy).
CACHE_LINE_BYTES = 128


def validate_sweep_layout(mode: str) -> str:
    """Validate and return a sweep-layout knob value."""
    if mode not in SWEEP_LAYOUTS:
        raise ConfigurationError(
            f"sweep layout must be one of {SWEEP_LAYOUTS}, got {mode!r}")
    return mode


def cache_budget_bytes(device: DeviceSpec) -> float:
    """Last-level-cache bytes one sweep may assume it owns on ``device``.

    GPUs share their L2 across the whole chip; CPUs share the catalog's
    L3 figure across cores, and a host sweep pipeline effectively runs
    per core — so the budget is the per-core share, scaled by the same
    occupancy margin the tile heuristic uses.
    """
    share = device.l2_bytes / (device.cores or 1)
    return share * L2_OCCUPANCY


def _transpose_wins(nvars: int, spatial: tuple[int, ...], d: int,
                    ng: int, order: int, device: DeviceSpec) -> bool:
    """The auto rule for one direction (reconstruction axis not last).

    A whole-sweep-block model that predates tiles: it weighs the two
    physical transposes against strided walks of the *uncached* padded
    block.  Tiled sweeps are coalesced and cache-resident in either
    layout, so what the rule decides today is only which copy a tile
    pays — a gather/scatter (transposed) or a plain pack (strided); the
    measured census is EXPERIMENTS.md "Coalesced tiles".
    """
    itemsize = np.dtype(DTYPE).itemsize
    cells = 1
    for extent in spatial:
        cells *= extent
    padded_cells = cells // spatial[d] * (spatial[d] + 2 * ng)
    face_cells = cells // spatial[d] * (spatial[d] + 1)

    # If the whole padded block is cache-resident, strided passes hit
    # the cache and transposing only adds traffic.
    if nvars * padded_cells * itemsize <= cache_budget_bytes(device):
        return False

    # Bytes the transposes move: gather the primitives in, scatter the
    # flux and the interface velocity back.
    bytes_moved = itemsize * (nvars * cells + nvars * face_cells + face_cells)

    # Bytes the strided inner loops waste: each strided element touch
    # drags a cache line of which only one element is used; the line is
    # dead by the time its neighbours come around (the block exceeds the
    # cache budget, per the test above).
    inner = 1
    for extent in spatial[d + 1:]:
        inner *= extent
    penalty = min(CACHE_LINE_BYTES // itemsize, max(1, inner))
    bytes_saved = (STRIDED_PASSES[order] * itemsize * nvars * face_cells
                   * (penalty - 1) / penalty)
    return bytes_saved > bytes_moved


def plan_transposed_axes(mode: str, nvars: int, spatial: tuple[int, ...],
                         weno_order: int,
                         device: DeviceSpec | None = None) -> frozenset[int]:
    """Directions the RHS should sweep in the axis-contiguous layout.

    Parameters
    ----------
    mode:
        The knob: ``"strided"``, ``"transposed"``, or ``"auto"``.
    nvars, spatial:
        Packed-field shape (variable count and spatial extents).
    weno_order:
        Reconstruction order (fixes the ghost width and the strided-pass
        count of the waste model).
    device:
        Catalog entry whose cache geometry informs ``auto``; defaults to
        :func:`repro.hardware.devices.default_host_device`.
    """
    validate_sweep_layout(mode)
    ndim = len(spatial)
    # The trailing spatial axis is already contiguous in C order: its
    # sweep never transposes, under any mode.
    candidates = [d for d in range(ndim) if d != ndim - 1]
    if mode == "strided" or not candidates:
        return frozenset()
    if mode == "transposed":
        return frozenset(candidates)
    ng = halo_width(weno_order)
    dev = device if device is not None else default_host_device()
    return frozenset(d for d in candidates
                     if _transpose_wins(nvars, spatial, d, ng, weno_order, dev))


# ----------------------------------------------------------------------
# The sweep engine
# ----------------------------------------------------------------------
#: Fewest elements a tile's face block may hold.  At and below this a
#: ufunc pass is dispatch-bound and more tiles only multiply the ~250
#: dispatches of a sweep: measured +12-15 % per step at ~16k elements
#: and +37-54 % at ~7k (EXPERIMENTS.md "Tile sweep").
MIN_PASS_ELEMENTS = 16384

def accumulate_divergence(faces, axis: int, width, scratch, acc, op: str) -> None:
    """``acc op= diff(faces, axis)/width`` without temporaries.

    ``op`` names the accumulating ufunc ("subtract"/"add") so it can be
    resolved against the arrays' own namespace.  Bitwise identical to
    ``np.diff``-based accumulation: the forward difference, the width
    division, and the in-place accumulate are the same three ufunc
    evaluations in the same order.
    """
    xp = array_namespace(faces, acc)
    xp.subtract(faces[_cut(1, None, axis)], faces[_cut(0, -1, axis)],
                out=scratch)
    xp.true_divide(scratch, width, out=scratch)
    getattr(xp, op)(acc, scratch, out=acc)


def _cut(lo, hi, axis: int) -> tuple:
    """Index selecting ``[lo, hi)`` on array ``axis`` (leading axes whole)."""
    return (slice(None),) * axis + (slice(lo, hi),)


@dataclass(frozen=True)
class SweepPlan:
    """How one direction sweeps — the parameters of the one slab body.

    Axis indices are *virtual* spatial axes (array axis minus one): a
    batched engine's axis 0 is the ensemble axis, which is never swept
    but is the slab axis of every sweep.
    """

    d: int  #: reconstruction direction
    kind: str  #: work layout, "strided" or "transposed" (axis-last)
    slab_axis: int | None  #: axis the tiles cut; None in 1D (one tile)
    tiles: int  #: slab tiles per sweep
    fused: bool  #: one generated kernel per tile replaces the stages


class SweepEngine:
    """Plans and runs the direction sweeps of one RHS on a workspace.

    ``shape`` is the physical spatial shape; ``batch`` prepends the
    ensemble axis.  ``ghosts(d, padded)``, when given, replaces the
    physical boundary fill: it must complete the ghost layers of the
    whole standard-layout padded block (a rank's wall fill + halo
    transport), so such an engine packs the whole block, runs the hook
    once, cuts only the phases around it into tiles, and fuses only
    from WENO on (``pack=False`` kernels, strided directions).

    Tile counts come from the ``tiles`` override, else the L2 heuristic:
    the fewest tiles that make what a tile keeps in flight (the
    arena's :attr:`TileArena.stage_nbytes` plus its rows of ``prim`` and
    ``dqdt``) fit one core's *share* of the last-level cache — a tile
    is touched by exactly one worker, and budgeting it against the
    whole device LLC degenerates to one field-sized tile on big-cache
    catalog entries — but never so many that a tile's face block drops
    below :data:`MIN_PASS_ELEMENTS`.  The count does not depend on the
    gang width (rounding 8 tiles up to 9 for three workers would cost
    more than the idle third share); only an *explicit* width asks for
    at least one tile per member (``workers``).
    """

    def __init__(self, layout, mixture, bcs, config, shape, *, counters,
                 sweep_layout: str = "strided", fused: bool = False,
                 weno_variant: str = "chained",
                 riemann_variant: str = "reference",
                 batch: int | None = None, workers: int = 1,
                 tiles: int | None = None, device: DeviceSpec | None = None,
                 dtype=DTYPE, stopwatch=None, ghosts=None) -> None:
        self.layout, self.mixture, self.bcs = layout, mixture, bcs
        self.counters, self.stopwatch = counters, stopwatch
        self.ghosts = ghosts
        self.order = order = config.weno_order
        self.ng = halo_width(order)
        self.weno_variant = weno_variant
        self.riemann = resolve_riemann_flux(config.riemann_solver,
                                            riemann_variant)
        #: Face-block ufunc passes both reconstruction sides of one
        #: sweep cost (tallied into the sweep counters).
        self.weno_passes = 2 * weno_passes_per_side(weno_variant, order)
        self.nb = nb = 0 if batch is None else 1
        spatial = tuple(shape) if batch is None else (batch, *shape)
        #: Virtual directions swept in the axis-last layout (planned on
        #: the physical shape: the batch axis is never a candidate).
        self.transposed_axes = frozenset(
            d + nb for d in plan_transposed_axes(
                sweep_layout, layout.nvars, tuple(shape), order,
                device=device))
        self.fusion_backend = select_backend(None) if fused else None
        self._ctx = FusionContext(layout, mixture, self.riemann)
        self._kernels: dict[int, tuple] = {}
        self.plans: dict[int, SweepPlan] = {}
        device = device if device is not None else default_host_device()
        pack = ghosts is None
        ndim = len(spatial)
        cells = int(np.prod(spatial))
        self._extent0 = spatial[0]
        for d in range(nb, ndim):
            kind = "transposed" if d in self.transposed_axes else "strided"
            region = plan_fusion(
                sweep_stage_graph(ndim=ndim, nvars=layout.nvars,
                                  spatial=spatial, d=d, order=order,
                                  pack=pack), d=d, ndim=ndim)
            # Kernels that do not pack exist for the strided layout only.
            fuse = fused and (pack or kind == "strided")
            if fuse:
                spec = FusedKernelSpec(
                    kind=kind, pack=pack, ndim=ndim, d=d, order=order,
                    weno_variant=weno_variant,
                    riemann_solver=config.riemann_solver,
                    riemann_variant=riemann_variant,
                    dtype=np.dtype(dtype).name, backend=self.fusion_backend,
                    batch=batch is not None)
                self._kernels[d] = (
                    fused_kernel(spec), kernel_signature(spec),
                    region.passes_saved_per_tile(weno_variant, order))
            extent = (1 if region.slab_axis is None
                      else spatial[region.slab_axis])
            if tiles is not None:
                n_tiles = max(1, min(tiles, extent))
            else:
                # What one slab row keeps in flight: a width-1 arena's
                # stage set (np.empty maps its pages, nothing touches
                # them) plus the row of prim read and of dqdt updated.
                row = TileArena(layout.nvars, spatial, self.ng, d, 1, dtype,
                                weno_variant, order,
                                transposed=kind == "transposed")
                row_elems = layout.nvars * cells // extent
                budget = dict(
                    bytes_per_slice=(row.stage_nbytes + 2 * row_elems
                                     * np.dtype(dtype).itemsize),
                    device=device,
                    occupancy=1.0 / max(1, device.cores or 1),
                    min_rows=-(-MIN_PASS_ELEMENTS // row_elems))
                n_tiles = max(suggest_tile_count(extent, 1, **budget),
                              min(workers, extent))
            self.plans[d] = SweepPlan(d, kind, region.slab_axis, n_tiles,
                                      fuse)

    @property
    def rows(self) -> list[tuple[int, int]]:
        """Spans of array axis 1 the step's elementwise passes loop over:
        the tiles of the sweeps cut on that axis (every direction's but
        the first in 2D/3D; one span in 1D, which has no slab axis)."""
        tiles = max((p.tiles for p in self.plans.values()
                     if p.slab_axis == 0), default=1)
        return tile_spans(self._extent0, tiles)

    # ------------------------------------------------------------------
    def sweep(self, ws, prim, d: int, width, dqdt, divu, *,
              split: bool = False,
              share: tuple[int, int] | None = None,
              before=None, after=None) -> int:
        """Accumulate direction ``d`` into ``dqdt``/``divu``.

        Returns the count of positivity-limited face states.  Virtual
        direction ``d`` sweeps array axis ``d + 1``; the physical
        direction (momentum component, BC axis) is ``d - nb``.

        ``split`` (ghost-hook engines) reconstructs the faces whose
        stencils touch no ghost cell *before* calling the hook and the
        ``ng`` faces at each end after it (once per block, not per
        tile: at ``ng`` faces a pass is pure dispatch), so the interior
        computes while the neighbours' strips land; spans partitioning
        the face range compose bitwise into the whole-range result, and
        ``reconstruct_faces_span(0, nf)`` is the bulk call.

        ``share=(rank, width)`` runs only that gang member's contiguous
        run of the tiles (:func:`~repro.acc.gang.gang_share`); the
        fields must then be the workspace's shared buffers.

        ``before(idx)`` / ``after(idx)`` run the step's elementwise work
        on a tile's own slab rows (``idx`` indexes them in every
        standard-layout field): ``before`` ahead of the tile's pack —
        the rows of ``prim`` it is about to read — and ``after`` once
        its divergence has landed in ``dqdt``/``divu``.  Both may carve
        :meth:`~repro.solver.workspace.SolverWorkspace.scratch`: no
        arena buffer is live around them.  (Hook engines take neither.)
        """
        layout, ng, sw, xp = self.layout, self.ng, self.stopwatch, ws.xp
        plan = self.plans[d]
        pd = d - self.nb
        lo_bc, hi_bc = self.bcs.per_axis[pd]
        n = prim.shape[d + 1]
        sa = plan.slab_axis
        extent = 1 if sa is None else prim.shape[sa + 1]
        n_tiles = min(plan.tiles, extent)
        w_max = -(-extent // n_tiles)
        transposed = plan.kind == "transposed"
        hook = self.ghosts is not None
        fused = plan.fused and not split
        if fused:
            kern, sig, passes_saved = self._kernels[d]
        # A ghost hook fills the whole standard-layout block, and the
        # flux of a split sweep crosses the hook: those outlive the
        # tiles, and meet each tile in one copy in and one copy out —
        # every kernel pass runs on the tile's own arena blocks.
        source = ws.padded[d] if hook else prim
        block = (ws.flux[d], ws.u_face[d]) if split else None
        if transposed:
            perm = sweep_perm(prim.ndim, d + 1)
            src = xp.transpose(source, perm)
            axis = prim.ndim - 1  # work-layout array axis reconstructed
        else:
            src, axis = source, d + 1
        interior = _cut(ng, ng + n, axis)

        def faces(scr, flo, fhi):
            # WENO -> limiter -> Riemann for faces [flo, fhi) of one tile.
            pad, vl, vr, wflux, wuface = scr.work
            fi = _cut(flo, fhi, axis)
            with timed(sw, "weno"):
                reconstruct_faces_span(pad, axis, self.order, flo, fhi,
                                       out=(vl, vr), scratch=scr.wscr,
                                       variant=self.weno_variant)
                limited = limit_face_states(
                    layout, self.mixture, pad[_cut(flo, None, axis)],
                    vl[fi], vr[fi], axis - 1, ng, scratch=scr.rscr)
            with timed(sw, "riemann"):
                self.riemann(layout, self.mixture, vl[fi], vr[fi], pd,
                             out=wflux[fi], out_u=wuface[fi[1:]],
                             scratch=scr.rscr.view(_cut(0, fhi - flo, axis)))
            return limited

        def slab(lo, hi, **phase):
            # Standard-layout index of this slab tile.
            std = () if sa is None else _cut(lo, hi, sa + 1)
            if before is not None:
                before(std)
            limited = tile(lo, hi, std, **phase)
            if after is not None:
                after(std)
            return limited

        def tile(lo, hi, std, spans=((0, n + 1),), finish=True):
            # The work-layout index of the slab is axis 1 of every
            # axis-last buffer.
            tile_src = src[_cut(lo, hi, 1) if transposed else std]
            dq, dv = dqdt[std], divu[std[1:]]
            scr = ws.tile_arena(d, w_max, transposed=transposed
                                ).narrow(hi - lo)
            pad = scr.work[0]
            with timed(sw, "packing"):
                if hook:
                    if spans:
                        pad[...] = tile_src
                elif not fused:  # a packing kernel fills its own tile
                    pad[interior] = tile_src
                    fill_axis_ghosts(pad, layout, axis - 1, ng, lo_bc, hi_bc,
                                     normal_direction=pd)
                if block and finish:  # the faces done around the hook
                    xp.copyto(scr.flux, block[0][std])
                    xp.copyto(scr.uface, block[1][std[1:]])

            if fused:
                # Arguments bind by name: what is not a tile operand
                # below is an arena buffer of the same name.
                bound = {"ctx": self._ctx, "prim": tile_src,
                         "tsrc": tile_src, "dqdt": dq, "divu": dv,
                         "width": width, "bc_lo": lo_bc, "bc_hi": hi_bc}
                with timed(sw, "fused"):
                    return kern(*(bound[k] if k in bound else getattr(scr, k)
                                  for k in sig))

            limited = sum(faces(scr, *span) for span in spans)
            if not finish:
                with timed(sw, "packing"):
                    xp.copyto(block[0][std], scr.flux)
                    xp.copyto(block[1][std[1:]], scr.uface)
                return limited
            if transposed:
                with timed(sw, "packing"):
                    xp.copyto(scr.flux_t, scr.tflux)
                    xp.copyto(scr.uface_t, scr.tuface)
            with timed(sw, "other"):
                # dq/dt += (F_{i-1/2} - F_{i+1/2}) / dx = -diff(F)/dx.
                accumulate_divergence(scr.flux, d + 1, width, scr.dscr, dq,
                                      "subtract")
                accumulate_divergence(scr.uface, d, width, scr.dvscr, dv,
                                      "add")
            return limited

        def end_strips():
            # The ng faces at each end of a split sweep, once per block:
            # an end's 3 ng - 1 padded cells are the padded block of an
            # (ng - 1)-cell sweep, run as one tile spanning the slab.
            scr, limited = ws.tile_arena(d, extent, strip=True), 0
            for f0 in (0, n - ng + 1):
                with timed(sw, "packing"):
                    scr.pad[...] = source[_cut(f0, f0 + 3 * ng - 1, axis)]
                limited += faces(scr, 0, ng)
                with timed(sw, "packing"):
                    xp.copyto(block[0][_cut(f0, f0 + ng, axis)], scr.flux)
                    xp.copyto(block[1][_cut(f0, f0 + ng, d)], scr.uface)
            return limited

        def launch(**phase):
            body = partial(slab, **phase)
            spans = tile_spans(extent, plan.tiles)
            if share is not None:
                spans = gang_share(spans, *share)
            return sum(body(lo, hi) for lo, hi in spans)

        if not hook:
            limited = launch()
        else:
            with timed(sw, "packing"):
                source[_cut(ng, ng + n, d + 1)] = prim
            # Faces whose stencils reach no ghost cell can run before
            # the hook completes the block.
            limited = (launch(spans=((ng, n - ng + 1),), finish=False)
                       if split else 0)
            self.ghosts(pd, source)
            limited += (end_strips() + launch(spans=()) if split
                        else launch())

        # Nominal (field-sized) byte tallies, the same in every mode:
        # both face states reconstructed; the primitives gathered and
        # the flux + interface velocity scattered when transposed.
        cells = int(np.prod(prim.shape[1:]))
        face_cells = cells // n * (n + 1)
        face_bytes = layout.nvars * face_cells * ws.dtype.itemsize
        if transposed:
            self.counters.record_transposed(
                2 * face_bytes,
                face_bytes + (layout.nvars * cells + face_cells)
                * ws.dtype.itemsize,
                weno_passes=self.weno_passes)
        else:
            self.counters.record_strided(
                2 * face_bytes, contiguous=(pd == layout.ndim - 1),
                weno_passes=self.weno_passes)
        if fused:
            self.counters.record_fused(n_tiles, n_tiles * passes_saved)
        return limited
