"""The direction sweep: one slab schedule, and the layout rule it runs on.

One body (:meth:`SweepEngine.sweep`) runs every workspace execution
mode of a direction sweep — ``pack → faces(span) → divergence`` over
slab tiles cut on the first spatial axis perpendicular to the
reconstruction axis (the stage graph's slab-axis rule, see
:func:`repro.acc.fusion.plan_fusion`).  The modes are parameters of
that body, not copies of it:

=============  =======================  =====================  ==========
mode           what a tile runs         ghost source           face span
=============  =======================  =====================  ==========
serial         the staged chain         physical BCs           whole
gang           same, on forked workers  physical BCs           whole
fused          one generated kernel     physical BCs (kernel)  whole
batched        either of the above      physical BCs           whole
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

**Layout rule** (paper §III.D; :func:`~repro.solver.workspace.tile_axes`):
a tile never reconstructs along its innermost axis, where NumPy cannot
coalesce the shifted stencil views.  Every direction but the trailing
one meets that in standard ``(nvars, x, y, z)`` order and packs a plain
slab; the trailing direction's pack is one transposing copy — a
*gather* — into a tile whose reconstruction axis comes first among the
spatial axes, and its divergence accumulates back into ``dqdt``/
``divu`` through a view of the same order.  (This repo packs C-order,
so the *last* spatial axis is the contiguous one — the mirror image of
the paper's Fortran layout.)  The ``sweep_layout`` knob's two values
plan this one schedule.

Every mode is bitwise identical in results — each stage is elementwise
over faces and the slab axis is stencil-free in every stage, so tiles,
spans and memory orders only move data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.acc.fusion.graph import (
    FUSION_MODES,
    plan_fusion,
    sweep_stage_graph,
    validate_fusion,
)
from repro.acc.gang import gang_share, tile_spans
from repro.backend import array_namespace
from repro.bc.boundary import fill_axis_ghosts
from repro.common import DTYPE, ConfigurationError, timed
from repro.hardware.devices import DeviceSpec, default_host_device
from repro.hardware.tiling import suggest_tile_count
from repro.riemann import resolve_riemann_flux
from repro.solver.positivity import limit_face_states
from repro.solver.workspace import TileArena, tile_axes
from repro.weno import halo_width, reconstruct_faces_span, weno_passes_per_side

__all__ = ["FUSION_MODES", "SWEEP_LAYOUTS", "SweepEngine", "SweepPlan",
           "accumulate_divergence", "timed", "validate_fusion",
           "validate_sweep_layout"]

#: Valid values of the sweep-layout knob.  Both plan the one schedule of
#: the layout rule (see the module docstring).
SWEEP_LAYOUTS = ("strided", "transposed")


def validate_sweep_layout(mode: str) -> str:
    """Validate and return a sweep-layout knob value."""
    if mode not in SWEEP_LAYOUTS:
        raise ConfigurationError(
            f"sweep layout must be one of {SWEEP_LAYOUTS}, got {mode!r}")
    return mode


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
    kind: str  #: "slab" (standard order) or "gathered" (axis first)
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
    from WENO on (``pack=False`` kernels).

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
                 fused: bool = False,
                 batch: int | None = None, workers: int = 1,
                 tiles: int | None = None, device: DeviceSpec | None = None,
                 dtype=DTYPE, stopwatch=None, ghosts=None) -> None:
        self.layout, self.mixture, self.bcs = layout, mixture, bcs
        self.counters, self.stopwatch = counters, stopwatch
        self.ghosts = ghosts
        self.order = order = config.weno_order
        self.ng = halo_width(order)
        self.riemann = resolve_riemann_flux(config.riemann_solver)
        #: Face-block ufunc passes both reconstruction sides of one
        #: sweep cost (tallied into the sweep counters).
        self.weno_passes = 2 * weno_passes_per_side(order)
        self.nb = nb = 0 if batch is None else 1
        spatial = tuple(shape) if batch is None else (batch, *shape)
        self._ctx = None
        self._kernels: dict[int, tuple] = {}
        self.plans: dict[int, SweepPlan] = {}
        device = device if device is not None else default_host_device()
        pack = ghosts is None
        ndim = len(spatial)
        cells = int(np.prod(spatial))
        self._extent0 = spatial[0]
        for d in range(nb, ndim):
            gathered = tile_axes(ndim, d) != tuple(range(ndim + 1))
            region = plan_fusion(
                sweep_stage_graph(ndim=ndim, nvars=layout.nvars,
                                  spatial=spatial, d=d, order=order,
                                  pack=pack), d=d, ndim=ndim)
            if fused:
                # The generator loads only when a sweep fuses.
                from repro.acc.fusion.cache import fused_kernel
                from repro.acc.fusion.codegen import (
                    FusedKernelSpec,
                    FusionContext,
                    kernel_signature,
                )

                if self._ctx is None:
                    self._ctx = FusionContext(layout, mixture, self.riemann)
                spec = FusedKernelSpec(
                    kind="strided", pack=pack, ndim=ndim, d=d, order=order,
                    riemann_solver=config.riemann_solver,
                    dtype=np.dtype(dtype).name, batch=batch is not None)
                self._kernels[d] = (
                    fused_kernel(spec), kernel_signature(spec),
                    region.passes_saved_per_tile(order))
            extent = (1 if region.slab_axis is None
                      else spatial[region.slab_axis])
            if tiles is not None:
                n_tiles = max(1, min(tiles, extent))
            else:
                # What one slab row keeps in flight: a width-1 arena's
                # stage set (np.empty maps its pages, nothing touches
                # them) plus the row of prim read and of dqdt updated.
                row = TileArena(layout.nvars, spatial, self.ng, d, 1, dtype)
                row_elems = layout.nvars * cells // extent
                budget = dict(
                    bytes_per_slice=(row.stage_nbytes + 2 * row_elems
                                     * np.dtype(dtype).itemsize),
                    device=device,
                    occupancy=1.0 / max(1, device.cores or 1),
                    min_rows=-(-MIN_PASS_ELEMENTS // row_elems))
                n_tiles = max(suggest_tile_count(extent, 1, **budget),
                              min(workers, extent))
            self.plans[d] = SweepPlan(
                d, "gathered" if gathered else "slab", region.slab_axis,
                n_tiles, fused)

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
        # Standard-layout arrays meet the tile in its own axis order
        # (the arena layout rule) through views: ``axes`` for those with
        # the variable axis, ``spatial`` for those without it.
        axes = tile_axes(prim.ndim - 1, d)
        spatial = [k - 1 for k in axes[1:]]
        gathered = plan.kind == "gathered"
        axis = axes.index(d + 1)  # tile array axis reconstructed
        interior = _cut(ng, ng + n, axis)

        def tiled(a, order=axes):
            return xp.transpose(a, order) if gathered else a

        # The cell widths broadcast against the tile's spatial axes (a
        # batched engine's widths lack the leading ensemble axis).
        width = tiled(width.reshape((1,) * self.nb + width.shape), spatial)

        def faces(scr, flo, fhi):
            # WENO -> limiter -> Riemann for faces [flo, fhi) of one tile.
            pad, vl, vr = scr.pad, scr.vl, scr.vr
            fi = _cut(flo, fhi, axis)
            with timed(sw, "weno"):
                reconstruct_faces_span(pad, axis, self.order, flo, fhi,
                                       out=(vl, vr), scratch=scr.wscr)
                limited = limit_face_states(
                    layout, self.mixture, pad[_cut(flo, None, axis)],
                    vl[fi], vr[fi], axis - 1, ng, scratch=scr.rscr)
            with timed(sw, "riemann"):
                self.riemann(layout, self.mixture, vl[fi], vr[fi], pd,
                             out=scr.flux[fi], out_u=scr.uface[fi[1:]],
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
            tile_src = tiled(source[std])
            dq, dv = tiled(dqdt[std]), tiled(divu[std[1:]], spatial)
            flux, uface = ((tiled(block[0][std]),
                            tiled(block[1][std[1:]], spatial))
                           if block else (None, None))
            scr = ws.tile_arena(d, w_max).narrow(hi - lo)
            pad = scr.pad
            with timed(sw, "packing"):
                if hook:
                    if spans:
                        pad[...] = tile_src
                elif not fused:  # a packing kernel fills its own tile
                    pad[interior] = tile_src
                    fill_axis_ghosts(pad, layout, axis - 1, ng, lo_bc, hi_bc,
                                     normal_direction=pd)
                if block and finish:  # the faces done around the hook
                    xp.copyto(scr.flux, flux)
                    xp.copyto(scr.uface, uface)

            if fused:
                # Arguments bind by name: what is not a tile operand
                # below is an arena buffer of the same name.
                bound = {"ctx": self._ctx, "prim": tile_src, "dqdt": dq,
                         "divu": dv, "width": width, "bc_lo": lo_bc,
                         "bc_hi": hi_bc}
                with timed(sw, "fused"):
                    return kern(*(bound[k] if k in bound else getattr(scr, k)
                                  for k in sig))

            limited = sum(faces(scr, *span) for span in spans)
            if not finish:
                with timed(sw, "packing"):
                    xp.copyto(flux, scr.flux)
                    xp.copyto(uface, scr.uface)
                return limited
            with timed(sw, "other"):
                # dq/dt += (F_{i-1/2} - F_{i+1/2}) / dx = -diff(F)/dx.
                accumulate_divergence(scr.flux, axis, width, scr.dscr, dq,
                                      "subtract")
                accumulate_divergence(scr.uface, axis - 1, width, scr.dvscr,
                                      dv, "add")
            return limited

        def end_strips():
            # The ng faces at each end of a split sweep, once per block:
            # an end's 3 ng - 1 padded cells are the padded block of an
            # (ng - 1)-cell sweep, run as one tile spanning the slab.
            scr, limited = ws.tile_arena(d, extent, strip=True), 0
            for f0 in (0, n - ng + 1):
                with timed(sw, "packing"):
                    scr.pad[...] = tiled(source[_cut(f0, f0 + 3 * ng - 1,
                                                     d + 1)])
                limited += faces(scr, 0, ng)
                with timed(sw, "packing"):
                    xp.copyto(tiled(block[0][_cut(f0, f0 + ng, d + 1)]),
                              scr.flux)
                    xp.copyto(tiled(block[1][_cut(f0, f0 + ng, d)], spatial),
                              scr.uface)
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
        # both face states reconstructed, and the primitives gathered
        # into the trailing direction's tiles.
        cells = int(np.prod(prim.shape[1:]))
        face_cells = cells // n * (n + 1)
        face_bytes = layout.nvars * face_cells * ws.dtype.itemsize
        if gathered:
            self.counters.record_transposed(
                2 * face_bytes, layout.nvars * cells * ws.dtype.itemsize,
                weno_passes=self.weno_passes)
        else:
            self.counters.record_strided(
                2 * face_bytes, contiguous=(pd == layout.ndim - 1),
                weno_passes=self.weno_passes)
        if fused:
            self.counters.record_fused(n_tiles, n_tiles * passes_saved)
        return limited
