"""The direction sweep: one slab schedule, and the layout rule it runs on.

One body (:meth:`SweepEngine.sweep`) runs every workspace execution
mode of a direction sweep — ``pack → faces(span) → divergence`` over
slab tiles cut on the first spatial axis perpendicular to the
reconstruction axis (the stage graph's slab-axis rule, see
:func:`repro.acc.fusion.plan_fusion`).  The modes are parameters of
that body, not copies of it:

=============  =======================  ======================  ==========
mode           what a tile runs         ghost source            face span
=============  =======================  ======================  ==========
serial         the staged chain         physical BCs            active
gang           same, on forked workers  physical BCs            active
fused          one generated kernel     physical BCs (kernel)   whole
batched        either of the above      physical BCs            active
rank-local     either of the above      BCs + posted strips     active
=============  =======================  ======================  ==========

Every mode plans N slab tiles (the ``tiles`` override, else the L2
heuristic; a batched engine's slab axis is the ensemble axis) and keeps
every pipeline intermediate in the calling worker's
:class:`~repro.solver.workspace.TileArena`, one tile wide and in one
memory order (the arena's layout rule), so every ufunc pass of every
mode is coalesced.  A rank-local tile is a serial tile with another
ghost source: it packs its rows of ``prim``, fills the block's
global-edge sides with the physical BCs and copies its rows of each
neighbour's posted strip into the other sides (``halo``), and its fused
kernel starts after that pack (``pack=False``).

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

**Active spans** (DESIGN.md "Active spans"): a staged tile evaluates
only the faces :func:`active_faces` finds in its packed block — the
ones whose stencils are not bitwise uniform, widened by one face on
each side — and accumulates the divergence of the cells between them.
Everywhere else both faces of a cell would carry the same finite flux
and add exactly ``+0.0`` to accumulators that never hold ``-0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def active_faces(pad, axis: int, ng: int, spare, spare2) -> tuple[int, int]:
    """Faces ``[f0, f1)`` of a packed tile whose evaluation can move ``dq/dt``.

    Face ``f`` of ``pad`` (ghost-padded along ``axis``) reads the
    ``2 ng`` cells ``[f, f + 2 ng)`` in every variable and row.  One
    bitwise compare of neighbouring cells and one reduction over
    everything but ``axis`` bound the faces whose stencil is not
    uniform; the span is that bound widened by one face on each side
    (the cell beside the bound needs both its faces), and empty when
    every stencil is uniform.  The cells it leaves out run from an
    end of the block and equal its end cell, so finite end cells make
    them finite; a non-finite one there makes the span whole.
    ``spare`` / ``spare2`` are dead float buffers of the tile (the face
    states: each at least an eighth of ``pad``) whose bytes hold the
    compare and its reduction.
    """
    xp = array_namespace(pad)
    length = pad.shape[axis]
    nf = length - 2 * ng + 1
    lead = math.prod(pad.shape[:axis])
    cells = pad.reshape(lead, length, -1)
    bits = cells.view(f"i{pad.dtype.itemsize}")
    count = bits[:, 1:].size
    steps = xp.not_equal(bits[:, 1:], bits[:, :-1],
                         out=spare.reshape(-1).view(bool)[:count].reshape(
                             bits[:, 1:].shape))
    hit = xp.any(steps.reshape(lead, -1), axis=0,
                 out=spare2.reshape(-1).view(bool)[:count // lead])
    first = int(hit.argmax())
    if not hit[first]:  # no step anywhere: every stencil is uniform
        f0, f1 = nf, nf
    else:
        # Steps k0..k1 (cell k to k + 1) bound the non-uniform stencils:
        # faces k0 - 2 ng + 2 .. k1, widened by one on each side.
        last = hit.size - 1 - int(hit[::-1].argmax())
        k0, k1 = first // cells.shape[2], last // cells.shape[2]
        f0, f1 = max(0, k0 - 2 * ng + 1), min(nf, k1 + 2)
        if (f0, f1) == (0, nf):
            return f0, f1
    ends = cells[:, ::length - 1]
    finite = xp.isfinite(ends, out=spare.reshape(-1).view(bool)[:ends.size]
                         .reshape(ends.shape))
    return (f0, f1) if bool(finite.all()) else (0, nf)


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
    ensemble axis.  A ``halo`` engine (a rank's) takes some ghost layers
    from a neighbour's posted strip (:meth:`sweep`'s ``halo``), so its
    tiles always pack themselves and fuse only from WENO on
    (``pack=False`` kernels).

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
                 dtype=DTYPE, stopwatch=None, halo: bool = False) -> None:
        self.layout, self.mixture, self.bcs = layout, mixture, bcs
        self.counters, self.stopwatch = counters, stopwatch
        self.halo = halo
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
        #: ``(d, lo)`` of this process's tiles whose last active span
        #: was whole: they skip the search (more faces are always exact).
        self._whole: set[tuple[int, int]] = set()
        device = device if device is not None else default_host_device()
        pack = not halo
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
              halo=(None, None),
              share: tuple[int, int] | None = None,
              before=None, after=None) -> tuple[int, int]:
        """Accumulate direction ``d`` into ``dqdt``/``divu``.

        Returns the count of positivity-limited face states and of the
        faces this call's tiles left out (:func:`active_faces`; fused
        tiles evaluate all of theirs).  Virtual direction ``d`` sweeps
        array axis ``d + 1``; the physical direction (momentum
        component, BC axis) is ``d - nb``.

        ``halo=(lo, hi)`` names each side's ghost source: ``None`` takes
        the physical BC, an array is the ``ng`` rows a neighbour posted
        for that side (standard layout, block-wide across the other
        axes), of which every tile copies its own rows into its ghost
        layer (a ``halo`` engine's sweeps).

        ``share=(rank, width)`` runs only that gang member's share of
        the tiles (:func:`~repro.acc.gang.gang_share`); the fields must
        then be the workspace's shared buffers.

        ``before(idx)`` / ``after(idx)`` run the step's elementwise work
        on a tile's own slab rows (``idx`` indexes them in every
        standard-layout field): ``before`` ahead of the tile's pack —
        the rows of ``prim`` it is about to read — and ``after`` once
        its divergence has landed in ``dqdt``/``divu``.  Both may carve
        :meth:`~repro.solver.workspace.SolverWorkspace.scratch`: no
        arena buffer is live around them.
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
        fused = plan.fused
        if fused:
            kern, sig, passes_saved = self._kernels[d]
        # Standard-layout arrays meet the tile in its own axis order
        # (the arena layout rule) through views: ``axes`` for those with
        # the variable axis, ``spatial`` for those without it.
        axes = tile_axes(prim.ndim - 1, d)
        spatial = [k - 1 for k in axes[1:]]
        gathered = plan.kind == "gathered"
        axis = axes.index(d + 1)  # tile array axis reconstructed
        interior = _cut(ng, ng + n, axis)
        # A side with a posted strip takes no physical BC.
        walls = [None if strip is not None else bc
                 for strip, bc in zip(halo, (lo_bc, hi_bc))]
        strips = [(strip, ghost) for strip, ghost in
                  zip(halo, (_cut(0, ng, axis), _cut(n + ng, None, axis)))
                  if strip is not None]

        def tiled(a, order=axes):
            return xp.transpose(a, order) if gathered else a

        # The cell widths broadcast against the tile's spatial axes (a
        # batched engine's widths lack the leading ensemble axis).
        width = tiled(width.reshape((1,) * self.nb + width.shape), spatial)

        def slab(lo, hi):
            # Standard-layout index of this slab tile.
            std = () if sa is None else _cut(lo, hi, sa + 1)
            if before is not None:
                before(std)
            limited = tile(lo, std, hi - lo)
            if after is not None:
                after(std)
            return limited

        skipped = 0

        def tile(lo, std, rows):
            nonlocal skipped
            tile_src = tiled(prim[std])
            dq, dv = tiled(dqdt[std]), tiled(divu[std[1:]], spatial)
            scr = ws.tile_arena(d, w_max).narrow(rows)
            pad = scr.pad
            if self.halo or not fused:  # a pack=True kernel packs itself
                with timed(sw, "packing"):
                    pad[interior] = tile_src
                    fill_axis_ghosts(pad, layout, axis - 1, ng, *walls,
                                     normal_direction=pd)
                    for strip, ghost in strips:
                        pad[ghost] = tiled(strip[std])

            if fused:
                # Arguments bind by name: what is not a tile operand
                # below is an arena buffer of the same name.
                bound = {"ctx": self._ctx, "prim": tile_src, "dqdt": dq,
                         "divu": dv, "width": width, "bc_lo": lo_bc,
                         "bc_hi": hi_bc}
                with timed(sw, "fused"):
                    return kern(*(bound[k] if k in bound else getattr(scr, k)
                                  for k in sig))

            f0, f1 = 0, n + 1
            if (d, lo) not in self._whole:
                with timed(sw, "packing"):
                    f0, f1 = active_faces(pad, axis, ng, scr.vl, scr.vr)
                skipped += (n + 1 - (f1 - f0)) * (
                    pad.size // pad.shape[axis] // layout.nvars)
                if f0 == f1:
                    return 0
                if (f0, f1) == (0, n + 1):
                    self._whole.add((d, lo))
            # WENO -> limiter -> Riemann for faces [f0, f1), into the
            # span's own buffers (the arena when whole).
            s = scr.span(f1 - f0)
            span_pad = pad[_cut(f0, None, axis)]
            with timed(sw, "weno"):
                reconstruct_faces_span(span_pad, axis, self.order, 0, f1 - f0,
                                       out=(s.vl, s.vr), scratch=s.wscr)
                limited = limit_face_states(layout, self.mixture, span_pad,
                                            s.vl, s.vr, axis - 1, ng,
                                            scratch=s.rscr)
            with timed(sw, "riemann"):
                self.riemann(layout, self.mixture, s.vl, s.vr, pd,
                             out=s.flux, out_u=s.uface, scratch=s.rscr)
            with timed(sw, "other"):
                # dq/dt += (F_{i-1/2} - F_{i+1/2}) / dx = -diff(F)/dx,
                # over the cells between the span's faces.
                cells = _cut(f0, f1 - 1, axis)
                w = width[cells[1:]]
                accumulate_divergence(s.flux, axis, w, s.dscr, dq[cells],
                                      "subtract")
                accumulate_divergence(s.uface, axis - 1, w, s.dvscr,
                                      dv[cells[1:]], "add")
            return limited

        spans = tile_spans(extent, plan.tiles)
        if share is not None:
            spans = gang_share(spans, *share)
        limited = sum(slab(lo, hi) for lo, hi in spans)

        # Nominal (field-sized) tallies, the same in every mode: both
        # face states reconstructed at every face, and the primitives
        # gathered into the trailing direction's tiles.
        cells = int(np.prod(prim.shape[1:]))
        face_cells = cells // n * (n + 1)
        face_bytes = layout.nvars * face_cells * ws.dtype.itemsize
        if gathered:
            self.counters.record_transposed(
                2 * face_bytes, layout.nvars * cells * ws.dtype.itemsize,
                weno_passes=self.weno_passes, faces=face_cells)
        else:
            self.counters.record_strided(
                2 * face_bytes, contiguous=(pd == layout.ndim - 1),
                weno_passes=self.weno_passes, faces=face_cells)
        if fused:
            self.counters.record_fused(n_tiles, n_tiles * passes_saved)
        return limited, skipped
