"""Directive-graph walk that plans the fusable sweep region.

The RHS emits one conceptual ``parallel loop`` nest per pipeline stage
(pad → WENO → positivity limit → Riemann → divergence accumulate).  On
the GPU, the paper fuses that chain by Fypp-inlining the WENO/Riemann
subroutines into a single kernel so no stage spills a field-sized
temporary (PAPER.md §III); PSyclone's transformation scripts do the same
by walking the schedule tree and applying kernel-fusion transforms.

This module is the host-side analog of that *planning* step: it builds
the stage graph for one direction sweep (each stage a
:class:`StageNode` carrying its :class:`~repro.acc.directives.ParallelLoopNest`
and its read/write stencil footprint), checks the chain is legally
fusable, and picks the slab axis along which tiles of the fused kernel
may be cut — any spatial axis on which *no* stage's stencil reaches
across a tile boundary.  The code generator
(:mod:`repro.acc.fusion.codegen`) then stitches the stage expressions
into one straight-line kernel per tile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acc.directives import Clause, LoopDirective, ParallelLoopNest
from repro.common import ConfigurationError
from repro.weno import halo_width, weno_passes_per_side

#: Valid values of the kernel-fusion knob.  ``"off"`` keeps the
#: stage-at-a-time pipeline, ``"on"`` requires the fused per-tile
#: kernels (workspace mandatory), ``"auto"`` enables them whenever the
#: workspace path is active.
FUSION_MODES = ("auto", "off", "on")


def validate_fusion(mode: str) -> str:
    """Validate and return a kernel-fusion knob value."""
    if mode not in FUSION_MODES:
        raise ConfigurationError(
            f"fusion must be one of {FUSION_MODES}, got {mode!r}")
    return mode


#: Halo-radius marker for a stage that reads the whole axis (the ghost
#: fill's periodic wrap): the axis can never be a slab axis.
GLOBAL_HALO = "global"

#: Whole-array ufunc passes the fused region's non-WENO stages make over
#: face/field-sized operands per sweep: ghost pack (1), positivity limit
#: (~2 mask passes), Riemann decompositions + flux assembly (~10), and
#: the two divergence accumulates (3 each) — minus the passes the
#: unfused engine also keeps in registers.  Used for the
#: ``fused_passes_saved`` counter; a modeled figure, deliberately
#: coarse, pinned only for stability.
NONWENO_PIPELINE_PASSES = 10


class FusionError(ConfigurationError):
    """A stage chain that cannot legally be fused."""


@dataclass(frozen=True)
class StageNode:
    """One pipeline stage of a direction sweep, as a directive nest.

    ``halo`` maps spatial-axis index to the stencil radius the stage
    reads beyond each output element along that axis (``GLOBAL_HALO``
    when it may read the entire axis, as the periodic ghost fill does).
    Axes not listed have radius zero — the fusability condition for
    cutting tiles across them.
    """

    name: str
    nest: ParallelLoopNest
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    halo: tuple[tuple[int, object], ...] = ()

    def halo_radius(self, axis: int):
        for a, r in self.halo:
            if a == axis:
                return r
        return 0


@dataclass(frozen=True)
class FusedRegion:
    """A legally fusable stage chain plus its chosen slab axis.

    ``slab_axis`` is the spatial axis tiles of the fused kernel are cut
    along (``None`` for 1D sweeps, where the single tile is the whole
    field); it is always perpendicular to the reconstruction axis, so a
    tile owns its complete stencil along ``d`` and the fused kernel
    needs no inter-tile barriers.
    """

    stages: tuple[StageNode, ...]
    slab_axis: int | None
    d: int
    ndim: int

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def passes_saved_per_tile(self, order: int) -> int:
        """Field-sized intermediate passes one fused tile launch avoids.

        Every pipeline pass between the region's first and last stage
        would have written a field-sized intermediate in the unfused
        engine; fused, all but the final accumulate stay in tile-sized
        scratch.
        """
        weno = 2 * weno_passes_per_side(order)
        return weno + NONWENO_PIPELINE_PASSES - 1


def _stage_nest(spatial: tuple[int, ...], nvars: int) -> ParallelLoopNest:
    """The ``parallel loop gang vector collapse(ndim)`` nest of one stage."""
    # Four names cover batched 3D sweeps, whose virtual iteration space
    # carries a leading ensemble axis ahead of (x, y, z).
    names = (("b", "x", "y", "z") if len(spatial) > 3 else ("x", "y", "z"))
    loops = [LoopDirective(names[0], spatial[0],
                           frozenset({Clause.GANG, Clause.VECTOR}),
                           collapse=len(spatial))]
    loops += [LoopDirective(names[k], spatial[k])
              for k in range(1, len(spatial))]
    loops.append(LoopDirective("v", nvars, frozenset({Clause.SEQ})))
    return ParallelLoopNest(tuple(loops))


def sweep_stage_graph(*, ndim: int, nvars: int, spatial: tuple[int, ...],
                      d: int, order: int,
                      pack: bool = True) -> tuple[StageNode, ...]:
    """The stage graph of one direction sweep along spatial axis ``d``.

    ``pack=False`` models the rank-local solvers of distributed runs,
    where the ghost fill happens outside the fused region (the halo
    transport writes the padded block before the kernel runs): the
    pack/fill stage — the only one with a global-halo read along ``d``
    — is excluded, so the remaining chain has purely local stencils.
    """
    if not 0 <= d < ndim:
        raise FusionError(f"direction {d} outside {ndim} dims")
    ng = halo_width(order)
    nest = _stage_nest(spatial, nvars)
    stages = []
    if pack:
        # The ghost fill may wrap periodically: a global read along d.
        stages.append(StageNode("pack", nest, ("prim",), ("padded",),
                                ((d, GLOBAL_HALO),)))
    stages.append(StageNode("weno", nest, ("padded",),
                            ("face_l", "face_r"), ((d, ng),)))
    stages.append(StageNode("limit", nest, ("padded", "face_l", "face_r"),
                            ("face_l", "face_r"), ((d, ng),)))
    stages.append(StageNode("riemann", nest, ("face_l", "face_r"),
                            ("flux", "u_face"), ()))
    stages.append(StageNode("divergence", nest, ("flux", "u_face"),
                            ("dqdt", "divu"), ((d, 1),)))
    return tuple(stages)


def plan_fusion(stages: tuple[StageNode, ...], *, d: int,
                ndim: int) -> FusedRegion:
    """Group a stage chain into one fusable region and pick its slab axis.

    Legality (the PSyclone-style dependence check):

    1. **Producer/consumer chaining** — every array a stage reads is
       either an external input of the region or was written by an
       earlier stage; a read of a name written only *later* would make
       straight-line fusion reorder a dependence.
    2. **Slab-axis locality** — the chosen tile axis must have stencil
       radius zero in *every* stage, so a tile's outputs depend only on
       the tile's own slab of inputs and tiles compose bitwise into the
       unfused result.

    The slab axis is the first spatial axis (in natural order) other
    than the reconstruction axis satisfying rule 2; 1D sweeps have no
    perpendicular axis and fuse as a single whole-field tile.
    """
    if not stages:
        raise FusionError("empty stage chain")
    produced: set[str] = set()
    external: set[str] = set()
    for stage in stages:
        for name in stage.reads:
            if name not in produced:
                external.add(name)
        produced.update(stage.writes)
    # Rule 1: an "external" input that some stage writes means a stage
    # read the name before its producer ran.
    for name in sorted(external & produced):
        raise FusionError(
            f"stage chain reads {name!r} before the stage that writes it; "
            f"the region cannot be fused into straight-line code")

    candidates = [a for a in range(ndim) if a != d]
    slab_axis = None
    for a in candidates:
        if all(stage.halo_radius(a) == 0 for stage in stages):
            slab_axis = a
            break
    if ndim > 1 and slab_axis is None:
        raise FusionError(
            "no spatial axis is stencil-free in every stage; the fused "
            "kernel has no legal tile decomposition")
    return FusedRegion(tuple(stages), slab_axis, d, ndim)
