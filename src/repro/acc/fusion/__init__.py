"""Directive-graph kernel fusion compiler (paper §III-C's Fypp inlining).

The GPU build of MFC fuses its pad → WENO → Riemann → divergence stage
chain into single kernels by Fypp-inlining the subroutine bodies inside
one ``parallel loop`` region, so no stage round-trips a field-sized
intermediate through device memory.  This package is the host-side
analog, structured like a small transformation-script compiler
(PSyclone-style):

:mod:`~repro.acc.fusion.graph`
    walks the :class:`~repro.acc.directives.ParallelLoopNest` stage
    graph of one sweep, proves the chain fusable, and picks the slab
    axis tiles are cut along;
:mod:`~repro.acc.fusion.codegen`
    renders the fused region as one straight-line shape-generic NumPy
    kernel over the sweep's tile-sized arena
    (:class:`repro.solver.workspace.TileArena`, which the staged chain
    shares);
:mod:`~repro.acc.fusion.cache`
    compiles each distinct kernel spec exactly once per process.

All fused kernels are bit-for-bit identical to the reference RHS; the
fusion knob (``FUSION_MODES``) is a tuner axis like the sweep layout.
Nothing here imports the :mod:`repro.solver` drivers: the sweep engine
(:mod:`repro.solver.sweep`) imports this package, never the reverse.
"""

from repro.acc.fusion.cache import KERNEL_CACHE, FusedKernelCache, fused_kernel
from repro.acc.fusion.codegen import (
    FUSED_KINDS,
    FUSION_MODES,
    FusedKernelSpec,
    FusionContext,
    exec_namespace,
    generate_source,
    kernel_signature,
    make_context,
    validate_fusion,
)
from repro.acc.fusion.graph import (
    GLOBAL_HALO,
    NONWENO_PIPELINE_PASSES,
    FusedRegion,
    FusionError,
    StageNode,
    plan_fusion,
    sweep_stage_graph,
)

__all__ = [
    "FUSION_MODES",
    "FUSED_KINDS",
    "GLOBAL_HALO",
    "NONWENO_PIPELINE_PASSES",
    "FusedKernelCache",
    "FusedKernelSpec",
    "FusedRegion",
    "FusionContext",
    "FusionError",
    "KERNEL_CACHE",
    "StageNode",
    "exec_namespace",
    "fused_kernel",
    "generate_source",
    "kernel_signature",
    "make_context",
    "plan_fusion",
    "sweep_stage_graph",
    "validate_fusion",
]
