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
Every export resolves on first access, so a staged run loads the
legality walk alone and the generator only when a sweep fuses.
"""

from repro.common.lazy import lazy_exports

#: Every export and the submodule it lives in (imported lazily).
_EXPORTS = {
    "KERNEL_CACHE": "cache", "FusedKernelCache": "cache",
    "fused_kernel": "cache",
    "FUSED_KINDS": "codegen", "FusedKernelSpec": "codegen",
    "FusionContext": "codegen", "exec_namespace": "codegen",
    "generate_source": "codegen", "kernel_signature": "codegen",
    "make_context": "codegen",
    "FUSION_MODES": "graph", "validate_fusion": "graph",
    "GLOBAL_HALO": "graph", "NONWENO_PIPELINE_PASSES": "graph",
    "FusedRegion": "graph", "FusionError": "graph", "StageNode": "graph",
    "plan_fusion": "graph", "sweep_stage_graph": "graph",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
