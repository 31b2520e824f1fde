"""Compile-and-cache layer for the fused sweep kernels.

``compile()``-ing and ``exec``-ing a generated kernel is cheap but not
free, and the tuner may probe many (layout, order, variant, backend)
combinations in one process — so compiled kernels are cached per
:class:`~repro.acc.fusion.codegen.FusedKernelSpec`.  The spec carries
no tile or grid extents (the source is shape-generic), so a 4-tile and
a 7-tile split of the same sweep, or two grids of different size, hit
the same cache entry.

Kernels are compiled when the engine is built, before any gang worker
is forked, so every worker inherits the compiled function objects.
"""

from __future__ import annotations

from repro.acc.fusion.backends import select_backend
from repro.acc.fusion.codegen import (
    FusedKernelSpec,
    exec_namespace,
    generate_source,
)


def _compile(spec: FusedKernelSpec):
    source = generate_source(spec)
    ns = exec_namespace()
    if spec.backend == "numexpr":
        import numexpr

        ns["ne"] = numexpr
    code = compile(source, f"<fused:{spec.kind}:d{spec.d}:o{spec.order}>",
                   "exec")
    exec(code, ns)
    fn = ns["fused_sweep"]
    if spec.backend == "numba":
        import numba

        # Object mode keeps every array op on the identical NumPy ufuncs
        # (bitwise-safe); only the interpreter overhead of the
        # straight-line body is compiled away.
        fn = numba.jit(forceobj=True)(fn)
    return fn, source


class FusedKernelCache:
    """Process-wide cache of compiled fused kernels, keyed by spec."""

    def __init__(self) -> None:
        self._kernels: dict[FusedKernelSpec, object] = {}
        self._sources: dict[FusedKernelSpec, str] = {}
        self.hits = 0
        self.misses = 0

    def get(self, spec: FusedKernelSpec):
        """The compiled kernel for ``spec``, compiling at most once."""
        select_backend(spec.backend)  # reject unavailable backends early
        fn = self._kernels.get(spec)
        if fn is not None:
            self.hits += 1
            return fn
        self.misses += 1
        fn, source = _compile(spec)
        self._kernels[spec] = fn
        self._sources[spec] = source
        return fn

    def source(self, spec: FusedKernelSpec) -> str:
        """The generated source of ``spec`` (compiling if needed)."""
        self.get(spec)
        return self._sources[spec]

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "kernels": len(self._kernels)}

    def clear(self) -> None:
        self._kernels.clear()
        self._sources.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide kernel cache every RHS instance shares.
KERNEL_CACHE = FusedKernelCache()


def fused_kernel(spec: FusedKernelSpec):
    """Module-level convenience: compile/fetch ``spec`` from the cache."""
    return KERNEL_CACHE.get(spec)
