"""Preallocated buffer arena for the solver hot path.

The paper's central optimization story is memory management: flattening
derived types, coalescing through transposes, and compile-time-sized
``private`` arrays all exist to keep MFC's two hottest kernels from
allocating or copying inside the time loop.  The NumPy analog of that
discipline is a workspace: every padded-primitive scratch field, face
state, flux buffer, divergence accumulator, and RK stage array is
allocated once per :class:`~repro.solver.rhs.RHS` lifetime and reused by
every subsequent step, so a steady-state step performs no new
large-array allocations.

All workspace-backed code paths are **bitwise identical** to the
allocating reference paths (same operations in the same order, only the
destination buffers differ); this is enforced by property tests.

Thread-ownership rule
---------------------
The arena is built for one RHS/RK pipeline, which may execute its tiles
on a :class:`~repro.acc.gang.GangExecutor` thread pool.  Buffers divide
into two ownership classes:

* **Shared, disjointly written** — ``prim``, ``dqdt``, ``divu``,
  ``padded``, ``face_l``/``face_r``, ``flux``, ``u_face``,
  ``div_scratch``/``divu_scratch``, and the RK stage buffers.
  Concurrent tiles may read them anywhere (halo-overlapped reads) but
  must write only inside their own tile span, so no synchronisation is
  needed beyond the launch barrier.
* **Serial-only scratch** — ``weno_scratch`` and ``riemann_scratch``
  are whole-array temporaries for the *serial* in-place kernels.  They
  are a data race the moment two threads enter ``_weno3_into``/
  ``_weno5_into`` or a Riemann solve concurrently; threaded tiles must
  instead take a private set from :meth:`SolverWorkspace.thread_scratch`,
  which allocates lazily per worker thread (and per direction) and is
  reused across that worker's subsequent tiles and steps.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np

from repro.backend import resolve_backend
from repro.common import DTYPE
from repro.fields.transpose import sweep_perm
from repro.grid.cartesian import StructuredGrid
from repro.riemann.common import RiemannScratch
from repro.state.layout import StateLayout
from repro.weno.stacked import (
    allocate_weno_scratch,
    narrow_scratch_rows,
    validate_weno_variant,
)

#: Number of scratch arrays the in-place chained WENO kernels need
#: (order-5 worst case: three candidate polynomials, three nonlinear
#: weights, two temporaries).  The stacked variant's differently-shaped
#: set comes from :func:`repro.weno.stacked.stacked_scratch_shapes`.
WENO_SCRATCH_COUNT = 8


class FusionScratch:
    """Tile-sized scratch arena of one fused sweep kernel.

    This is the fusion compiler's memory story: where the unfused
    pipeline spills field-sized padded/face/flux intermediates between
    stages, a fused kernel's intermediates live here, sized for one slab
    tile (``tile_width`` along the slab axis) so the whole pipeline's
    working set can stay L2-resident.  One arena belongs to one worker
    thread and one direction, mirroring the thread-ownership rule of
    :meth:`SolverWorkspace.thread_scratch`.

    ``transposed=True`` builds the axis-contiguous variant: the pipeline
    buffers in reconstruction-axis-last layout plus the small
    standard-layout face scratch the scatter and divergence stages use
    (with pre-permuted ``flux_t``/``uface_t`` views for the scatter).
    """

    def __init__(self, nvars: int, spatial: tuple[int, ...], ng: int,
                 d: int, tile_width: int, dtype,
                 weno_variant: str, weno_order: int,
                 transposed: bool = False, xp=np) -> None:
        ndim = len(spatial)
        shape = (nvars, *spatial)
        self.d = d
        self.transposed = transposed
        self.width_cap = tile_width
        self.weno_variant = weno_variant
        self.weno_order = weno_order
        self.xp = xp

        def new(s):
            return xp.empty(s, dtype=dtype)

        # Reconstruction-axis-last face shape (the WENO layout).
        last = ([nvars] + [spatial[k] for k in range(ndim) if k != d]
                + [spatial[d] + 1])
        if transposed:
            perm = sweep_perm(ndim + 1, d + 1)
            self.perm = perm
            #: Standard-layout array axis the slabs cut (axis 1 of every
            #: transposed buffer).
            self.tiled_axis = perm[1]
            w = min(tile_width, last[1])
            tface = list(last)
            tface[1] = w
            tpad = list(tface)
            tpad[-1] = spatial[d] + 2 * ng
            self.tpad = new(tpad)
            self.tvl = new(tface)
            self.tvr = new(tface)
            self.tflux = new(tface)
            self.tuface = new(tface[1:])
            self.wscr = allocate_weno_scratch(weno_variant, weno_order,
                                              tuple(tface), dtype, xp=xp)
            self.rscr = RiemannScratch(tuple(tface), dtype=dtype, xp=xp)
            fstd = list(shape)
            fstd[d + 1] += 1
            fstd[self.tiled_axis] = min(tile_width, fstd[self.tiled_axis])
            self.flux = new(fstd)
            self.uface = new(fstd[1:])
            dstd = list(shape)
            dstd[self.tiled_axis] = fstd[self.tiled_axis]
            self.dscr = new(dstd)
            self.dvscr = new(dstd[1:])
        else:
            #: Spatial slab axis of the strided fused kernels: the first
            #: spatial axis perpendicular to the reconstruction axis
            #: (None in 1D — the single tile is the whole field).
            self.slab_axis = None if ndim == 1 else (1 if d == 0 else 0)
            pshape = list(shape)
            pshape[d + 1] += 2 * ng
            fshape = list(shape)
            fshape[d + 1] += 1
            wlast = list(last)
            if self.slab_axis is not None:
                w = min(tile_width, spatial[self.slab_axis])
                pshape[self.slab_axis + 1] = w
                fshape[self.slab_axis + 1] = w
                wlast[1] = w  # the slab is axis 1 of every axis-last shape
            self.pad = new(pshape)
            self.vl = new(fshape)
            self.vr = new(fshape)
            self.flux = new(fshape)
            self.uface = new(fshape[1:])
            self.wscr = allocate_weno_scratch(weno_variant, weno_order,
                                              tuple(wlast), dtype, xp=xp)
            self.rscr = RiemannScratch(tuple(fshape), dtype=dtype, xp=xp)
            dshape = list(shape)
            if self.slab_axis is not None:
                dshape[self.slab_axis + 1] = w
            self.dscr = new(dshape)
            self.dvscr = new(dshape[1:])

    def narrow(self, count: int):
        """Views of the arena narrowed to a ``count``-wide slab tile.

        The last tile of an uneven split is narrower than the
        allocation; narrowing is pure slicing, so a re-narrowed arena
        aliases the same memory and stays cached across tiles and steps.
        """
        if self.transposed:
            wscr = narrow_scratch_rows(self.wscr, self.weno_variant,
                                       self.weno_order, count)
            t = (slice(None), slice(0, count))
            std = [slice(None)] * self.flux.ndim
            std[self.tiled_axis] = slice(0, count)
            std = tuple(std)
            flux = self.flux[std]
            uface = self.uface[std[1:]]
            return SimpleNamespace(
                tpad=self.tpad[t], tvl=self.tvl[t], tvr=self.tvr[t],
                tflux=self.tflux[t], tuface=self.tuface[:count],
                flux=flux, uface=uface,
                flux_t=self.xp.transpose(flux, self.perm),
                uface_t=self.xp.transpose(uface,
                                          tuple(p - 1 for p in self.perm[1:])),
                wscr=wscr, rscr=self.rscr.view(t),
                dscr=self.dscr[std], dvscr=self.dvscr[std[1:]])
        if self.slab_axis is None:
            return self  # 1D: the single tile is the full arena
        wscr = narrow_scratch_rows(self.wscr, self.weno_variant,
                                   self.weno_order, count)
        ci = (slice(None),) * (self.slab_axis + 1) + (slice(0, count),)
        si = ci[1:]
        return SimpleNamespace(
            pad=self.pad[ci], vl=self.vl[ci], vr=self.vr[ci],
            flux=self.flux[ci], uface=self.uface[si],
            wscr=wscr, rscr=self.rscr.view(ci),
            dscr=self.dscr[ci], dvscr=self.dvscr[si])

    def _arrays(self):
        if self.transposed:
            yield from (self.tpad, self.tvl, self.tvr, self.tflux,
                        self.tuface)
        else:
            yield from (self.pad, self.vl, self.vr)
        yield from (self.flux, self.uface, self.dscr, self.dvscr)
        yield from self.wscr
        for name in RiemannScratch.__slots__:
            yield getattr(self.rscr, name)


class SolverWorkspace:
    """Reusable buffers for one RHS/RK pipeline on a fixed grid.

    Parameters
    ----------
    layout:
        State layout (fixes the variable count).
    grid:
        Structured grid (fixes the spatial shape).
    ng:
        Ghost width of the reconstruction (from
        :func:`repro.weno.halo_width`).

    Attributes
    ----------
    prim:
        Primitive-field buffer shared by the driver's dt computation and
        the RHS (one ``cons_to_prim`` per RHS evaluation).
    dqdt, divu:
        RHS accumulators (conservative tendency, face-velocity
        divergence).
    padded, face_l, face_r, flux, u_face:
        Per-direction scratch: ghost-padded primitives, reconstructed
        left/right face states, Riemann flux, and interface velocity.
    t_padded, t_face_l, t_face_r, t_flux, t_u_face, t_riemann_scratch:
        The same pipeline buffers in the axis-contiguous transposed
        layout (reconstruction axis last), allocated only for the
        directions in ``transposed_axes`` and reused every step.
    weno_scratch:
        Per-direction tuples of scratch arrays (reconstruction axis
        last) for the in-place WENO kernels.
    div_scratch, divu_scratch:
        Flux-divergence temporaries.
    rk_stage, rk_result, rk_tmp:
        Shu-Osher stage buffers; ``rk_result`` holds the step output and
        is safely reusable as the next step's input.
    rollback:
        Pre-step snapshot of the conserved state for the driver's
        failure guard: the guarded step copies ``q`` here before
        advancing and restores from it on a failed validation, so
        rollback-retry performs zero steady-state allocations.  Written
        only by the (serial) driver, never by kernels.
    """

    def __init__(self, layout: StateLayout, grid: StructuredGrid, ng: int,
                 dtype=DTYPE, transposed_axes: frozenset[int] | tuple = (),
                 weno_variant: str = "chained",
                 weno_order: int | None = None,
                 fusion: bool = False,
                 batch: int | None = None,
                 backend=None) -> None:
        nvars = layout.nvars
        #: The execution backend this arena allocates on; its namespace
        #: (``xp``) is what every kernel resolves from the buffers.
        self.backend = resolve_backend(backend)
        self.xp = self.backend.xp
        if batch is not None and (not isinstance(batch, int)
                                  or isinstance(batch, bool) or batch < 1):
            raise ValueError(
                f"batch must be a positive integer or None, got {batch!r}")
        #: Ensemble batch width, or ``None`` for a single-case arena.
        #: Batched arenas are shaped for the stacked state
        #: ``(nvars, batch, *grid.shape)`` — the batch axis behaves as a
        #: leading *virtual spatial axis* that is never swept, so every
        #: per-direction buffer list carries a placeholder at index 0 to
        #: keep virtual-direction indexing aligned.
        self.batch = batch
        self._nb = 0 if batch is None else 1
        spatial = grid.shape if batch is None else (batch, *grid.shape)
        ndim = len(spatial)
        self.shape = (nvars, *spatial)
        self.dtype = np.dtype(dtype)
        #: Fused-kernel mode: the per-direction field-sized pipeline
        #: buffers (padded/face/flux/divergence scratch and the ``t_*``
        #: transposed set) are *not* allocated — fused kernels keep
        #: those intermediates in tile-sized :class:`FusionScratch`
        #: arenas instead, which is the fusion compiler's memory win.
        self.fusion = bool(fusion)
        self._ng = ng
        self._spatial = tuple(spatial)
        self._nvars = nvars
        #: WENO kernel variant the scratch sets are shaped for (the
        #: stacked variant's candidate-stacked/extended buffers differ
        #: from the chained kernels' homogeneous 8-array set).
        self.weno_variant = validate_weno_variant(weno_variant)
        if self.weno_variant != "chained" and weno_order is None:
            raise ValueError(
                "weno_order is required for non-chained WENO scratch")
        self.weno_order = weno_order if weno_order is not None else 0
        #: Directions the sweep engine runs in the axis-contiguous
        #: transposed layout; fixes which ``t_*`` buffers exist.
        self.transposed_axes = frozenset(transposed_axes)

        def new(shape):
            return self.xp.empty(shape, dtype=self.dtype)

        # Field-sized buffers.
        self.prim = new(self.shape)
        self.dqdt = new(self.shape)
        self.divu = new(spatial)
        if not self.fusion:
            self.div_scratch = new(self.shape)
            self.divu_scratch = new(spatial)

        # SSP-RK stage buffers (two alternating stages + result + temp).
        self.rk_stage = (new(self.shape), new(self.shape))
        self.rk_result = new(self.shape)
        self.rk_tmp = new(self.shape)

        # Failure-guard rollback snapshot (driver-owned).
        self.rollback = new(self.shape)

        # Per-direction pipeline buffers.
        self.padded: list[np.ndarray] = []
        self.face_l: list[np.ndarray] = []
        self.face_r: list[np.ndarray] = []
        self.flux: list[np.ndarray] = []
        self.u_face: list[np.ndarray] = []
        self.weno_scratch: list[tuple[np.ndarray, ...]] = []
        self.riemann_scratch: list[RiemannScratch] = []
        self._weno_shapes: list[list[int]] = []
        self._face_shapes: list[list[int]] = []
        for d in range(ndim):
            pshape = list(self.shape)
            pshape[d + 1] += 2 * ng
            fshape = list(self.shape)
            fshape[d + 1] += 1
            # WENO kernels run with the reconstruction axis moved last.
            last = ([nvars]
                    + [spatial[k] for k in range(ndim) if k != d]
                    + [spatial[d] + 1])
            self._weno_shapes.append(last)
            self._face_shapes.append(fshape)
            if self.fusion:
                continue
            if d < self._nb:
                # Batch axis: never swept, so no pipeline buffers —
                # placeholders keep virtual-direction indexing aligned.
                self.padded.append(None)
                self.face_l.append(None)
                self.face_r.append(None)
                self.flux.append(None)
                self.u_face.append(None)
                self.weno_scratch.append(())
                self.riemann_scratch.append(None)
                continue
            self.padded.append(new(pshape))
            self.face_l.append(new(fshape))
            self.face_r.append(new(fshape))
            self.flux.append(new(fshape))
            self.u_face.append(new(fshape[1:]))
            self.weno_scratch.append(
                allocate_weno_scratch(self.weno_variant, self.weno_order,
                                      tuple(last), self.dtype, xp=self.xp))
            self.riemann_scratch.append(
                RiemannScratch(tuple(fshape), dtype=self.dtype, xp=self.xp))

        # Axis-contiguous transposed sweep buffers (paper §III.D): for
        # each direction the engine transposes, the padded primitive
        # block, both face states, the flux, and the interface velocity
        # in the layout with the reconstruction axis last.  Face shapes
        # coincide with the reconstruction-axis-last ``weno_scratch``
        # shapes, so the WENO scratch is shared between layouts.
        self.t_padded: dict[int, np.ndarray] = {}
        self.t_face_l: dict[int, np.ndarray] = {}
        self.t_face_r: dict[int, np.ndarray] = {}
        self.t_flux: dict[int, np.ndarray] = {}
        self.t_u_face: dict[int, np.ndarray] = {}
        self.t_riemann_scratch: dict[int, RiemannScratch] = {}
        for d in sorted(self.transposed_axes):
            if not self._nb <= d < ndim:
                raise ValueError(
                    f"transposed axis {d} outside sweepable virtual axes "
                    f"[{self._nb}, {ndim})")
            if self.fusion:
                continue
            tface = self._weno_shapes[d]
            tpad = list(tface)
            tpad[-1] = spatial[d] + 2 * ng
            self.t_padded[d] = new(tpad)
            self.t_face_l[d] = new(tface)
            self.t_face_r[d] = new(tface)
            self.t_flux[d] = new(tface)
            self.t_u_face[d] = new(tface[1:])
            self.t_riemann_scratch[d] = RiemannScratch(tuple(tface),
                                                       dtype=self.dtype,
                                                       xp=self.xp)

        # Per-worker kernel scratch, keyed (thread ident, direction,
        # layout); see the module docstring's thread-ownership rule.
        self._thread_scratch: dict[tuple[int, int, bool],
                                   tuple[int, tuple[np.ndarray, ...],
                                         RiemannScratch]] = {}
        #: Per-worker fused-kernel arenas, same key scheme.
        self._fusion_scratch: dict[tuple[int, int, bool], FusionScratch] = {}
        self._scratch_lock = threading.Lock()

    # ------------------------------------------------------------------
    def fusion_scratch(self, d: int, tile_width: int, *,
                       transposed: bool = False) -> FusionScratch:
        """Private :class:`FusionScratch` arena for the calling thread.

        Same lazy per-worker caching as :meth:`thread_scratch`: the
        arena is built (or rebuilt, if a wider tile shows up) for slabs
        of at most ``tile_width``, and callers take
        :meth:`FusionScratch.narrow` views for their exact tile extent.
        """
        key = (threading.get_ident(), d, transposed)
        with self._scratch_lock:
            scr = self._fusion_scratch.get(key)
            if scr is None or scr.width_cap < tile_width:
                scr = FusionScratch(self._nvars, self._spatial, self._ng, d,
                                    tile_width, self.dtype,
                                    self.weno_variant, self.weno_order,
                                    transposed=transposed, xp=self.xp)
                self._fusion_scratch[key] = scr
        return scr

    # ------------------------------------------------------------------
    def thread_scratch(self, d: int, tile_width: int, *,
                       transposed: bool = False):
        """Private ``(weno_scratch, riemann_scratch)`` for the calling thread.

        Allocated lazily the first time a pool worker asks, sized for
        tiles of at most ``tile_width`` along the slab axis — the first
        spatial axis perpendicular to direction ``d``, which is axis 1
        of every reconstruction-axis-last shape — and cached for the
        worker's later tiles and steps.  Callers narrow the buffers to
        their exact tile extent (:func:`narrow_scratch_rows` /
        :meth:`RiemannScratch.view`) before use.

        With ``transposed=True`` the Riemann scratch takes the
        axis-contiguous face shape of the transposed sweep layout too,
        cached separately from the strided sets.
        """
        key = (threading.get_ident(), d, transposed)
        with self._scratch_lock:
            entry = self._thread_scratch.get(key)
            if entry is None or entry[0] < tile_width:
                wshape = list(self._weno_shapes[d])
                fshape = wshape if transposed else list(self._face_shapes[d])
                if len(wshape) > 2:  # 1D has no perpendicular axis to cut
                    slab = 1 if transposed or d > 0 else 2
                    wshape[1] = min(tile_width, wshape[1])
                    fshape[slab] = min(tile_width, fshape[slab])
                weno = allocate_weno_scratch(self.weno_variant,
                                             self.weno_order, tuple(wshape),
                                             self.dtype, xp=self.xp)
                entry = (tile_width, weno,
                         RiemannScratch(tuple(fshape), dtype=self.dtype,
                                        xp=self.xp))
                self._thread_scratch[key] = entry
        return entry[1], entry[2]

    # ------------------------------------------------------------------
    def compatible(self, q) -> bool:
        """Whether ``q`` matches the shape/dtype this workspace was built for."""
        if tuple(q.shape) != self.shape:
            return False
        qd = getattr(q, "dtype", None)
        # torch dtypes stringify as "torch.float64"; numpy's as "float64".
        return qd == self.dtype or str(qd).endswith(self.dtype.name)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena (for memory reports)."""
        total = 0
        for arr in self._all_arrays():
            total += arr.nbytes
        return total

    def _all_arrays(self):
        yield from (self.prim, self.dqdt, self.divu, self.rk_result,
                    self.rk_tmp, self.rollback)
        if not self.fusion:
            yield self.div_scratch
            yield self.divu_scratch
        yield from self.rk_stage
        for group in (self.padded, self.face_l, self.face_r,
                      self.flux, self.u_face):
            for arr in group:
                if arr is not None:  # batch-axis placeholder
                    yield arr
        for buffers in (self.t_padded, self.t_face_l, self.t_face_r,
                        self.t_flux, self.t_u_face):
            yield from buffers.values()
        for rs in self.t_riemann_scratch.values():
            for name in RiemannScratch.__slots__:
                yield getattr(rs, name)
        for group in self.weno_scratch:
            yield from group
        for rs in self.riemann_scratch:
            if rs is None:  # batch-axis placeholder
                continue
            for name in RiemannScratch.__slots__:
                yield getattr(rs, name)
        for _, weno, rs in list(self._thread_scratch.values()):
            yield from weno
            for name in RiemannScratch.__slots__:
                yield getattr(rs, name)
        for scr in list(self._fusion_scratch.values()):
            yield from scr._arrays()
