"""Preallocated buffer arena for the solver hot path.

The paper's central optimization story is memory management: flattening
derived types, coalescing through transposes, and compile-time-sized
``private`` arrays all exist to keep MFC's two hottest kernels from
allocating or copying inside the time loop.  The NumPy analog of that
discipline is a workspace: the primitive field, the RHS accumulators and
the two Shu-Osher buffers are allocated once per
:class:`~repro.solver.rhs.RHS` lifetime, and every pipeline
intermediate (padded primitives, face states, fluxes, kernel scratch)
lives in a slab-*tile*-sized :class:`TileArena` sized to stay resident
in one core's share of the last-level cache — the paper's per-thread
``private`` arrays, not per-field temporaries.  The step's elementwise
passes (state conversion, CFL rate, nonconservative term, stage
combination) run over the same row tiles with their scratch carved from
the same pool (:meth:`SolverWorkspace.scratch`).  A steady-state step
allocates nothing field-sized.

All workspace-backed code paths are **bitwise identical** to the
allocating reference paths (same operations in the same order, only the
destination buffers differ); this is enforced by property tests.

Process-ownership rule
----------------------
The workspace is built for one RHS/RK pipeline, which may execute its
slab tiles on a :class:`~repro.acc.gang.GangExecutor` — the calling
process plus forked workers.  Buffers divide into two ownership classes:

* **Shared, disjointly written** — ``prim``, ``dqdt``, ``divu`` and the
  RK buffers ``rk_stage`` / ``rk_result``, plus the small ``control``
  record: with ``shared=True`` they are carved from anonymous
  ``MAP_SHARED`` mappings (no ``/dev/shm`` name, nothing to unlink), so
  every gang member sees the others' writes — a member converts its own
  rows of the stage input and combines its own rows of the stage
  output.  Concurrent tiles may read them anywhere but must write only
  inside their own slab span, so no synchronisation is needed beyond
  the launch barrier; ``control`` is written by the parent between
  launches only.
* **Private per process** — everything else: the ``rollback`` buffer
  (no step writes it), the whole-field probe buffers, and every
  :class:`TileArena` and tile scratch.  A worker
  inherits the workspace copy-on-write at its fork and
  :meth:`SolverWorkspace.tile_arena` carves its arenas from its own
  memory pool (allocated lazily, reused across its later tiles,
  directions and steps), so two tiles in flight never share a pipeline
  intermediate or a kernel scratch array.
"""

from __future__ import annotations

import math
from functools import partial
from types import SimpleNamespace

import numpy as np

from repro.backend import resolve_backend
from repro.common import DTYPE
from repro.common.scratch import Scratch
from repro.common.workers import private_array, shared_array
from repro.grid.cartesian import StructuredGrid
from repro.riemann.common import RiemannScratch
from repro.state.conversions import row_spans
from repro.state.layout import StateLayout
from repro.weno.reconstruct import allocate_weno_scratch

#: Leading words of :attr:`SolverWorkspace.control` before its dt entries.
CONTROL_WORDS = 6


def _leaves(buffers):
    """The arrays inside an array / scratch tuple / RiemannScratch."""
    if isinstance(buffers, RiemannScratch):
        return [getattr(buffers, name) for name in RiemannScratch.BUFFERS]
    return list(buffers) if isinstance(buffers, tuple) else [buffers]


class _Carver:
    """Stands in for the array namespace: ``empty`` hands out consecutive
    blocks of a flat ``pool`` — or, without one, only adds up the
    elements asked for."""

    def __init__(self, xp, pool=None) -> None:
        self.xp, self.pool, self.used = xp, pool, 0

    def empty(self, shape, dtype=None):
        lo, self.used = self.used, self.used + math.prod(shape)
        if self.pool is None:
            return None
        return self.pool[lo:self.used].reshape(shape)

    def moveaxis(self, block, source, destination):
        if block is None:
            return None
        return self.xp.moveaxis(block, source, destination)


def tile_axes(nsp: int, d: int) -> tuple[int, ...]:
    """Array-axis order of direction ``d``'s tile: the layout rule.

    A tile never reconstructs along its innermost axis, where NumPy
    cannot coalesce the shifted stencil views.  Every direction but the
    trailing one meets that in standard order ``(nvars, *spatial)``; the
    trailing direction's tile puts its reconstruction axis first among
    the spatial axes.  ``nsp`` counts the (virtual) spatial axes; a
    single-case 1D tile has no other spatial axis and keeps standard
    order (moving the variable axis inside would turn the fluid sums of
    the Riemann decomposition into pairwise reductions).
    """
    if nsp == 1 or d < nsp - 1:
        return tuple(range(nsp + 1))
    return (0, d + 1, *range(1, d + 1))


class TileArena:
    """Every pipeline intermediate of one direction sweep, one slab tile wide.

    The staged chain and the generated fused kernels both run on this
    arena (its attribute names are the fused kernels' argument names):
    padded primitives, both face states, flux, interface velocity, the
    WENO and Riemann kernel scratch and the divergence temporaries, all
    sized for ``tile_width`` rows of the slab axis — the first spatial
    axis perpendicular to direction ``d`` (none in 1D, where the single
    tile is the whole field) — so the whole pipeline's working set can
    stay cache-resident.  Nothing in it outlives a tile.

    **Layout rule.**  Every buffer is one contiguous block of the flat
    ``pool``, carved in the tile's own axis order (:func:`tile_axes`:
    standard order, or reconstruction axis first for the trailing
    direction — a *gathered* tile), and the axis-last shape the WENO
    kernels ask of their scratch is a ``moveaxis`` view of such a block
    (:func:`~repro.weno.reconstruct.allocate_weno_scratch`).  A tile's
    WENO → limiter → Riemann → divergence chain reads and writes only
    these blocks, so no kernel pass mixes two memory orders, the
    iterator's inner loop is always the unit-stride one, and it never
    runs along the reconstruction axis; field- and block-sized arrays
    meet a tile only in its copy in (pack or gather) and its copy or
    accumulate out.

    The pool is the one passed in when it is large enough (a worker's
    arenas for the other directions and for narrower tiles live in the
    same memory — it runs one tile at a time), else a new one of
    exactly the size needed.
    """

    def __init__(self, nvars: int, spatial: tuple[int, ...], ng: int,
                 d: int, tile_width: int, dtype, xp=np, pool=None) -> None:
        ndim = len(spatial)
        self.width_cap = tile_width
        self.slab_axis = sa = None if ndim == 1 else (1 if d == 0 else 0)
        #: Standard-layout array axes in the tile's order, and the tile
        #: array axis reconstructed.
        self.axes = axes = tile_axes(ndim, d)
        self.gathered = axes != tuple(range(ndim + 1))
        self.axis = ax = axes.index(d + 1)
        self._like = partial(TileArena, nvars, spatial, ng, d, dtype=dtype,
                             xp=xp)
        self._narrowed: dict[int, TileArena] = {}
        self._spans: dict[int, SimpleNamespace] = {}
        extent = [nvars, *(spatial[k - 1] for k in axes[1:])]
        if sa is not None:
            extent[axes.index(sa + 1)] = min(tile_width, spatial[sa])
        self._extent, self._dtype, self._xp = extent, dtype, xp
        pad = list(extent)
        pad[ax] += 2 * ng
        faces = extent[ax] + 1

        counter = _Carver(xp)
        counter.empty(pad)
        self._carve_faces(counter, faces)
        size = counter.used
        if pool is None or pool.shape[0] < size:
            pool = xp.empty(size, dtype=dtype)
        self.pool = pool
        self.nbytes = size * np.dtype(dtype).itemsize
        alloc = _Carver(xp, pool)
        self.pad = alloc.empty(pad, dtype=dtype)
        self._faces_at = alloc.used
        vars(self).update(self._carve_faces(alloc, faces))

    def _carve_faces(self, alloc, count: int) -> dict:
        """The face-sized buffers of a ``count``-face run of this tile,
        carved in order from ``alloc``: both face states, the WENO
        scratch, flux, interface velocity, the divergence temporaries
        and the Riemann scratch."""
        ax, dtype = self.axis, self._dtype
        face = list(self._extent)
        face[ax] = count
        cells = [*face[:ax], count - 1, *face[ax + 1:]]

        def new(s):
            return alloc.empty(s, dtype=dtype)

        out = {"vl": new(face), "vr": new(face)}
        spare = alloc.used
        # Reconstruction-axis-last face shape (the WENO layout).
        out["wscr"] = allocate_weno_scratch(
            (*face[:ax], *face[ax + 1:], count), dtype, xp=alloc, axis=ax)
        spare = slice(spare, alloc.used)
        out["flux"], out["uface"] = new(face), new(face[1:])
        out["dscr"], out["dvscr"] = new(cells), new(cells[1:])
        out["rscr"] = rscr = RiemannScratch(tuple(face), dtype=dtype,
                                            xp=alloc)
        if alloc.pool is not None:
            # The WENO scratch is dead once the faces are reconstructed:
            # the limiter and the Riemann solver carve their per-face
            # temporaries from it, as blocks of the face buffers' order.
            spare = alloc.pool[spare]
            row = math.prod(face[1:])
            rows = spare.shape[0] // row
            rscr.spare = (spare[:rows * row].reshape(rows, *face[1:])
                          if rows else None)
        return out

    def narrow(self, count: int) -> "TileArena":
        """This arena's memory as a ``count``-wide tile arena.

        The last tiles of an uneven split are narrower than the
        allocation.  A narrowed arena is carved afresh from the same
        pool, so its arrays stay contiguous (a sliced tile's inner runs
        would be ``count`` elements long when the slab axis is the
        innermost one); it is cached across tiles and steps.
        """
        if self.slab_axis is None or count >= self.width_cap:
            return self
        tile = self._narrowed.get(count)
        if tile is None:
            tile = self._narrowed[count] = self._like(tile_width=count,
                                                      pool=self.pool)
        return tile

    def span(self, count: int):
        """The face buffers of a ``count``-face span of this tile.

        An active span (:func:`~repro.solver.sweep.active_faces`) runs
        on its own set, carved afresh where the whole tile's lies (after
        ``pad``), so every buffer stays contiguous: slices of the whole
        tile's measured up to 2x per pass on a batched tile.  The whole
        face range is the arena itself; other counts are cached.
        """
        if count == self.vl.shape[self.axis]:
            return self
        got = self._spans.get(count)
        if got is None:
            got = self._spans[count] = SimpleNamespace(**self._carve_faces(
                _Carver(self._xp, self.pool[self._faces_at:]), count))
        return got

    @property
    def stage_nbytes(self) -> int:
        """Bytes the heaviest stage streams: the reconstruction reads the
        padded block through its kernel scratch into both face states.
        Stages run one after another over a tile, so this — not the
        whole arena — is what has to stay cache-resident."""
        return sum(a.nbytes for a in (self.pad, self.vl, self.vr,
                                      *self.wscr))


class _PerDirection:
    """Per-direction whole-block buffers, allocated on first index."""

    def __init__(self, make) -> None:
        self._make = make
        self.made: dict[int, object] = {}

    def __getitem__(self, d: int):
        if d not in self.made:
            self.made[d] = self._make(d)
        return self.made[d]


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
    rk_stage, rk_result:
        The two Shu-Osher buffers, trading roles each step: one holds
        the step input (a foreign one is copied into ``rk_result``) and
        is never written, every stage lands in the other
        (:func:`~repro.timestepping.ssp_rk.stage_buffer`), which is then
        the next step's input.
    control:
        The folded step's launch record (float64: flags, source and
        destination buffer, the three stage coefficients, then one dt
        per case — :class:`~repro.solver.rhs.RHS` writes it before each
        launch, gang members read it).
    rows:
        Row spans of array axis 1 the step's elementwise passes loop
        over — the sweep engine's own tiles when an engine built this
        workspace (:attr:`~repro.solver.sweep.SweepEngine.rows`).
    rollback:
        A state-sized buffer no step writes (a guarded step rolls back
        to its untouched input).  Kept allocated for the guard probe of
        ``benchmarks/e2e/probes.py``, which copies into it, as a mapping
        of its own that holds no memory until written.
    padded, face_l, face_r, flux, u_face, weno_scratch, riemann_scratch:
        Whole-block per-direction buffers (ghost-padded primitives,
        face states, Riemann flux, interface velocity, kernel scratch),
        indexed by direction and allocated on first access.  No sweep
        touches them — its intermediates are :class:`TileArena` tiles;
        whole-field kernel probes (``benchmarks/e2e/probes.py``) run on
        all seven.
    """

    def __init__(self, layout: StateLayout, grid: StructuredGrid, ng: int,
                 dtype=DTYPE, batch: int | None = None,
                 backend=None, shared: bool = False, rows=None) -> None:
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
        #: leading *virtual spatial axis* that is never swept (and is
        #: the slab axis of every sweep).
        self.batch = batch
        spatial = grid.shape if batch is None else (batch, *grid.shape)
        self.shape = (nvars, *spatial)
        self.dtype = np.dtype(dtype)
        self._ng = ng
        self._spatial = tuple(spatial)
        self._nvars = nvars

        # The makers below close over these locals, never over ``self``:
        # a workspace in a reference cycle would outlive its RHS until
        # the cyclic collector happens to run (an ensemble rebuilds the
        # RHS at every retirement), and peak memory would wander.
        xp, np_dtype, field = self.xp, self.dtype, self.shape

        def new(shape):
            return xp.empty(shape, dtype=np_dtype)

        # Field-sized buffers; what a folded step's launches read and
        # write comes from one shared mapping when a gang runs the tiles.
        field_alloc = xp
        if shared:
            n = 4 * math.prod(self.shape) + math.prod(spatial)
            field_alloc = _Carver(xp, self.backend.from_host(
                shared_array((n,), np_dtype)))
        self.prim = field_alloc.empty(self.shape, dtype=np_dtype)
        self.dqdt = field_alloc.empty(self.shape, dtype=np_dtype)
        self.divu = field_alloc.empty(spatial, dtype=np_dtype)
        # SSP-RK buffers: step input and stage output, trading roles.
        self.rk_stage = field_alloc.empty(self.shape, dtype=np_dtype)
        self.rk_result = field_alloc.empty(self.shape, dtype=np_dtype)
        words = (CONTROL_WORDS + (batch or 1),)
        self.control = (shared_array(words, np.float64) if shared
                        else np.zeros(words))

        # Never written by a step (the e2e guard probe copies into it):
        # a mapping of its own, so it holds no memory until written.
        self.rollback = self.backend.from_host(
            private_array(self.shape, np_dtype))
        self.rows = list(rows) if rows is not None else row_spans(self.shape)

        def block(d: int, grow: int) -> list[int]:
            # Whole-block shape with direction d's axis grown by ``grow``.
            grown = list(field)
            grown[d + 1] += grow
            return grown

        self.padded = _PerDirection(lambda d: new(block(d, 2 * ng)))
        self.face_l = _PerDirection(lambda d: new(block(d, 1)))
        self.face_r = _PerDirection(lambda d: new(block(d, 1)))
        self.flux = _PerDirection(lambda d: new(block(d, 1)))
        self.u_face = _PerDirection(lambda d: new(block(d, 1)[1:]))
        # WENO kernels run with the reconstruction axis moved last:
        # axis-last views of blocks in the face buffers' own order.
        self.weno_scratch = _PerDirection(lambda d: allocate_weno_scratch(
            (nvars, *(n for k, n in enumerate(spatial) if k != d),
             spatial[d] + 1), np_dtype, xp=xp, axis=d + 1))
        self.riemann_scratch = _PerDirection(lambda d: RiemannScratch(
            tuple(block(d, 1)), dtype=np_dtype, xp=xp))

        #: This process's tile arenas, keyed by direction, and the one
        #: memory pool they are carved from; see the module docstring's
        #: process-ownership rule.
        self._arenas: dict[int, TileArena] = {}
        self._pool = None
        #: Largest tile scratch any one :meth:`scratch` allocator asked for.
        self._high = [0]

    # ------------------------------------------------------------------
    def scratch(self):
        """A tile's scratch allocator ``new(shape)`` over this process's pool.

        Blocks are carved from the start of the arena pool: the caller
        holds no arena buffer while it uses them (before a tile's pack,
        after its divergence, or outside a sweep).  A tile that asks for
        more than the pool holds gets fresh arrays for the excess, and
        the next allocator finds the pool grown to fit (the arenas then
        rebuild on it) — so only a first call allocates.
        """
        pool = self._pool
        if self._high[0] > (0 if pool is None else pool.shape[0]):
            self._pool = pool = self.xp.empty(self._high[0], dtype=self.dtype)
            self._arenas.clear()
        return Scratch(pool, xp=self.xp, dtype=self.dtype, high=self._high)

    # ------------------------------------------------------------------
    def tile_arena(self, d: int, tile_width: int) -> TileArena:
        """The calling process's private :class:`TileArena` for direction ``d``.

        Built lazily (or rebuilt, if a wider tile shows up) for slabs of
        at most ``tile_width`` rows and cached for the later tiles and
        steps; callers take :meth:`TileArena.narrow` views for their
        exact tile extent.  All arenas share one pool — a process sweeps
        one direction at a time and nothing outlives a tile.
        """
        arena = self._arenas.get(d)
        if arena is None or arena.width_cap < tile_width:
            arena = TileArena(self._nvars, self._spatial, self._ng, d,
                              tile_width, self.dtype, xp=self.xp,
                              pool=self._pool)
            if arena.pool is not self._pool:
                # It outgrew the pool: the other arenas alias the old
                # one and rebuild here on next use.
                self._arenas.clear()
                self._pool = arena.pool
            self._arenas[d] = arena
        return arena

    # ------------------------------------------------------------------
    def compatible(self, q) -> bool:
        """Whether ``q`` matches the shape/dtype this workspace was built for."""
        return (tuple(q.shape) == self.shape
                and getattr(q, "dtype", None) == self.dtype)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena (for memory reports)."""
        return sum(arr.nbytes for arr in self._all_arrays())

    def _all_arrays(self):
        yield from (self.prim, self.dqdt, self.divu, self.rk_stage,
                    self.rk_result, self.rollback, self.control)
        for group in (self.padded, self.face_l, self.face_r, self.flux,
                      self.u_face, self.weno_scratch, self.riemann_scratch):
            for buffers in list(group.made.values()):
                yield from _leaves(buffers)
        if self._pool is not None:
            yield self._pool
