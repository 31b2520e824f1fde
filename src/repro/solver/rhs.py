"""Right-hand-side assembly for the five-equation system (paper eq. (1)).

Per direction ``d`` the dimension-split pipeline is exactly MFC's:

1. pad primitives with ghost cells along ``d`` and fill them
   (physical BCs here; halo exchange in distributed runs),
2. WENO-reconstruct left/right face states,
3. solve the face Riemann problems (HLLC by default),
4. accumulate the conservative flux divergence and the face-velocity
   divergence for the nonconservative
   :math:`\\alpha \\nabla\\!\\cdot u` term.

The optional :class:`~repro.common.timing.Stopwatch` records wall time
per stage under the kernel names the paper's breakdown figures use
("weno", "riemann", "packing", "other"), so the host-side benches can
report the same rows.

Everything else a step does per cell is elementwise and runs inside the
sweeps' own launches, on each tile's slab rows (see :meth:`RHS.__call__`):
the first direction's tiles convert their rows to primitives (and, in
RK stage one, measure the CFL wave rate) and zero the accumulators; the
last direction's tiles add the nonconservative term and write their
rows of the Shu-Osher combination.
"""

from __future__ import annotations

import dataclasses
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from repro.acc.gang import GangExecutor, plan_gang_width
from repro.backend import (
    array_namespace,
    precision_dtype,
    resolve_backend,
    to_host_array,
)
from repro.bc.boundary import BoundarySet, fill_axis_ghosts, pad_axis
from repro.common import DTYPE, ConfigurationError, Stopwatch
from repro.common.checks import integer, optional
from repro.eos.mixture import Mixture
from repro.grid.cartesian import StructuredGrid
from repro.hardware.devices import DeviceSpec, get_device
from repro.profiling.counters import SweepCounters
from repro.riemann import SOLVERS, validate_riemann_variant
from repro.solver.geometry import (
    GEOMETRIES,
    apply_axisymmetric_terms,
    validate_geometry,
)
from repro.solver.positivity import limit_face_states
from repro.solver.sweep import (
    SweepEngine,
    timed,
    validate_fusion,
    validate_sweep_layout,
)
from repro.solver.viscous import Viscosity, viscous_rhs
from repro.solver.workspace import CONTROL_WORDS, SolverWorkspace
from repro.state.conversions import cons_to_prim, cons_to_prim_tile, row_tiles
from repro.state.layout import StateLayout
from repro.timestepping.cfl import max_rate, tile_of, wave_rate_tile
from repro.timestepping.ssp_rk import shu_osher_tile
from repro.weno import halo_width, reconstruct_faces
from repro.weno.stacked import validate_weno_variant

#: Words of :attr:`SolverWorkspace.control`: the launch's flags, the RK
#: buffers (indices into ``(rk_result, rk_stage)``) the stage reads and
#: writes, its coefficients, and from ``_DT`` on one dt per case.
_FLAGS, _SRC, _DEST, _A, _B, _C = range(CONTROL_WORDS)
_DT = CONTROL_WORDS
#: What a launch adds around each tile's sweep: before it, zero the
#: accumulators, convert the stage input and measure the wave rate;
#: after it, add the nonconservative term and combine the stage.
ZERO, CONVERT, RATE, FINISH, COMBINE = 1, 2, 4, 8, 16


def nonconservative_tile(layout: StateLayout, prim, divu, dqdt, new) -> None:
    """:math:`d\\alpha/dt \\mathrel{+}= \\alpha\\,\\nabla\\!\\cdot u` on one
    tile (``new`` its scratch allocator)."""
    xp = array_namespace(prim)
    adv = dqdt[layout.advected]
    xp.add(adv, xp.multiply(prim[layout.advected], divu,
                            out=new(adv.shape)), out=adv)


class _Launch:
    """One launch of sweep ``d``: serial, or gang member ``rank``'s share.

    The body the :class:`~repro.acc.gang.GangExecutor` runs on every
    member (the serial path calls it with rank 0): the member's tiles of
    the sweep, plus the step work the workspace's ``control`` record
    folds around each tile on that tile's own slab rows.  It holds the
    engine and the workspace — never the RHS, which must stay out of
    reference cycles.  Returns ``(limited faces, wave rate or None)``.
    """

    def __init__(self, layout, mixture, engine, ws, widths, width,
                 stopwatch) -> None:
        self.layout, self.mixture, self.engine = layout, mixture, engine
        self.ws, self.widths, self.width = ws, widths, width
        self.stopwatch = stopwatch

    def __call__(self, d: int, rank: int):
        layout, mixture, ws, sw = (self.layout, self.mixture, self.ws,
                                   self.stopwatch)
        xp, ctl, nb = ws.xp, ws.control, self.engine.nb
        flags = int(ctl[_FLAGS])
        bufs = (ws.rk_result, ws.rk_stage)
        q_k, dest = bufs[int(ctl[_SRC])], bufs[int(ctl[_DEST])]
        rate = None
        if flags & RATE:
            rate = (xp.zeros(ws.shape[1], dtype=ws.dtype) if nb else 0.0)
        if flags & COMBINE:
            a, b, c = (float(w) for w in ctl[_A:_C + 1])
            cdt = (c * float(ctl[_DT]) if ws.batch is None else c * xp.asarray(
                ctl[_DT:_DT + ws.batch].reshape((-1,) + (1,) * layout.ndim)))

        def before(idx):
            nonlocal rate
            new = ws.scratch()
            if flags & CONVERT:
                with timed(sw, "other"):
                    cons_to_prim_tile(layout, mixture, q_k[idx], ws.prim[idx],
                                      new)
            if flags & RATE:
                part = wave_rate_tile(
                    layout, mixture, ws.prim[idx],
                    [tile_of(w, idx[1 + nb:]) for w in self.widths], new)
                if nb:
                    cases = tile_of(rate, idx[1:2])
                    xp.maximum(cases, part, out=cases)
                else:
                    rate = max_rate(rate, part)
            if flags & ZERO:
                ws.dqdt[idx] = 0.0
                ws.divu[idx[1:]] = 0.0

        def after(idx):
            new = ws.scratch()
            dq = ws.dqdt[idx]
            nonconservative_tile(layout, ws.prim[idx], ws.divu[idx[1:]], dq,
                                 new)
            if flags & COMBINE:
                shu_osher_tile(ws.rk_result[idx], q_k[idx], dq, dest[idx],
                               new(dq.shape), a, b, tile_of(cdt, idx[1:]))

        limited = self.engine.sweep(
            ws, ws.prim, d, self.widths[d - nb], ws.dqdt, ws.divu,
            share=(rank, self.width),
            before=before if flags & (ZERO | CONVERT | RATE) else None,
            after=after if flags & FINISH else None)
        return limited, rate


@dataclass(frozen=True)
class RHSConfig:
    """Numerical options of the RHS.

    ``geometry="axisymmetric"`` interprets a 2D grid as ``(x, r)`` and
    adds the cylindrical geometric source terms (paper §III-A).
    """

    weno_order: int = 5
    riemann_solver: str = "hllc"
    geometry: str = "cartesian"
    #: Per-component dynamic viscosities; None runs inviscid (Euler).
    viscosity: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.riemann_solver not in SOLVERS:
            raise ConfigurationError(
                f"unknown Riemann solver {self.riemann_solver!r}; "
                f"choose from {sorted(SOLVERS)}")
        halo_width(self.weno_order)  # validates the order
        if self.geometry not in GEOMETRIES:
            raise ConfigurationError(
                f"geometry must be one of {GEOMETRIES}, got {self.geometry!r}")
        if self.viscosity is not None:
            Viscosity(tuple(self.viscosity))  # validates


@dataclass
class RHS(AbstractContextManager):
    """Callable computing :math:`dq/dt` for a conservative field ``q``.

    With ``use_workspace`` (the default) the primitive field and the
    accumulators are preallocated once in a
    :class:`~repro.solver.workspace.SolverWorkspace`, and every
    padded-primitive, face and flux intermediate lives in its
    cache-sized tile arenas, reused tile after tile and call after
    call, so steady-state evaluations perform no new large-array
    allocations; results are bitwise identical to the allocating
    reference path (``use_workspace=False``).

    Every workspace evaluation runs the one slab body of
    :class:`~repro.solver.sweep.SweepEngine` over slab tiles; serial,
    gang, transposed and fused execution are parameters of that body
    and all bitwise identical.  With a gang width above one the tiles
    execute across a :class:`~repro.acc.gang.GangExecutor` — this
    process plus forked workers over the workspace's shared buffers
    (contiguous slabs of the first spatial axis perpendicular to the
    sweep: self-contained stencils, disjoint writes) — and the resolved
    width and its reason end up in ``threads`` / ``gang_why``.

    The execution knobs (``use_workspace threads tile_device
    sweep_layout fusion backend`` and, as ``dtype``, ``precision``) are
    :class:`~repro.solver.options.SolverOptions` fields, documented
    once in DESIGN.md "Options: one table"; ``weno_variant
    riemann_variant tiles`` are the remaining axes of a
    :class:`~repro.tuning.TuningPlan`.  Drivers build theirs with
    :meth:`planned`.
    """

    layout: StateLayout
    mixture: Mixture
    grid: StructuredGrid
    bcs: BoundarySet
    config: RHSConfig = field(default_factory=RHSConfig)
    stopwatch: Stopwatch | None = None
    use_workspace: bool = True
    threads: int | None = None
    tile_device: DeviceSpec | str | None = None
    sweep_layout: str = "strided"
    #: Registered kernel implementations (all bitwise identical — the
    #: autotuner's choice axes): :data:`repro.weno.WENO_VARIANTS` and
    #: :data:`repro.riemann.RIEMANN_VARIANTS`.
    weno_variant: str = "chained"
    riemann_variant: str = "reference"
    #: Explicit per-launch tile count overriding the L2 heuristic
    #: (another tuner knob); None keeps the heuristic.
    tiles: int | None = None
    fusion: str = "off"
    #: Owns the array namespace the kernels resolve and the workspace
    #: allocator.  Capability fallbacks are applied here: backends
    #: without negative-stride ``as_strided`` run the chained WENO
    #: kernels, backends the fusion code generator cannot target never
    #: fuse, and the gang is disabled where the backend manages its own
    #: parallelism (see ``docs/backends.md``).
    backend: object = None
    #: Array dtype of the state/workspace (``precision`` seam);
    #: ``numpy.float64`` keeps the bitwise-identical default.
    dtype: object = DTYPE
    #: Ensemble batch width: ``batch=B`` evaluates B same-grid cases
    #: stacked as ``q[:, b, ...]`` in ONE call, amortizing every ufunc
    #: pass (and every fused-kernel launch) B-fold.  The batch axis is
    #: treated as a leading *virtual spatial axis* that is never swept:
    #: all sweeps, tile plans, and fused kernels see the virtual shape
    #: ``(B, *grid.shape)`` while physical quantities (momentum
    #: components, boundary sets, cell widths) keep their physical
    #: direction index.  Every case advances bitwise as it would alone.
    batch: int | None = None

    def __post_init__(self) -> None:
        self.backend = resolve_backend(self.backend)
        self.dtype = np.dtype(self.dtype)
        if not self.backend.supports_stacked_weno \
                and self.weno_variant == "stacked":
            # Documented capability fallback (docs/backends.md): the
            # stacked kernels need negative-stride as_strided views.
            self.weno_variant = "chained"
        if self.grid.ndim != self.layout.ndim:
            raise ConfigurationError(
                f"grid is {self.grid.ndim}D but layout expects {self.layout.ndim}D")
        if self.bcs.ndim() != self.layout.ndim:
            raise ConfigurationError("boundary set dimensionality mismatch")
        optional(integer(1))("batch", self.batch)
        #: Number of leading virtual (non-swept) axes: 1 when batched.
        self._nb = 0 if self.batch is None else 1
        if self.batch is not None:
            if self.config.geometry != "cartesian":
                raise ConfigurationError(
                    "batched (ensemble) RHS supports cartesian geometry only")
            if self.config.viscosity is not None:
                raise ConfigurationError(
                    "batched (ensemble) RHS does not support viscosity yet")
            if not self.use_workspace:
                raise ConfigurationError(
                    "batched (ensemble) RHS requires use_workspace=True")
        self._ng = halo_width(self.config.weno_order)
        validate_weno_variant(self.weno_variant)
        validate_riemann_variant(self.riemann_variant)
        optional(integer(1))("tiles", self.tiles)
        validate_geometry(self.config.geometry, self.layout, self.grid)
        if self.config.geometry == "axisymmetric":
            self._radius = self.backend.xp.asarray(
                self.grid.centers(1).reshape(1, -1), dtype=self.dtype)
        else:
            self._radius = None
        self._viscosity = (Viscosity(tuple(self.config.viscosity))
                           if self.config.viscosity is not None else None)
        if self._viscosity is not None and len(self._viscosity.mu) != self.layout.ncomp:
            raise ConfigurationError(
                f"{len(self._viscosity.mu)} viscosities for "
                f"{self.layout.ncomp} components")
        #: Cumulative count of face states replaced by the positivity
        #: fallback (0 in well-resolved single-phase runs).
        self.limited_faces = 0
        validate_sweep_layout(self.sweep_layout)
        validate_fusion(self.fusion)
        if self.fusion == "on" and not self.backend.supports_fusion:
            raise ConfigurationError(
                f"fusion='on' is not supported on the "
                f"{self.backend.name!r} backend (the fused code "
                f"generator targets NumPy); use fusion='auto' or 'off'")
        if self.fusion == "on" and not self.use_workspace:
            raise ConfigurationError(
                "fusion='on' requires the workspace (the fused kernels' "
                "tile scratch arenas live there); use fusion='auto' to "
                "fuse opportunistically")
        #: Whether the direction sweeps run as fused per-tile kernels.
        fused = (self.fusion == "on"
                 or (self.fusion == "auto" and self.use_workspace
                     and self.backend.supports_fusion))
        # Validates an explicit width, which also asks the engine for
        # at least one tile per member; a planned one is 1 until the
        # tile counts are known.
        floor, _ = plan_gang_width(self.threads, tiles=0,
                                   backend=self.backend)
        #: Per-sweep data-movement tallies (strided vs. contiguous
        #: reconstruction, bytes permuted); surfaced by the CLI, the
        #: benches, and :meth:`Profile.report`.
        self.sweep_counters = SweepCounters()
        # Transposed, fused and tiled sweeps all need the workspace
        # (transposed scratch, tile arenas, disjoint-write buffers);
        # without one the engine only plans, and every call takes the
        # allocating reference path.
        ws_on = self.use_workspace
        self._engine = engine = SweepEngine(
            self.layout, self.mixture, self.bcs, self.config, self.grid.shape,
            counters=self.sweep_counters,
            sweep_layout=self.sweep_layout if ws_on else "strided",
            fused=fused, weno_variant=self.weno_variant,
            riemann_variant=self.riemann_variant, batch=self.batch,
            workers=floor, tiles=self.tiles,
            device=(get_device(self.tile_device)
                    if isinstance(self.tile_device, str)
                    else self.tile_device),
            dtype=self.dtype, stopwatch=self.stopwatch)
        self.fusion_backend = self._engine.fusion_backend
        #: Preallocated buffer arena; None runs the allocating
        #: reference path.
        #: Resolved gang width and the reason for it (the banner text).
        self.threads, self.gang_why = plan_gang_width(
            self.threads, backend=self.backend, tiles=max(
                p.tiles for p in engine.plans.values()) if ws_on else 0)
        width = self.threads if ws_on else 1
        self.workspace = ws = (SolverWorkspace(
            self.layout, self.grid, self._ng, dtype=self.dtype,
            weno_variant=self.weno_variant,
            weno_order=self.config.weno_order, batch=self.batch,
            backend=self.backend, shared=width > 1,
            rows=engine.rows) if ws_on else None)
        widths = tuple(self.backend.xp.asarray(w, dtype=self.dtype)
                       for w in self.grid.width_fields())
        self._launch = _Launch(self.layout, self.mixture, engine, ws, widths,
                               width, self.stopwatch) if ws_on else None
        #: The forked gang; None takes the serial path with no fork, no
        #: shared mapping and zero executor overhead.
        self.executor = (GangExecutor(width, self._launch,
                                      stopwatch=self.stopwatch)
                         if width > 1 else None)

    @classmethod
    def planned(cls, layout, mixture, grid, bcs, config, options, plan, *,
                stopwatch=None, batch: int | None = None) -> "RHS":
        """The RHS a driver runs: ``options`` resolved into ``plan``.

        The one construction every driver shares.  ``plan`` is the
        :class:`~repro.tuning.TuningPlan` of
        :func:`~repro.tuning.resolve_plan`, which names the layout,
        fusion mode, backend, kernel variants and tile count; a plan
        without a gang width leaves ``options.threads`` in charge.
        """
        return cls(layout, mixture, grid, bcs, config, stopwatch=stopwatch,
                   use_workspace=options.use_workspace,
                   threads=(plan.threads if plan.threads is not None
                            else options.threads),
                   tile_device=options.tile_device,
                   sweep_layout=plan.sweep_layout, fusion=plan.fusion,
                   weno_variant=plan.weno_variant,
                   riemann_variant=plan.riemann_variant, tiles=plan.tiles,
                   backend=plan.backend,
                   dtype=precision_dtype(options.precision), batch=batch)

    def close(self) -> None:
        """Stop and reap the gang's workers (idempotent)."""
        if self.executor is not None:
            self.executor.close()

    def __exit__(self, *exc) -> None:
        self.close()

    def tile_plan(self) -> dict:
        """The chosen sweep schedule, for profiler reports and bench records.

        ``directions`` holds one :class:`~repro.solver.sweep.SweepPlan`
        per swept direction as a dict (``d``, ``kind``, ``slab_axis``,
        ``tiles``, ``fused``; virtual axis indices).  ``source`` says
        whether the tile counts came from the explicit ``tiles``
        override (a tuning plan) or the L2 heuristic; ``gang`` is the
        resolved gang width and why (``"2 of 2 cores, 10 tiles"``).
        """
        return {
            "directions": [dataclasses.asdict(plan)
                           for plan in self._engine.plans.values()],
            "fusion": self.fusion,
            "fusion_backend": self.fusion_backend,
            "source": ("override" if self.tiles is not None else "heuristic"),
            "gang": self.gang_why,
        }

    @property
    def ghost_width(self) -> int:
        return self._ng

    @property
    def folds(self) -> bool:
        """Whether calls may carry a ``stage=`` (see :meth:`__call__`)."""
        return self.workspace is not None

    def __call__(self, q: np.ndarray, *, out: np.ndarray | None = None,
                 prim: np.ndarray | None = None, stage=None) -> np.ndarray:
        """Compute ``dq/dt``.

        Parameters
        ----------
        out:
            Optional destination for the tendency (e.g. the workspace's
            ``dqdt``); a fresh array is allocated when omitted, so plain
            ``rhs(q)`` calls never hand out an aliased buffer.
        prim:
            Optional precomputed primitive field of ``q`` (the driver's
            dt computation shares its ``cons_to_prim`` with RK stage
            one through this).
        stage:
            A :class:`~repro.timestepping.ssp_rk.Stage` to finish: ``q``
            is then the workspace's ``rk_result`` or ``rk_stage`` and the
            RHS writes the stage combination into ``stage.dest`` too.

        The workspace path runs one launch per direction — on the gang
        when there is one — and folds the step's elementwise work into
        them (one body, :class:`_Launch`, serial or not).  The first
        direction's tiles zero their rows of ``dqdt``/``divu`` and, for
        a stage, convert their rows of ``q`` to primitives (a tile reads
        only its own slab rows there), measuring the wave rate of those
        rows when ``stage.rate`` asks; the stage's dt is resolved from
        the merged rate (a floating max, exact) before the last
        direction, whose tiles add the nonconservative term and combine
        their rows — final once their last divergence has landed.
        Axisymmetric and viscous sources need the whole field, so with
        either (or a 1D stage whose dt waits on its one launch) the
        finish runs as a row-tile loop after the launches instead.  A
        plain call converts ``q`` on the caller first: gang members
        reach only the workspace.  Bitwise identical in every case.
        """
        ws = self.workspace
        if ws is None or not ws.compatible(q):
            return self._reference(q, out=out, prim=prim)
        layout, sw, xp, ctl = self.layout, self.stopwatch, ws.xp, ws.control
        dirs = range(self._nb, self._nb + layout.ndim)
        if prim is not None and prim is not ws.prim:
            xp.copyto(ws.prim, prim)
        convert = prim is None and stage is not None
        if prim is None and stage is None:
            with timed(sw, "other"):
                cons_to_prim(layout, self.mixture, q, out=ws.prim, tiles=ws)
        measure = stage is not None and stage.rate
        finish = (self._radius is None and self._viscosity is None
                  and (len(dirs) > 1 or stage is None
                       or not callable(stage.dt)))
        if stage is not None:
            bufs = [id(ws.rk_result), id(ws.rk_stage)]
            if id(q) not in bufs or id(stage.dest) not in bufs:
                raise ConfigurationError(
                    "a folded stage runs on the workspace's RK buffers")
            ctl[_SRC], ctl[_DEST] = bufs.index(id(q)), bufs.index(id(stage.dest))
            ctl[_A], ctl[_B], ctl[_C] = stage.a, stage.b, stage.c
        for d in dirs:
            flags = 0
            if d == dirs[0]:
                flags |= ZERO | CONVERT * convert | RATE * measure
            if d == dirs[-1] and finish:
                flags |= FINISH | COMBINE * (stage is not None)
                if stage is not None:
                    ctl[_DT:_DT + (ws.batch or 1)] = np.reshape(
                        stage.dt if ws.batch is None
                        else to_host_array(stage.dt), -1)
            ctl[_FLAGS] = flags
            results = (self.executor.launch(d) if self.executor is not None
                       else [self._launch(d, 0)])
            self.limited_faces += sum(limited for limited, _ in results)
            if d == dirs[0] and stage is not None:
                stage.resolve(reduce(max_rate, [rate for _, rate in results])
                              if measure else None)

        dqdt = ws.dqdt
        if not finish:
            if self._radius is not None:
                apply_axisymmetric_terms(layout, ws.prim, q, self._radius,
                                         dqdt, ws.divu)
            if self._viscosity is not None:
                with timed(sw, "other"):
                    dqdt += viscous_rhs(layout, self.grid, ws.prim,
                                        self._viscosity)
            cdt = None if stage is None else stage.c * stage.dt
            for rows, new in row_tiles(dqdt, ws):
                idx = (slice(None), rows)
                nonconservative_tile(layout, ws.prim[idx], ws.divu[rows],
                                     dqdt[idx], new)
                if stage is not None:
                    shu_osher_tile(ws.rk_result[idx], q[idx], dqdt[idx],
                                   stage.dest[idx], new(dqdt[idx].shape),
                                   stage.a, stage.b, tile_of(cdt, (rows,)))
        if out is None:
            return xp.copy(dqdt)
        if out is not dqdt:
            xp.copyto(out, dqdt)
        return out

    def _reference(self, q, *, out=None, prim=None):
        """The allocating reference path (no workspace, or an off-grid
        ``q`` the workspace was not built for)."""
        layout, sw = self.layout, self.stopwatch
        xp = array_namespace(q)
        # Cell widths live on the host; asarray is the sanctioned H2D
        # entry (identity for the NumPy backend, so bitwise neutral).
        widths = tuple(xp.asarray(w, dtype=q.dtype)
                       for w in self.grid.width_fields())
        if prim is None:
            with timed(sw, "other"):
                prim = cons_to_prim(layout, self.mixture, q)
        if out is None:
            dqdt = xp.zeros_like(q)
        else:
            dqdt = out
            dqdt[...] = 0.0
        divu = xp.zeros(tuple(q.shape[1:]), dtype=q.dtype)

        # Virtual direction d sweeps array axis d+1; the physical
        # direction (momentum component, BC axis, width field) is
        # d - nb, where nb is the leading batch-axis count.  A batched
        # RHS may still be handed a single-case field (e.g. a validation
        # probe); the array rank says which shape arrived.
        nb = 1 if (self._nb and prim.ndim == layout.ndim + 2) else 0
        for d in range(nb, nb + layout.ndim):
            self._accumulate_direction_reference(
                prim, d, widths[d - nb], dqdt, divu)

        if self._radius is not None:
            apply_axisymmetric_terms(layout, prim, q, self._radius, dqdt, divu)

        if self._viscosity is not None:
            with timed(sw, "other"):
                dqdt += viscous_rhs(layout, self.grid, prim, self._viscosity)

        # Nonconservative term: dalpha/dt += alpha * div(u).
        dqdt[layout.advected] += prim[layout.advected] * divu
        return dqdt

    # ------------------------------------------------------------------
    def _accumulate_direction_reference(self, prim: np.ndarray, d: int,
                                        width: np.ndarray, dqdt: np.ndarray,
                                        divu: np.ndarray) -> None:
        """One direction on freshly allocated arrays — the oracle.

        The obviously-correct spelling of the sweep (whole-field
        kernels, ``np.diff`` divergence) that every workspace mode of
        :class:`~repro.solver.sweep.SweepEngine` is bitwise-compared
        against; also answers off-grid calls the workspace cannot.
        """
        layout, ng, sw = self.layout, self._ng, self.stopwatch
        pd = d - (prim.ndim - layout.ndim - 1)  # physical direction
        lo, hi = self.bcs.per_axis[pd]
        with timed(sw, "packing"):
            padded = pad_axis(prim, d, ng)
            fill_axis_ghosts(padded, layout, d, ng, lo, hi,
                             normal_direction=pd)
        with timed(sw, "weno"):
            v_l, v_r = reconstruct_faces(padded, d + 1,
                                         self.config.weno_order,
                                         variant=self.weno_variant)
            self.limited_faces += limit_face_states(
                layout, self.mixture, padded, v_l, v_r, d, ng)
        with timed(sw, "riemann"):
            flux, u_face = self._engine.riemann(layout, self.mixture,
                                                v_l, v_r, pd)
        with timed(sw, "other"):
            # dq/dt += (F_{i-1/2} - F_{i+1/2}) / dx = -diff(F)/dx.
            xp = array_namespace(prim)
            dqdt -= xp.diff(flux, axis=d + 1) / width
            divu += xp.diff(u_face, axis=d) / width
        self.sweep_counters.record_strided(
            v_l.nbytes + v_r.nbytes, contiguous=(pd == layout.ndim - 1),
            weno_passes=self._engine.weno_passes)
