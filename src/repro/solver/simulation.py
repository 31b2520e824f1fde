"""Simulation driver: one case, grind-time accounting, restarts.

The driver mirrors MFC's main loop — a CFL-limited SSP-RK3 step, a
periodic state check, the conserved totals and wall-time statistics the
paper's performance figures are built from — and is a constructor
around the march loop (:class:`repro.solver.march.March`): one slot on
its own unbatched :class:`~repro.solver.rhs.RHS`.  The loop owns the
step guard (``retry=RetryPolicy(...)``), the ``validate_every``
cadence, rotating durable checkpoints and the
fault-injector hook; the driver adds the tuning plan, restarts
(:meth:`Simulation.restore_latest` falls back past corrupt checkpoints)
and, with ``ranks > 1``, the hand-off of a whole march to a
:class:`~repro.cluster.ProcessCluster`, whose ranks run the same loop.
Grind time is the paper's: ns per cell, per PDE, per RHS evaluation.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable

import numpy as np

from repro.acc.gang import plan_gang_width
from repro.backend import precision_dtype, to_host_array
from repro.bc.boundary import BC, BoundarySet
from repro.common import ConfigurationError, Stopwatch
from repro.solver.case import Case
from repro.solver.march import March, StepRecord
from repro.solver.options import SolverOptions, fold
from repro.solver.rhs import RHS, RHSConfig
from repro.state.conversions import cons_to_prim
from repro.weno import halo_width

__all__ = ["Simulation", "StepRecord"]


class Simulation(March):
    """Time-marches a :class:`~repro.solver.case.Case`.

    Parameters
    ----------
    case / bcs:
        Grid, mixture and initial condition; physical boundary
        conditions.
    config:
        Numerics (:class:`RHSConfig`).
    options / knobs:
        How to march: a :class:`~repro.solver.options.SolverOptions`
        and/or loose keyword knobs folded into it
        (``Simulation(case, bcs, cfl=0.4, fusion="on")``).  Every knob
        is documented once, in DESIGN.md "Options: one table"; knob
        reads on the driver (``sim.fusion``) resolve through
        :attr:`options`, which records the *resolved* configuration —
        the tuning plan's layout/fusion/backend and the planned gang
        width (:attr:`gang_why` says why) replace the requested ones.
    stopwatch:
        Per-kernel-family wall-time laps (:meth:`kernel_breakdown`).
    fault_injector:
        Optional fault-injection plan (duck-typed: ``apply(q, step=...,
        attempt=...) -> int`` corrupting ``q`` in place and returning
        the number of cells touched), called on every candidate
        post-step state; on ranks, on each block with ``block=(shape,
        origin)`` added.  Test/chaos-engineering hook.

    :attr:`tuning_plan` is the resolved :class:`~repro.tuning.TuningPlan`
    (None with tuning off), :attr:`tuner` the
    :class:`~repro.tuning.Autotuner` behind it (None unless
    ``tuning="auto"``); :meth:`close` (or the driver as a context
    manager) reaps the gang workers.
    """

    def __init__(self, case: Case, bcs: BoundarySet,
                 config: RHSConfig | None = None,
                 options: SolverOptions | None = None, *,
                 stopwatch: Stopwatch | None = None,
                 fault_injector: object | None = None, **knobs) -> None:
        options = fold(options, knobs)
        options.require_compatible()
        if options.ranks > 1:
            # A 2-rank run must never start four busy processes.
            width, self.gang_why = plan_gang_width(
                options.threads, tiles=0, ranks=options.ranks)
            options = dataclasses.replace(options, threads=width)
        self.case = case
        self._dtype = precision_dtype(options.precision)
        q = case.initial_conservative()
        # The tuner measures on the host array; the state moves onto
        # the execution backend (H2D, an identity for numpy/float64)
        # once the plan — which names the backend — is settled.
        options, tiles = self._setup(case, bcs, config, stopwatch, options, q)
        self.q = options.backend.from_host(q, dtype=self._dtype)
        self.rhs = RHS(self.layout, self.mixture, self.grid, bcs, self.config,
                       options, tiles=tiles, stopwatch=self.stopwatch)
        if options.ranks == 1:
            self.gang_why = self.rhs.gang_why
        self.options = self.rhs.options
        #: Merged :class:`~repro.profiling.counters.HaloCounters` of the
        #: last multi-process :meth:`run` (None until one completes), its
        #: per-rank split and its rank grid (ClusterResult.ranks, .decomp).
        self.halo_counters = self.rank_loads = self.decomp = None
        super().__init__(prefixes=["ckpt"], fault_plans=(
            None if fault_injector is None else {0: fault_injector}))

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Simulation time of the case."""
        return float(self.times[0])

    def _set_clock(self, step: int, time: float) -> None:
        self.steps[0] = self.step_count = step
        self.times[0] = time

    def primitive(self) -> np.ndarray:
        """Current primitive field (fresh array)."""
        return cons_to_prim(self.layout, self.mixture, self.q)

    def conserved_totals(self) -> np.ndarray:
        """Volume-integrated conservative variables (for conservation tests)."""
        vol = self.grid.cell_volumes()
        q = to_host_array(self.q)  # D2H: diagnostics integrate on host
        return np.array([(q[v] * vol).sum() for v in range(self.layout.nvars)])

    def step(self, dt: float | None = None, *,
             dt_limit: float | None = None, callback=None) -> StepRecord:
        """One step of the march loop (in-process only)."""
        if self.ranks > 1:
            raise ConfigurationError(
                "single-step marching is in-process only; with ranks > 1 "
                "use run(), which delegates the whole march to the cluster")
        return super().step(dt, dt_limit=dt_limit, callback=callback)

    # ------------------------------------------------------------------
    def run(self, *, t_end: float | None = None, n_steps: int | None = None,
            callback: Callable[["Simulation", StepRecord], None] | None = None) -> None:
        """March until ``t_end`` or for ``n_steps`` (whichever is given).

        The final step is clipped so the run lands exactly on ``t_end``.
        A horizon at or before the current time is a no-op; a negative
        one is a configuration error.  ``callback(sim, record)`` runs
        after every step, before its checkpoint.

        With ``ranks > 1`` the whole march goes to a
        :class:`~repro.cluster.ProcessCluster` over a balanced
        decomposition of the state, seeded with this march's absolute clock and
        bitwise identical to the serial march; the driver's state,
        clock, history, counters and recovery tally absorb its result and
        the merged halo counters land in :attr:`halo_counters`, each
        rank's wait and faces in :attr:`rank_loads`, the grid in :attr:`decomp`.
        """
        if self.ranks == 1:
            super().run(t_end=t_end, n_steps=n_steps, callback=callback)
            return
        self.options.require_compatible(callback=callback)
        horizons = self._horizons(t_end, n_steps)
        if horizons is not None and self._landed(horizons):
            return  # horizon already reached: a no-op, as in-process
        from repro.cluster import BlockDecomposition, ProcessCluster

        periodic = tuple(lo is BC.PERIODIC for lo, _ in self.bcs.per_axis)
        q = to_host_array(self.q)
        decomp = BlockDecomposition.balanced(
            self.grid.shape, self.ranks, periodic=periodic, state=q,
            ng=halo_width(self.config.weno_order))
        cluster = ProcessCluster(self.grid, self.layout, self.mixture,
                                 self.bcs, decomp, self.config, self.options,
                                 fault_injector=self.fault_plans.get(0))
        result = cluster.run(q, t_end=t_end, n_steps=n_steps,
                             base_time=self.time, base_step=self.step_count)
        self.q = self.backend.from_host(result.q, dtype=self._dtype)
        self._set_clock(result.step_count, result.time)
        self.history.extend(StepRecord(*h) for h in result.history)
        self.halo_counters, self.rank_loads, self.decomp = (
            result.halo, result.ranks, result.decomp)
        self.rhs.sweep_counters.merge(result.sweep)
        self.rhs.limited_faces += result.limited_faces
        self.recovery.merge(result.recovery)

    # ------------------------------------------------------------------
    @property
    def checkpoint_manager(self):
        """Lazy :class:`~repro.io.checkpoint.CheckpointManager` over
        ``checkpoint_dir`` (requires the directory to be configured);
        every checkpoint of this driver goes through it."""
        return self._manager(0)

    def checkpoint_now(self) -> Path:
        """Write one rotating durable checkpoint of the current state."""
        return self._checkpoint(0)

    def restore_latest(self) -> Path:
        """Restore from the newest *valid* checkpoint set in
        ``checkpoint_dir``, whatever rank count wrote it; returns its
        manifest.  Sets with a missing or corrupt block or of another
        shape are skipped and counted (:class:`~repro.common.
        CheckpointError` if none survives).  The step history, stopwatch
        laps and limiter count restart; :attr:`recovery` counts it."""
        mgr = self.checkpoint_manager
        verified0, rejected0 = mgr.verified, mgr.rejected
        events0 = len(mgr.events)
        try:
            path, header, q = mgr.load_latest(
                expect_shape=tuple(self.q.shape))
        finally:
            self.recovery.record_checkpoint_skips(
                mgr, verified0=verified0, rejected0=rejected0,
                events0=events0)
        self.q = self.backend.from_host(q, dtype=self._dtype)
        self._set_clock(header.step, header.time)
        self.history.clear()
        self.stopwatch.laps.clear()
        self.rhs.limited_faces = 0
        self.recovery.restarts += 1
        return path

    # ------------------------------------------------------------------
    @classmethod
    def run_ensemble(cls, jobs, bcs, *, batch_width: int = 8,
                     config: RHSConfig | None = None, **kwargs):
        """March many same-shape cases as an in-memory campaign.

        ``jobs`` is a list of :class:`repro.ensemble.EnsembleJob` (or
        ``(case, t_end)`` tuples); compatible jobs are grouped into
        batches of at most ``batch_width``, each advanced by ONE stacked
        RHS (see :mod:`repro.ensemble`) in a supervised child, side by
        side on a multi-core host — each case bit-for-bit identical to
        its standalone run.  A diverging case is retried, then
        quarantined with its error, not raised.  Remaining keyword
        arguments are forwarded to
        :class:`~repro.ensemble.EnsembleService` (``cfl``, ``rk_order``,
        ``fixed_dt``, ``threads``, ``fusion``, ``tuning``,
        ``max_attempts``, ``ledger``, ...).  Returns the
        :class:`~repro.ensemble.ServiceReport`.
        """
        from repro.ensemble import EnsembleJob, EnsembleService

        normalized = [job if isinstance(job, EnsembleJob)
                      else EnsembleJob(*job) for job in jobs]
        return EnsembleService(normalized, bcs, batch_width=batch_width,
                               config=config, **kwargs).run()
