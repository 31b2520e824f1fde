"""Simulation driver: time marching, state checks, grind-time accounting.

The driver mirrors MFC's main loop: compute a CFL-limited step, advance
with SSP-RK3, periodically validate the state, and keep the conserved
totals and wall-time statistics the paper's performance figures are
built from.  Grind time follows the paper's definition —

    nanoseconds per grid cell, per PDE, per right-hand-side evaluation —

where an SSP-RK3 step performs three RHS evaluations.

Resilient marching
------------------
Multi-day production campaigns must survive both numerical blow-ups and
machine faults, so the driver layers three defenses on top of the plain
loop (all off by default, all bitwise neutral when idle):

* a **step guard** (``retry=RetryPolicy(...)``): every step is
  validated post hoc; a failed step rolls the state back to the
  workspace's rollback snapshot and re-runs under the policy — first at
  the same dt (healing transient faults bitwise identically to a clean
  run), then with dt backoff, then down the scheme-escalation ladder —
  raising :class:`~repro.solver.resilience.SimulationDivergedError`
  only when everything is exhausted;
* **periodic validation** (``validate_every``) and **rotating durable
  checkpoints** (``checkpoint_every`` + ``checkpoint_dir``) inside
  :meth:`run`, with :meth:`restore_latest` falling back past corrupt
  checkpoints on restart;
* a pluggable **fault injector** (any object with an
  ``apply(q, step=..., attempt=...) -> int`` method, e.g.
  :class:`repro.faults.CellFaultPlan`) that corrupts the post-step
  state deterministically so the recovery machinery can be tested
  end to end.

Every recovery action is tallied in :attr:`Simulation.recovery`.
"""

from __future__ import annotations

import dataclasses
import time as clock
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.acc.gang import plan_gang_width
from repro.backend import (
    array_namespace,
    precision_dtype,
    resolve_backend,
    to_host_array,
)
from repro.bc.boundary import BC, BoundarySet
from repro.common import ConfigurationError, NumericsError, Stopwatch, WallTimer
from repro.io.binary import read_snapshot, write_snapshot
from repro.io.checkpoint import CheckpointManager
from repro.solver.case import Case
from repro.solver.options import KnobAccess, SolverOptions, fold
from repro.solver.resilience import (
    ESCALATION_ORDERS,
    RecoveryCounters,
    SimulationDivergedError,
    check_state,
)
from repro.solver.rhs import RHS, RHSConfig
from repro.state.conversions import cons_to_prim
from repro.timestepping import SSP_SCHEMES, horizon_reached, time_step
from repro.tuning.plan import heuristic_plan, resolve_plan


def _scheme_name(order: int) -> str:
    """Human name of a reconstruction order (``weno5``, ``first_order``)."""
    return "first_order" if order <= 1 else f"weno{order}"


@dataclass(frozen=True)
class StepRecord:
    """Bookkeeping for one completed time step."""

    step: int
    time: float
    dt: float
    wall_seconds: float
    #: Rollback-retries the guarded step needed before it passed
    #: validation (0 on the unguarded path and for clean steps).
    retries: int = 0


class Simulation(KnobAccess, AbstractContextManager):
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
        post-step state.  Test/chaos-engineering hook.

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
        options.require_compatible(fault_injector=fault_injector)
        if options.ranks > 1:
            # A 2-rank run must never start four busy processes.
            width, self.gang_why = plan_gang_width(
                options.threads, tiles=0, ranks=options.ranks)
            options = dataclasses.replace(options, threads=width)
        self.case = case
        self.bcs = bcs
        self.config = config if config is not None else RHSConfig()
        self.stopwatch = stopwatch if stopwatch is not None else Stopwatch()
        self.fault_injector = fault_injector
        self.layout = case.layout
        self.mixture = case.mixture
        self.grid = case.grid
        self._dtype = precision_dtype(options.precision)
        q = case.initial_conservative()
        # The tuner measures on the host array; the state moves onto
        # the execution backend (H2D, an identity for numpy/float64)
        # once the plan — which names the backend — is settled.
        plan, self.tuner = resolve_plan(
            options, self.layout, self.mixture, self.grid, bcs, self.config, q)
        self.tuning_plan = plan if options.tuning != "off" else None
        backend = resolve_backend(plan.backend)
        self.q = backend.from_host(q, dtype=self._dtype)
        self.rhs = RHS.planned(self.layout, self.mixture, self.grid, bcs,
                               self.config, options, plan,
                               stopwatch=self.stopwatch)
        if options.ranks == 1:
            self.gang_why = self.rhs.gang_why
        self.options = dataclasses.replace(
            options, threads=self.rhs.threads, backend=backend,
            sweep_layout=plan.sweep_layout, fusion=plan.fusion)
        self.time = 0.0
        self.step_count = 0
        self.history: list[StepRecord] = []
        #: Tally of every recovery action (retries, rollbacks,
        #: checkpoints, restarts, injected faults) over this driver's
        #: lifetime; surfaced by the CLI, profiler, and benchmarks.
        self.recovery = RecoveryCounters()
        #: Merged :class:`~repro.profiling.counters.HaloCounters` of the
        #: last multi-process :meth:`run` (None until one completes).
        self.halo_counters = None
        self._ckpt_manager = None
        # Escalation fallbacks are built lazily (each carries its own
        # workspace) and only for rungs below the configured order.
        self._fallback_rhs_cache: dict[int, RHS] = {}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Reap the gang workers (idempotent; a later step re-forks)."""
        self.rhs.close()

    def __exit__(self, *exc) -> None:
        self.close()

    def primitive(self) -> np.ndarray:
        """Current primitive field (fresh array)."""
        return cons_to_prim(self.layout, self.mixture, self.q)

    def conserved_totals(self) -> np.ndarray:
        """Volume-integrated conservative variables (for conservation tests)."""
        vol = self.grid.cell_volumes()
        q = to_host_array(self.q)  # D2H: diagnostics integrate on host
        return np.array([(q[v] * vol).sum() for v in range(self.layout.nvars)])

    def step(self, dt: float | None = None, *,
             dt_limit: float | None = None) -> StepRecord:
        """Advance one time step; returns its record.

        Parameters
        ----------
        dt:
            Step size to use; computed from the CFL condition (or
            ``fixed_dt``) when omitted.
        dt_limit:
            Upper bound on the step (the driver clips the final step of
            ``run(t_end=...)`` with this so the run lands exactly on the
            horizon).

        Every attempt is the shared :func:`~repro.timestepping.time_step`
        body.  Without a :class:`~repro.solver.resilience.RetryPolicy`
        there is one attempt and nothing else — no snapshot, no
        post-step check.  With one the step is guarded: the post-step
        state is validated and a failure rolls back to the workspace's
        rollback snapshot and retries under the policy — first at the
        same dt, then with dt backoff, then down the escalation ladder —
        raising :class:`~repro.solver.resilience.SimulationDivergedError`
        when everything is exhausted (the pre-step state is left
        restored, so checkpoint-based recovery can take over).
        """
        if self.ranks > 1:
            raise ConfigurationError(
                "single-step marching is in-process only; with ranks > 1 "
                "use run(), which delegates the whole march to the cluster")
        policy = self.retry
        ladder = self._escalation_ladder
        attempts = 1
        if policy is not None:
            attempts += policy.max_retries + len(ladder)
            # q may alias ws.rk_result (a failed RK step clobbers it; a
            # foreign q is copied there first), so the guard snapshots
            # into the workspace-owned rollback buffer — no per-step
            # allocation.
            xp = array_namespace(self.q)
            ws = self.rhs.workspace
            if ws is not None:
                xp.copyto(ws.rollback, self.q)
            snapshot = ws.rollback if ws is not None else xp.copy(self.q)
        widths = self.grid.width_fields()
        dts: list[float] = []
        schemes: list[str] = []
        for attempt in range(attempts):
            # self.rhs is looked up per step: callers may wrap it.
            rhs, order = self.rhs, self.config.weno_order
            if attempt:
                # A retry recomputes the primitives the failed attempt's
                # RK stages clobbered — bitwise what a fresh step would.
                dt, dt_limit = policy.dt_for_attempt(dts[0], attempt), None
                if attempt > policy.max_retries:
                    order = ESCALATION_ORDERS[
                        ladder[attempt - policy.max_retries - 1]]
                    rhs = self._fallback_rhs(order)
            q_new, dt, started = time_step(
                rhs, self.q, layout=self.layout, mixture=self.mixture,
                widths=widths, options=self.options,
                workspace=rhs.workspace, dt=dt, dt_limit=dt_limit,
                stopwatch=self.stopwatch)
            if not attempt:
                rk_start = started
            dts.append(dt)
            schemes.append(_scheme_name(order))
            if self.fault_injector is not None:
                self.recovery.faults_injected += int(self.fault_injector.apply(
                    q_new, step=self.step_count + 1, attempt=attempt))
            diag = None if policy is None else self._check(q_new, rhs.workspace)
            if diag is None:
                self.q = q_new
                break
            self.recovery.guard_failures += 1
            xp.copyto(self.q, snapshot)
            self.recovery.rollbacks += 1
            if attempt + 1 < attempts:
                self.recovery.retries += 1
                if attempt + 1 > policy.max_retries:
                    self.recovery.escalations += 1
                elif attempt + 1 > policy.same_dt_retries:
                    self.recovery.dt_halvings += 1
        else:
            # Exhausted: the pre-step state is restored in self.q, so a
            # caller holding checkpoints can still recover.
            raise SimulationDivergedError(
                step=self.step_count + 1, time=self.time,
                dts=tuple(dts), schemes=tuple(schemes), diagnostics=diag,
                limited_faces=self.rhs.limited_faces + sum(
                    r.limited_faces
                    for r in self._fallback_rhs_cache.values()))
        wall = clock.perf_counter() - rk_start
        self.time += dt
        self.step_count += 1
        rec = StepRecord(self.step_count, self.time, dt, wall,
                         retries=len(dts) - 1)
        self.history.append(rec)
        if self.check_every and self.step_count % self.check_every == 0:
            self.validate_state()
        return rec

    @property
    def _escalation_ladder(self) -> tuple:
        """The retry policy's rungs below the configured order."""
        if self.retry is None:
            return ()
        return tuple(rung for rung in self.retry.escalation
                     if ESCALATION_ORDERS[rung] < self.config.weno_order)

    def _check(self, q, ws):
        """The state check of the guard and of :meth:`validate_state`
        (D2H: a host-side diagnostic): tile by tile through the
        workspace's primitive buffer when there is one."""
        prim = None
        if ws is not None and ws.compatible(q):
            prim = to_host_array(cons_to_prim(self.layout, self.mixture, q,
                                              out=ws.prim, tiles=ws))
        else:
            ws = None
        return check_state(self.layout, self.mixture, to_host_array(q),
                           prim=prim, tiles=ws)

    def _fallback_rhs(self, order: int) -> RHS:
        """Cached lower-order RHS for a scheme-escalation retry.

        Built on first use (so an untroubled run allocates nothing
        extra), serial and strided: an escalated step is a rare rescue
        where robustness, not throughput, is the point.
        """
        rhs = self._fallback_rhs_cache.get(order)
        if rhs is None:
            rhs = self._fallback_rhs_cache[order] = RHS.planned(
                self.layout, self.mixture, self.grid, self.bcs,
                dataclasses.replace(self.config, weno_order=order),
                self.options,
                heuristic_plan(threads=1, backend=self.backend.name),
                stopwatch=self.stopwatch)
        return rhs

    # ------------------------------------------------------------------
    def run(self, *, t_end: float | None = None, n_steps: int | None = None,
            callback: Callable[["Simulation", StepRecord], None] | None = None) -> None:
        """March until ``t_end`` or for ``n_steps`` (whichever is given).

        The final step is clipped so the run lands exactly on ``t_end``.
        A horizon at or before the current time is a no-op; a negative
        one is a configuration error.  After each step (and its
        callback) the driver applies the ``validate_every`` and
        ``checkpoint_every`` cadences.
        """
        if (t_end is None) == (n_steps is None):
            raise ConfigurationError("specify exactly one of t_end or n_steps")
        if t_end is not None and t_end < 0.0:
            raise ConfigurationError(
                f"t_end must be non-negative, got {t_end}")
        if self.ranks > 1:
            self.options.require_compatible(callback=callback)
            self._run_cluster(t_end=t_end, n_steps=n_steps)
            return
        if n_steps is not None:
            for _ in range(n_steps):
                rec = self.step()
                self._after_step(rec, callback)
            return
        while not horizon_reached(self.time, t_end):
            rec = self.step(dt_limit=t_end - self.time)
            self._after_step(rec, callback)

    def _run_cluster(self, *, t_end: float | None,
                     n_steps: int | None) -> None:
        """Delegate a whole march to a multi-process cluster.

        Builds a balanced :class:`~repro.cluster.BlockDecomposition`
        over :attr:`ranks` processes and runs
        :class:`~repro.cluster.ProcessCluster` on the current state —
        bitwise identical to the serial march.  The workers are seeded
        with the driver's absolute time/step, so worker checkpoint
        headers and history records carry the same clock the driver
        reports.  The driver's state, clock, step history,
        limiter/sweep counters, and restart tally absorb the cluster's
        results, and the merged halo counters land in
        :attr:`halo_counters`.
        """
        from repro.cluster import BlockDecomposition, ProcessCluster

        if t_end is not None and horizon_reached(self.time, t_end):
            return  # horizon already reached: a no-op, as in-process
        periodic = tuple(lo is BC.PERIODIC for lo, _ in self.bcs.per_axis)
        decomp = BlockDecomposition.balanced(
            self.grid.shape, self.ranks, periodic=periodic)
        cluster = ProcessCluster(self.grid, self.layout, self.mixture,
                                 self.bcs, decomp, self.config, self.options)
        result = cluster.run(to_host_array(self.q), t_end=t_end,
                             n_steps=n_steps,
                             base_time=self.time, base_step=self.step_count)
        self.q = self.backend.from_host(result.q, dtype=self._dtype)
        self.time = result.time
        self.step_count = result.step_count
        for step, time, dt, wall in result.history:
            self.history.append(StepRecord(step, time, dt, wall))
        self.halo_counters = result.halo
        self.rhs.sweep_counters.merge(result.sweep)
        self.rhs.limited_faces += result.limited_faces
        self.recovery.restarts += result.restarts
        if self.validate_every or self.check_every:
            self.validate_state()

    def _after_step(self, rec: StepRecord,
                    callback: Callable | None) -> None:
        if callback is not None:
            callback(self, rec)
        if self.validate_every and self.step_count % self.validate_every == 0:
            self.validate_state()
        if self.checkpoint_every \
                and self.step_count % self.checkpoint_every == 0:
            self.checkpoint_now()

    # ------------------------------------------------------------------
    def validate_state(self) -> None:
        """Raise :class:`NumericsError` if the state became unphysical.

        The error names the check that failed, the first offending
        cell, and the primitive variable there (via
        :func:`repro.solver.resilience.check_state`).
        """
        diag = self._check(self.q, self.rhs.workspace)
        if diag is not None:
            raise NumericsError(
                f"unphysical state at step {self.step_count}: {diag}")

    # ------------------------------------------------------------------
    @property
    def checkpoint_manager(self):
        """Lazy :class:`~repro.io.checkpoint.CheckpointManager` over
        ``checkpoint_dir`` (requires the directory to be configured)."""
        if self._ckpt_manager is None:
            if self.checkpoint_dir is None:
                raise ConfigurationError(
                    "no checkpoint_dir configured on this Simulation")
            self._ckpt_manager = CheckpointManager(
                self.checkpoint_dir, keep=self.checkpoint_keep)
        return self._ckpt_manager

    def checkpoint_now(self) -> Path:
        """Write one rotating durable checkpoint of the current state."""
        with WallTimer() as timer:
            path = self.checkpoint_manager.save(
                to_host_array(self.q), step=self.step_count, time=self.time)
        self.recovery.checkpoints_written += 1
        self.recovery.checkpoint_seconds += timer.elapsed
        return path

    def restore_latest(self) -> Path:
        """Restore from the newest *valid* checkpoint in ``checkpoint_dir``.

        Corrupt candidates (truncated, bit-flipped, wrong shape) are
        skipped with their rejection counted; raises
        :class:`~repro.common.CheckpointError` when no checkpoint
        survives verification.  Returns the path restored from.
        """
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
        self._apply_restart(header.step, header.time, q)
        return path

    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> int:
        """Write the current state as a restart snapshot; returns bytes."""
        return write_snapshot(path, to_host_array(self.q),
                              step=self.step_count, time=self.time)

    def load_checkpoint(self, path) -> None:
        """Restore state, step count, and time from a snapshot.

        All accumulated statistics — step history, kernel stopwatch
        laps, and the RHS limiter counter — are reset so post-restart
        ``kernel_breakdown()``/``grind_time_ns()`` and limiter stats
        describe only the restarted run instead of mixing in
        pre-restart accounting.  (The :attr:`recovery` tally is *not*
        reset: restarts are exactly what it exists to count.)
        """
        header, q = read_snapshot(path)
        if tuple(q.shape) != tuple(self.q.shape):
            raise ConfigurationError(
                f"checkpoint shape {q.shape} does not match case {self.q.shape}")
        self.recovery.checkpoints_verified += 1
        self._apply_restart(header.step, header.time, q)

    def _apply_restart(self, step: int, time: float, q: np.ndarray) -> None:
        self.q = self.backend.from_host(q, dtype=self._dtype)
        self.step_count = step
        self.time = time
        self.history.clear()
        self.stopwatch.laps.clear()
        self.rhs.limited_faces = 0
        self.recovery.restarts += 1

    # ------------------------------------------------------------------
    @classmethod
    def run_ensemble(cls, jobs, bcs, *, batch_width: int = 8,
                     config: RHSConfig | None = None, **kwargs):
        """March many same-shape cases through stacked batched drivers.

        ``jobs`` is a list of :class:`repro.ensemble.EnsembleJob` (or
        ``(case, t_end)`` tuples); compatible jobs are grouped into
        batches of at most ``batch_width`` and advanced by ONE stacked
        RHS per batch (see :mod:`repro.ensemble`), each case
        bit-for-bit identical to its standalone run.  Remaining
        keyword arguments are forwarded to
        :class:`~repro.ensemble.EnsembleRunner` (``cfl``,
        ``rk_order``, ``fixed_dt``, ``threads``, ``sweep_layout``,
        ``fusion``, ``tuning``, ...).  Returns the
        :class:`~repro.ensemble.EnsembleReport`.
        """
        from repro.ensemble import EnsembleJob, EnsembleRunner

        normalized = [job if isinstance(job, EnsembleJob)
                      else EnsembleJob(*job) for job in jobs]
        runner = EnsembleRunner(normalized, bcs, batch_width=batch_width,
                                config=config, **kwargs)
        return runner.run()

    # ------------------------------------------------------------------
    def grind_time_ns(self) -> float:
        """Grind time: ns per cell, per PDE, per RHS evaluation (paper's metric)."""
        if not self.history:
            raise NumericsError("no steps recorded yet")
        wall = sum(r.wall_seconds for r in self.history)
        rhs_evals = len(self.history) * len(SSP_SCHEMES[self.rk_order])
        work = self.grid.num_cells * self.layout.nvars * rhs_evals
        return wall / work * 1e9

    def kernel_breakdown(self) -> dict[str, float]:
        """Share of host wall time per kernel family ("weno", "riemann", ...)."""
        return self.stopwatch.fractions()
