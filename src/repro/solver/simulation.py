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
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
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
from repro.solver.case import Case
from repro.solver.resilience import (
    ESCALATION_ORDERS,
    RecoveryCounters,
    RetryPolicy,
    SimulationDivergedError,
    check_state,
)
from repro.solver.rhs import RHS, RHSConfig
from repro.solver.sweep import validate_fusion
from repro.state.conversions import cons_to_prim
from repro.timestepping.cfl import cfl_dt
from repro.timestepping.ssp_rk import SSP_SCHEMES, ssp_rk_step


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


@dataclass
class Simulation(AbstractContextManager):
    """Time-marches a :class:`~repro.solver.case.Case`.

    Parameters
    ----------
    case:
        Grid, mixture, and initial condition.
    bcs:
        Physical boundary conditions.
    cfl:
        CFL number for adaptive stepping (ignored when ``fixed_dt`` set).
    rk_order:
        SSP-RK order (1, 2, or 3; MFC uses 3).
    check_every:
        Validate the state (finite, positive density) every this many
        steps; 0 disables checks.
    threads:
        Gang width (the host realisation of ``acc parallel loop
        gang``): the RHS's slab tiles run on this process plus
        ``threads - 1`` forked workers over the shared workspace,
        bitwise identically to serial.  ``None`` (the default) plans
        it (:func:`repro.acc.gang.plan_gang_width`); ``1`` is the
        serial path with no fork.  The resolved width replaces the
        field, :attr:`gang_why` says why, and :meth:`close` (or the
        driver as a context manager) reaps the workers.  Requires
        ``use_workspace=True`` to take effect.
    ranks:
        Process count for multi-process block-decomposed runs (the
        host realisation of MPI ranks; see
        :class:`repro.cluster.ProcessCluster`).  ``1`` (the default)
        keeps the in-process driver; values > 1 make :meth:`run`
        delegate the whole march to a process cluster — one process
        per rank, halos exchanged through shared memory — bitwise
        identical to the serial march.  Incompatible with an explicit
        ``threads > 1`` (a planned width is 1 per rank), ``retry``,
        ``tuning``, and
        ``fault_injector`` (rank faults are injected through
        :class:`repro.cluster.RankFault` instead); the merged halo
        counters land in :attr:`halo_counters` after the run.
    cluster_timeout:
        Halo-wait deadline in seconds for multi-process runs (default
        30); the parent's no-progress watchdog uses it too, re-armed on
        every observed heartbeat, so it bounds a single stall, not the
        run length.  Raise it when one step of the local block can
        legitimately take longer than the default.
    max_restarts:
        How many rank-failure restarts a multi-process run may attempt
        (from the newest common checkpoint) before giving up with
        :class:`~repro.common.ClusterError` (default 1).
    tile_device:
        Optional :class:`~repro.hardware.DeviceSpec` (or catalog name)
        whose L2 capacity sizes the tiles; see
        :func:`repro.hardware.suggest_tile_count`.
    sweep_layout:
        Memory layout of the RHS direction sweeps: ``"strided"`` (the
        default), ``"transposed"`` (axis-contiguous sweep engine for
        the non-contiguous directions), or ``"auto"`` (per-direction
        heuristic; see :mod:`repro.solver.sweep`).  Bitwise identical
        either way.  Named ``layout`` in case files and on the CLI;
        the Python field avoids shadowing the state layout attribute.
    fusion:
        Kernel-fusion mode of the RHS direction sweeps (see
        :mod:`repro.acc.fusion`): ``"off"`` (default) runs the
        reference stage-at-a-time pipeline, ``"on"`` compiles each
        sweep's pad → WENO → Riemann → divergence chain into one
        cached per-tile kernel (requires ``use_workspace=True``),
        ``"auto"`` fuses whenever the workspace is on.  Bitwise
        identical either way; also a tuner axis.
    retry:
        Optional :class:`~repro.solver.resilience.RetryPolicy` (or the
        equivalent dict) enabling the guarded step with
        rollback-retry.  ``None`` (the default) keeps the unguarded
        fast path, bitwise identical to previous behaviour.
    validate_every:
        Extra :meth:`validate_state` cadence applied by :meth:`run`
        *after* the per-step ``check_every`` logic; 0 (default) off.
    checkpoint_every / checkpoint_dir / checkpoint_keep:
        Rotating durable checkpoints every N steps of :meth:`run` into
        ``checkpoint_dir`` keeping the newest ``checkpoint_keep``
        files; 0 (default) disables auto-checkpointing.
    fault_injector:
        Optional fault-injection plan (duck-typed: ``apply(q, step=...,
        attempt=...) -> int`` corrupting ``q`` in place and returning
        the number of cells touched), called on every candidate
        post-step state.  Test/chaos-engineering hook.
    tuning:
        Execution-plan selection over the kernel-variant registry
        (:mod:`repro.tuning`): ``"off"`` (default) keeps the configured
        ``threads``/``sweep_layout`` with the reference kernels;
        ``"auto"`` runs the empirical autotuner (consulting the
        persistent tuning cache — a cache hit performs zero timing
        runs) and adopts the winning plan; a
        :class:`~repro.tuning.TuningPlan` (or its dict form) applies a
        hand-picked plan.  Every plan is bitwise identical in results —
        tuning only moves time.  The resolved plan is exposed as
        :attr:`tuning_plan` (None when off), the tuner (when used) as
        :attr:`tuner`.
    tuning_cache:
        Cache file for ``tuning="auto"``; defaults to
        ``$REPRO_TUNING_CACHE`` or ``.repro_tuning/cache.json``.
    backend:
        Execution backend for the hot path (name or
        :class:`repro.backend.Backend`); ``None``/``"numpy"`` (the
        default) is bitwise identical to the pre-backend code.  The
        state lives on the backend's device for the whole march; host
        consumers (checkpoints, validation, conserved totals, halo
        exchange) receive explicit device-to-host copies.  See
        ``docs/backends.md``.
    precision:
        State dtype: ``"float64"`` (default) or ``"float32"``.  An
        explicit, validated choice — never tuner-selected — because it
        changes answers; float32 runs trade accuracy for the halved
        memory traffic the roofline model predicts.  Incompatible with
        ``ranks > 1`` (cluster workers march in float64).
    """

    case: Case
    bcs: BoundarySet
    config: RHSConfig = field(default_factory=RHSConfig)
    cfl: float = 0.5
    rk_order: int = 3
    fixed_dt: float | None = None
    check_every: int = 10
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    #: Preallocate all RHS/RK buffers once and reuse them every step
    #: (bitwise identical to the allocating path; see
    #: :mod:`repro.solver.workspace`).
    use_workspace: bool = True
    threads: int | None = None
    ranks: int = 1
    cluster_timeout: float = 30.0
    max_restarts: int = 1
    tile_device: object | None = None
    sweep_layout: str = "strided"
    fusion: str = "off"
    retry: RetryPolicy | dict | None = None
    validate_every: int = 0
    checkpoint_every: int = 0
    checkpoint_dir: str | Path | None = None
    checkpoint_keep: int = 3
    fault_injector: object | None = None
    tuning: object = "off"
    tuning_cache: str | Path | None = None
    backend: object = None
    precision: str = "float64"

    def __post_init__(self) -> None:
        if self.rk_order not in SSP_SCHEMES:
            raise ConfigurationError(f"unsupported RK order {self.rk_order}")
        validate_fusion(self.fusion)
        if isinstance(self.retry, dict):
            self.retry = RetryPolicy.from_dict(self.retry)
        for name in ("validate_every", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if self.checkpoint_every and self.checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_dir")
        if self.ranks < 1:
            raise ConfigurationError(
                f"ranks must be a positive integer, got {self.ranks}")
        if self.cluster_timeout <= 0:
            raise ConfigurationError(
                f"cluster_timeout must be positive, got {self.cluster_timeout}")
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}")
        self.backend = resolve_backend(self.backend)
        self._dtype = precision_dtype(self.precision)
        if self.ranks > 1:
            if self.precision != "float64":
                raise ConfigurationError(
                    "ranks > 1 marches in float64 (cluster workers are "
                    "not precision-aware); drop precision or ranks")
            # A 2-rank run must never start four busy processes.
            self.threads, self.gang_why = plan_gang_width(
                self.threads, tiles=0, ranks=self.ranks)
            if self.retry is not None:
                raise ConfigurationError(
                    "ranks > 1 does not support the rollback-retry guard")
            if self.tuning not in (None, "off"):
                raise ConfigurationError(
                    "ranks > 1 does not support tuning")
            if self.fault_injector is not None:
                raise ConfigurationError(
                    "ranks > 1 does not support cell fault injectors; "
                    "inject rank faults with repro.cluster.RankFault "
                    "through ProcessCluster")
        self.layout = self.case.layout
        self.mixture = self.case.mixture
        self.grid = self.case.grid
        self.q = self.case.initial_conservative()
        #: Resolved :class:`~repro.tuning.TuningPlan` (None with tuning
        #: off) and the :class:`~repro.tuning.Autotuner` that produced
        #: it (None unless ``tuning="auto"``).
        self.tuning_plan = None
        self.tuner = None
        self._resolve_tuning()
        plan = self.tuning_plan
        if plan is not None:
            # The plan's knobs replace the configured ones (that is the
            # point of tuning); the fields are updated so the driver's
            # own record of its configuration stays truthful.
            if plan.threads is not None:
                self.threads = plan.threads
            self.sweep_layout = plan.sweep_layout
            self.fusion = plan.fusion
            if getattr(plan, "backend", None):
                self.backend = resolve_backend(plan.backend)
        # H2D: the state moves onto the execution backend once the plan
        # is settled (the tuner measures on the host array above).
        # Identity for the default numpy/float64 configuration.
        self.q = self.backend.from_host(self.q, dtype=self._dtype)
        self.rhs = RHS(self.layout, self.mixture, self.grid, self.bcs,
                       self.config, stopwatch=self.stopwatch,
                       use_workspace=self.use_workspace,
                       threads=self.threads, tile_device=self.tile_device,
                       sweep_layout=self.sweep_layout, fusion=self.fusion,
                       weno_variant=(plan.weno_variant if plan is not None
                                     else "chained"),
                       riemann_variant=(plan.riemann_variant
                                        if plan is not None else "reference"),
                       tiles=plan.tiles if plan is not None else None,
                       backend=self.backend, dtype=self._dtype)
        #: The resolved gang width and the reason (the run banner).
        self.threads = self.rhs.threads
        if self.ranks == 1:
            self.gang_why = self.rhs.gang_why
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
        if self.retry is not None:
            self._escalation_ladder = tuple(
                rung for rung in self.retry.escalation
                if ESCALATION_ORDERS[rung] < self.config.weno_order)
        else:
            self._escalation_ladder = ()

    # ------------------------------------------------------------------
    def _resolve_tuning(self) -> None:
        """Resolve the ``tuning`` knob into :attr:`tuning_plan`.

        Deferred imports: :mod:`repro.tuning` imports the RHS module,
        which sits below this one in the package graph.
        """
        spec = self.tuning
        if spec is None or spec == "off":
            return
        from repro.tuning import Autotuner, TuningCache, TuningPlan

        if isinstance(spec, TuningPlan):
            self.tuning_plan = spec
            return
        if isinstance(spec, dict):
            entry = dict(spec)
            entry.setdefault("source", "manual")
            self.tuning_plan = TuningPlan.from_dict(entry)
            return
        if spec == "auto":
            from repro.hardware.devices import get_device

            device = (get_device(self.tile_device)
                      if isinstance(self.tile_device, str)
                      else self.tile_device)
            self.tuner = Autotuner(cache=TuningCache(self.tuning_cache),
                                   device=device)
            self.tuning_plan = self.tuner.plan_for(
                self.layout, self.mixture, self.grid, self.bcs, self.config,
                self.q, threads=self.threads, sweep_layout=self.sweep_layout)
            return
        raise ConfigurationError(
            f"tuning must be 'off', 'auto', a TuningPlan, or a plan dict; "
            f"got {spec!r}")

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

    def compute_dt(self, prim: np.ndarray | None = None) -> float:
        """CFL-limited (or fixed) step; ``prim`` avoids a re-conversion."""
        if self.fixed_dt is not None:
            return self.fixed_dt
        if prim is None:
            prim = self.primitive()
        return cfl_dt(self.layout, self.mixture, prim, self.grid, self.cfl)

    def step(self, dt: float | None = None, *,
             dt_limit: float | None = None) -> StepRecord:
        """Advance one time step; returns its record.

        Parameters
        ----------
        dt:
            Step size to use; computed from the CFL condition (or
            ``fixed_dt``) when omitted.  Passing a precomputed dt avoids
            a second wave-speed sweep when the caller already did one.
        dt_limit:
            Upper bound on the step (the driver clips the final step of
            ``run(t_end=...)`` with this so the run lands exactly on the
            horizon).

        With a :class:`~repro.solver.resilience.RetryPolicy` configured
        the step is guarded: the post-step state is validated and a
        failure rolls back and retries under the policy, raising
        :class:`~repro.solver.resilience.SimulationDivergedError` when
        every retry and escalation rung is exhausted (the pre-step
        state is left restored, so checkpoint-based recovery can take
        over).
        """
        if self.ranks > 1:
            raise ConfigurationError(
                "single-step marching is in-process only; with ranks > 1 "
                "use run(), which delegates the whole march to the cluster")
        ws = self.rhs.workspace
        prim0 = None
        if ws is not None:
            # One cons_to_prim serves both the dt computation and RK
            # stage one (their inputs are identical, so sharing is
            # bitwise neutral).
            with self.stopwatch.time("other"):
                prim0 = cons_to_prim(self.layout, self.mixture, self.q,
                                     out=ws.prim)
        if dt is None:
            dt = self.compute_dt(prim0)
        if dt_limit is not None and dt > dt_limit:
            dt = dt_limit
        if self.retry is not None:
            return self._guarded_step(dt, prim0)
        with WallTimer() as timer:
            self.q = ssp_rk_step(self.rhs, self.q, dt, self.rk_order,
                                 workspace=ws, prim0=prim0)
            if self.fault_injector is not None:
                self.recovery.faults_injected += int(self.fault_injector.apply(
                    self.q, step=self.step_count + 1, attempt=0))
        self.time += dt
        self.step_count += 1
        rec = StepRecord(self.step_count, self.time, dt, timer.elapsed)
        self.history.append(rec)
        if self.check_every and self.step_count % self.check_every == 0:
            self.validate_state()
        return rec

    # ------------------------------------------------------------------
    def _fallback_rhs(self, order: int) -> RHS:
        """Cached lower-order RHS for a scheme-escalation retry.

        Built on first use (so an untroubled run allocates nothing
        extra), serial and strided: an escalated step is a rare rescue
        where robustness, not throughput, is the point.
        """
        rhs = self._fallback_rhs_cache.get(order)
        if rhs is None:
            cfg = dataclasses.replace(self.config, weno_order=order)
            rhs = RHS(self.layout, self.mixture, self.grid, self.bcs, cfg,
                      stopwatch=self.stopwatch,
                      use_workspace=self.use_workspace,
                      threads=1, sweep_layout="strided",
                      backend=self.backend, dtype=self._dtype)
            self._fallback_rhs_cache[order] = rhs
        return rhs

    def _limited_faces_total(self) -> int:
        return self.rhs.limited_faces + sum(
            r.limited_faces for r in self._fallback_rhs_cache.values())

    def _guarded_step(self, dt: float, prim0: np.ndarray | None) -> StepRecord:
        """One step under the retry policy (see :meth:`step`)."""
        policy = self.retry
        ws = self.rhs.workspace
        xp = array_namespace(self.q)
        if ws is not None:
            # q may alias ws.rk_result (a failed RK step clobbers it),
            # so the guard snapshots into the workspace-owned rollback
            # buffer — no per-step allocation.
            xp.copyto(ws.rollback, self.q)
            snapshot = ws.rollback
        else:
            snapshot = xp.copy(self.q)
        ladder = self._escalation_ladder
        total_attempts = 1 + policy.max_retries + len(ladder)
        dts: list[float] = []
        schemes: list[str] = []
        diag = None
        with WallTimer() as timer:
            for attempt in range(total_attempts):
                if attempt <= policy.max_retries:
                    rhs = self.rhs
                    order = self.config.weno_order
                    dt_a = policy.dt_for_attempt(dt, attempt)
                else:
                    rung = ladder[attempt - policy.max_retries - 1]
                    order = ESCALATION_ORDERS[rung]
                    rhs = self._fallback_rhs(order)
                    dt_a = policy.dt_for_attempt(dt, policy.max_retries)
                ws_a = rhs.workspace
                if attempt == 0:
                    prim_a = prim0
                elif ws_a is not None:
                    # ws.prim was clobbered by the failed attempt's RK
                    # stages; recompute — bitwise identical to the
                    # value a fresh step would have computed.
                    with self.stopwatch.time("other"):
                        prim_a = cons_to_prim(self.layout, self.mixture,
                                              self.q, out=ws_a.prim)
                else:
                    prim_a = None
                dts.append(dt_a)
                schemes.append(_scheme_name(order))
                q_new = ssp_rk_step(rhs, self.q, dt_a, self.rk_order,
                                    workspace=ws_a, prim0=prim_a)
                if self.fault_injector is not None:
                    self.recovery.faults_injected += int(
                        self.fault_injector.apply(
                            q_new, step=self.step_count + 1, attempt=attempt))
                vprim = None
                if ws_a is not None:
                    vprim = cons_to_prim(self.layout, self.mixture, q_new,
                                         out=ws_a.prim)
                # D2H views: state checks are host-side diagnostics.
                diag = check_state(self.layout, self.mixture,
                                   to_host_array(q_new),
                                   prim=(None if vprim is None
                                         else to_host_array(vprim)))
                if diag is None:
                    self.q = q_new
                    break
                self.recovery.guard_failures += 1
                xp.copyto(self.q, snapshot)
                self.recovery.rollbacks += 1
                if attempt + 1 < total_attempts:
                    self.recovery.retries += 1
                    if attempt + 1 > policy.max_retries:
                        self.recovery.escalations += 1
                    elif attempt + 1 > policy.same_dt_retries:
                        self.recovery.dt_halvings += 1
            else:
                # Exhausted: the pre-step state is restored in self.q,
                # so a caller holding checkpoints can still recover.
                raise SimulationDivergedError(
                    step=self.step_count + 1, time=self.time,
                    dts=tuple(dts), schemes=tuple(schemes),
                    diagnostics=diag,
                    limited_faces=self._limited_faces_total())
        self.time += dts[-1]
        self.step_count += 1
        rec = StepRecord(self.step_count, self.time, dts[-1], timer.elapsed,
                         retries=len(dts) - 1)
        self.history.append(rec)
        if self.check_every and self.step_count % self.check_every == 0:
            self.validate_state()
        return rec

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
        if self.ranks > 1:
            if callback is not None:
                raise ConfigurationError(
                    "per-step callbacks are not supported with ranks > 1")
            if t_end is not None and t_end < 0.0:
                raise ConfigurationError(
                    f"t_end must be non-negative, got {t_end}")
            self._run_cluster(t_end=t_end, n_steps=n_steps)
            return
        if n_steps is not None:
            for _ in range(n_steps):
                rec = self.step()
                self._after_step(rec, callback)
            return
        assert t_end is not None
        if t_end < 0.0:
            raise ConfigurationError(
                f"t_end must be non-negative, got {t_end}")
        while self.time < t_end * (1.0 - 1e-12):
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

        if t_end is not None and self.time >= t_end * (1.0 - 1e-12):
            return  # horizon already reached: a no-op, as in-process
        periodic = tuple(lo is BC.PERIODIC for lo, _ in self.bcs.per_axis)
        decomp = BlockDecomposition.balanced(
            self.grid.shape, self.ranks, periodic=periodic)
        cluster = ProcessCluster(
            self.grid, self.layout, self.mixture, self.bcs, decomp,
            self.config, cfl=self.cfl, fixed_dt=self.fixed_dt,
            rk_order=self.rk_order, sweep_layout=self.sweep_layout,
            fusion=self.fusion,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_keep=self.checkpoint_keep,
            max_restarts=self.max_restarts, timeout=self.cluster_timeout)
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
        diag = check_state(self.layout, self.mixture,
                           to_host_array(self.q))
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
            from repro.io.checkpoint import CheckpointManager

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
        from repro.io.binary import write_snapshot

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
        from repro.io.binary import read_snapshot

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
