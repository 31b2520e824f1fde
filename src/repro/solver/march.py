"""The march loop: one for a case, a batch and a rank.

:class:`March` owns ``B >= 1`` *slots* with length-``B`` clocks and is
the one caller of :func:`~repro.timestepping.time_step`.  The drivers are
constructors around it: a standalone :class:`~repro.solver.simulation.
Simulation` is one slot on its own unbatched RHS, an :class:`~repro.
ensemble.simulation.EnsembleSimulation` ``B`` slots on one stacked RHS,
a rank of :class:`~repro.cluster.procs.ProcessCluster` one slot on the
same :class:`~repro.solver.rhs.RHS` over its block grid with
``reduce=``.  Each
step, in order:

1. the attempt ladder: a :class:`~repro.solver.resilience.RetryPolicy`
   discards a candidate that fails the state check (no attempt writes
   the step input, so the input is the rollback) and re-runs it at the
   same dt, then with dt backoff, then down the escalation ladder; every
   candidate first passes the per-slot fault hooks
   (``apply(view, step=, attempt=) -> cells``);
2. clocks, per-slot wall shares and :attr:`~March.history`;
3. the ``validate_every`` cadence: an unphysical slot
   raises :class:`~repro.common.NumericsError` naming it or, with
   ``on_failure="retire"``, retires alone with that diagnostic;
4. ``callback(march, record)`` (a rank's heartbeat and injected death);
5. the ``checkpoint_every`` cadence: a rotating checkpoint per healthy
   slot under its own prefix, stamped with its own clock;
6. retirement of the failed slots.

``run(t_end=)`` clips each slot's last step onto its own horizon; a slot
that lands retires (a batch compacts its survivors) or, alone, ends the
march.  A slot retires alone, so its neighbours never change bits.
"""

from __future__ import annotations

import time as clock
from contextlib import AbstractContextManager
from dataclasses import dataclass, replace

import numpy as np

from repro.backend import to_host_array
from repro.common import (
    DTYPE,
    ConfigurationError,
    NumericsError,
    Stopwatch,
    WallTimer,
)
from repro.common.checks import choice
from repro.solver.options import KnobAccess, fold
from repro.solver.resilience import (
    ESCALATION_ORDERS,
    RecoveryCounters,
    SimulationDivergedError,
    check_state,
)
from repro.solver.rhs import RHS, RHSConfig
from repro.state.conversions import cons_to_prim
from repro.timestepping import SSP_SCHEMES, horizon_reached, time_step
from repro.tuning.plan import resolve_plan

#: A driver's cadences, for the knobs left at None: validate every 10
#: steps, write no checkpoint (a campaign sets its batches' own).
CADENCES = {"validate_every": 10, "checkpoint_every": 0}


@dataclass(frozen=True)
class StepRecord:
    """Bookkeeping for one completed time step (``time``/``dt`` are
    per-slot vectors on a batch)."""

    step: int
    time: float
    dt: float
    wall_seconds: float
    #: Rollback-retries the guarded step needed before it passed
    #: validation (0 on the unguarded path and for clean steps).
    retries: int = 0


class March(KnobAccess, AbstractContextManager):
    """``B >= 1`` slots marched by one loop (see the module docstring).

    A driver sets ``options``, ``layout``, ``mixture``, ``config``,
    ``stopwatch`` and ``widths`` (its blocks' cell widths; :meth:`_setup`
    sets these and resolves the plan), an ``rhs`` (looked up on every
    step, so it may be wrapped; it carries its ``workspace``) and a
    ``q`` the loop reads and rebinds — slot-stacked ``(nvars, B, *grid)``
    when ``batched``, with :attr:`index` the original position of each
    slot — then calls this constructor with the per-slot absolute clocks
    ``times``/``steps`` (default zero), the counter the cadences count
    (``step_count``), a checkpoint prefix per original slot,
    ``{original slot: fault hook}``, the offset added to the ladder's
    attempt number (``fault_attempt``), what a failed check does
    (``on_failure``) and a rank's cross-rank ``reduce``
    (:func:`~repro.timestepping.time_step`).  A cadence knob left at None
    takes its :data:`CADENCES` value.
    """

    #: Original positions of the active slots (a batch overrides).
    index = (0,)

    def __init__(self, *, batched: bool = False, times=None, steps=None,
                 step_count: int = 0, prefixes: list[str] | None = None,
                 fault_plans: dict | None = None, fault_attempt: int = 0,
                 on_failure: str = "raise", reduce=None) -> None:
        self.options = fold(self.options, {
            name: every for name, every in CADENCES.items()
            if getattr(self.options, name) is None})
        self.batched, self.batch0 = batched, self.batch
        self.times = self._clock(times, DTYPE)
        self.steps = self._clock(steps, np.int64)
        #: Steps already on the clock at construction.
        self.steps0 = self.steps.copy()
        self.step_count = step_count
        self.prefixes = list(prefixes or [f"case{i}" for i in self.index])
        if len(self.prefixes) != self.batch:
            raise ConfigurationError(f"{len(self.prefixes)} checkpoint "
                                     f"prefixes for {self.batch} cases")
        self.fault_plans = dict(fault_plans or {})
        self.fault_attempt = fault_attempt
        self.on_failure = choice("raise", "retire")("on_failure", on_failure)
        self.reduce = reduce
        self.history: list[StepRecord] = []
        #: Every recovery action (retries, rollbacks, checkpoints,
        #: restarts, injected faults) over this march.
        self.recovery = RecoveryCounters()
        #: Per-slot wall: each step's wall split evenly across its slots.
        self.wall = np.zeros(self.batch)
        self.retire_events = 0
        self._managers: dict[int, object] = {}
        self._fallback_rhs_cache: dict[int, object] = {}

    def _setup(self, case, bcs, config, stopwatch, options, q, **batch):
        """A driver's numerics, and ``(options, tiles)`` with the plan
        resolved for them applied (the tuner measures on the host state
        ``q``)."""
        self.layout, self.mixture, self.grid = case.layout, case.mixture, case.grid
        self.widths = self.grid.width_fields()
        self.bcs = bcs
        self.config = config if config is not None else RHSConfig()
        self.stopwatch = stopwatch if stopwatch is not None else Stopwatch()
        options, self.tuning_plan, self.tuner = resolve_plan(
            options, self.layout, self.mixture, self.grid, bcs, self.config,
            q, **batch)
        return options, getattr(self.tuning_plan, "tiles", None)

    def _clock(self, values, dtype) -> np.ndarray:
        vec = np.array(np.zeros(self.batch) if values is None else values,
                       dtype=dtype)
        if vec.shape != (self.batch,):
            raise ConfigurationError(
                f"restart clock needs one entry per case; got shape "
                f"{vec.shape} for {self.batch} cases")
        return vec

    @property
    def batch(self) -> int:
        """Number of slots still marching."""
        return len(self.index)

    def _view(self, q, slot: int):
        return q[:, slot] if self.batched else q

    def close(self) -> None:
        """Reap the RHS's gang workers (idempotent; a later step re-forks)."""
        self.rhs.close()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, *, t_end=None, n_steps: int | None = None,
            callback=None) -> None:
        """March until ``t_end`` or for ``n_steps`` (exactly one).

        ``t_end`` is a scalar or one absolute horizon per original slot;
        a horizon at or before a slot's time retires it at once (alone:
        a no-op), a negative one is a configuration error.
        ``callback(march, record)`` runs after every step.
        """
        horizons = self._horizons(t_end, n_steps)
        if horizons is None:
            for _ in range(n_steps):
                if not self.batch:  # every slot retired (failures)
                    break
                self.step(callback=callback)
            return
        while self.batch:
            t_slot = horizons[np.asarray(self.index)]
            landed = horizon_reached(self.times, t_slot)
            if landed.any():
                if not self.batched:
                    return
                self._retire(np.flatnonzero(landed).tolist())
                continue
            limit = t_slot - self.times
            self.step(dt_limit=limit if self.batched else float(limit[0]),
                      callback=callback)

    def _horizons(self, t_end, n_steps) -> np.ndarray | None:
        """The horizon of each original slot (None for ``n_steps``)."""
        if (t_end is None) == (n_steps is None):
            raise ConfigurationError("specify exactly one of t_end or n_steps")
        if t_end is None:
            return None
        try:
            horizons = np.broadcast_to(
                np.asarray(t_end, dtype=DTYPE), (self.batch0,)).copy()
        except ValueError:
            raise ConfigurationError(
                f"t_end must be a scalar or one horizon per case; got "
                f"shape {np.asarray(t_end).shape} for {self.batch0} cases"
            ) from None
        if np.any(horizons < 0.0):
            raise ConfigurationError(
                f"t_end must be non-negative, got {horizons.min()}")
        return horizons

    def _landed(self, horizons) -> bool:
        """Whether every active slot already sits on its horizon."""
        return bool(horizon_reached(
            self.times, horizons[np.asarray(self.index)]).all())

    # ------------------------------------------------------------------
    def step(self, dt=None, *, dt_limit=None, callback=None) -> StepRecord:
        """One step of every active slot and everything around it.

        ``dt`` is the step to take (else ``fixed_dt``, else the CFL
        bound) and ``dt_limit`` its bound (per slot on a batch).
        """
        if not self.batch:
            raise ConfigurationError("every ensemble case has retired")
        policy, ladder = self.retry, self._escalation_ladder
        attempts = 1 if policy is None else 1 + policy.max_retries + len(ladder)
        dts, schemes = [], []
        started = clock.perf_counter()
        for attempt in range(attempts):
            rhs, order = self.rhs, self.config.weno_order
            if attempt:
                dt, dt_limit = policy.dt_for_attempt(dts[0], attempt), None
                if attempt > policy.max_retries:
                    order = ESCALATION_ORDERS[
                        ladder[attempt - policy.max_retries - 1]]
                    rhs = self._fallback_rhs(order)
            try:
                q_new, dt = time_step(
                    rhs, self.q, layout=self.layout, mixture=self.mixture,
                    widths=self.widths, options=self.options,
                    workspace=rhs.workspace, dt=dt, dt_limit=dt_limit,
                    reduce=self.reduce, stopwatch=self.stopwatch)
            except NumericsError as err:
                raise NumericsError(f"step {self.step_count + 1}: {err}") from err
            dts.append(dt)
            schemes.append("first_order" if order <= 1 else f"weno{order}")
            for slot in range(self.batch) if self.fault_plans else ():
                hook = self.fault_plans.get(self.index[slot])
                if hook is not None:
                    self.recovery.faults_injected += int(hook.apply(
                        self._view(q_new, slot), step=int(self.steps[slot]) + 1,
                        attempt=self.fault_attempt + attempt))
            diag = None if policy is None else next(
                self._unphysical(q_new, rhs.workspace), (0, None))[1]
            if diag is None:
                self.q = q_new
                break
            self.recovery.guard_failures += 1
            self.recovery.rollbacks += 1
            if attempt + 1 < attempts:
                self.recovery.retries += 1
                if attempt + 1 > policy.max_retries:
                    self.recovery.escalations += 1
                elif attempt + 1 > policy.same_dt_retries:
                    self.recovery.dt_halvings += 1
        else:
            # Exhausted: the step input is still the state, so a caller
            # holding checkpoints can recover.
            raise SimulationDivergedError(
                step=self.step_count + 1, time=float(self.times[0]),
                dts=tuple(dts), schemes=tuple(schemes), diagnostics=diag,
                limited_faces=self.rhs.limited_faces + sum(
                    r.limited_faces for r in self._fallback_rhs_cache.values()))
        wall = clock.perf_counter() - started
        self.times += dt
        self.steps += 1
        self.step_count += 1
        self.wall += wall / self.batch
        rec = StepRecord(self.step_count, self.times.copy() if self.batched
                         else float(self.times[0]), dt, wall, len(dts) - 1)
        self.history.append(rec)
        failed: dict[int, str] = {}
        if self._due(self.validate_every):
            if self.on_failure == "raise":
                self.validate_state()  # looked up here: callers may wrap it
            else:
                failed = self._failures()
        if callback is not None:
            callback(self, rec)
        if self._due(self.checkpoint_every):
            for slot in range(self.batch):
                if slot not in failed:
                    self._checkpoint(slot)
        if failed:
            self._retire(sorted(failed), failed)
        return rec

    def _due(self, every: int) -> bool:
        return bool(every) and self.step_count % every == 0

    @property
    def _escalation_ladder(self) -> tuple:
        """The retry policy's rungs below the configured order."""
        if self.retry is None:
            return ()
        return tuple(rung for rung in self.retry.escalation
                     if ESCALATION_ORDERS[rung] < self.config.weno_order)

    # ------------------------------------------------------------------
    def validate_state(self) -> None:
        """Raise :class:`NumericsError` naming the first unphysical slot,
        the failed check, the first offending cell and its variable."""
        for message in self._failures().values():
            raise NumericsError(message)

    def _failures(self) -> dict[int, str]:
        """``{slot: message}`` of every unphysical slot."""
        return {slot: self._describe(slot, diag) for slot, diag
                in self._unphysical(self.q, self.rhs.workspace)}

    def _fallback_rhs(self, order: int) -> RHS:
        """Cached lower-order RHS for a scheme-escalation retry.

        Built on first use (so an untroubled run allocates nothing
        extra) over the march's grid and transport, serial and staged:
        an escalated step is a rare rescue where robustness, not
        throughput, is the point.
        """
        rhs = self._fallback_rhs_cache.get(order)
        if rhs is None:
            rhs = self._fallback_rhs_cache[order] = RHS(
                self.layout, self.mixture, self.grid, self.bcs,
                replace(self.config, weno_order=order),
                self.options, threads=1, fusion="off",
                transport=self.rhs.transport, stopwatch=self.stopwatch)
        return rhs

    def _describe(self, slot: int, diag) -> str:
        return f"unphysical state at step {self.step_count}: {diag}"

    def _unphysical(self, q, ws):
        """``(slot, diagnostics)`` of every unphysical slot of ``q``: a
        host-side check, converted tile by tile into the workspace's
        primitive buffer when ``q`` fits it."""
        prim = None
        if ws is not None and ws.compatible(q):
            prim = to_host_array(cons_to_prim(self.layout, self.mixture, q,
                                              out=ws.prim, tiles=ws))
        else:
            ws = None
        host = to_host_array(q)
        for slot in range(self.batch):
            diag = check_state(
                self.layout, self.mixture, self._view(host, slot),
                prim=None if prim is None else self._view(prim, slot),
                tiles=None if self.batched else ws)
            if diag is not None:
                yield slot, diag

    # ------------------------------------------------------------------
    def _manager(self, orig: int):
        """The :class:`~repro.io.checkpoint.CheckpointManager` of
        original slot ``orig`` (one instance per slot, under its prefix)."""
        if orig not in self._managers:
            if self.checkpoint_dir is None:
                raise ConfigurationError("no checkpoint_dir configured")
            from repro.io.checkpoint import CheckpointManager

            self._managers[orig] = CheckpointManager(
                self.checkpoint_dir, keep=self.checkpoint_keep,
                prefix=self.prefixes[orig])
        return self._managers[orig]

    def _checkpoint(self, slot: int):
        """One rotating checkpoint of ``slot``, stamped with its clock."""
        with WallTimer() as timer:
            path = self._manager(self.index[slot]).save(
                to_host_array(self._view(self.q, slot)),
                step=int(self.steps[slot]), time=float(self.times[slot]))
        self.recovery.checkpoints_written += 1
        self.recovery.checkpoint_seconds += timer.elapsed
        return path

    def _retire(self, slots: list[int], failures: dict | None = None) -> None:
        """Record the retiring slots' results (``"failed"`` with the
        diagnostic in ``failures``) and compact the survivors."""
        for slot in slots:
            error = (failures or {}).get(slot)
            self._results[self.index[slot]] = self._case_result(
                slot, status="failed" if error else "done", error=error)
        keep = [s for s in range(self.batch) if s not in slots]
        self._compact(keep)
        for name in ("times", "steps", "steps0", "wall"):
            setattr(self, name, getattr(self, name)[keep].copy())
        self.retire_events += 1

    # ------------------------------------------------------------------
    def grind_time_ns(self) -> float:
        """Grind time (the paper's metric): ns per cell, per PDE, per RHS
        evaluation over the recorded steps, each counted once per slot
        it advanced (a batch's amortised per-case grind)."""
        if not self.history:
            raise NumericsError("no steps recorded yet")
        slot_steps = sum(np.size(r.dt) for r in self.history)
        work = (self.grid.num_cells * self.layout.nvars * slot_steps
                * len(SSP_SCHEMES[self.rk_order]))
        return sum(r.wall_seconds for r in self.history) / work * 1e9

    def kernel_breakdown(self) -> dict[str, float]:
        """Share of host wall time per kernel family ("weno", ...)."""
        return self.stopwatch.fractions()
