"""Batched ensemble driver: one stacked RHS advances N cases at once.

:class:`EnsembleSimulation` is the batch analog of
:class:`repro.solver.simulation.Simulation`: the conservative states of
``B`` same-shape cases are stacked into one ``(nvars, B, *grid)`` block
(:class:`~repro.ensemble.state.EnsembleState`) and every step performs
ONE stacked SSP-RK step whose RHS sweeps the batch axis as a leading
virtual direction — its first sweep converting the block and measuring
the batch-vectorised CFL rates (a per-case dt vector) tile by tile.
Amortising the Python/
dispatch overhead of the pipeline across the batch is exactly the
paper's GPU-occupancy argument run host-side: small per-case grids
cannot saturate the machine alone, a stacked block can.

Bitwise contract
----------------
Every case in the batch advances **bit-for-bit identically** to the
same case marched by a standalone :class:`Simulation` with the same
configuration.  The driver mirrors the standalone step exactly:
per-case dt (``fixed_dt`` or the CFL bound — the vectorised reduction
of :func:`repro.timestepping.cfl.wave_rate` replays the scalar
arithmetic per case), the final-step clip against the horizon — all of
it the one :func:`repro.timestepping.time_step` body — and the
``check_every`` validation cadence.

Ragged completion
-----------------
Cases may have different horizons.  When a case reaches its ``t_end``
it *retires*: its final state is copied out, and the survivors are
re-packed into a narrower contiguous batch (retire-and-compact).  The
stacked RHS is rebuilt at the new width — compaction copies survivor
states bitwise and every RHS width is bitwise-identical per case, so
survivors are unperturbed by their neighbours' retirement.
"""

from __future__ import annotations

import dataclasses
import time as clock
from contextlib import AbstractContextManager
from dataclasses import dataclass

import numpy as np

from repro.backend import resolve_backend, to_host_array
from repro.bc.boundary import BoundarySet
from repro.common import DTYPE, ConfigurationError, NumericsError, Stopwatch
from repro.common.checks import choice
from repro.io.checkpoint import CheckpointManager
from repro.solver.case import Case
from repro.solver.options import KnobAccess, SolverOptions, fold
from repro.solver.resilience import check_state
from repro.solver.rhs import RHS, RHSConfig
from repro.state.conversions import cons_to_prim
from repro.timestepping import SSP_SCHEMES, horizon_reached, time_step
from repro.tuning.plan import resolve_plan

from repro.ensemble.state import EnsembleState


@dataclass(frozen=True)
class EnsembleCaseResult:
    """Final state and telemetry of one ensemble case.

    ``wall_seconds`` is the case's share of the batch wall time (each
    stacked step's wall is split evenly across the cases it advanced);
    ``grind_time_ns`` is the per-case amortised grind — nanoseconds per
    cell per PDE per RHS evaluation, the paper's metric — computed from
    that share.

    ``status`` is ``"done"`` for a case that reached its horizon and
    ``"failed"`` for one retired by ``on_failure="retire"`` after its
    state went unphysical; ``error`` carries the diagnostic (naming
    the case) in the failed case.
    """

    index: int
    name: str
    q: np.ndarray
    time: float
    steps: int
    wall_seconds: float
    grind_time_ns: float | None
    status: str = "done"
    error: str | None = None


class EnsembleSimulation(KnobAccess, AbstractContextManager):
    """Time-marches ``B`` same-shape cases through one stacked RHS.

    Parameters
    ----------
    cases / bcs:
        Same-grid, same-mixture cases to stack (initial conditions may
        differ) and the physical boundary conditions they share.
    config / options / knobs:
        As for the single-case :class:`Simulation`: numerics, a
        :class:`~repro.solver.options.SolverOptions` and/or loose
        keyword knobs (DESIGN.md "Options: one table").  Single-case
        resilience knobs (``ranks retry validate_every precision``) are
        refused — a member needing them runs standalone — and
        ``tuning="auto"`` is keyed by the *batched* case signature
        (width included), so a stacked plan never reuses or poisons a
        single-case cache entry.  ``checkpoint_every`` counts stacked
        steps; each healthy active case is then snapshotted under its
        own prefix, stamped with its absolute per-case step and time.
    names / checkpoint_prefixes:
        Optional per-case labels carried into the results, and per-case
        checkpoint prefixes (default ``case<index>``).
    initial_states / initial_times / initial_steps:
        Per-case restart seeds (state, absolute time, absolute step) —
        how the durable service re-forms a batch from each case's
        newest checkpoint.  A restarted case advances bit-for-bit as
        if it had never stopped (checkpoint restart is bitwise-exact
        and batch neighbours never perturb a case).
    on_failure:
        ``"raise"`` (default) aborts the batch on the first unphysical
        case.  ``"retire"`` instead retires *only* the failing case —
        its result carries ``status="failed"`` and a diagnostic naming
        it — and lets the survivors keep marching.
    fault_plans / fault_attempt:
        ``{original case index: CellFaultPlan}`` — seeded corruption
        applied to that case's post-step state on its absolute step
        clock (chaos testing) — and the attempt number handed to the
        plans (a transient plan relents on the retry attempt, a poison
        plan never does).
    step_callback:
        Called with the simulation after every stacked step —
        supervisor heartbeats and chaos kill switches hook in here.
    """

    def __init__(self, cases: list[Case], bcs: BoundarySet, *,
                 config: RHSConfig | None = None,
                 options: SolverOptions | None = None,
                 stopwatch: Stopwatch | None = None,
                 names: list[str] | None = None,
                 initial_states: list | None = None,
                 initial_times: list | None = None,
                 initial_steps: list | None = None,
                 on_failure: str = "raise",
                 checkpoint_prefixes: list[str] | None = None,
                 fault_plans: dict | None = None,
                 fault_attempt: int = 0,
                 step_callback: object | None = None, **knobs) -> None:
        options = fold(options, knobs)
        options.require_compatible(batched=True)
        choice("raise", "retire")("on_failure", on_failure)
        self.state = EnsembleState.from_cases(cases, initial=initial_states)
        self.layout = self.state.layout
        self.mixture = self.state.mixture
        self.grid = self.state.grid
        self.config = config if config is not None else RHSConfig()
        self.bcs = bcs
        self.stopwatch = stopwatch if stopwatch is not None else Stopwatch()
        B = self.state.batch
        if names is None:
            names = [f"case{i}" for i in range(B)]
        if len(names) != B:
            raise ConfigurationError(
                f"{len(names)} names for {B} cases")
        self.names = list(names)
        #: Initial batch width (the tuning-signature width; retirement
        #: narrows :attr:`batch` but never re-tunes).
        self.batch0 = B
        #: The resolved plan every width's RHS is built from, and the
        #: tuner behind it — as in the single-case driver.
        self._plan, self.tuner = resolve_plan(
            options, self.layout, self.mixture, self.grid, bcs, self.config,
            self.state.stacked, batch=B)
        self.tuning_plan = self._plan if options.tuning != "off" else None
        # The per-case bookkeeping (views, fault plans, checkpoints,
        # retirement) stays on the host; ``step`` moves the stacked
        # block through the H2D/D2H seam around each RK step — an
        # identity on the host backends, so the NumPy default is
        # bitwise unchanged.  ``threads`` stays the requested (or the
        # plan's) width, not the resolved one: every retirement re-plans
        # the gang for the narrower batch.
        plan = self._plan
        self.options = dataclasses.replace(
            options, backend=resolve_backend(plan.backend),
            threads=(plan.threads if plan.threads is not None
                     else options.threads),
            sweep_layout=plan.sweep_layout, fusion=plan.fusion)
        self.rhs = self._build_rhs(B)

        def _clock(values, dtype):
            if values is None:
                return np.zeros(B, dtype=dtype)
            vec = np.asarray(values, dtype=dtype)
            if vec.shape != (B,):
                raise ConfigurationError(
                    f"restart clock needs one entry per case; got shape "
                    f"{vec.shape} for {B} cases")
            return vec.copy()

        # Per-slot clocks, aligned with state.case_index.  Restarted
        # cases carry their absolute time/step so horizons, fault
        # plans, and checkpoint stamps all see the unbroken clock.
        self.time = _clock(initial_times, DTYPE)
        self.steps = _clock(initial_steps, np.int64)
        #: Steps already on the clock at construction (excluded from
        #: this run's grind accounting).
        self.steps0 = self.steps.copy()
        self.wall = np.zeros(B, dtype=np.float64)
        self.on_failure = on_failure
        if checkpoint_prefixes is None:
            checkpoint_prefixes = [f"case{i}" for i in range(B)]
        if len(checkpoint_prefixes) != B:
            raise ConfigurationError(
                f"{len(checkpoint_prefixes)} checkpoint prefixes for "
                f"{B} cases")
        self.checkpoint_prefixes = list(checkpoint_prefixes)
        self._ckpt_managers: dict[int, object] = {}
        self.fault_plans = dict(fault_plans) if fault_plans else {}
        self.fault_attempt = fault_attempt
        self.step_callback = step_callback
        #: Cells corrupted by fault plans (chaos telemetry).
        self.faults_injected = 0
        #: Checkpoints written by the per-case cadence.
        self.checkpoints_written = 0
        #: Stacked steps taken (every active case advances each one).
        self.step_count = 0
        #: Retire-and-compact events (telemetry).
        self.retire_events = 0
        #: Total batch wall seconds and case-steps (sum of batch widths
        #: over all stacked steps) — the amortised-grind denominators.
        self.wall_seconds_total = 0.0
        self.case_steps_total = 0
        self._results: dict[int, EnsembleCaseResult] = {}

    # ------------------------------------------------------------------
    def _build_rhs(self, batch: int) -> RHS:
        return RHS.planned(self.layout, self.mixture, self.grid, self.bcs,
                           self.config, self.options, self._plan,
                           stopwatch=self.stopwatch, batch=batch)

    def close(self) -> None:
        """Stop and reap the stacked RHS's gang workers (idempotent)."""
        self.rhs.close()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def batch(self) -> int:
        """Number of cases still marching."""
        return self.state.batch

    @property
    def q(self) -> np.ndarray:
        """The stacked conservative block ``(nvars, batch, *grid)``."""
        return self.state.stacked

    # ------------------------------------------------------------------
    def step(self, *, dt_limit: np.ndarray | None = None) -> np.ndarray:
        """Advance every active case one step; returns the dt vector.

        Mirrors the standalone step exactly: stage one's first sweep
        converts the block and measures each case's CFL rate;
        ``dt_limit`` (per-case) clips the final step onto each horizon
        with the same comparison semantics as the scalar driver.
        """
        B = self.batch
        if B == 0:
            raise ConfigurationError("every ensemble case has retired")
        # H2D seam: the stacked block marches on the backend while the
        # per-case bookkeeping below reads the host copy (identity, and
        # therefore bitwise neutral, on the host backends).
        q_new, dt, rk_start = time_step(
            self.rhs, self.backend.from_host(self.state.stacked),
            layout=self.layout, mixture=self.mixture,
            widths=self.grid.width_fields(), options=self.options,
            workspace=self.rhs.workspace, dt_limit=dt_limit,
            stopwatch=self.stopwatch)
        self.state.stacked = to_host_array(q_new)
        wall = clock.perf_counter() - rk_start
        self.time += dt
        self.steps += 1
        self.step_count += 1
        self.wall += wall / B
        self.wall_seconds_total += wall
        self.case_steps_total += B
        if self.fault_plans:
            self._inject_faults()
        failures: dict[int, str] = {}
        if self.check_every and self.step_count % self.check_every == 0:
            failures = self._failed_slots()
        if self.checkpoint_every \
                and self.step_count % self.checkpoint_every == 0:
            for slot in range(B):
                if slot not in failures:
                    self._checkpoint_slot(slot)
        if failures:
            self._retire(sorted(failures), failures=failures)
        if self.step_callback is not None:
            self.step_callback(self)
        return dt

    # ------------------------------------------------------------------
    def _inject_faults(self) -> None:
        """Apply per-case fault plans on each case's absolute step."""
        for slot in range(self.batch):
            orig = self.state.case_index[slot]
            plan = self.fault_plans.get(orig)
            if plan is not None:
                self.faults_injected += plan.apply(
                    self.state.view(slot), step=int(self.steps[slot]),
                    attempt=self.fault_attempt)

    def _failed_slots(self) -> dict[int, str]:
        """Slots whose state went unphysical, with their diagnostics.

        In ``on_failure="raise"`` mode the first bad case aborts the
        batch (the pre-service behavior); in ``"retire"`` mode every
        bad slot is collected so the caller can retire them together
        and let the survivors keep marching.
        """
        failures: dict[int, str] = {}
        for slot, diag in self._diagnostics():
            orig = self.state.case_index[slot]
            message = (f"unphysical state in ensemble case {orig} "
                       f"({self.names[orig]!r}) at case step "
                       f"{int(self.steps[slot])} (stacked step "
                       f"{self.step_count}): {diag}")
            if self.on_failure == "raise":
                raise NumericsError(message)
            failures[slot] = message
        return failures

    def _checkpoint_slot(self, slot: int) -> None:
        """Rotating durable checkpoint of one case, under its prefix."""
        orig = self.state.case_index[slot]
        mgr = self._ckpt_managers.get(orig)
        if mgr is None:
            mgr = CheckpointManager(self.checkpoint_dir,
                                    keep=self.checkpoint_keep,
                                    prefix=self.checkpoint_prefixes[orig])
            self._ckpt_managers[orig] = mgr
        mgr.save(self.state.view(slot), step=int(self.steps[slot]),
                 time=float(self.time[slot]))
        self.checkpoints_written += 1

    # ------------------------------------------------------------------
    def validate_state(self) -> None:
        """Per-case physical-state check; the error names the case."""
        for slot, diag in self._diagnostics():
            orig = self.state.case_index[slot]
            raise NumericsError(
                f"unphysical state in ensemble case {orig} "
                f"({self.names[orig]!r}) at stacked step "
                f"{self.step_count}: {diag}")

    def _diagnostics(self):
        """``(slot, diagnostics)`` of every unphysical case, in slot order.

        The stacked block is converted tile by tile into the workspace's
        primitive buffer (free between steps) and each case checked on
        its slab of it.
        """
        if not self.batch:
            return
        ws = self.rhs.workspace
        prim = to_host_array(cons_to_prim(
            self.layout, self.mixture, self.backend.from_host(self.q),
            out=ws.prim, tiles=ws))
        for slot in range(self.batch):
            diag = check_state(self.layout, self.mixture,
                               self.state.view(slot), prim=prim[:, slot])
            if diag is not None:
                yield slot, diag

    # ------------------------------------------------------------------
    def run(self, *, t_end: object | None = None,
            n_steps: int | None = None) -> list[EnsembleCaseResult]:
        """March to per-case horizons (or a fixed stacked step count).

        ``t_end`` may be a scalar (shared horizon) or a length-``B``
        sequence of per-case horizons; cases retire independently as
        they land on theirs (ragged completion).  ``n_steps`` advances
        every active case that many stacked steps with no retirement.
        Returns the per-case results in original case order.
        """
        if (t_end is None) == (n_steps is None):
            raise ConfigurationError("specify exactly one of t_end or n_steps")
        if n_steps is not None:
            for _ in range(n_steps):
                if not self.batch:  # every case retired (failures)
                    break
                self.step()
            return self.results()
        try:
            t_vec = np.broadcast_to(
                np.asarray(t_end, dtype=DTYPE), (self.batch0,)).copy()
        except ValueError:
            raise ConfigurationError(
                f"t_end must be a scalar or one horizon per case; got "
                f"shape {np.asarray(t_end).shape} for {self.batch0} cases"
            ) from None
        if np.any(t_vec < 0.0):
            raise ConfigurationError(
                f"t_end must be non-negative, got {t_vec.min()}")
        while self.batch:
            slots = np.asarray(self.state.case_index)
            t_slot = t_vec[slots]
            landed = horizon_reached(self.time, t_slot)
            if landed.any():
                self._retire(np.flatnonzero(landed).tolist())
                continue
            self.step(dt_limit=t_slot - self.time)
        return self.results()

    # ------------------------------------------------------------------
    def _case_result(self, slot: int, *, status: str = "done",
                     error: str | None = None) -> EnsembleCaseResult:
        orig = self.state.case_index[slot]
        steps = int(self.steps[slot])
        run_steps = steps - int(self.steps0[slot])
        work = (self.grid.num_cells * self.layout.nvars * run_steps
                * len(SSP_SCHEMES[self.rk_order]))
        grind = float(self.wall[slot]) / work * 1e9 if work else None
        return EnsembleCaseResult(
            index=orig, name=self.names[orig],
            q=self.state.view(slot).copy(),
            time=float(self.time[slot]), steps=steps,
            wall_seconds=float(self.wall[slot]), grind_time_ns=grind,
            status=status, error=error)

    def _retire(self, done: list[int],
                failures: dict[int, str] | None = None) -> None:
        """Record finished slots; compact survivors; rebuild the RHS.

        ``failures`` maps retiring slots to diagnostics: those cases
        leave with ``status="failed"`` instead of ``"done"``.  The
        rebuilt RHS reuses the resolved tuning plan (fused kernels
        are compile-cached by spec, so a width change is cheap) and
        inherits the old engine's sweep/limiter counters so telemetry
        spans the whole run.
        """
        failures = failures or {}
        for slot in done:
            error = failures.get(slot)
            self._results[self.state.case_index[slot]] = \
                self._case_result(
                    slot, status="failed" if error else "done", error=error)
        keep = [s for s in range(self.batch) if s not in set(done)]
        self.state.compact(keep)  # a copy: nothing aliases the workspace
        self.time = self.time[keep].copy()
        self.steps = self.steps[keep].copy()
        self.steps0 = self.steps0[keep].copy()
        self.wall = self.wall[keep].copy()
        self.retire_events += 1
        self.rhs.close()  # a narrower RHS forks its own gang lazily
        if keep:
            counters = self.rhs.sweep_counters
            limited = self.rhs.limited_faces
            # Dropped before the narrower one is built, so the two
            # workspaces are never resident together.
            self.rhs = None
            self.rhs = self._build_rhs(len(keep))
            self.rhs.sweep_counters.merge(counters)
            self.rhs.limited_faces = limited

    # ------------------------------------------------------------------
    def results(self) -> list[EnsembleCaseResult]:
        """Per-case results in original order (snapshots for active cases)."""
        out: dict[int, EnsembleCaseResult] = dict(self._results)
        for slot in range(self.batch):
            out[self.state.case_index[slot]] = self._case_result(slot)
        missing = [i for i in range(self.batch0) if i not in out]
        if missing:
            raise ConfigurationError(
                f"ensemble lost track of case(s) {missing}")
        return [out[i] for i in range(self.batch0)]

    # ------------------------------------------------------------------
    def grind_time_ns(self) -> float:
        """Amortised per-case grind over the whole ensemble (paper metric).

        Batch wall divided by the total per-case work actually
        advanced: ns per cell per PDE per RHS evaluation, counting each
        stacked step once per case it carried.
        """
        if not self.case_steps_total:
            raise NumericsError("no steps recorded yet")
        work = (self.grid.num_cells * self.layout.nvars
                * self.case_steps_total * len(SSP_SCHEMES[self.rk_order]))
        return self.wall_seconds_total / work * 1e9

    def kernel_breakdown(self) -> dict[str, float]:
        """Share of host wall time per kernel family."""
        return self.stopwatch.fractions()
