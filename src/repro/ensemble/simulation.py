"""Batched ensemble driver: one stacked RHS advances N cases at once.

:class:`EnsembleSimulation` is a constructor around the march loop
(:class:`repro.solver.march.March`): ``B`` same-shape cases stacked into
one ``(nvars, B, *grid)`` block (:class:`~repro.ensemble.state.
EnsembleState`) are the ``B`` slots of one march on one stacked RHS,
which sweeps the batch axis as a leading virtual direction and measures
each case's CFL rate in its first sweep.  Amortising the Python/dispatch
overhead across the batch is the paper's GPU-occupancy argument run
host-side: small per-case grids cannot saturate the machine alone.

Every case advances **bit-for-bit identically** to the same case marched
by a standalone :class:`Simulation`: its own dt, its final step clipped
onto its own horizon, the same cadences — all of it the one loop's.
Cases may have different horizons; one that lands *retires* (its final
state copied out) and the survivors are re-packed into a narrower block
with an RHS rebuilt at the new width.  Compaction copies bitwise and
every width is bitwise per case, so retirement never perturbs a
neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import to_host_array
from repro.bc.boundary import BoundarySet
from repro.common import ConfigurationError, Stopwatch
from repro.solver.case import Case
from repro.solver.march import March
from repro.solver.options import SolverOptions, fold
from repro.solver.rhs import RHS, RHSConfig
from repro.timestepping import SSP_SCHEMES

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


class EnsembleSimulation(March):
    """Time-marches ``B`` same-shape cases through one stacked RHS.

    Parameters
    ----------
    cases / bcs:
        Same-grid, same-mixture cases to stack (initial conditions may
        differ) and the physical boundary conditions they share.
    config / options / knobs:
        As for the single-case :class:`Simulation` (DESIGN.md "Options:
        one table"; the batched row of its refusals names what a case
        runs standalone for).  ``tuning="auto"`` is keyed by the
        *batched* signature, width included, so a stacked plan never
        touches a single-case cache entry.  The cadences count stacked
        steps; a checkpoint is per case, under its own prefix and
        stamped with its own clock.
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
                 fault_attempt: int = 0, **knobs) -> None:
        options = fold(options, knobs)
        options.require_compatible(batched=True)
        self.state = EnsembleState.from_cases(cases, initial=initial_states)
        B = self.state.batch
        if names is None:
            names = [f"case{i}" for i in range(B)]
        if len(names) != B:
            raise ConfigurationError(
                f"{len(names)} names for {B} cases")
        self.names = list(names)
        # The per-case bookkeeping (views, fault plans, checkpoints,
        # retirement) stays on the host; :attr:`q` is the stacked block
        # through the H2D/D2H seam — an identity on the host backends,
        # so the NumPy default is bitwise unchanged.  ``threads`` stays
        # the requested (or the plan's) width, not the resolved one:
        # every retirement re-plans the gang for the narrower batch.
        # The tuning signature is the initial width: retirement narrows
        # the batch but never re-tunes.
        self.options, self._tiles = self._setup(
            self.state, bcs, config, stopwatch, options, self.state.stacked,
            batch=B)
        self.rhs = self._build_rhs(B)
        self._results: dict[int, EnsembleCaseResult] = {}
        super().__init__(
            batched=True, times=initial_times, steps=initial_steps,
            prefixes=checkpoint_prefixes, fault_plans=fault_plans,
            fault_attempt=fault_attempt, on_failure=on_failure)

    # ------------------------------------------------------------------
    def _build_rhs(self, batch: int) -> RHS:
        return RHS(self.layout, self.mixture, self.grid, self.bcs,
                   self.config, self.options, tiles=self._tiles, batch=batch,
                   stopwatch=self.stopwatch)

    # ------------------------------------------------------------------
    @property
    def index(self) -> list[int]:
        """Original case index of each active slot."""
        return self.state.case_index

    @property
    def q(self) -> np.ndarray:
        """The stacked conservative block ``(nvars, batch, *grid)`` on
        the execution backend (H2D of the host block)."""
        return self.backend.from_host(self.state.stacked)

    @q.setter
    def q(self, value) -> None:
        self.state.stacked = to_host_array(value)

    def _describe(self, slot: int, diag) -> str:
        orig = self.index[slot]
        return (f"unphysical state in ensemble case {orig} "
                f"({self.names[orig]!r}) at case step "
                f"{int(self.steps[slot])} (stacked step "
                f"{self.step_count}): {diag}")

    # ------------------------------------------------------------------
    def run(self, *, t_end=None, n_steps: int | None = None,
            callback=None) -> list[EnsembleCaseResult]:
        """March to per-case horizons (a scalar or one per case; cases
        retire as they land on theirs) or a fixed stacked step count;
        returns the per-case results in original case order."""
        super().run(t_end=t_end, n_steps=n_steps, callback=callback)
        return self.results()

    # ------------------------------------------------------------------
    def _case_result(self, slot: int, *, status: str = "done",
                     error: str | None = None) -> EnsembleCaseResult:
        orig = self.index[slot]
        steps = int(self.steps[slot])
        run_steps = steps - int(self.steps0[slot])
        work = (self.grid.num_cells * self.layout.nvars * run_steps
                * len(SSP_SCHEMES[self.rk_order]))
        grind = float(self.wall[slot]) / work * 1e9 if work else None
        return EnsembleCaseResult(
            index=orig, name=self.names[orig],
            q=self.state.view(slot).copy(),
            time=float(self.times[slot]), steps=steps,
            wall_seconds=float(self.wall[slot]), grind_time_ns=grind,
            status=status, error=error)

    def _compact(self, keep: list[int]) -> None:
        """Re-pack the survivors and rebuild the RHS at their width.

        The rebuilt RHS reuses the resolved tuning plan (fused kernels
        are compile-cached by spec, so a width change is cheap) and
        inherits the old engine's sweep/limiter counters so telemetry
        spans the whole run.
        """
        self.state.compact(keep)  # a copy: nothing aliases the workspace
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
        out = dict(self._results)
        out.update((self.index[slot], self._case_result(slot))
                   for slot in range(self.batch))
        return [out[i] for i in range(self.batch0)]
