"""Ensemble scheduler: group compatible jobs into stacked batches.

:class:`EnsembleRunner` takes an arbitrary list of jobs (case +
horizon), groups them by *batch signature* — grid face coordinates,
mixture, and RHS configuration, i.e. everything a stacked RHS must
share — and marches each group through
:class:`~repro.ensemble.simulation.EnsembleSimulation` in chunks of at
most ``batch_width`` cases.  Jobs whose signatures differ fall into
separate batches automatically, so a heterogeneous campaign still runs
correctly (just with less amortisation).

With ``tuning="auto"`` and a shared cache file, the first batch of a
signature pays the tuning cost and every same-shape, same-width batch
after it replays the cached plan with **zero timing runs** — the PR-5
cache keyed by the batched case signature.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.bc.boundary import BoundarySet
from repro.common import ConfigurationError, Stopwatch
from repro.common.checks import integer
from repro.solver.case import Case
from repro.solver.options import SolverOptions, fold
from repro.solver.rhs import RHSConfig

from repro.ensemble.simulation import EnsembleCaseResult, EnsembleSimulation


@dataclass(frozen=True)
class EnsembleJob:
    """One case to march to ``t_end``, with an optional display name."""

    case: Case
    t_end: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.t_end < 0.0:
            raise ConfigurationError(
                f"job t_end must be non-negative, got {self.t_end}")


@dataclass
class BatchRecord:
    """Telemetry of one stacked batch the runner executed."""

    signature: str
    width: int
    job_indices: list[int]
    steps: int
    retire_events: int
    wall_seconds: float
    grind_time_ns: float | None
    tuning_summary: str | None = None
    timing_runs: int = 0


@dataclass
class EnsembleReport:
    """Results (in job order) plus per-batch telemetry."""

    results: list[EnsembleCaseResult]
    batches: list[BatchRecord] = field(default_factory=list)

    @property
    def total_wall_seconds(self) -> float:
        return sum(b.wall_seconds for b in self.batches)

    def summary(self) -> str:
        """Human-readable per-case table plus batch amortisation lines."""
        lines = [f"{'case':<24} {'steps':>7} {'t_final':>12} "
                 f"{'grind ns/cell/PDE/RHS':>22}"]
        for r in self.results:
            grind = f"{r.grind_time_ns:.2f}" if r.grind_time_ns else "-"
            lines.append(f"{r.name:<24} {r.steps:>7} {r.time:>12.6g} "
                         f"{grind:>22}")
        for i, b in enumerate(self.batches):
            grind = (f"{b.grind_time_ns:.2f} ns/cell/PDE/RHS"
                     if b.grind_time_ns else "no steps")
            lines.append(
                f"batch {i}: width={b.width} steps={b.steps} "
                f"retires={b.retire_events} {grind}")
            if b.tuning_summary:
                lines.append(f"  {b.tuning_summary} "
                             f"[{b.timing_runs} timing runs]")
        return "\n".join(lines)


def batch_signature(case: Case, config: RHSConfig) -> str:
    """What a stacked RHS must share: grid faces, mixture, RHS config.

    A short sha256 digest — jobs with equal signatures can ride the
    same batch; anything else (different resolution, stretched axis,
    EOS, order, or solver) lands in its own.
    """
    h = hashlib.sha256()
    for f in case.grid.faces:
        h.update(np.ascontiguousarray(f).tobytes())
        h.update(b"|")
    h.update(repr(case.mixture).encode())
    h.update(repr(config).encode())
    return h.hexdigest()[:16]


def plan_job_batches(jobs: list[EnsembleJob], config: RHSConfig,
                     batch_width: int) -> list[tuple[str, list[int]]]:
    """Group job indices by signature, chunked to ``batch_width``.

    Order is deterministic: signatures appear in first-seen order,
    jobs within a signature in submission order.  Shared by the
    in-memory runner and the durable service (which re-plans over the
    *unfinished* jobs on every scheduling round).
    """
    integer(1)("batch_width", batch_width)
    groups: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        sig = batch_signature(job.case, config)
        groups.setdefault(sig, []).append(i)
    chunks: list[tuple[str, list[int]]] = []
    for sig, indices in groups.items():
        for lo in range(0, len(indices), batch_width):
            chunks.append((sig, indices[lo:lo + batch_width]))
    return chunks


class EnsembleRunner:
    """Batches compatible jobs and runs them through stacked drivers.

    ``config``, ``options`` and loose keyword knobs are those of
    :class:`EnsembleSimulation`; ``batch_width`` caps how many cases one
    stacked driver carries (grouped first-come first-served within a
    signature, so results are deterministic in job order).
    """

    def __init__(self, jobs: list[EnsembleJob], bcs: BoundarySet, *,
                 batch_width: int = 8, config: RHSConfig | None = None,
                 options: SolverOptions | None = None,
                 stopwatch: Stopwatch | None = None, **knobs) -> None:
        if not jobs:
            raise ConfigurationError("ensemble runner needs at least one job")
        self.jobs = list(jobs)
        self.bcs = bcs
        self.batch_width = integer(1)("batch_width", batch_width)
        self.config = config if config is not None else RHSConfig()
        self.options = fold(options, knobs)
        self.options.require_compatible(batched=True)
        self.stopwatch = stopwatch if stopwatch is not None else Stopwatch()

    # ------------------------------------------------------------------
    def plan_batches(self) -> list[tuple[str, list[int]]]:
        """Group job indices by signature, chunked to ``batch_width``.

        Order is deterministic: signatures appear in first-seen order,
        jobs within a signature in submission order.
        """
        return plan_job_batches(self.jobs, self.config, self.batch_width)

    def run(self) -> EnsembleReport:
        """Execute every batch; results return in job-submission order."""
        results: dict[int, EnsembleCaseResult] = {}
        batches: list[BatchRecord] = []
        for sig, indices in self.plan_batches():
            with EnsembleSimulation(
                    [self.jobs[i].case for i in indices], self.bcs,
                    names=[self.jobs[i].name or f"job{i}" for i in indices],
                    config=self.config, options=self.options,
                    stopwatch=self.stopwatch) as sim:
                batch_results = sim.run(
                    t_end=[self.jobs[i].t_end for i in indices])
            for local, res in enumerate(batch_results):
                results[indices[local]] = res
            plan = sim.tuning_plan
            batches.append(BatchRecord(
                signature=sig, width=len(indices),
                job_indices=list(indices), steps=sim.step_count,
                retire_events=sim.retire_events,
                wall_seconds=sim.wall_seconds_total,
                grind_time_ns=(sim.grind_time_ns()
                               if sim.case_steps_total else None),
                tuning_summary=plan.summary() if plan is not None else None,
                timing_runs=(sim.tuner.timing_runs
                             if sim.tuner is not None else 0)))
        ordered = [results[i] for i in range(len(self.jobs))]
        return EnsembleReport(results=ordered, batches=batches)
