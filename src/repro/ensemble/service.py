"""The campaign driver: every ensemble runs on this scheduler.

:class:`EnsembleService` wraps the batched engine
(:class:`~repro.ensemble.simulation.EnsembleSimulation`) in the
machinery a long campaign actually needs — the host-side analog of the
paper's independent work per device and its checkpoint-restart
discipline on 65k-device runs.  It is the only driver that marches
campaign batches: without a ledger it keeps its job table and outcomes
in memory and writes no file (``python -m repro ensemble`` without
``--ledger``, :meth:`repro.solver.Simulation.run_ensemble`,
:class:`EnsembleRunner`); with one it is durable:

* **Write-ahead ledger** (:class:`~repro.ensemble.ledger.JobLedger`,
  optional): every job transition is durably recorded *before* the
  service acts on it, so a killed ``python -m repro ensemble``
  invocation resumes exactly where it left off — ``done`` jobs replay
  from their verified result snapshots, in-flight jobs restart from
  their newest per-job checkpoint, ``quarantined`` jobs stay
  quarantined.
* **Supervised batches**
  (:class:`~repro.ensemble.supervisor.BatchSupervisor`): each batch
  attempt runs in a child process watched through a shared-memory
  heartbeat; worker death and deadline expiry are *transient* failures,
  bad specs, exhausted divergences and bugs *permanent* — the
  :func:`repro.common.failure_class` taxonomy.
* **Side-by-side batches**: up to ``min(usable cores, batches)``
  children run at once, each pinned to its slot's share of the cores
  (:func:`plan_slots`), the longest batch first; a slot takes the next
  batch as soon as its child ends.
* **Bounded retry with exponential backoff, then quarantine**: each
  recorded failure consumes one of ``max_attempts``; a job that fails
  deterministically ``max_attempts`` times is quarantined (terminal)
  so a poison job can never wedge the campaign.  Batch-level permanent
  failures (a spec that cannot even build) quarantine immediately.  The
  backoff is a retried job's earliest start, never a pause of the
  batches already running.
* **Graceful degradation**: repeated batch-level transient failures
  halve ``batch_width`` (down to ``min_batch_width``); a batch whose
  fused build fails falls back to unfused kernels (the supervisor's
  degradation).  Every downgrade is a structured event (in the ledger,
  when there is one).

Bitwise contract
----------------
The engine guarantees each case advances bit-for-bit identically at
any batch width, and checkpoint restart is bitwise-exact — so however
a campaign is killed, corrupted, re-batched, or degraded, every
recoverable job's final state is **bit-identical to a fault-free run**
— and to its standalone :meth:`repro.solver.Simulation.run`.  The chaos
suite asserts exactly that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.acc.gang import tile_spans
from repro.backend import resolve_backend
from repro.bc.boundary import BoundarySet
from repro.common import CheckpointError, ConfigurationError
from repro.common.checks import integer
from repro.common.workers import WorkerError
from repro.io.binary import read_snapshot, write_snapshot
from repro.solver.options import KnobAccess, SolverOptions, fold, section_keys
from repro.solver.resilience import RecoveryCounters
from repro.solver.rhs import RHSConfig

from repro.ensemble.ledger import LEDGER_VERSION, JobLedger, job_table
from repro.ensemble.runner import (
    EnsembleJob,
    batch_signature,
    plan_job_batches,
)
from repro.ensemble.simulation import EnsembleCaseResult
from repro.ensemble.supervisor import BatchSpec, BatchSupervisor

__all__ = ["EnsembleRunner", "EnsembleService", "JobOutcome",
           "ServiceReport", "plan_slots"]

#: Exponential-backoff ceiling (seconds) between retries of one job.
BACKOFF_CAP_SECONDS = 30.0


def _count(n: int, one: str, many: str) -> str:
    return f"{n} {one if n == 1 else many}"


def plan_slots(batches: int, *,
               supervise: bool = True) -> tuple[list[set[int] | None], str]:
    """How many batch children run side by side, on which cores, and why.

    ``min(usable cores, batches)`` slots, each owning a contiguous,
    balanced share of this process's affinity mask; a child pinned to
    its share plans its gang from it (``plan_gang_width`` reads the
    mask), so side-by-side batches on one core each fork no gang.  One
    slot — a single batch, a single core, or unsupervised (inline)
    batches — is ``[None]``: unpinned, one batch at a time, the whole
    mask for its gang.
    """
    cores = (sorted(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity")
             else list(range(os.cpu_count() or 1)))
    host = (f"{_count(batches, 'batch', 'batches')}, "
            f"{_count(len(cores), 'core', 'cores')}")
    count = min(len(cores), batches) if supervise else 1
    if count < 2:
        return [None], f"1 at a time: {host if supervise else 'unsupervised'}"
    shares = [set(cores[lo:hi]) for lo, hi in tile_spans(len(cores), count)]
    sizes = sorted({len(share) for share in shares})
    per = _count(sizes[-1], "core", "cores")
    if len(sizes) > 1:
        per = f"{sizes[0]}-{per}"
    return shares, f"{count} side by side × {per}: {host}"


@dataclass
class JobOutcome:
    """Terminal (or latest) state of one job, for the report."""

    job_id: str
    index: int
    name: str
    status: str
    attempts: int
    result: EnsembleCaseResult | None = None
    error: str | None = None


@dataclass
class ServiceReport:
    """What a campaign accomplished: per-job outcomes (in job order),
    per-batch telemetry, and durability telemetry."""

    jobs: list[JobOutcome]
    resumed: bool
    executed_batches: int
    replayed_done: int
    batch_width_final: int
    ledger_skipped: int
    ledger_dropped_tail: int
    events: list[dict] = field(default_factory=list)
    recovery: RecoveryCounters = field(default_factory=RecoveryCounters)
    #: How many batches ran side by side, on how many cores, and why
    #: (:func:`plan_slots`).
    slots: str = ""
    #: Telemetry of every batch that ran to its end, in the order they
    #: ended: :func:`~repro.ensemble.supervisor.execute_batch`'s plus
    #: the ``jobs`` (ids) it carried.
    batches: list[dict] = field(default_factory=list)

    @property
    def results(self) -> list[EnsembleCaseResult | None]:
        return [j.result for j in self.jobs]

    @property
    def total_wall_seconds(self) -> float:
        """Sum of the batches' march walls (not the campaign's wall:
        side-by-side batches overlap)."""
        return sum(b["wall_seconds"] for b in self.batches)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for j in self.jobs:
            out[j.status] = out.get(j.status, 0) + 1
        return out

    def summary(self) -> str:
        lines = [f"{'job':<12} {'name':<20} {'status':<12} {'attempts':>8} "
                 f"{'steps':>7} {'t_final':>12}"]
        for j in self.jobs:
            steps = j.result.steps if j.result is not None else "-"
            t = f"{j.result.time:.6g}" if j.result is not None else "-"
            lines.append(f"{j.job_id:<12} {j.name:<20} {j.status:<12} "
                         f"{j.attempts:>8} {steps!s:>7} {t:>12}")
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        lines.append(
            f"{'resumed' if self.resumed else 'fresh'} run: {counts}; "
            f"{self.executed_batches} batches executed"
            + (f", {self.replayed_done} results replayed from the ledger"
               if self.resumed else ""))
        if self.slots:
            lines.append(f"batch slots: {self.slots}")
        for i, b in enumerate(self.batches):
            lines.append(
                f"batch {i}: {_count(len(b['jobs']), 'job', 'jobs')}, "
                f"{_count(b['steps'], 'step', 'steps')}, "
                f"{_count(b['retire_events'], 'retire', 'retires')}, "
                f"march {b['wall_seconds']:.3f} s, gang {b['gang']}")
            if b["tuning"]:
                lines.append(f"  {b['tuning']} "
                             f"[{b['timing_runs']} timing runs]")
        lines.append(f"total batch wall {self.total_wall_seconds:.3f} s")
        if self.ledger_skipped or self.ledger_dropped_tail:
            lines.append(
                f"ledger damage survived: {self.ledger_skipped} records "
                f"skipped (CRC), {self.ledger_dropped_tail} torn tail "
                f"lines dropped")
        if self.recovery.any():
            lines.append(self.recovery.summary())
        for event in self.events:
            if event.get("event") == "degrade":
                lines.append(f"degraded: {event.get('what')} -> "
                             f"{event.get('to')}")
        return "\n".join(lines)


class EnsembleService(KnobAccess):
    """The campaign driver over the batched ensemble engine.

    Parameters
    ----------
    jobs / bcs:
        The :class:`~repro.ensemble.runner.EnsembleJob` list (batched
        by :func:`~repro.ensemble.runner.plan_job_batches`) and the
        boundary conditions every case shares.
    batch_width:
        Initial stacked width; degradation may narrow it (down to the
        ``min_batch_width`` knob after ``degrade_after`` consecutive
        batch-level failures).
    chaos:
        Optional :class:`repro.faults.EnsembleChaosPlan` — deterministic
        fault schedule for the chaos suite.
    config / options / knobs:
        Numerics, and how to march and run the campaign, as for every
        driver (DESIGN.md "Options: one table"; ``svc.max_attempts``
        reads :attr:`options`, which holds the resolved directories and
        cadences).  A ``ledger`` (a path, or a :class:`JobLedger`) makes
        the campaign durable — an existing ledger for the same spec
        resumes it, one for a *different* spec is rejected — and puts
        ``checkpoint_dir`` / ``results_dir`` beside it by default;
        without one nothing is written.  :attr:`engine` builds every
        batch: the campaign knobs at their defaults (a
        :class:`BatchSpec` carries each attempt's checkpoint settings)
        and ``validate_every`` None read as every step, so a diverging
        case is caught on the step it breaks, never checkpointed broken.
    """

    def __init__(self, jobs: list[EnsembleJob], bcs: BoundarySet, *,
                 batch_width: int = 8, chaos: object | None = None,
                 config: RHSConfig | None = None,
                 options: SolverOptions | None = None, **knobs) -> None:
        if not jobs:
            raise ConfigurationError("ensemble service needs at least one job")
        integer(1)("batch_width", batch_width)
        self.options = options = fold(options, knobs)
        options.require_compatible(campaign=True)
        if options.min_batch_width > batch_width:
            raise ConfigurationError(
                f"min_batch_width must lie in [1, {batch_width}], "
                f"got {options.min_batch_width}")
        self.jobs = list(jobs)
        self.bcs = bcs
        if options.ledger is not None:
            if not isinstance(options.ledger, JobLedger):
                self.ledger = JobLedger(options.ledger)
            base = self.ledger.path.parent
            self.checkpoint_dir = Path(options.checkpoint_dir
                                       or base / "checkpoints")
            self.results_dir = Path(options.results_dir or base / "results")
        if options.checkpoint_every is None:
            self.checkpoint_every = 5 if options.ledger is not None else 0
        self.batch_width = batch_width
        self.chaos = chaos
        self.config = config if config is not None else RHSConfig()
        #: ``EnsembleSimulation`` keywords of every batch.  The backend
        #: is normalised to its name so the dict pickles into supervised
        #: batch children (the child re-resolves it).
        self.engine = dict(config=self.config, options=dataclasses.replace(
            options, backend=resolve_backend(options.backend).name,
            validate_every=(1 if options.validate_every is None
                            else options.validate_every),
            **{f.name: f.default
               for f in section_keys("ensemble", "service").values()}))
        self.supervisor = BatchSupervisor(
            grace=self.deadline_seconds, wall_limit=self.wall_limit_seconds,
            supervise=self.supervise)
        #: Recovery tallies (checkpoint skips, restarts) across the run.
        self.recovery = RecoveryCounters()

        n = len(self.jobs)
        self._status = ["pending"] * n
        self._attempts = [0] * n
        self._errors: list[str | None] = [None] * n
        #: ``time.monotonic()`` before which a job may not start again.
        self._not_before = [0.0] * n
        self._results: dict[int, EnsembleCaseResult] = {}
        self._events: list[dict] = []
        self._batch_telemetry: list[dict] = []
        self._executed_batches = 0
        self._replayed_done = 0
        self._ledger_skipped = 0
        self._ledger_dropped = 0
        self._consecutive_failures = 0

    # ------------------------------------------------------------------
    def job_id(self, index: int) -> str:
        return f"job{index:04d}"

    def _job_name(self, index: int) -> str:
        return self.jobs[index].name or self.job_id(index)

    def spec_digest(self) -> str:
        """Digest binding a ledger to this exact job list."""
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(batch_signature(job.case, self.config).encode())
            h.update(f"|{job.t_end!r}|{job.name}|".encode())
        return h.hexdigest()[:16]

    def _result_path(self, index: int) -> Path:
        return self.results_dir / f"{self.job_id(index)}.bin"

    def _checkpoints(self, index: int):
        """The job's rotating checkpoint sets (a durable campaign's
        only), each one block under the job id."""
        from repro.io.checkpoint import CheckpointManager

        return CheckpointManager(self.checkpoint_dir,
                                 keep=self.checkpoint_keep,
                                 prefix=self.job_id(index))

    @staticmethod
    def _state_sha(q: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(q).tobytes()) \
            .hexdigest()[:16]

    def _append(self, record: dict) -> None:
        """Durably record one transition (nothing without a ledger)."""
        if self.ledger is not None:
            self.ledger.append(record)

    def _record_event(self, event: dict) -> None:
        self._events.append(event)
        self._append({"kind": "event", **event})

    # ------------------------------------------------------------------
    def _open_ledger(self) -> bool:
        """Replay (or create) the ledger; seed job states from it.

        Returns whether this run resumes an existing campaign (never,
        without a ledger).
        """
        if self.ledger is None:
            return False
        digest = self.spec_digest()
        existed = self.ledger.exists()
        replay = self.ledger.replay()
        self._ledger_skipped = replay.skipped_records
        self._ledger_dropped = replay.dropped_tail
        opens = [r for r in replay.records if r.get("kind") == "open"]
        if opens and opens[0].get("digest") != digest:
            raise ConfigurationError(
                f"ledger {self.ledger.path} belongs to a different job "
                f"spec (digest {opens[0].get('digest')}, ours {digest}); "
                f"refusing to mix campaigns")
        if not existed:
            # Fresh campaign: stale snapshots from an older run of the
            # same directories must not masquerade as this run's state.
            for i in range(len(self.jobs)):
                self._result_path(i).unlink(missing_ok=True)
                self._checkpoints(i).clear()
        if not opens:
            self.ledger.append({"kind": "open", "version": LEDGER_VERSION,
                                "digest": digest, "jobs": len(self.jobs)})
        if replay.damaged:
            self._record_event({
                "event": "ledger-damage",
                "skipped_records": replay.skipped_records,
                "dropped_tail": replay.dropped_tail})
        table = job_table(replay.records)
        for i in range(len(self.jobs)):
            entry = table.get(self.job_id(i))
            if entry is None:
                continue
            self._attempts[i] = entry["attempts"]
            self._errors[i] = entry.get("error")
            status = entry["status"]
            if status == "done":
                if self._replay_done(i, entry):
                    continue
                status = "pending"  # result lost; redo the work
            if status == "quarantined":
                self._status[i] = "quarantined"
            elif status == "failed":
                self._status[i] = "failed"
            else:
                # "running": the previous service died mid-batch.  No
                # failure was recorded, so resuming costs no attempt.
                self._status[i] = "pending"
            self._not_before[i] = self._retry_at(i)
        return existed

    def _replay_done(self, index: int, entry: dict) -> bool:
        """Reload a finished job's verified result snapshot."""
        path = self._result_path(index)
        try:
            header, q = read_snapshot(path)
        except (OSError, CheckpointError) as err:
            self._record_event({
                "event": "result-lost", "job": self.job_id(index),
                "detail": str(err)})
            return False
        sha = entry.get("state_sha")
        if sha is not None and sha != self._state_sha(q):
            self._record_event({
                "event": "result-lost", "job": self.job_id(index),
                "detail": "result snapshot digest mismatch"})
            return False
        self._results[index] = EnsembleCaseResult(
            index=index, name=self._job_name(index), q=q,
            time=header.time, steps=header.step, wall_seconds=0.0,
            grind_time_ns=None, status="done")
        self._status[index] = "done"
        self._replayed_done += 1
        return True

    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        """Drive every job to ``done`` or ``quarantined``; report.

        Whenever a slot of :func:`plan_slots` is free, the runnable jobs
        whose backoff has lapsed are planned into batches of the current
        width and one is submitted to the supervisor: side by side the
        longest (:meth:`_work`), in a single slot the first in plan
        order.  A supervised batch forks its pinned child, an
        unsupervised one runs inline at submit; either way the attempt
        ends in one ``self.supervisor.run(spec)`` that collects the
        outcome :meth:`BatchSupervisor.next_done` saw ready.  Outcomes
        fold into the job table (and the ledger) in the order batches
        end.
        """
        resumed = self._open_ledger()
        self._quarantine_exhausted()
        free, slots = plan_slots(len(self._batches()),
                                 supervise=self.supervisor.supervise)
        side_by_side = len(free) > 1
        running: dict[int, tuple[list[int], set[int] | None]] = {}
        try:
            while True:
                now = time.monotonic()
                ready = self._batches(now)
                if free and ready:
                    indices = (max(ready, key=self._work) if side_by_side
                               else ready[0])
                    spec = self._start(indices)
                    cores = free.pop(0)
                    running[id(spec)] = (indices, cores)
                    self.supervisor.submit(spec, cores=cores)
                    continue
                backoffs = [self._not_before[i] for i in self._runnable()]
                if not running and not backoffs:
                    break
                # Nothing can start now: wait for a child to end, or for
                # the earliest backoff to lapse if a slot is free.
                timeout = (max(0.0, min(backoffs) - now)
                           if free and backoffs else None)
                if not running:
                    time.sleep(timeout)
                    continue
                spec = self.supervisor.next_done(timeout)
                if spec is not None:
                    indices, cores = running.pop(id(spec))
                    free.append(cores)
                    self._land(indices, self.supervisor.run(spec))
        finally:
            self.supervisor.close()
        return self._report(resumed, slots)

    def _runnable(self) -> list[int]:
        return [i for i in range(len(self.jobs))
                if self._status[i] in ("pending", "failed")]

    def _batches(self, now: float = float("inf")) -> list[list[int]]:
        """The runnable jobs free to start by ``now`` (default: all of
        them), as batches of the current width."""
        indices = [i for i in self._runnable() if self._not_before[i] <= now]
        plan = plan_job_batches([self.jobs[i] for i in indices],
                                self.config, self.batch_width)
        return [[indices[li] for li in locals_] for _sig, locals_ in plan]

    def _work(self, indices: list[int]) -> float:
        """A batch's estimated work: Σ cells × t_end / min cell width
        (cells × steps, up to the wave speed the CFL step divides)."""
        return sum(self.jobs[i].case.grid.num_cells * self.jobs[i].t_end
                   / self.jobs[i].case.grid.min_width() for i in indices)

    def _quarantine_exhausted(self) -> None:
        for i in range(len(self.jobs)):
            if self._status[i] in ("pending", "failed") \
                    and self._attempts[i] >= self.max_attempts:
                self._quarantine(i, self._errors[i]
                                 or "attempt budget exhausted")

    def _quarantine(self, index: int, error: str | None) -> None:
        self._append({
            "kind": "job", "id": self.job_id(index),
            "status": "quarantined", "attempt": self._attempts[index],
            "error": error})
        self._status[index] = "quarantined"
        self._errors[index] = error

    # ------------------------------------------------------------------
    def _retry_at(self, index: int) -> float:
        """When a job with its recorded failures may start again."""
        attempt = self._attempts[index]
        if attempt < 1 or self.retry_base_seconds <= 0:
            return 0.0
        return time.monotonic() + min(
            self.retry_base_seconds * 2 ** (attempt - 1), BACKOFF_CAP_SECONDS)

    def _restart_seed(self, i: int):
        """Job ``i``'s ``(state, time, step)``: its newest valid
        checkpoint set's, else its initial state — built here, once, not
        again in every forked batch child."""
        case = self.jobs[i].case
        if self.checkpoint_dir is not None:
            mgr = self._checkpoints(i)
            try:
                _, header, q = mgr.load_latest(
                    expect_shape=(case.layout.nvars, *case.grid.shape))
                self.recovery.restarts += 1
                return q, header.time, header.step
            except CheckpointError:
                pass
            finally:
                self.recovery.record_checkpoint_skips(mgr)
                for event in mgr.events:
                    self._record_event({
                        "event": "checkpoint-skip", "job": self.job_id(i),
                        "checkpoint": event["checkpoint"],
                        "reason": event["reason"]})
        return case.initial_conservative(), 0.0, 0

    def _start(self, indices: list[int]) -> BatchSpec:
        """Record one batch attempt as running; its spec."""
        for i in indices:
            self._append({
                "kind": "job", "id": self.job_id(i), "status": "running",
                "attempt": self._attempts[i]})
            self._status[i] = "running"
        states, times, steps = map(list, zip(*map(self._restart_seed, indices)))
        fault_plans = {}
        step_callback = None
        if self.chaos is not None:
            plans = self.chaos.fault_plans(indices)
            fault_plans = {local: plans[g]
                           for local, g in enumerate(indices) if g in plans}
            kill_for = self.chaos.kill_job
            kill_attempt = (self._attempts[kill_for]
                            if kill_for is not None and kill_for in indices
                            else min(self._attempts[i] for i in indices))
            step_callback = self.chaos.make_kill_callback(
                indices, kill_attempt)
        return BatchSpec(
            cases=[self.jobs[i].case for i in indices],
            t_ends=[self.jobs[i].t_end for i in indices],
            names=[self._job_name(i) for i in indices],
            bcs=self.bcs, engine=dict(self.engine),
            initial_states=states, initial_times=times,
            initial_steps=steps,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            checkpoint_keep=self.checkpoint_keep,
            checkpoint_prefixes=[self.job_id(i) for i in indices],
            fault_plans=fault_plans,
            attempt=max(self._attempts[i] for i in indices),
            step_callback=step_callback)

    def _land(self, indices: list[int], outcome: dict) -> None:
        """Fold one batch attempt's outcome into the ledger."""
        self._executed_batches += 1
        if outcome.get("ok"):
            self._consecutive_failures = 0
            self._batch_telemetry.append({
                "jobs": [self.job_id(i) for i in indices],
                **outcome["telemetry"]})
            for event in outcome.get("events", []):
                self._record_event({"event": "degrade", **{
                    k: v for k, v in event.items() if k != "kind"}})
                self._apply_degradation(event)
            for result in outcome["results"]:
                self._finish_job(indices[result.index], result)
        else:
            self._fail_batch(indices, outcome["error"])
        self._quarantine_exhausted()

    def _fail_batch(self, indices: list[int], error: WorkerError) -> None:
        self._record_event({
            "event": "batch-failed",
            "jobs": [self.job_id(i) for i in indices],
            "type": error.type, "class": error.failure_class,
            "message": error.message, "cell": error.cell})
        if error.failure_class == "permanent":
            # A bad spec, a divergence or a bug recurs: spend no retries
            # reproducing a deterministic failure.
            for i in indices:
                self._quarantine(i, f"{error.type}: {error.message}")
            return
        for i in indices:
            self._record_failure(i, error.type, error.message, "transient")
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.degrade_after \
                and self.batch_width > self.min_batch_width:
            self.batch_width = max(self.min_batch_width,
                                   self.batch_width // 2)
            self._consecutive_failures = 0
            self._record_event({
                "event": "degrade", "what": "batch-width",
                "to": self.batch_width,
                "error": f"{self.degrade_after} consecutive batch "
                         f"failures"})

    def _apply_degradation(self, event: dict) -> None:
        """Make a child-reported downgrade sticky for later batches."""
        if event.get("what") == "fusion":
            self.engine["options"] = dataclasses.replace(
                self.engine["options"], fusion="off")

    def _record_failure(self, index: int, error_type: str, message: str,
                        failure_cls: str) -> None:
        self._append({
            "kind": "job", "id": self.job_id(index), "status": "failed",
            "attempt": self._attempts[index], "class": failure_cls,
            "type": error_type, "error": message})
        self._attempts[index] += 1
        self._errors[index] = message
        self._status[index] = "failed"
        self._not_before[index] = self._retry_at(index)

    def _finish_job(self, index: int, result: EnsembleCaseResult) -> None:
        if result.status == "failed":
            # Case-level divergence: the engine retired it, batch
            # neighbours finished.  Deterministic, so it counts toward
            # quarantine — but checkpoints may let a *transient* NaN
            # (chaos attempts=1) heal on retry, so it gets its budget.
            self._record_failure(index, "NumericsError",
                                 result.error or "diverged", "permanent")
            return
        if self.ledger is not None:
            path = self._result_path(index)
            self.results_dir.mkdir(parents=True, exist_ok=True)
            write_snapshot(path, result.q, step=result.steps,
                           time=result.time)
            self.ledger.append({
                "kind": "job", "id": self.job_id(index), "status": "done",
                "attempt": self._attempts[index], "result": path.name,
                "sha": self._state_sha(result.q), "steps": result.steps,
                "time": result.time})
            # Restart seeds are dead weight once the result is durable.
            self._checkpoints(index).clear()
        self._status[index] = "done"
        self._results[index] = EnsembleCaseResult(
            index=index, name=result.name, q=result.q, time=result.time,
            steps=result.steps, wall_seconds=result.wall_seconds,
            grind_time_ns=result.grind_time_ns, status="done")

    # ------------------------------------------------------------------
    def _report(self, resumed: bool, slots: str) -> ServiceReport:
        jobs = []
        for i in range(len(self.jobs)):
            jobs.append(JobOutcome(
                job_id=self.job_id(i), index=i, name=self._job_name(i),
                status=self._status[i], attempts=self._attempts[i],
                result=self._results.get(i), error=self._errors[i]))
        return ServiceReport(
            jobs=jobs, resumed=resumed,
            executed_batches=self._executed_batches,
            replayed_done=self._replayed_done,
            batch_width_final=self.batch_width,
            ledger_skipped=self._ledger_skipped,
            ledger_dropped_tail=self._ledger_dropped,
            events=list(self._events), recovery=self.recovery,
            slots=slots, batches=list(self._batch_telemetry))


class EnsembleRunner(EnsembleService):
    """An in-memory campaign — :class:`EnsembleService` with no ledger —
    under the name benchmark scripts build (``EnsembleRunner(jobs, bcs,
    batch_width=w).run()``)."""

    def __init__(self, jobs: list[EnsembleJob], bcs: BoundarySet,
                 **knobs) -> None:
        super().__init__(jobs, bcs, ledger=None, **knobs)
