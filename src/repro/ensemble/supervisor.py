"""Supervised execution of one ensemble batch in a child process.

The durable service never runs a batch in its own process when it can
help it: a SIGKILL'd worker, a hung backend, or a hard crash must cost
*one batch attempt*, not the service (and its ledger writer).  The
:class:`BatchSupervisor` forks one :class:`~repro.common.workers.Worker`
per batch — several may run side by side, each pinned to its own cores
— watches each through its own shared heartbeat word (bumped every
stacked step) with the same drain-while-waiting loop the multi-process
cluster uses (:class:`repro.common.workers.Pool`), kills and reaps them
on every way out of that wait, and classifies whatever comes back
through the :func:`repro.common.failure_class` taxonomy:

* child exits nonzero / killed by a signal / exits silently →
  :class:`~repro.common.WorkerDiedError` (**transient**);
* no heartbeat, result, or exit within the grace window, or the batch
  blows its wall-clock budget → :class:`~repro.common.DeadlineError`
  (**transient**);
* the child reports a structured failure (bad spec, divergence) → the
  original error's own class (**permanent** for
  ``ConfigurationError``/``NumericsError``).

Inside the child, :func:`execute_batch` owns the **degradation
ladder** for fusion compile failures: a broken
``REPRO_FUSION_BACKEND`` first falls back to the pure-NumPy backend,
then to ``fusion="off"`` — each rung logged as a structured event.
Both runs stay bitwise-identical to the original plan (fusion and its
backends are bitwise-equivalent execution choices), so degradation
trades speed, never answers.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.acc.fusion import BACKEND_ENV_VAR, FusionError
from repro.bc.boundary import BoundarySet
from repro.common import ConfigurationError, ReproError, failure_class
from repro.common.workers import (
    OVERRUN,
    STALLED,
    Pool,
    quit_if_orphaned,
    shared_array,
)
from repro.solver.case import Case
from repro.solver.options import fold

from repro.ensemble.simulation import EnsembleSimulation

__all__ = ["BatchSpec", "BatchSupervisor", "execute_batch"]


@dataclass
class BatchSpec:
    """Everything one batch attempt needs (fork-inherited, not pickled).

    ``fault_plans`` and the restart seeds are keyed/ordered by the
    batch-local case position (0..B-1); the service translates from
    its global job indices.  ``t_ends`` are absolute horizons — a
    restarted case resumes its unbroken clock and marches to the same
    instant it always would have.

    A spec is one attempt: submitting it releases ``initial_states`` in
    the submitting process, executing it in the executing one (the
    batch stacks its own copy), so a retry needs a new spec — the
    service builds one per attempt.
    """

    cases: list[Case]
    t_ends: list[float]
    names: list[str]
    bcs: BoundarySet
    #: EnsembleSimulation engine keywords: ``config``, ``options``
    #: and/or loose knobs (``EnsembleService.engine``).
    engine: dict = field(default_factory=dict)
    initial_states: list | None = None
    initial_times: list | None = None
    initial_steps: list | None = None
    checkpoint_dir: object | None = None
    checkpoint_every: int = 0
    checkpoint_keep: int = 3
    checkpoint_prefixes: list[str] | None = None
    fault_plans: dict = field(default_factory=dict)
    #: Attempt number (0-based) — fault plans use it to relent or not,
    #: chaos kill switches arm only on attempt 0.
    attempt: int = 0
    #: Optional chaos hook called after every stacked step.
    step_callback: object | None = None


def execute_batch(spec: BatchSpec, *, on_step=None) -> dict:
    """Run one batch to its horizons; returns results + events.

    Builds the :class:`EnsembleSimulation` in ``on_failure="retire"``
    mode (a diverging case retires with a named diagnostic instead of
    aborting its batch neighbours) and applies the fusion degradation
    ladder when construction fails on a fusion/backend error:

    1. pin ``REPRO_FUSION_BACKEND=numpy`` (compile failures of the
       optional numexpr/numba backends), rebuild;
    2. rebuild with ``fusion="off"`` entirely.

    A build that still fails with fusion off propagates — that is a
    genuinely bad spec, and the taxonomy calls it permanent.

    ``telemetry`` carries the batch's ``started``/``finished``
    ``time.monotonic()`` stamps (one system-wide clock on Linux, so
    batches run side by side compare) and the gang width the batch
    planned from the cores it may use (``gang``, the ``tile_plan()``
    text).
    """
    started = time.monotonic()
    engine = dict(spec.engine)
    config = engine.pop("config", None)
    options = fold(engine.pop("options", None), engine)
    events: list[dict] = []

    def on_every_step(sim) -> None:
        if on_step is not None:
            on_step(sim)
        if spec.step_callback is not None:
            spec.step_callback(sim)

    def build() -> EnsembleSimulation:
        return EnsembleSimulation(
            spec.cases, spec.bcs, names=spec.names,
            initial_states=spec.initial_states,
            initial_times=spec.initial_times,
            initial_steps=spec.initial_steps,
            on_failure="retire",
            checkpoint_dir=spec.checkpoint_dir,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_keep=spec.checkpoint_keep,
            checkpoint_prefixes=spec.checkpoint_prefixes,
            fault_plans=spec.fault_plans,
            fault_attempt=spec.attempt,
            step_callback=on_every_step, config=config, options=options)

    try:
        sim = build()
    except (FusionError, ConfigurationError) as err:
        if options.fusion == "off":
            raise
        saved = os.environ.get(BACKEND_ENV_VAR)
        os.environ[BACKEND_ENV_VAR] = "numpy"
        try:
            try:
                sim = build()
                events.append({
                    "kind": "degrade", "what": "fusion-backend",
                    "to": "numpy", "error": str(err)})
            except (FusionError, ConfigurationError) as err2:
                options = dataclasses.replace(options, fusion="off")
                sim = build()
                events.append({
                    "kind": "degrade", "what": "fusion", "to": "off",
                    "error": str(err2)})
        finally:
            if saved is None:
                os.environ.pop(BACKEND_ENV_VAR, None)
            else:
                os.environ[BACKEND_ENV_VAR] = saved
    # The stacked state is a copy: a forked child frees the states it
    # inherited instead of carrying them through the march.
    spec.initial_states = None
    gang = sim.rhs.tile_plan()["gang"]  # retirements re-plan narrower
    with sim:
        results = sim.run(t_end=spec.t_ends)
    return {
        "results": results,
        "events": events,
        "telemetry": {
            "steps": sim.step_count,
            "retire_events": sim.retire_events,
            "wall_seconds": sim.wall_seconds_total,
            "faults_injected": sim.faults_injected,
            "checkpoints_written": sim.checkpoints_written,
            "fusion": options.fusion,
            "gang": gang,
            "started": started,
            "finished": time.monotonic(),
        },
    }


def _batch_worker(spec: BatchSpec, beat: np.ndarray, conn) -> None:
    """Child body: execute, report, die quietly.

    Structured failures (anything in the :class:`ReproError` family)
    are *reported* over the pipe and the child exits 0 — the parent
    owns classification and retry policy.  Unstructured crashes exit
    nonzero and become :class:`~repro.common.WorkerDiedError`.
    """
    def on_step(sim) -> None:
        beat[0] += 1
        quit_if_orphaned()

    try:
        payload = execute_batch(spec, on_step=on_step)
        conn.send({"ok": True, **payload})
    except ReproError as err:
        conn.send({"ok": False, "type": type(err).__name__,
                   "message": str(err), "class": failure_class(err)})


def _signal_name(exitcode: int) -> str:
    if exitcode >= 0:
        return f"exit code {exitcode}"
    try:
        return f"signal {signal.Signals(-exitcode).name}"
    except ValueError:
        return f"signal {-exitcode}"


class BatchSupervisor:
    """Runs batches in supervised children; classifies their failures.

    :meth:`run` is one batch attempt start to finish.  To keep several
    alive at once, :meth:`submit` each, wait for whichever ends first
    with :meth:`next_done`, and collect its outcome with :meth:`run`,
    which then returns at once.

    Parameters
    ----------
    grace:
        No-progress window in seconds — re-armed on every heartbeat,
        so it bounds a *stall*, not a long batch.
    wall_limit:
        Optional hard wall-clock budget per batch attempt.
    supervise:
        ``False`` runs the batch in-process (no SIGKILL protection —
        for fast unit tests and debugging); :meth:`submit` then forks
        nothing and :meth:`run` executes the batch.
    """

    def __init__(self, *, grace: float = 60.0,
                 wall_limit: float | None = None,
                 supervise: bool = True) -> None:
        if grace <= 0:
            raise ConfigurationError(f"grace must be positive, got {grace}")
        self.grace = grace
        self.wall_limit = wall_limit
        self.supervise = supervise
        self._pool = Pool()
        #: Submitted and not yet collected, by ``id(spec)``.
        self._specs: dict[int, BatchSpec] = {}
        #: Ended and not yet collected, by ``id(spec)``.
        self._outcomes: dict[int, dict] = {}

    # ------------------------------------------------------------------
    def submit(self, spec: BatchSpec, *, cores=None) -> None:
        """Fork ``spec``'s child and return at once (no-op if already
        submitted or unsupervised).  ``cores`` pins the child — and the
        gang it plans from its affinity mask — to that core set.  The
        spec's initial states go with the child (see :class:`BatchSpec`)."""
        if not self.supervise or id(spec) in self._specs:
            return
        beat = shared_array((1,), np.int64)
        self._pool.fork(
            id(spec), partial(_batch_worker, spec, beat), beat=beat,
            grace=self.grace, pin=cores,
            wall_deadline=(time.monotonic() + self.wall_limit
                           if self.wall_limit is not None else None))
        spec.initial_states = None
        self._specs[id(spec)] = spec

    def next_done(self, timeout: float | None = None) -> BatchSpec | None:
        """A submitted batch that has ended, waiting up to ``timeout``
        seconds (None: until one ends) while every child is drained and
        held to its deadlines; None if none ended in time."""
        if not self._outcomes and not self._collect(timeout):
            return None
        return self._specs[next(iter(self._outcomes))]

    def run(self, spec: BatchSpec) -> dict:
        """One batch attempt → outcome dict.

        Submits ``spec`` unless :meth:`submit` already did, then waits
        for its outcome, draining every other child meanwhile.

        ``{"ok": True, "results": [...], "events": [...],
        "telemetry": {...}}`` on success;
        ``{"ok": False, "error": {"type", "message", "class"}}`` on
        failure, with the error already classified for the retry
        policy.
        """
        if not self.supervise:
            return self._run_inline(spec)
        self.submit(spec)
        try:
            while id(spec) not in self._outcomes:
                self._collect(None)
        except BaseException:
            self.close()  # Ctrl-C or an error out of the wait
            raise
        del self._specs[id(spec)]
        return self._outcomes.pop(id(spec))

    def close(self) -> None:
        """Kill and reap every child; forget every uncollected batch."""
        self._pool.close()
        self._specs.clear()
        self._outcomes.clear()

    def _collect(self, timeout: float | None) -> bool:
        """Wait for one child to end and file its outcome."""
        done = self._pool.next_done(timeout)
        if done is None:
            return False
        key, message, failure = done
        self._outcomes[key] = (self._classify(failure) if failure is not None
                               else self._reported(message))
        return True

    def _classify(self, failure) -> dict:
        if failure in (STALLED, OVERRUN):
            return self._failure("DeadlineError",
                                 f"batch worker hit its {failure} "
                                 f"(grace {self.grace:.0f}s)")
        return self._failure(
            "WorkerDiedError",
            f"batch worker died ({_signal_name(failure)}) without a result"
            if failure != 0 else
            "batch worker exited cleanly without reporting a result")

    @staticmethod
    def _reported(message: dict) -> dict:
        if message.get("ok"):
            return message
        return {"ok": False, "error": {
            "type": message.get("type", "ReproError"),
            "message": message.get("message", ""),
            "class": message.get("class", "transient")}}

    def _run_inline(self, spec: BatchSpec) -> dict:
        """Unsupervised fallback: same outcome shape, no child process."""
        try:
            return {"ok": True, **execute_batch(spec)}
        except ReproError as err:
            return {"ok": False, "error": {
                "type": type(err).__name__, "message": str(err),
                "class": failure_class(err)}}

    # ------------------------------------------------------------------
    @staticmethod
    def _failure(error_type: str, message: str) -> dict:
        return {"ok": False, "error": {
            "type": error_type, "message": message, "class": "transient"}}
