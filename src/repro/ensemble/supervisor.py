"""Supervised execution of one ensemble batch in a child process.

The durable service never runs a batch in its own process when it can
help it: a SIGKILL'd worker, a hung backend, or a hard crash must cost
*one batch attempt*, not the service (and its ledger writer).  The
:class:`BatchSupervisor` forks one :class:`~repro.common.workers.Worker`
per batch, watches it through a shared heartbeat word (bumped every
stacked step) with the same drain-while-join loop the multi-process
cluster uses (:func:`repro.common.workers.drain_and_join`), kills and
reaps it on every way out of that wait, and classifies whatever comes
back through the :func:`repro.common.failure_class` taxonomy:

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
    drain_and_join,
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
    """
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

    Parameters
    ----------
    grace:
        No-progress window in seconds — re-armed on every heartbeat,
        so it bounds a *stall*, not a long batch.
    wall_limit:
        Optional hard wall-clock budget per batch attempt.
    supervise:
        ``False`` runs the batch in-process (no SIGKILL protection —
        for fast unit tests and debugging).
    """

    def __init__(self, *, grace: float = 60.0,
                 wall_limit: float | None = None,
                 supervise: bool = True) -> None:
        if grace <= 0:
            raise ConfigurationError(f"grace must be positive, got {grace}")
        self.grace = grace
        self.wall_limit = wall_limit
        self.supervise = supervise

    # ------------------------------------------------------------------
    def run(self, spec: BatchSpec) -> dict:
        """One batch attempt → outcome dict.

        ``{"ok": True, "results": [...], "events": [...],
        "telemetry": {...}}`` on success;
        ``{"ok": False, "error": {"type", "message", "class"}}`` on
        failure, with the error already classified for the retry
        policy.
        """
        if not self.supervise:
            return self._run_inline(spec)
        beat = shared_array((1,), np.int64)
        results, failed = drain_and_join(
            [partial(_batch_worker, spec, beat)], beat, self.grace,
            wall_deadline=(time.monotonic() + self.wall_limit
                           if self.wall_limit is not None else None))
        if failed is not None:
            index, code = failed
            if index < 0:
                kind = ("no-progress deadline"
                        if code == -1 else "wall-clock deadline")
                return self._failure("DeadlineError",
                                     f"batch worker hit its {kind} "
                                     f"(grace {self.grace:.0f}s)")
            return self._failure(
                "WorkerDiedError",
                f"batch worker died ({_signal_name(code)}) without a result"
                if code != 0 else
                "batch worker exited cleanly without reporting a result")
        message = results[0]
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
