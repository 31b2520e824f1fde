"""Seeded chaos schedules for the durable ensemble service.

An :class:`EnsembleChaosPlan` bundles the fault kinds a long ensemble
campaign actually meets — a worker SIGKILL'd mid-batch, a checkpoint or
ledger record silently corrupted on disk, one case whose state keeps
diverging (a *poison job*) — into a single deterministic schedule that
the chaos suite replays against :class:`repro.ensemble.EnsembleService`.
Everything derives from explicit seeds and step numbers, so a failing
chaos run reproduces bit for bit.

The on-disk corruptions reuse :func:`repro.faults.files.truncate_file`
and :func:`repro.faults.files.bitflip_file`; the in-state poison reuses
:class:`repro.faults.inject.CellFaultPlan` with ``attempts=None`` (never
relents, so every retry of the poison job re-diverges and the service's
quarantine logic — not luck — must end it).
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from pathlib import Path

from repro.common import ConfigurationError
from repro.faults.files import bitflip_file, truncate_file
from repro.faults.inject import CellFaultPlan

__all__ = [
    "EnsembleChaosPlan",
    "corrupt_ledger_record",
    "corrupt_newest_checkpoint",
]


def corrupt_ledger_record(ledger_path: str | Path, *, index: int,
                          seed: int) -> list[tuple[int, int]]:
    """Flip one bit inside the ``index``-th line of a ledger file.

    Locates the line's byte extent and aims
    :func:`~repro.faults.files.bitflip_file` at it with
    ``skip_bytes``/``limit_bytes``, so exactly one record loses its
    CRC — the replay must skip it (or drop it as tail) and keep every
    other record.
    """
    path = Path(ledger_path)
    raw = path.read_bytes()
    offset = 0
    for i, line in enumerate(raw.split(b"\n")):
        if i == index:
            if not line:
                raise ConfigurationError(
                    f"ledger line {index} is empty; nothing to corrupt")
            return bitflip_file(path, seed=seed, skip_bytes=offset,
                                limit_bytes=len(line))
        offset += len(line) + 1
    raise ConfigurationError(
        f"ledger {path} has no line {index}")


def corrupt_newest_checkpoint(directory: str | Path, *, prefix: str,
                              seed: int, mode: str = "bitflip") -> Path:
    """Corrupt one block of the newest checkpoint set under ``prefix``.

    The block is chosen by ``seed`` among the set's blocks (a rank set
    has one per rank).  ``mode="bitflip"`` flips one bit (silent media
    error); ``mode="truncate"`` chops the file in half (torn write).
    Returns the victim path; raises if no set exists to corrupt.
    """
    from repro.io.checkpoint import CheckpointManager

    sets = CheckpointManager(directory, prefix=prefix).sets()
    if not sets:
        raise ConfigurationError(
            f"no {prefix!r} checkpoints under {directory} to corrupt")
    victim = sets[-1][seed % len(sets[-1])]
    if mode == "bitflip":
        bitflip_file(victim, seed=seed)
    elif mode == "truncate":
        truncate_file(victim)
    else:
        raise ConfigurationError(
            f"mode must be 'bitflip' or 'truncate', got {mode!r}")
    return victim


@dataclass(frozen=True)
class EnsembleChaosPlan:
    """One deterministic fault schedule for a service run.

    Parameters
    ----------
    seed:
        Master seed; the poison fault and any corruption helpers the
        test invokes between invocations derive from it.
    kill_step:
        SIGKILL the batch worker after this many *stacked* steps of
        the batch containing ``kill_job`` — but only on attempt 0, so
        the retry (like a real node replacement) runs clean.
    kill_job:
        Original job index whose batch the kill targets (``None``
        kills the first batch that reaches ``kill_step``).
    poison_job:
        Original job index that receives a never-relenting NaN fault
        (``attempts=None``) at ``poison_step`` — deterministically
        diverges on every attempt until quarantined.
    poison_step:
        The (1-based, absolute per-case) step the poison fires on.
    """

    seed: int = 0
    kill_step: int | None = None
    kill_job: int | None = None
    poison_job: int | None = None
    poison_step: int = 2

    def fault_plans(self, job_indices: list[int]) -> dict:
        """Per-case fault plans for a batch holding ``job_indices``."""
        plans = {}
        if self.poison_job is not None and self.poison_job in job_indices:
            plans[self.poison_job] = CellFaultPlan(
                step=self.poison_step, seed=self.seed, mode="nan",
                attempts=None)
        return plans

    def arms_kill(self, job_indices: list[int], attempt: int) -> bool:
        """Whether this batch (on this attempt) carries the kill switch."""
        if self.kill_step is None or attempt != 0:
            return False
        return self.kill_job is None or self.kill_job in job_indices

    def make_kill_callback(self, job_indices: list[int], attempt: int):
        """A ``step_callback`` that SIGKILLs the worker at the kill step.

        Returns ``None`` when this batch is not armed.  The kill is
        ``os.kill(os.getpid(), SIGKILL)`` — uncatchable, exactly what a
        dying node delivers — so it must only ever run inside a
        supervised child process.
        """
        if not self.arms_kill(job_indices, attempt):
            return None

        def _kill(sim) -> None:
            if sim.step_count >= self.kill_step:
                os.kill(os.getpid(), signal.SIGKILL)

        return _kill
