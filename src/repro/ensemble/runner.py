"""Ensemble jobs and how they batch.

An :class:`EnsembleJob` is one case and its horizon.  A campaign groups
its jobs by *batch signature* — grid face coordinates, mixture, and RHS
configuration, i.e. everything a stacked RHS must share — and chunks
each group into batches of at most ``batch_width`` cases
(:func:`plan_job_batches`).  Jobs whose signatures differ fall into
separate batches automatically, so a heterogeneous campaign still runs
correctly (just with less amortisation).

The one driver that marches the batches is
:class:`~repro.ensemble.service.EnsembleService`, in memory or, with a
ledger, durable; ``EnsembleRunner`` is its in-memory spelling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.common import ConfigurationError
from repro.common.checks import integer
from repro.solver.case import Case
from repro.solver.rhs import RHSConfig


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
    jobs within a signature in submission order.  The service re-plans
    over the *unfinished* jobs on every scheduling round.
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
