"""Batched ensemble execution: one stacked RHS for N concurrent cases.

See :mod:`repro.ensemble.simulation` for the bitwise contract,
:mod:`repro.ensemble.runner` for jobs and how they group into batches,
and :mod:`repro.ensemble.service` for the one campaign driver: batches
side by side in supervised children, retry/quarantine, and — with a
write-ahead ledger — a durable, crash-tolerant campaign that resumes
where it was killed.
"""

from repro.ensemble.ledger import JobLedger, LedgerReplay, job_table
from repro.ensemble.runner import (
    EnsembleJob,
    batch_signature,
    plan_job_batches,
)
from repro.ensemble.service import (
    EnsembleRunner,
    EnsembleService,
    JobOutcome,
    ServiceReport,
)
from repro.ensemble.simulation import EnsembleCaseResult, EnsembleSimulation
from repro.ensemble.state import EnsembleState
from repro.ensemble.supervisor import BatchSpec, BatchSupervisor, execute_batch

__all__ = [
    "BatchSpec",
    "BatchSupervisor",
    "EnsembleCaseResult",
    "EnsembleJob",
    "EnsembleRunner",
    "EnsembleService",
    "EnsembleSimulation",
    "EnsembleState",
    "JobLedger",
    "JobOutcome",
    "LedgerReplay",
    "ServiceReport",
    "batch_signature",
    "execute_batch",
    "job_table",
    "plan_job_batches",
]
