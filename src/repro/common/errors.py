"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ReproError):
    """A case, grid, device, or cluster configuration is invalid."""


class ShapeError(ReproError):
    """An array has the wrong dtype, rank, or extent."""


class CheckpointError(ConfigurationError):
    """A checkpoint file is unreadable, corrupt, or incompatible.

    Raised when a snapshot fails its CRC32 integrity check, is
    truncated, or records dtype/endianness/layout metadata that does
    not match what the reader expects.  Subclasses
    :class:`ConfigurationError` so callers guarding against malformed
    restart files keep working.

    ``reason`` categorises the rejection (``"crc"``, ``"truncated"``,
    ``"magic"``, ``"version"``, ``"incompatible"``, ``"shape"``, or the
    generic ``"corrupt"``) so recovery reports can say not just *how
    many* checkpoints were skipped but *why*.
    """

    def __init__(self, message: str = "", *, reason: str = "corrupt") -> None:
        super().__init__(message)
        self.reason = reason


class ClusterError(ReproError):
    """A multi-process run failed: a rank died, a halo wait timed out,
    or its restart found no valid checkpoint set of the run."""


class NumericsError(ReproError):
    """The numerical state became invalid (NaN/Inf, CFL violation, ...)."""


class PositivityError(NumericsError):
    """Density, pressure, or volume fraction left its physical range."""


class DirectiveError(ReproError):
    """An OpenACC-model directive is malformed or used illegally.

    Mirrors a compile-time rejection by NVHPC/CCE: e.g. ``collapse(n)``
    exceeding the nest depth, a ``seq`` loop also asking for ``gang``,
    or touching device data outside a data region.
    """


class WorkerDiedError(ReproError):
    """A worker process — gang member, rank or batch child — ended
    without a reply: killed by a signal, or exited (any code)."""


class DeadlineError(ReproError):
    """A worker was killed for showing no progress (no heartbeat, reply
    or exit within its grace window) or for overrunning its wall
    budget."""


class InjectedCrash(ReproError):
    """A deterministic test-only crash fired (simulated process death).

    Raised by crash hooks such as
    :attr:`repro.ensemble.ledger.JobLedger.fail_after_appends` to
    simulate the *service process itself* dying at an exact point.
    Recovery machinery must never catch this — it stands in for
    SIGKILL, which cannot be caught either.
    """


#: Error types that are *permanent*: retrying replays the same
#: deterministic failure (an invalid spec, or a divergence that already
#: exhausted the in-step retry/escalation ladder).  An exception from
#: outside the package is permanent too: it is a bug, and a bug recurs.
_PERMANENT_TYPES = (ConfigurationError, ShapeError, NumericsError)

#: Transient types listed explicitly (``CheckpointError`` subclasses
#: ``ConfigurationError`` but a corrupt checkpoint is recoverable: the
#: reader falls back or restarts from scratch; a ``MemoryError`` is what
#: the service's width-halving degradation answers).
_TRANSIENT_TYPES = (CheckpointError, WorkerDiedError, DeadlineError,
                    ClusterError, OSError, MemoryError)


def failure_class(err: BaseException) -> str:
    """Classify an exception as ``"transient"`` or ``"permanent"``.

    Transient failures (worker death, timeout, I/O, memory) are worth a
    bounded retry — the same job may well succeed on clean hardware.
    Permanent failures (bad spec, divergence with the retry ladder
    exhausted, any exception that is not a :class:`ReproError`) are
    deterministic: retrying burns cycles to reproduce the same error,
    so the service quarantines the job and a cluster raises it instead.
    Every other :class:`ReproError` is transient.
    """
    if isinstance(err, _TRANSIENT_TYPES):
        return "transient"
    if isinstance(err, _PERMANENT_TYPES) or not isinstance(err, ReproError):
        return "permanent"
    return "transient"
