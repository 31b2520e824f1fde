"""Shared infrastructure: dtype policy, errors, timers, logging.

Everything in :mod:`repro` uses double precision (``float64``), matching
MFC's ``real(kind(0d0))`` convention.  The :data:`DTYPE` constant is the
single source of truth; tests assert that solver outputs carry it.
"""

from repro.common.dtype import DTYPE, EPS, as_float_array, require_float
from repro.common.errors import (
    CheckpointError,
    ClusterError,
    ConfigurationError,
    DeadlineError,
    DirectiveError,
    InjectedCrash,
    NumericsError,
    PositivityError,
    ReproError,
    ShapeError,
    WorkerDiedError,
    failure_class,
)
from repro.common.timing import Stopwatch, WallTimer, timed

__all__ = [
    "DTYPE",
    "EPS",
    "as_float_array",
    "require_float",
    "ReproError",
    "CheckpointError",
    "ClusterError",
    "ConfigurationError",
    "DeadlineError",
    "DirectiveError",
    "InjectedCrash",
    "NumericsError",
    "PositivityError",
    "ShapeError",
    "WorkerDiedError",
    "failure_class",
    "Stopwatch",
    "WallTimer",
    "timed",
]
