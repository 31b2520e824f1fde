"""Wall-clock timing utilities.

Two distinct notions of time coexist in this package:

* **Wall time** — real elapsed seconds of the Python process, measured
  with :class:`WallTimer` / :class:`Stopwatch`.  Used by the benchmark
  harness for host-side kernels.
* **Modeled time** — the analytic execution time a kernel would take on
  a simulated device, produced by :mod:`repro.hardware.costmodel`.  That
  is tracked by the profiler (:mod:`repro.profiling`), not here.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


class WallTimer:
    """Context manager measuring elapsed wall time in seconds.

    >>> with WallTimer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None


@dataclass
class Stopwatch:
    """Accumulating stopwatch keyed by section name.

    Useful for coarse host-side breakdowns (e.g. "how long did RHS vs
    I/O take in this example script").  ``laps`` maps section name to
    accumulated seconds.

    One process writes it: a forked gang worker times its tile kernels
    into its own copy and the :class:`~repro.acc.gang.GangExecutor`
    merges those laps into the parent's at every reply, so the
    per-kernel breakdown keeps the same keys (and adds up per-worker
    busy seconds) whether a stage ran serial or on a gang.
    """

    laps: dict[str, float] = field(default_factory=dict)

    def time(self, name: str) -> "_Lap":
        return _Lap(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.laps[name] = self.laps.get(name, 0.0) + seconds

    def total(self) -> float:
        return sum(self.laps.values())

    def fractions(self) -> dict[str, float]:
        """Per-section share of the total; empty dict if nothing timed."""
        tot = self.total()
        if tot == 0.0:
            return {}
        return {k: v / tot for k, v in self.laps.items()}


class _Lap:
    def __init__(self, owner: Stopwatch, name: str) -> None:
        self._owner = owner
        self._name = name
        self._start: float | None = None

    def __enter__(self) -> "_Lap":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self._owner.add(self._name, time.perf_counter() - self._start)


_UNTIMED = contextlib.nullcontext()


def timed(stopwatch: Stopwatch | None, name: str):
    """The stopwatch lap ``name``, or a no-op without a stopwatch."""
    return stopwatch.time(name) if stopwatch is not None else _UNTIMED
