"""Seeded corruption of solver-state cells.

A :class:`CellFaultPlan` is the driver-side half of the fault loop: the
:class:`~repro.solver.simulation.Simulation` calls ``apply`` on every
candidate post-step state, and the plan decides — purely from its seed,
the step number, and the retry attempt — whether and where to strike.

Determinism contract
--------------------
* The victim cells and values derive from ``np.random.default_rng``
  seeded by ``(seed, step)`` only, so the same plan corrupts the same
  cells whether the RHS ran serial or threaded, strided or transposed,
  on one rank or on many.
* A *transient* fault (``attempts=1``, the default) strikes only the
  first attempt of its step; the guarded driver's same-dt retry then
  recomputes the step cleanly and the recovered trajectory is bitwise
  identical to a fault-free run.
* ``attempts=k`` makes the fault *persistent* for the first ``k``
  attempts — the way to force dt backoff and scheme escalation in
  tests.  ``attempts=None`` never relents (drives the step to
  :class:`~repro.solver.resilience.SimulationDivergedError`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common import ConfigurationError

#: Supported corruption modes -> the value written into the victim cell.
FAULT_MODES = ("nan", "negative_density", "inf")


@dataclass(frozen=True)
class CellFaultPlan:
    """Corrupt ``ncells`` state cells at step ``step`` (1-based).

    Parameters
    ----------
    step:
        The (1-based) time step whose post-step state is corrupted.
    seed:
        Seed for the victim-cell draw; same seed ⇒ same fault.
    ncells:
        Number of distinct cells struck.
    mode:
        ``"nan"`` writes NaN into a random variable of each victim,
        ``"negative_density"`` negates-and-offsets the first partial
        density, ``"inf"`` writes +inf into a random variable.
    attempts:
        How many retry attempts of the step the fault persists for
        (``1`` = transient, ``None`` = forever).
    """

    step: int
    seed: int
    ncells: int = 1
    mode: str = "nan"
    attempts: int | None = 1

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ConfigurationError(f"fault step must be >= 1, got {self.step}")
        if self.ncells < 1:
            raise ConfigurationError(f"ncells must be >= 1, got {self.ncells}")
        if self.mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}; choose from {FAULT_MODES}")
        if self.attempts is not None and self.attempts < 1:
            raise ConfigurationError(
                f"attempts must be >= 1 or None, got {self.attempts}")

    # ------------------------------------------------------------------
    def targets(self, shape: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The ``(var, *cell)`` indices this plan strikes in a ``shape`` field.

        Pure function of ``(seed, step, shape)`` — reused by every
        attempt, by tests, and by post-mortem tooling.
        """
        nvars = shape[0]
        spatial = shape[1:]
        ncells_total = int(np.prod(spatial))
        rng = np.random.default_rng((self.seed, self.step))
        flat = rng.choice(ncells_total, size=min(self.ncells, ncells_total),
                          replace=False)
        out = []
        for f in flat:
            cell = np.unravel_index(int(f), spatial)
            if self.mode == "negative_density":
                var = 0
            else:  # "nan" / "inf" strike a random variable
                var = int(rng.integers(nvars))
            out.append((var, *(int(c) for c in cell)))
        return out

    def apply(self, q: np.ndarray, *, step: int, attempt: int = 0,
              block=None) -> int:
        """Corrupt ``q`` in place when ``(step, attempt)`` is armed.

        ``block=(shape, origin)``: ``q`` is a rank's block at ``origin``
        of a ``shape`` field, struck at the targets drawn from ``shape``
        that fall inside it.  Returns the number of cells struck (0 when
        the plan does not fire), matching the ``Simulation.
        fault_injector`` protocol.
        """
        if step != self.step:
            return 0
        if self.attempts is not None and attempt >= self.attempts:
            return 0
        shape, origin = block or (q.shape, (0,) * (q.ndim - 1))
        struck = 0
        for var, *cell in self.targets(shape):
            idx = (var, *(c - o for c, o in zip(cell, origin)))
            if not all(0 <= c < n for c, n in zip(idx[1:], q.shape[1:])):
                continue
            if self.mode == "nan":
                q[idx] = np.nan
            elif self.mode == "negative_density":
                q[idx] = -abs(q[idx]) - 1.0
            else:
                q[idx] = np.inf
            struck += 1
        return struck
