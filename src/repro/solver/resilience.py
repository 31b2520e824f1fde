"""Failure guards, retry policy, and recovery accounting for the driver.

The paper's headline runs march for days across tens of thousands of
devices — a regime where a single NaN (a soft error, an over-aggressive
dt near a collapsing interface) must not kill the run.  Production
multiphase solvers layer their defenses: positivity limiting at the
face level (:mod:`repro.solver.positivity`), state validation at the
step level, rollback-and-retry with a shrinking dt, and — when even a
first-order donor-cell step cannot produce a physical state — a
structured failure that tells the operator *where* and *why*.

This module owns the step-level layer:

* :func:`check_state` — is a post-step state physical (finite, positive
  partial densities, pressure above the stiffened-gas floor)?  Returns
  a :class:`StateDiagnostics` naming the first offending cell and
  variable, or ``None`` when the state is clean.
* :class:`RetryPolicy` — how many rollback-retries a step gets, how dt
  shrinks across them, and the scheme-escalation ladder (drop to WENO3,
  then to first-order donor cell) tried after dt backoff is exhausted.
* :class:`RecoveryCounters` — every recovery action, tallied for the
  profiler report, the CLI summary, and the benchmark records.
* :class:`SimulationDivergedError` — the structured terminal failure.

The first ``same_dt_retries`` retries re-run the step with the *same*
dt: a deterministic RHS recomputes bit-identically, so a transient
fault (an injected bit flip, a cosmic-ray upset) is healed with the
trajectory **bitwise identical** to a fault-free run.  Only persistent
failures — genuine numerical blow-ups — pay the dt backoff and scheme
escalation, which trade trajectory identity for survival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.backend import array_namespace
from repro.common import ConfigurationError, NumericsError
from repro.eos.mixture import Mixture
from repro.profiling.counters import Tally
from repro.solver.positivity import pressure_floor
from repro.state.conversions import cons_to_prim, row_tiles
from repro.state.layout import StateLayout

#: Scheme-escalation rungs: policy name -> WENO order used for the
#: retried step (must shrink relative to the run's configured order).
ESCALATION_ORDERS = {"weno3": 3, "first_order": 1}


@dataclass(frozen=True)
class StateDiagnostics:
    """Where and how a state check failed.

    ``cell`` is the spatial index of the first offending cell (C-order
    first), ``variable`` the primitive variable that tripped there, and
    ``bad_cells`` how many cells failed the same check in total.
    """

    reason: str                 # "non-finite" | "negative-density" | "pressure-floor"
    variable: str
    cell: tuple[int, ...]
    bad_cells: int

    def __str__(self) -> str:
        more = f" (+{self.bad_cells - 1} more cells)" if self.bad_cells > 1 else ""
        return (f"{self.reason}: {self.variable} at cell "
                f"{tuple(int(c) for c in self.cell)}{more}")


def _first_bad(mask: np.ndarray) -> tuple[int, tuple[int, ...], int]:
    """(variable index, spatial cell, count) of the first True in a
    ``(nvars_checked, *spatial)`` boolean mask."""
    flat = int(mask.argmax())  # first True in C order (mask.any() holds)
    idx = np.unravel_index(flat, mask.shape)
    return int(idx[0]), tuple(int(i) for i in idx[1:]), int(mask.sum())


def check_state(layout: StateLayout, mixture: Mixture, q: np.ndarray, *,
                prim: np.ndarray | None = None,
                tiles=None) -> StateDiagnostics | None:
    """Validate a conservative state; ``None`` when physical.

    Checks, in order: every primitive value finite, every partial
    density strictly positive, and the pressure above the mixture's
    stiffened-gas floor :math:`-\\pi_{\\infty,m}` (with the same margin
    the face-level positivity limiter uses).  ``prim`` may supply a
    precomputed primitive field (e.g. a workspace buffer) so the
    steady-state guard path allocates no field-sized arrays: a clean
    state is checked tile by tile over
    :func:`~repro.state.conversions.row_tiles` (``tiles`` as there), and
    only a failing one is diagnosed whole.
    """
    if prim is None:
        prim = cons_to_prim(layout, mixture, q, tiles=tiles)
    if all(_physical(layout, mixture, prim[:, rows], new)
           for rows, new in row_tiles(prim, tiles)):
        return None
    return _diagnose(layout, mixture, prim)


def _physical(layout: StateLayout, mixture: Mixture, prim, new) -> bool:
    """Whether one tile passes every :func:`check_state` check."""
    xp = array_namespace(prim)
    return (bool(xp.isfinite(prim).all())
            and bool((prim[layout.partial_densities] > 0.0).all())
            and bool((prim[layout.pressure]
                      > pressure_floor(layout, mixture, prim, new)).all()))


def _diagnose(layout: StateLayout, mixture: Mixture,
              prim) -> StateDiagnostics:
    """The first failing check of an unphysical state, whole-field."""
    names = layout.describe_primitive()

    finite = np.isfinite(prim)
    if not finite.all():
        var, cell, count = _first_bad(~finite)
        return StateDiagnostics("non-finite", names[var], cell, count)

    dens = prim[layout.partial_densities]
    bad = dens <= 0.0
    if bad.any():
        var, cell, count = _first_bad(bad)
        return StateDiagnostics("negative-density", names[var], cell, count)

    bad = prim[layout.pressure] <= pressure_floor(layout, mixture, prim)
    if bad.any():
        cell, count = _first_bad(bad[np.newaxis])[1:]
        return StateDiagnostics("pressure-floor", names[layout.pressure],
                                cell, count)
    return None


@dataclass(frozen=True)
class RetryPolicy:
    """How a failed step is retried before the run is declared diverged.

    A guarded step that fails validation rolls back to the pre-step
    state and retries up to ``max_retries`` times: the first
    ``same_dt_retries`` attempts reuse the original dt (healing
    transient faults bitwise — see the module docstring), later ones
    multiply dt by ``backoff`` each attempt.  If every dt retry fails,
    the ``escalation`` ladder re-runs the step (at the fully backed-off
    dt) with progressively more diffusive reconstructions; rungs at or
    above the run's configured WENO order are skipped.  Exhausting the
    ladder raises :class:`SimulationDivergedError`.
    """

    max_retries: int = 4
    same_dt_retries: int = 1
    backoff: float = 0.5
    escalation: tuple[str, ...] = ("weno3", "first_order")

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.same_dt_retries <= self.max_retries:
            raise ConfigurationError(
                f"same_dt_retries must lie in [0, max_retries], "
                f"got {self.same_dt_retries}")
        if not 0.0 < self.backoff < 1.0:
            raise ConfigurationError(
                f"backoff must lie in (0, 1), got {self.backoff}")
        unknown = [e for e in self.escalation if e not in ESCALATION_ORDERS]
        if unknown:
            raise ConfigurationError(
                f"unknown escalation rung(s) {unknown}; "
                f"choose from {sorted(ESCALATION_ORDERS)}")
        orders = [ESCALATION_ORDERS[e] for e in self.escalation]
        if orders != sorted(orders, reverse=True) or len(set(orders)) != len(orders):
            raise ConfigurationError(
                "escalation rungs must strictly decrease in order, "
                f"got {self.escalation}")

    def dt_for_attempt(self, dt: float, attempt: int) -> float:
        """The dt of retry ``attempt`` (1-based; 0 is the original try)."""
        halvings = max(0, min(attempt, self.max_retries) - self.same_dt_retries)
        return dt * self.backoff ** halvings

    @classmethod
    def from_dict(cls, spec: dict) -> "RetryPolicy":
        """Build from a case file's ``"retry"`` block."""
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"'retry' must be a mapping, got {type(spec).__name__}")
        known = {"max_retries", "same_dt_retries", "backoff", "escalation"}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown retry option(s) {unknown}; choose from {sorted(known)}")
        kwargs: dict = {}
        for key in ("max_retries", "same_dt_retries"):
            if key in spec:
                value = spec[key]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigurationError(
                        f"retry {key} must be an integer, got {value!r}")
                kwargs[key] = value
        if "backoff" in spec:
            kwargs["backoff"] = float(spec["backoff"])
        if "escalation" in spec:
            rungs = spec["escalation"]
            if not isinstance(rungs, (list, tuple)):
                raise ConfigurationError(
                    f"retry escalation must be a list, got {rungs!r}")
            kwargs["escalation"] = tuple(str(r) for r in rungs)
        return cls(**kwargs)


@dataclass
class RecoveryCounters(Tally):
    """Every recovery action a resilient run performed.

    Surfaced by :meth:`Simulation summaries <repro.solver.simulation.
    Simulation>`, the CLI, :meth:`Profile.report`, and the
    ``"recovery"`` block of benchmark records.
    """

    retries: int = 0                 #: failed attempts rolled back and re-run
    rollbacks: int = 0               #: state restorations from the rollback buffer
    dt_halvings: int = 0             #: retries that shrank dt
    escalations: int = 0             #: retries that dropped the reconstruction order
    guard_failures: int = 0          #: post-step validations that failed
    faults_injected: int = 0         #: cells corrupted by a fault-injection plan
    checkpoints_written: int = 0
    checkpoints_verified: int = 0
    checkpoints_rejected: int = 0    #: candidates that failed CRC/metadata checks
    restarts: int = 0                #: states restored from a checkpoint
    checkpoint_seconds: float = 0.0  #: wall time spent writing checkpoints
    #: Rejections keyed by :class:`~repro.common.CheckpointError`
    #: reason category ("crc", "truncated", "shape", ...) — the *why*
    #: behind ``checkpoints_rejected``.
    checkpoint_skip_reasons: dict[str, int] = field(default_factory=dict)

    def any(self) -> bool:
        return any((self.retries, self.rollbacks, self.guard_failures,
                    self.faults_injected, self.checkpoints_written,
                    self.checkpoints_verified, self.checkpoints_rejected,
                    self.restarts))

    def summary(self) -> str:
        """One-line human summary (printed by the CLI and reports)."""
        text = (f"recovery: {self.retries} retries "
                f"({self.dt_halvings} dt halvings, "
                f"{self.escalations} escalations), "
                f"{self.rollbacks} rollbacks, "
                f"{self.faults_injected} faults injected; checkpoints: "
                f"{self.checkpoints_written} written, "
                f"{self.checkpoints_verified} verified, "
                f"{self.checkpoints_rejected} rejected, "
                f"{self.restarts} restarts")
        if self.checkpoint_skip_reasons:
            why = ", ".join(f"{k}:{v}" for k, v in
                            sorted(self.checkpoint_skip_reasons.items()))
            text += f" (skipped: {why})"
        return text

    def record_checkpoint_skips(self, manager, *, verified0: int = 0,
                                rejected0: int = 0,
                                events0: int = 0) -> None:
        """Fold a :class:`~repro.io.checkpoint.CheckpointManager`'s
        verification tallies (beyond the given baselines) into these
        counters, including the per-reason skip breakdown."""
        self.checkpoints_verified += manager.verified - verified0
        self.checkpoints_rejected += manager.rejected - rejected0
        for event in manager.events[events0:]:
            reason = event.get("reason", "corrupt")
            self.checkpoint_skip_reasons[reason] = \
                self.checkpoint_skip_reasons.get(reason, 0) + 1


class SimulationDivergedError(NumericsError):
    """A guarded step exhausted every retry and escalation rung.

    Structured diagnostics ride along so operators (and tests) can see
    exactly what was tried and where the state first broke:

    Attributes
    ----------
    step:
        1-based index of the step that could not be completed.
    time:
        Simulation time before the failed step.
    dts:
        Every dt attempted, in order.
    schemes:
        The reconstruction used per attempt (``"weno5"`` etc.).
    diagnostics:
        :class:`StateDiagnostics` of the final failed attempt.
    limited_faces:
        The RHS's cumulative positivity-limiter count at failure time.
    """

    def __init__(self, *, step: int, time: float, dts: tuple[float, ...],
                 schemes: tuple[str, ...],
                 diagnostics: StateDiagnostics | None,
                 limited_faces: int) -> None:
        self.step = step
        self.time = time
        self.dts = dts
        self.schemes = schemes
        self.diagnostics = diagnostics
        self.limited_faces = limited_faces
        detail = str(diagnostics) if diagnostics is not None else "unknown failure"
        super().__init__(
            f"step {step} diverged at t = {time:.6g} after "
            f"{len(dts)} attempts (dt {dts[0]:.3e} -> {dts[-1]:.3e}, "
            f"schemes {' -> '.join(dict.fromkeys(schemes))}); last failure: "
            f"{detail}; {limited_faces} faces positivity-limited so far")

    def __reduce__(self):
        # Rebuilt from its fields when it crosses a pipe (a rank's reply).
        return partial(type(self), **{name: getattr(self, name) for name in (
            "step", "time", "dts", "schemes", "diagnostics",
            "limited_faces")}), ()
