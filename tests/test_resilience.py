"""Tests for the step guard, rollback-retry, and recovery accounting.

The resilience layer's contract has three faces: it is *invisible* when
nothing fails (guarded runs bitwise identical to unguarded ones), it is
*curative* for transient faults (same-dt retry heals them bitwise), and
it is *honest* when it loses (structured divergence diagnostics naming
the first bad cell, with the pre-step state restored).
"""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import ConfigurationError, NumericsError
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import (
    Case,
    Patch,
    RecoveryCounters,
    RetryPolicy,
    Simulation,
    SimulationDivergedError,
    box,
    check_state,
    sphere,
)
from repro.state import StateLayout, prim_to_cons

AIR = StiffenedGas(1.4, 0.0, "air")
WATER = StiffenedGas(6.12, 3.43e8, "water")
MIX = Mixture((AIR, AIR))


def bubble_case(n=16):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([0.5, 0.5], 0.2), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
    return case


def make_sim(n=16, **kwargs):
    return Simulation(bubble_case(n), BoundarySet.all_periodic(2), cfl=0.4,
                      **kwargs)


class InjectOnce:
    """Minimal fault injector: corrupt one cell on attempt 0 of a step."""

    def __init__(self, step, value=np.nan, attempts=1):
        self.step = step
        self.value = value
        self.attempts = attempts

    def apply(self, q, *, step, attempt):
        if step == self.step and (self.attempts is None
                                  or attempt < self.attempts):
            q[0, q.shape[1] // 2, q.shape[2] // 2] = self.value
            return 1
        return 0


class TestRetryPolicy:
    def test_defaults_valid(self):
        p = RetryPolicy()
        assert p.max_retries == 4 and p.same_dt_retries == 1

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"same_dt_retries": 5},            # > max_retries
        {"backoff": 0.0},
        {"backoff": 1.0},
        {"escalation": ("weno9",)},
        {"escalation": ("first_order", "weno3")},   # must decrease
        {"escalation": ("weno3", "weno3")},         # strictly
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_dt_schedule_same_dt_first(self):
        p = RetryPolicy(max_retries=4, same_dt_retries=2, backoff=0.5)
        dts = [p.dt_for_attempt(1.0, a) for a in range(5)]
        assert dts == [1.0, 1.0, 1.0, 0.5, 0.25]

    def test_from_dict_roundtrip_and_validation(self):
        p = RetryPolicy.from_dict({"max_retries": 2, "same_dt_retries": 0,
                                   "backoff": 0.25,
                                   "escalation": ["first_order"]})
        assert p == RetryPolicy(2, 0, 0.25, ("first_order",))
        with pytest.raises(ConfigurationError):
            RetryPolicy.from_dict({"max_retry": 2})
        with pytest.raises(ConfigurationError):
            RetryPolicy.from_dict({"max_retries": 2.5})
        with pytest.raises(ConfigurationError):
            RetryPolicy.from_dict([1, 2])


class TestCheckState:
    def physical_q(self, n=8):
        lay = StateLayout(2, 2)
        rng = np.random.default_rng(7)
        prim = np.empty((lay.nvars, n, n))
        prim[lay.partial_densities] = rng.uniform(0.1, 2.0, (2, n, n))
        prim[lay.velocity] = rng.uniform(-1, 1, (2, n, n))
        prim[lay.pressure] = rng.uniform(0.5, 3.0, (n, n))
        prim[lay.advected] = rng.uniform(0.1, 0.9, (1, n, n))
        return lay, prim_to_cons(lay, MIX, prim)

    def test_clean_state_passes(self):
        lay, q = self.physical_q()
        assert check_state(lay, MIX, q) is None

    def test_nan_named_with_cell_and_variable(self):
        lay, q = self.physical_q()
        q[1, 3, 5] = np.nan
        diag = check_state(lay, MIX, q)
        assert diag is not None and diag.reason == "non-finite"
        assert diag.cell == (3, 5)
        # NaN in alpha_rho[1] propagates through cons_to_prim into that
        # cell's primitives; the diagnostic names a variable at the cell.
        assert "at cell (3, 5)" in str(diag)

    def test_negative_density_detected(self):
        lay, q = self.physical_q()
        q[0, 2, 2] = -0.5
        diag = check_state(lay, MIX, q)
        assert diag is not None
        assert diag.reason == "negative-density"
        assert diag.variable == "alpha_rho[0]"
        assert diag.cell == (2, 2) and diag.bad_cells == 1

    def test_pressure_floor_uses_stiffened_gas(self):
        # With pi_inf > 0, pressures slightly above -pi_inf but below
        # the floor margin are unphysical; an ideal gas floors at ~0.
        lay = StateLayout(1, 1)
        mix = Mixture((WATER,))
        prim = np.empty((lay.nvars, 8))
        prim[lay.partial_densities] = 1000.0
        prim[lay.velocity] = 0.0
        prim[lay.pressure] = 1.0e5
        q = prim_to_cons(lay, mix, prim)
        assert check_state(lay, mix, q) is None
        prim[lay.pressure, 3] = -3.43e8
        q = prim_to_cons(lay, mix, prim)
        diag = check_state(lay, mix, q)
        assert diag is not None and diag.reason == "pressure-floor"
        assert diag.variable == "pressure" and diag.cell == (3,)

    def test_counts_all_bad_cells(self):
        lay, q = self.physical_q()
        q[0, 1, 1] = -1.0
        q[0, 4, 6] = -2.0
        diag = check_state(lay, MIX, q)
        assert diag.bad_cells == 2
        assert diag.cell == (1, 1)  # first in C order


class TestGuardedStep:
    def test_clean_guarded_run_bitwise_identical(self):
        a = make_sim()
        b = make_sim(retry=RetryPolicy())
        a.run(n_steps=6)
        b.run(n_steps=6)
        np.testing.assert_array_equal(a.q, b.q)
        assert not b.recovery.any()
        assert all(r.retries == 0 for r in b.history)

    def test_clean_guarded_run_bitwise_identical_no_workspace(self):
        a = make_sim(use_workspace=False)
        b = make_sim(use_workspace=False, retry=RetryPolicy())
        a.run(n_steps=4)
        b.run(n_steps=4)
        np.testing.assert_array_equal(a.q, b.q)

    def test_transient_fault_healed_bitwise(self):
        clean = make_sim()
        clean.run(n_steps=10)
        faulted = make_sim(retry=RetryPolicy(),
                           fault_injector=InjectOnce(step=5))
        faulted.run(n_steps=10)
        np.testing.assert_array_equal(clean.q, faulted.q)
        assert faulted.recovery.retries == 1
        assert faulted.recovery.rollbacks == 1
        assert faulted.recovery.faults_injected == 1
        assert faulted.recovery.dt_halvings == 0
        assert faulted.history[4].retries == 1
        assert [r.dt for r in clean.history] == [r.dt for r in faulted.history]

    def test_persistent_fault_pays_dt_backoff(self):
        # Fault survives the same-dt retry -> dt halving heals it only
        # because the injector arms a finite number of attempts.
        clean = make_sim()
        clean.run(n_steps=3)
        sim = make_sim(retry=RetryPolicy(max_retries=3, same_dt_retries=1),
                       fault_injector=InjectOnce(step=3, attempts=2))
        sim.run(n_steps=5)
        assert sim.recovery.dt_halvings == 1
        assert sim.recovery.retries == 2
        # Steps 1-2 match the clean run bitwise, so step 3's CFL dt is
        # the clean one — and the surviving attempt halved it once.
        assert sim.history[2].dt == clean.history[2].dt * 0.5
        assert sim.history[2].retries == 2

    def test_escalation_reaches_lower_order_scheme(self):
        sim = make_sim(retry=RetryPolicy(max_retries=1, same_dt_retries=1),
                       fault_injector=InjectOnce(step=2, attempts=2))
        sim.run(n_steps=3)
        assert sim.recovery.escalations == 1
        # The fallback RHS was built lazily for the weno3 rung.
        assert 3 in sim._fallback_rhs_cache

    def test_divergence_error_is_structured(self):
        sim = make_sim(retry=RetryPolicy(max_retries=1),
                       fault_injector=InjectOnce(step=4, attempts=None))
        with pytest.raises(SimulationDivergedError) as err:
            sim.run(n_steps=6)
        e = err.value
        assert e.step == 4
        assert e.schemes == ("weno5", "weno5", "weno3", "first_order")
        assert len(e.dts) == 4
        assert e.diagnostics.reason == "non-finite"
        assert "step 4 diverged" in str(e)
        # Pre-step state restored: the sim is still usable.
        assert sim.step_count == 3
        assert np.isfinite(sim.q).all()
        assert isinstance(e, NumericsError)

    def test_escalation_skips_rungs_at_or_above_configured_order(self):
        from repro.solver import RHSConfig

        sim = make_sim(config=RHSConfig(weno_order=3), retry=RetryPolicy())
        assert sim._escalation_ladder == ("first_order",)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_guarded_step_against_real_blowup(self):
        # A huge fixed dt makes the step genuinely unstable: the guard
        # must detect it (no injector involved) and eventually diverge.
        sim = make_sim(retry=RetryPolicy(max_retries=0, same_dt_retries=0,
                                         escalation=()),
                       fixed_dt=10.0, validate_every=0)
        with pytest.raises(SimulationDivergedError):
            sim.run(n_steps=1)
        assert sim.recovery.guard_failures >= 1


class TestValidateState:
    def test_message_names_cell_and_variable(self):
        sim = make_sim()
        sim.q[0, 2, 3] = np.nan
        with pytest.raises(NumericsError, match=r"cell \(2, 3\)"):
            sim.validate_state()

    def test_validate_every_cadence(self):
        calls = []
        sim = make_sim(validate_every=3)
        original = sim.validate_state
        sim.validate_state = lambda: calls.append(sim.step_count) or original()
        sim.run(n_steps=7)
        assert calls == [3, 6]

    def test_validate_every_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            make_sim(validate_every=-1)

    def test_validate_every_catches_poisoned_state(self):
        sim = make_sim(validate_every=1,
                       fault_injector=InjectOnce(step=2))  # no retry ⇒ fault sticks
        with pytest.raises(NumericsError, match="unphysical state at step 2"):
            sim.run(n_steps=4)


class TestRecoveryCounters:
    def test_round_trips_to_dict(self):
        c = RecoveryCounters(retries=2, rollbacks=2, checkpoints_written=1)
        d = c.as_dict()
        assert d["retries"] == 2 and d["checkpoints_written"] == 1
        assert set(d) >= {"retries", "rollbacks", "dt_halvings", "escalations",
                          "guard_failures", "faults_injected", "restarts",
                          "checkpoint_seconds"}

    def test_any_and_summary(self):
        assert not RecoveryCounters().any()
        c = RecoveryCounters(retries=1)
        assert c.any()
        assert "1 retries" in c.summary()
