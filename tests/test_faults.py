"""Fault-injection suite (the ``faults`` marker; ``make test-fault``).

Proves the acceptance contract end to end: deterministic seeded faults,
mid-run NaN recovery that completes and is bitwise identical to a clean
run, identical recovered trajectories across sweep layouts and thread
counts, and checkpoint corruption detected and survived.
"""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import CheckpointError, ConfigurationError
from repro.eos import Mixture, StiffenedGas
from repro.faults import (
    FAULT_MODES,
    CellFaultPlan,
    RankFailurePlan,
    bitflip_file,
    truncate_file,
)
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RetryPolicy, Simulation, box, sphere

pytestmark = pytest.mark.faults

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))


def bubble_sim(n=16, **kwargs):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([0.5, 0.5], 0.2), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
    return Simulation(case, BoundarySet.all_periodic(2), cfl=0.4, **kwargs)


class TestCellFaultPlanDeterminism:
    def test_same_seed_same_targets(self):
        a = CellFaultPlan(step=3, seed=42, ncells=4)
        b = CellFaultPlan(step=3, seed=42, ncells=4)
        shape = (7, 16, 16)
        assert a.targets(shape) == b.targets(shape)

    def test_different_seeds_differ(self):
        shape = (7, 16, 16)
        assert CellFaultPlan(step=3, seed=1, ncells=4).targets(shape) \
            != CellFaultPlan(step=3, seed=2, ncells=4).targets(shape)

    def test_apply_is_idempotent_across_calls(self):
        plan = CellFaultPlan(step=2, seed=7, ncells=3)
        q1 = np.ones((5, 8, 8))
        q2 = np.ones((5, 8, 8))
        assert plan.apply(q1, step=2) == 3
        assert plan.apply(q2, step=2) == 3
        np.testing.assert_array_equal(q1, q2)

    def test_only_armed_step_fires(self):
        plan = CellFaultPlan(step=5, seed=1)
        q = np.ones((5, 8, 8))
        assert plan.apply(q, step=4) == 0
        assert plan.apply(q, step=6) == 0
        assert np.all(q == 1.0)

    def test_transient_plan_spares_retries(self):
        plan = CellFaultPlan(step=5, seed=1, attempts=1)
        q = np.ones((5, 8, 8))
        assert plan.apply(q, step=5, attempt=1) == 0
        assert CellFaultPlan(step=5, seed=1, attempts=None) \
            .apply(q, step=5, attempt=99) == 1

    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_modes_write_expected_poison(self, mode):
        plan = CellFaultPlan(step=1, seed=3, mode=mode)
        q = np.ones((5, 8, 8))
        assert plan.apply(q, step=1) == 1
        [idx] = plan.targets(q.shape)
        if mode == "nan":
            assert np.isnan(q[idx])
        elif mode == "inf":
            assert np.isposinf(q[idx])
        else:
            assert q[idx] < 0.0 and idx[0] == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CellFaultPlan(step=0, seed=1)
        with pytest.raises(ConfigurationError):
            CellFaultPlan(step=1, seed=1, mode="gamma_ray")
        with pytest.raises(ConfigurationError):
            CellFaultPlan(step=1, seed=1, attempts=0)


class TestRecoveredTrajectories:
    def run_with_fault(self, *, seed=13, threads=1, layout="strided",
                       mode="nan", ranks=1):
        sim = bubble_sim(retry=RetryPolicy(), threads=threads,
                         sweep_layout=layout, ranks=ranks,
                         fault_injector=CellFaultPlan(step=4, seed=seed,
                                                      ncells=2, mode=mode))
        sim.run(n_steps=8)
        return sim

    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_mid_run_fault_recovered_and_run_completes(self, mode):
        clean = bubble_sim()
        clean.run(n_steps=8)
        sim = self.run_with_fault(mode=mode)
        assert sim.step_count == 8
        assert sim.recovery.faults_injected == 2
        assert sim.recovery.retries >= 1
        # No surviving fault ⇒ bitwise identical to the clean run.
        np.testing.assert_array_equal(sim.q, clean.q)

    def test_same_seed_identical_recovery(self):
        a = self.run_with_fault(seed=21)
        b = self.run_with_fault(seed=21)
        np.testing.assert_array_equal(a.q, b.q)
        da, db = a.recovery.as_dict(), b.recovery.as_dict()
        assert da.pop("checkpoint_skip_reasons") == \
            db.pop("checkpoint_skip_reasons")
        assert da == pytest.approx(db)

    def test_recovery_identical_across_layouts_and_threads(self):
        base = self.run_with_fault(seed=31)
        for threads, layout, ranks in ((2, "strided", 1),
                                       (1, "transposed", 1),
                                       (2, "transposed", 1),
                                       (1, "strided", 2), (1, "strided", 4)):
            other = self.run_with_fault(seed=31, threads=threads,
                                        layout=layout, ranks=ranks)
            np.testing.assert_array_equal(base.q, other.q)
            assert other.recovery.faults_injected == \
                base.recovery.faults_injected
            assert other.recovery.retries == base.recovery.retries


class TestFileFaults:
    def test_truncate_deterministic(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).write_bytes(bytes(range(200)))
        assert truncate_file(tmp_path / "a", keep_fraction=0.25) \
            == truncate_file(tmp_path / "b", keep_fraction=0.25)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bitflip_same_seed_same_bits(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).write_bytes(bytes(200))
        fa = bitflip_file(tmp_path / "a", seed=5, nflips=4)
        fb = bitflip_file(tmp_path / "b", seed=5, nflips=4)
        assert fa == fb
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_end_to_end_corruption_survived(self, tmp_path):
        # The full loop: checkpointed run, newest checkpoint bit-flipped,
        # restart falls back, resumed run matches the straight one.
        straight = bubble_sim()
        straight.run(n_steps=8)

        crashed = bubble_sim(checkpoint_every=2, checkpoint_dir=tmp_path,
                             checkpoint_keep=3)
        crashed.run(n_steps=7)  # checkpoints at 2, 4, 6
        from repro.io.binary import HEADER_BYTES

        bitflip_file(crashed.checkpoint_manager.path_for(6), seed=3,
                     skip_bytes=HEADER_BYTES)

        resumed = bubble_sim(checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError):
            from repro.io import read_snapshot

            read_snapshot(crashed.checkpoint_manager.path_for(6))
        path = resumed.restore_latest()
        assert path.name == "ckpt_000000004.json"
        resumed.run(n_steps=4)
        np.testing.assert_array_equal(resumed.q, straight.q)


class TestRankFailurePlan:
    def test_deterministic_and_sorted(self):
        plan = RankFailurePlan(nranks=16, mtbf_hours=100.0, seed=4)
        a = plan.failure_times(50.0)
        b = plan.failure_times(50.0)
        assert a == b
        assert a == sorted(a)
        assert all(0.0 <= t < 50.0 for t, _ in a)

    def test_rate_scales_with_ranks(self):
        few = RankFailurePlan(nranks=8, mtbf_hours=100.0, seed=9)
        many = RankFailurePlan(nranks=256, mtbf_hours=100.0, seed=9)
        horizon = 200.0
        assert len(many.failure_times(horizon)) > len(few.failure_times(horizon))
        assert many.expected_failures(horizon) == 32 * few.expected_failures(horizon)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RankFailurePlan(nranks=0, mtbf_hours=1.0, seed=1)
        with pytest.raises(ConfigurationError):
            RankFailurePlan(nranks=1, mtbf_hours=0.0, seed=1)
        with pytest.raises(ConfigurationError):
            RankFailurePlan(nranks=1, mtbf_hours=1.0, seed=1).failure_times(-1.0)


class TestTargetedCorruption:
    """Aimed corruption helpers behind the ensemble chaos plans."""

    def test_bitflip_limit_bytes_stays_in_window(self, tmp_path):
        path = tmp_path / "f"
        original = bytes(range(200))
        path.write_bytes(original)
        flips = bitflip_file(path, seed=9, nflips=6, skip_bytes=50,
                             limit_bytes=25)
        assert all(50 <= offset < 75 for offset, _bit in flips)
        mutated = path.read_bytes()
        assert mutated[:50] == original[:50]
        assert mutated[75:] == original[75:]
        assert mutated[50:75] != original[50:75]

    def test_bitflip_limit_bytes_deterministic(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).write_bytes(bytes(200))
        fa = bitflip_file(tmp_path / "a", seed=4, skip_bytes=10,
                          limit_bytes=16)
        fb = bitflip_file(tmp_path / "b", seed=4, skip_bytes=10,
                          limit_bytes=16)
        assert fa == fb
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bitflip_limit_bytes_validated(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(bytes(64))
        with pytest.raises(ConfigurationError):
            bitflip_file(path, seed=1, limit_bytes=0)


class TestEnsembleChaosPlan:
    def test_poison_plan_only_for_batches_holding_the_job(self):
        from repro.faults import EnsembleChaosPlan

        chaos = EnsembleChaosPlan(seed=3, poison_job=2, poison_step=4)
        assert chaos.fault_plans([0, 1]) == {}
        plans = chaos.fault_plans([2, 3])
        assert set(plans) == {2}
        assert plans[2].step == 4 and plans[2].mode == "nan"
        # Never relents: the poison re-fires on every retry.
        assert plans[2].attempts is None

    def test_kill_switch_arms_only_attempt_zero(self):
        from repro.faults import EnsembleChaosPlan

        chaos = EnsembleChaosPlan(seed=3, kill_step=5, kill_job=1)
        assert chaos.arms_kill([0, 1], attempt=0)
        assert not chaos.arms_kill([0, 1], attempt=1)
        assert not chaos.arms_kill([2, 3], attempt=0)
        assert chaos.make_kill_callback([2, 3], 0) is None
        assert chaos.make_kill_callback([0, 1], 1) is None
        assert chaos.make_kill_callback([0, 1], 0) is not None

    def test_unarmed_plan_is_inert(self):
        from repro.faults import EnsembleChaosPlan

        chaos = EnsembleChaosPlan(seed=3)
        assert chaos.fault_plans([0, 1]) == {}
        assert chaos.make_kill_callback([0, 1], 0) is None
