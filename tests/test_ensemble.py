"""Batched ensemble execution suite (``-m ensemble``).

The contract under test: every case stacked into an
:class:`~repro.ensemble.EnsembleSimulation` advances **bit-for-bit
identically** to the same case marched by a standalone
:class:`Simulation` — across WENO orders, Riemann solvers, sweep
layouts, thread counts, fusion, and ragged per-case horizons with
retire-and-compact.  Plus: scheduler grouping, spec loading, the CLI
subcommand, tuning-cache reuse, and the per-step allocation budget.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BoundarySet
from repro.common import ConfigurationError
from repro.ensemble import (
    EnsembleJob,
    EnsembleRunner,
    EnsembleSimulation,
    EnsembleState,
    batch_signature,
    plan_job_batches,
)
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.profiling import measure_call_allocations
from repro.solver import Case, Patch, RHSConfig, Simulation, box, sphere

pytestmark = pytest.mark.ensemble

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))
WATER = StiffenedGas(4.4, 6000.0, "water")


def bubble_case(n=16, cx=0.4, cy=0.5, r=0.15, mixture=MIX):
    """One 2D advecting-bubble variant on an n x n unit square."""
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, mixture)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([cx, cy], r), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
    return case


def variants(n=16, count=3):
    return [bubble_case(n, cx=0.35 + 0.05 * i, r=0.12 + 0.02 * i)
            for i in range(count)]


def standalone(case, bcs, *, t_end, **kwargs):
    """March one case with the single-case driver; return (q, time, steps)."""
    sim = Simulation(case, bcs, **kwargs)
    sim.run(t_end=t_end)
    sim.close()
    return sim.q, sim.time, sim.step_count


# ----------------------------------------------------------------------
class TestEnsembleState:
    def test_stacks_initial_states_bitwise(self):
        cases = variants()
        state = EnsembleState.from_cases(cases)
        assert state.batch == 3
        assert state.stacked.flags["C_CONTIGUOUS"]
        for i, case in enumerate(cases):
            np.testing.assert_array_equal(state.view(i),
                                          case.initial_conservative())

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ConfigurationError, match="different grid"):
            EnsembleState.from_cases([bubble_case(16), bubble_case(12)])

    def test_rejects_mismatched_mixture(self):
        other = Mixture((AIR, WATER))
        with pytest.raises(ConfigurationError, match="different mixture"):
            EnsembleState.from_cases(
                [bubble_case(16), bubble_case(16, mixture=other)])

    def test_compact_keeps_survivors_bitwise_and_remaps(self):
        cases = variants(count=4)
        state = EnsembleState.from_cases(cases)
        before = [state.view(i).copy() for i in range(4)]
        state.compact([0, 2, 3])
        assert state.batch == 3
        assert state.case_index == [0, 2, 3]
        for slot, orig in enumerate([0, 2, 3]):
            np.testing.assert_array_equal(state.view(slot), before[orig])
        state.compact([1])
        assert state.case_index == [2]
        np.testing.assert_array_equal(state.view(0), before[2])

    def test_compact_validates_keep_list(self):
        state = EnsembleState.from_cases(variants())
        with pytest.raises(ConfigurationError):
            state.compact([2, 0])
        with pytest.raises(ConfigurationError):
            state.compact([0, 3])


# ----------------------------------------------------------------------
class TestBitwiseIdentity:
    """The tentpole contract, swept over solver configurations."""

    @settings(deadline=None, max_examples=8)
    @given(order=st.sampled_from([1, 3, 5]),
           riemann=st.sampled_from(["hllc", "rusanov"]),
           layout=st.sampled_from(["strided", "transposed"]),
           threads=st.sampled_from([1, 2]),
           fusion=st.sampled_from(["off", "on"]),
           bc=st.sampled_from(["periodic", "reflective"]))
    def test_batched_equals_standalone(self, order, riemann, layout,
                                       threads, fusion, bc):
        cases = variants()
        bcs = {"periodic": BoundarySet.all_periodic,
               "reflective": BoundarySet.all_reflective}[bc](2)
        # Ragged horizons (in units of the fixed dt): 4, 2, and 6
        # steps, so one case retires early and one marches past the
        # first compaction.
        t_ends = [8e-3, 4e-3, 1.2e-2]
        kwargs = dict(config=RHSConfig(weno_order=order,
                                       riemann_solver=riemann),
                      fixed_dt=2e-3, validate_every=2, threads=threads,
                      sweep_layout=layout, fusion=fusion)
        ens = EnsembleSimulation(cases, bcs, **kwargs)
        results = ens.run(t_end=t_ends)
        ens.close()
        for case, t_end, res in zip(cases, t_ends, results):
            q, time, steps = standalone(case, bcs, t_end=t_end, **kwargs)
            assert res.q.tobytes() == q.tobytes()
            assert res.time == time
            assert res.steps == steps

    def test_cfl_driven_march_is_bitwise(self):
        # No fixed_dt: the per-case dt comes from the batch-vectorised
        # CFL reduction, clipped per case onto its horizon.
        cases = variants()
        bcs = BoundarySet.all_periodic(2)
        t_ends = [0.02, 0.01, 0.03]
        kwargs = dict(cfl=0.4, validate_every=3)
        ens = EnsembleSimulation(cases, bcs, **kwargs)
        results = ens.run(t_end=t_ends)
        for case, t_end, res in zip(cases, t_ends, results):
            q, time, steps = standalone(case, bcs, t_end=t_end, **kwargs)
            assert res.q.tobytes() == q.tobytes()
            assert res.time == time
            assert res.steps == steps

    def test_n_steps_march_is_bitwise(self):
        cases = variants()
        bcs = BoundarySet.all_periodic(2)
        ens = EnsembleSimulation(cases, bcs, fixed_dt=2e-3, validate_every=0)
        ens.run(n_steps=5)
        for i, case in enumerate(cases):
            sim = Simulation(case, bcs, fixed_dt=2e-3, validate_every=0)
            sim.run(n_steps=5)
            assert ens.state.view(i).tobytes() == sim.q.tobytes()


# ----------------------------------------------------------------------
class TestRaggedRetirement:
    def test_zero_horizon_case_retires_untouched(self):
        cases = variants()
        bcs = BoundarySet.all_periodic(2)
        ens = EnsembleSimulation(cases, bcs, fixed_dt=2e-3)
        results = ens.run(t_end=[8e-3, 0.0, 8e-3])
        assert results[1].steps == 0
        np.testing.assert_array_equal(results[1].q,
                                      cases[1].initial_conservative())
        assert results[0].steps == results[2].steps == 4

    def test_retire_events_and_step_counts(self):
        cases = variants(count=4)
        bcs = BoundarySet.all_periodic(2)
        ens = EnsembleSimulation(cases, bcs, fixed_dt=2e-3)
        results = ens.run(t_end=[6e-3, 1e-2, 2e-3, 8e-3])
        assert [r.steps for r in results] == [3, 5, 1, 4]
        # Four distinct horizons -> four retire-and-compact events.
        assert ens.retire_events == 4
        assert ens.batch == 0
        with pytest.raises(ConfigurationError, match="retired"):
            ens.step()

    def test_results_are_snapshots_for_active_cases(self):
        cases = variants()
        bcs = BoundarySet.all_periodic(2)
        ens = EnsembleSimulation(cases, bcs, fixed_dt=2e-3)
        ens.run(n_steps=2)
        mid = ens.results()
        assert all(r.steps == 2 for r in mid)
        ens.run(n_steps=1)
        after = ens.results()
        assert all(r.steps == 3 for r in after)
        assert mid[0].q.tobytes() != after[0].q.tobytes()

    def test_t_end_validation(self):
        ens = EnsembleSimulation(variants(), BoundarySet.all_periodic(2),
                                 fixed_dt=2e-3)
        with pytest.raises(ConfigurationError):
            ens.run(t_end=[1e-3, 2e-3])  # wrong length
        with pytest.raises(ConfigurationError):
            ens.run(t_end=-1.0)
        with pytest.raises(ConfigurationError):
            ens.run()
        with pytest.raises(ConfigurationError):
            ens.run(t_end=1e-3, n_steps=2)


# ----------------------------------------------------------------------
class TestRunnerScheduling:
    def test_plan_batches_groups_by_signature_and_chunks(self):
        jobs = ([EnsembleJob(bubble_case(16, cx=0.3 + 0.02 * i), 1e-3)
                 for i in range(4)]
                + [EnsembleJob(bubble_case(12), 1e-3)])
        plan = plan_job_batches(jobs, RHSConfig(), batch_width=2)
        assert [len(idx) for _, idx in plan] == [2, 2, 1]
        assert plan[0][1] == [0, 1]
        assert plan[1][1] == [2, 3]
        assert plan[2][1] == [4]
        assert plan[0][0] == plan[1][0] != plan[2][0]

    def test_signature_separates_grids_and_configs(self):
        a, b = bubble_case(16), bubble_case(16)
        cfg = RHSConfig()
        assert batch_signature(a, cfg) == batch_signature(b, cfg)
        assert (batch_signature(a, cfg)
                != batch_signature(bubble_case(12), cfg))
        assert (batch_signature(a, cfg)
                != batch_signature(a, RHSConfig(weno_order=1)))

    def test_mixed_signature_jobs_all_bitwise(self):
        bcs = BoundarySet.all_periodic(2)
        jobs = ([EnsembleJob(bubble_case(16, cx=0.3 + 0.02 * i),
                             2e-3 * (i + 1), name=f"small{i}")
                 for i in range(3)]
                + [EnsembleJob(bubble_case(12), 4e-3, name="coarse")])
        runner = EnsembleRunner(jobs, bcs, batch_width=8, fixed_dt=1e-3)
        report = runner.run()
        assert len(report.batches) == 2
        assert [r.name for r in report.results] \
            == ["small0", "small1", "small2", "coarse"]
        for job, res in zip(jobs, report.results):
            q, time, steps = standalone(job.case, bcs, t_end=job.t_end,
                                        fixed_dt=1e-3)
            assert res.q.tobytes() == q.tobytes()
            assert res.steps == steps
        assert "batch 0" in report.summary()
        assert report.total_wall_seconds == sum(
            b["wall_seconds"] for b in report.batches) > 0.0

    def test_job_and_runner_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleJob(bubble_case(12), -1.0)
        with pytest.raises(ConfigurationError):
            EnsembleRunner([], BoundarySet.all_periodic(2))
        job = EnsembleJob(bubble_case(12), 1e-3)
        for bad in (0, -2, True, 1.5):
            with pytest.raises(ConfigurationError):
                EnsembleRunner([job], BoundarySet.all_periodic(2),
                               batch_width=bad)

    def test_run_ensemble_classmethod_accepts_tuples(self):
        bcs = BoundarySet.all_periodic(2)
        cases = variants(n=12, count=2)
        report = Simulation.run_ensemble(
            [(cases[0], 2e-3), (cases[1], 4e-3)], bcs, fixed_dt=1e-3)
        assert [r.steps for r in report.results] == [2, 4]
        q, _, _ = standalone(cases[1], bcs, t_end=4e-3, fixed_dt=1e-3)
        assert report.results[1].q.tobytes() == q.tobytes()


# ----------------------------------------------------------------------
class TestTuningCacheReuse:
    def test_second_campaign_runs_every_batch_with_zero_timing_runs(
            self, tmp_path):
        """The cache contract: batches of one signature that run side by
        side may each tune, but a second campaign on the same cache
        replays the plan in every batch — and tuned results stay
        bitwise."""
        cache = tmp_path / "tuning.json"
        bcs = BoundarySet.all_periodic(2)
        jobs = [EnsembleJob(bubble_case(12, cx=0.3 + 0.02 * i), 2e-3)
                for i in range(4)]
        reports = [EnsembleRunner(jobs, bcs, batch_width=2, fixed_dt=1e-3,
                                  tuning="auto", tuning_cache=cache).run()
                   for _ in range(2)]
        first, second = ([b["timing_runs"] for b in r.batches]
                         for r in reports)
        assert len(first) == len(second) == 2
        assert first[0] > 0 or first[1] > 0
        assert second == [0, 0]  # cache hits
        summary = reports[1].summary()
        assert all(b["tuning"] and f"{b['tuning']} [0 timing runs]"
                   in summary for b in reports[1].batches)
        # Tuned batched results still bitwise-match untuned standalone.
        for report in reports:
            for job, res in zip(jobs, report.results):
                q, _, _ = standalone(job.case, bcs, t_end=job.t_end,
                                     fixed_dt=1e-3)
                assert res.q.tobytes() == q.tobytes()


# ----------------------------------------------------------------------
def _spec_dict(n=12, t_ends=(2e-3, 4e-3)):
    def case_dict(i):
        return {
            "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [n, n]},
            "fluids": [{"gamma": 1.4, "pi_inf": 0.0, "name": "air"},
                       {"gamma": 1.4, "pi_inf": 0.0, "name": "air"}],
            "patches": [
                {"geometry": {"kind": "box", "lo": [0.0, 0.0],
                              "hi": [1.0, 1.0]},
                 "alpha_rho": [0.5, 0.5], "velocity": [0.3, -0.1],
                 "pressure": 1.0, "alpha": [0.5]},
                {"geometry": {"kind": "sphere",
                              "center": [0.35 + 0.05 * i, 0.5],
                              "radius": 0.15},
                 "alpha_rho": [1.0, 1.0], "velocity": [0.0, 0.0],
                 "pressure": 2.0, "alpha": [0.5]},
            ],
        }
    return {
        "batch_width": 2,
        "t_end": t_ends[0],
        "jobs": [{"name": f"j{i}", "case": case_dict(i), "t_end": te}
                 for i, te in enumerate(t_ends)],
        "solver": {"threads": 1},
    }


class TestSpecLoading:
    def test_load_ensemble_round_trip(self, tmp_path):
        from repro.io.case_files import load_ensemble
        spec = tmp_path / "ens.json"
        spec.write_text(json.dumps(_spec_dict()))
        jobs, batch_width, options = load_ensemble(spec)
        assert batch_width == 2
        assert [j.name for j in jobs] == ["j0", "j1"]
        assert jobs[0].t_end == 2e-3 and jobs[1].t_end == 4e-3
        assert options.get("threads") == 1

    def test_case_file_resolves_relative_to_spec(self, tmp_path):
        from repro.io.case_files import load_ensemble
        d = _spec_dict()
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "one.json").write_text(
            json.dumps(d["jobs"][0]["case"]))
        spec = {"jobs": [{"case_file": "one.json", "t_end": 1e-3}]}
        path = tmp_path / "sub" / "ens.json"
        path.write_text(json.dumps(spec))
        jobs, _, _ = load_ensemble(path)
        assert jobs[0].case.grid.shape == (12, 12)

    def test_spec_validation(self):
        from repro.io.case_files import ensemble_from_dict
        good = _spec_dict()
        with pytest.raises(ConfigurationError):
            ensemble_from_dict({"jobs": []})
        both = json.loads(json.dumps(good))
        both["jobs"][0]["case_file"] = "x.json"
        with pytest.raises(ConfigurationError):
            ensemble_from_dict(both)
        neither = json.loads(json.dumps(good))
        del neither["jobs"][0]["case"]
        with pytest.raises(ConfigurationError):
            ensemble_from_dict(neither)
        badkey = json.loads(json.dumps(good))
        badkey["solver"]["ranks"] = 2
        with pytest.raises(ConfigurationError):
            ensemble_from_dict(badkey)


class TestCLI:
    def test_ensemble_subcommand_runs_spec(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = tmp_path / "ens.json"
        spec.write_text(json.dumps(_spec_dict()))
        rc = main(["ensemble", str(spec), "--weno", "1", "--cfl", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 jobs in 1 batch(es)" in out
        assert "j0" in out and "j1" in out
        assert "total batch wall" in out


# ----------------------------------------------------------------------
class TestAllocationBudget:
    def test_stacked_step_stays_on_budget(self):
        # A steady-state stacked step must not allocate per-case
        # buffers: the budget is a small multiple of ONE stacked field,
        # and the net growth over repeats is ~zero (no leak per step).
        cases = variants()
        bcs = BoundarySet.all_periodic(2)
        ens = EnsembleSimulation(cases, bcs, fixed_dt=2e-3, validate_every=0)
        field_bytes = ens.state.stacked.nbytes
        stats = measure_call_allocations(lambda: ens.step(),
                                         warmup=3, repeats=3)
        assert stats.min_transient_bytes < 4 * field_bytes
        assert stats.net_bytes < field_bytes


class TestRetireOnFailure:
    """Satellite of the durable service: one diverging case must retire
    through the compaction path with a *named* diagnostic — its batch
    neighbours finish untouched, bitwise."""

    def _run_with_poison(self, cases, bcs, *, t_end=6e-3, **kwargs):
        from repro.faults import CellFaultPlan

        sim = EnsembleSimulation(
            cases, bcs, names=["healthy0", "poisoned", "healthy2"],
            fixed_dt=1e-3, validate_every=1, on_failure="retire",
            fault_plans={1: CellFaultPlan(step=3, seed=11, mode="nan",
                                          attempts=None)},
            **kwargs)
        results = sim.run(t_end=[t_end] * len(cases))
        sim.close()
        return sim, results

    def test_poisoned_case_retires_named_neighbours_bitwise(self):
        cases = variants()
        bcs = BoundarySet.all_periodic(2)
        sim, results = self._run_with_poison(cases, bcs)

        assert [r.status for r in results] == ["done", "failed", "done"]
        failed = results[1]
        assert "'poisoned'" in failed.error
        assert "case step 3" in failed.error
        assert failed.steps == 3
        # The survivors never noticed: bitwise equal to standalone runs.
        for i in (0, 2):
            q, time, steps = standalone(cases[i], bcs, t_end=6e-3,
                                        fixed_dt=1e-3, validate_every=1)
            np.testing.assert_array_equal(results[i].q, q)
            assert results[i].steps == steps
        assert sim.retire_events >= 2  # poison retired, then finishers
        assert sim.recovery.faults_injected > 0

    def test_raise_mode_still_aborts_the_batch(self):
        from repro.common import NumericsError
        from repro.faults import CellFaultPlan

        cases = variants()
        sim = EnsembleSimulation(
            cases, BoundarySet.all_periodic(2), fixed_dt=1e-3,
            validate_every=1, on_failure="raise",
            fault_plans={1: CellFaultPlan(step=2, seed=11, mode="nan")})
        with pytest.raises(NumericsError, match="case 1"):
            sim.run(t_end=[6e-3] * 3)

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ConfigurationError, match="on_failure"):
            EnsembleSimulation(variants(), BoundarySet.all_periodic(2),
                               on_failure="shrug")


class TestValidateEvery:
    """``validate_every`` is the march loop's cadence, so a batch takes
    it: bitwise the standalone run per case, and a failing case retires
    alone with a diagnostic naming it."""

    def test_each_case_matches_its_standalone_run(self):
        cases = variants()
        bcs = BoundarySet.all_periodic(2)
        t_ends = [6e-3, 1e-2, 8e-3]
        knobs = dict(cfl=0.4, validate_every=2)
        with EnsembleSimulation(cases, bcs, **knobs) as ens:
            results = ens.run(t_end=t_ends)
        for case, t_end, res in zip(cases, t_ends, results):
            q, time, steps = standalone(case, bcs, t_end=t_end, **knobs)
            assert res.q.tobytes() == q.tobytes()
            assert (res.time, res.steps) == (time, steps)

    def test_failing_case_retires_named(self):
        from repro.faults import CellFaultPlan

        cases = variants()
        bcs = BoundarySet.all_periodic(2)
        knobs = dict(fixed_dt=1e-3, validate_every=3)
        with EnsembleSimulation(
                cases, bcs, names=["healthy0", "poisoned", "healthy2"],
                on_failure="retire", **knobs,
                fault_plans={1: CellFaultPlan(step=3, seed=11, mode="nan",
                                              attempts=None)}) as ens:
            results = ens.run(t_end=[6e-3] * 3)
        assert [r.status for r in results] == ["done", "failed", "done"]
        assert "'poisoned'" in results[1].error
        assert "case step 3" in results[1].error
        for i in (0, 2):
            q, _, steps = standalone(cases[i], bcs, t_end=6e-3, **knobs)
            assert results[i].q.tobytes() == q.tobytes()
            assert results[i].steps == steps
