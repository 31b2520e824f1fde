"""Durable ensemble job-service suite (``-m ensemble``; chaos legs
additionally ``-m chaos``).

The contract under test: however a campaign is interrupted — the
service killed at *any* ledger append, a batch worker SIGKILL'd
mid-flight, a checkpoint or ledger record corrupted on disk, a batch
over its deadline — a resumed ``EnsembleService`` completes every
recoverable job **bit-for-bit identical** to a fault-free run, ends
poison jobs ``quarantined``, and never loses or double-completes a job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.acc.gang import usable_cores
from repro.bc import BoundarySet
from repro.common import ConfigurationError, InjectedCrash
from repro.ensemble import (
    EnsembleJob,
    EnsembleRunner,
    EnsembleService,
    JobLedger,
)
from repro.ensemble.service import plan_slots
from repro.eos import Mixture, StiffenedGas
from repro.faults import (
    EnsembleChaosPlan,
    corrupt_ledger_record,
    corrupt_newest_checkpoint,
)
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, Simulation, box, sphere

pytestmark = pytest.mark.ensemble

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))

DT = 1e-3
T_END = 8e-3  # 8 fixed-dt steps


def bubble_case(n=12, cx=0.4, r=0.15):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([cx, 0.5], r), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
    return case


def make_jobs(count=3):
    return [EnsembleJob(bubble_case(cx=0.3 + 0.08 * i), T_END, f"j{i}")
            for i in range(count)]


BCS = BoundarySet.all_periodic(2)

#: Fast-path service knobs shared by most tests: inline batches (the
#: crash under test lives in the *service*, not the worker), no
#: backoff sleeps, checkpoints every 2 stacked steps.
FAST = dict(fixed_dt=DT, retry_base_seconds=0.0, checkpoint_every=2,
            supervise=False)


def run_service(jobs, tmp, name="led.jsonl", **kwargs):
    opts = {**FAST, **kwargs}
    svc = EnsembleService(jobs, BCS, ledger=Path(tmp) / name, **opts)
    return svc, svc.run()


def standalone(jobs):
    """Each job marched by a standalone ``Simulation.run`` — the oracle
    every campaign, durable or not, matches bit for bit."""
    sims = []
    for job in jobs:
        with Simulation(job.case, BCS, fixed_dt=DT) as sim:
            sim.run(t_end=job.t_end)
        sims.append(sim)
    return sims


def assert_matches(results, sims, where=""):
    for got, want in zip(results, sims, strict=True):
        assert got.q.tobytes() == want.q.tobytes(), \
            f"{where}{got.name} diverged"
        assert (got.steps, got.time) == (want.step_count, want.time), \
            f"{where}{got.name}"


def done_record_count(ledger_path, status="done"):
    """Per-job count of ``done`` records — the double-completion check —
    or of another ``status``."""
    counts: dict[str, int] = {}
    for rec in JobLedger(ledger_path).replay().records:
        if rec.get("kind") == "job" and rec.get("status") == status:
            counts[rec["id"]] = counts.get(rec["id"], 0) + 1
    return counts


# ----------------------------------------------------------------------
class TestFreshRun:
    def test_bitwise_identical_to_standalone(self, tmp_path):
        jobs = make_jobs()
        _, report = run_service(jobs, tmp_path, batch_width=3)
        assert [j.status for j in report.jobs] == ["done"] * 3
        assert_matches(report.results, standalone(jobs))

    def test_supervised_child_matches_inline(self, tmp_path):
        jobs = make_jobs(2)
        _, inline = run_service(jobs, tmp_path, name="a.jsonl",
                                batch_width=2)
        _, forked = run_service(jobs, tmp_path, name="b.jsonl",
                                batch_width=2, supervise=True)
        for a, b in zip(inline.results, forked.results):
            assert np.array_equal(a.q, b.q)

    def test_fresh_batches_are_seeded_by_the_service(self, tmp_path,
                                                     monkeypatch):
        """Initial states are built once, in the service process, not
        again in every forked batch child."""
        jobs = make_jobs(2)
        svc = EnsembleService(jobs, BCS, ledger=tmp_path / "led.jsonl",
                              batch_width=2, **FAST)
        seen = {}
        submit = svc.supervisor.submit

        def spy(spec, **kwargs):  # run(spec) submits again: a no-op
            seen.setdefault(id(spec), spec.initial_states)
            # From here on (the batch itself) no case is initialised.
            monkeypatch.setattr(Case, "initial_conservative", None)
            return submit(spec, **kwargs)

        monkeypatch.setattr(svc.supervisor, "submit", spy)
        report = svc.run()
        monkeypatch.undo()
        assert [j.status for j in report.jobs] == ["done"] * 2
        (states,) = seen.values()
        for job, q in zip(jobs, states):
            assert q.tobytes() == job.case.initial_conservative().tobytes()

    def test_results_are_durable_snapshots(self, tmp_path):
        from repro.io.binary import read_snapshot

        jobs = make_jobs(2)
        svc, report = run_service(jobs, tmp_path, batch_width=2)
        for outcome in report.jobs:
            header, q = read_snapshot(
                svc.results_dir / f"{outcome.job_id}.bin")
            assert np.array_equal(q, outcome.result.q)
            assert header.step == outcome.result.steps

    def test_done_jobs_drop_their_checkpoints(self, tmp_path):
        svc, report = run_service(make_jobs(2), tmp_path, batch_width=2)
        assert all(j.status == "done" for j in report.jobs)
        leftovers = list(svc.checkpoint_dir.glob("job*.bin")) \
            if svc.checkpoint_dir.is_dir() else []
        assert leftovers == []


class TestWithoutLedger:
    """The one driver without a ledger: the same scheduler, the job
    table and outcomes in memory, no file written — two signatures,
    three batches, side by side on a multi-core host."""

    def test_every_job_matches_standalone_and_no_file_is_written(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        jobs = make_jobs(3) + [EnsembleJob(bubble_case(n=16), T_END, "fine")]
        # The frozen batching probe's spelling of an in-memory campaign.
        report = EnsembleRunner(jobs, BCS, batch_width=2, fixed_dt=DT).run()
        assert [j.status for j in report.jobs] == ["done"] * 4
        assert [r.name for r in report.results] == ["j0", "j1", "j2", "fine"]
        assert_matches(report.results, standalone(jobs))
        assert list(tmp_path.iterdir()) == []
        assert not report.resumed
        assert sorted(len(b["jobs"]) for b in report.batches) == [1, 1, 2]
        assert report.total_wall_seconds == sum(
            b["wall_seconds"] for b in report.batches) > 0.0
        assert "total batch wall" in report.summary()
        assert report.slots == plan_slots(3)[1]
        if usable_cores() >= 2:
            assert report.slots.startswith(
                f"{min(usable_cores(), 3)} side by side")

    def test_diverging_case_is_quarantined_with_its_error(self):
        chaos = EnsembleChaosPlan(seed=5, poison_job=1, poison_step=3)
        report = EnsembleService(make_jobs(3), BCS, batch_width=3,
                                 fixed_dt=DT, retry_base_seconds=0.0,
                                 max_attempts=2, chaos=chaos).run()
        assert [j.status for j in report.jobs] \
            == ["done", "quarantined", "done"]
        assert report.jobs[1].attempts == 2 and report.results[1] is None
        assert "nan" in report.jobs[1].error.lower() \
            or "finite" in report.jobs[1].error.lower()

    def test_file_options_need_a_ledger(self):
        for key, value in (("checkpoint_dir", "ckpt"),
                           ("results_dir", "res"), ("checkpoint_every", 2)):
            with pytest.raises(ConfigurationError, match="need a ledger"):
                EnsembleService(make_jobs(1), BCS, **{key: value})


class TestResume:
    def test_completed_campaign_replays_without_execution(self, tmp_path):
        jobs = make_jobs()
        _, first = run_service(jobs, tmp_path, batch_width=3)
        _, second = run_service(jobs, tmp_path, batch_width=3)
        assert second.resumed
        assert second.executed_batches == 0
        assert second.replayed_done == 3
        for a, b in zip(second.results, first.results):
            assert np.array_equal(a.q, b.q)

    def test_lost_result_snapshot_forces_rerun(self, tmp_path):
        jobs = make_jobs(2)
        svc, first = run_service(jobs, tmp_path, batch_width=2)
        (svc.results_dir / "job0000.bin").unlink()
        _, second = run_service(jobs, tmp_path, batch_width=2)
        assert second.executed_batches == 1
        assert any(e.get("event") == "result-lost" for e in second.events)
        assert np.array_equal(second.results[0].q, first.results[0].q)

    def test_foreign_ledger_rejected(self, tmp_path):
        run_service(make_jobs(2), tmp_path, batch_width=2)
        other = [EnsembleJob(bubble_case(cx=0.7), 5e-3, "other")]
        with pytest.raises(ConfigurationError, match="different job spec"):
            run_service(other, tmp_path, batch_width=1)

    def test_kill_at_every_ledger_append_then_resume(self, tmp_path):
        """The tentpole invariant: crash the service after its N-th
        durable append, for every N, and the resumed run always
        converges to the fault-free answer with no job lost or done
        twice."""
        jobs = make_jobs(3)
        ref = standalone(jobs)
        # A clean campaign: 1 open + 3 running + 3 done = 7 appends.
        for n in range(1, 8):
            led = tmp_path / f"kill{n}" / "led.jsonl"
            svc = EnsembleService(
                jobs, BCS, ledger=JobLedger(led, fail_after_appends=n),
                checkpoint_dir=led.parent / "ckpt",
                results_dir=led.parent / "res", batch_width=3, **FAST)
            with pytest.raises(InjectedCrash):
                svc.run()
            _, report = run_service(
                jobs, led.parent, batch_width=3,
                checkpoint_dir=led.parent / "ckpt",
                results_dir=led.parent / "res")
            assert [j.status for j in report.jobs] == ["done"] * 3, \
                f"crash after append {n}"
            assert_matches(report.results, ref, f"crash after append {n}: ")
            assert all(v == 1 for v in done_record_count(led).values()), \
                f"crash after append {n}: a job completed twice"


class TestFailureHandling:
    def test_poison_job_quarantined_neighbours_unharmed(self, tmp_path):
        jobs = make_jobs(3)
        _, clean = run_service(jobs, tmp_path, name="ref.jsonl",
                               batch_width=3)
        chaos = EnsembleChaosPlan(seed=5, poison_job=1, poison_step=3)
        _, report = run_service(jobs, tmp_path, batch_width=3,
                                chaos=chaos, max_attempts=2)
        statuses = [j.status for j in report.jobs]
        assert statuses == ["done", "quarantined", "done"]
        assert report.jobs[1].attempts == 2
        assert "nan" in report.jobs[1].error.lower() \
            or "finite" in report.jobs[1].error.lower()
        for i in (0, 2):
            assert np.array_equal(report.results[i].q, clean.results[i].q)

    def test_quarantine_is_terminal_across_resume(self, tmp_path):
        jobs = make_jobs(2)
        chaos = EnsembleChaosPlan(seed=5, poison_job=0, poison_step=2)
        run_service(jobs, tmp_path, batch_width=2, chaos=chaos,
                    max_attempts=1)
        # Resume without chaos: the quarantined job must NOT be retried.
        _, second = run_service(jobs, tmp_path, batch_width=2)
        assert second.jobs[0].status == "quarantined"
        assert second.jobs[1].status == "done"
        assert second.executed_batches == 0

    def test_sigkilled_worker_is_transient_and_recovers(self, tmp_path):
        jobs = make_jobs(2)
        _, clean = run_service(jobs, tmp_path, name="ref.jsonl",
                               batch_width=2, supervise=True)
        chaos = EnsembleChaosPlan(seed=5, kill_step=4, kill_job=0)
        _, report = run_service(jobs, tmp_path, batch_width=2,
                                supervise=True, chaos=chaos,
                                deadline_seconds=60.0)
        assert [j.status for j in report.jobs] == ["done", "done"]
        assert [j.attempts for j in report.jobs] == [1, 1]
        for got, want in zip(report.results, clean.results):
            assert np.array_equal(got.q, want.q)

    def test_wall_deadline_quarantines_with_one_attempt(self, tmp_path):
        jobs = [EnsembleJob(bubble_case(), 10.0, "marathon")]
        _, report = run_service(jobs, tmp_path, batch_width=1,
                                supervise=True, max_attempts=1,
                                wall_limit_seconds=0.2,
                                deadline_seconds=30.0)
        assert report.jobs[0].status == "quarantined"
        assert "deadline" in report.jobs[0].error


    @staticmethod
    def failing_batches(monkeypatch, err):
        from repro.ensemble import supervisor

        def execute_batch(spec, *, on_step=None):
            raise err

        monkeypatch.setattr(supervisor, "execute_batch", execute_batch)

    @pytest.mark.parametrize("supervise", [True, False])
    def test_a_bug_in_a_batch_is_permanent_on_its_first_attempt(
            self, tmp_path, monkeypatch, supervise):
        self.failing_batches(monkeypatch, TypeError("a bug"))
        _, report = run_service(make_jobs(2), tmp_path, batch_width=2,
                                supervise=supervise, max_attempts=3)
        assert [j.status for j in report.jobs] == ["quarantined"] * 2
        assert report.executed_batches == 1
        (failed,) = [e for e in report.events
                     if e["event"] == "batch-failed"]
        assert (failed["type"], failed["class"]) == ("TypeError", "permanent")
        records = JobLedger(tmp_path / "led.jsonl").replay().records
        assert [r["error"] for r in records
                if r.get("status") == "quarantined"] == ["TypeError: a bug"] * 2

    @pytest.mark.parametrize("supervise", [True, False])
    @pytest.mark.parametrize("err", [OSError("disk"), MemoryError("heap")],
                             ids=["OSError", "MemoryError"])
    def test_os_and_memory_errors_are_transient(self, tmp_path, monkeypatch,
                                                supervise, err):
        self.failing_batches(monkeypatch, err)
        _, report = run_service(make_jobs(1), tmp_path, batch_width=1,
                                supervise=supervise, max_attempts=2)
        assert report.jobs[0].status == "quarantined"
        assert report.jobs[0].attempts == 2 and report.executed_batches == 2


class TestDegradation:
    def test_failed_fused_build_falls_back_to_unfused(self, tmp_path):
        # The checked backend cannot fuse: fusion="on" fails to build.
        jobs = make_jobs(2)
        svc, report = run_service(jobs, tmp_path, batch_width=1,
                                  fusion="on", backend="checked")
        assert [j.status for j in report.jobs] == ["done", "done"]
        degrades = [e for e in report.events
                    if e.get("event") == "degrade"
                    and e.get("what") == "fusion"]
        assert len(degrades) == 1 and degrades[0]["to"] == "off"
        # Sticky: later batches build unfused from the start.
        assert svc.engine["options"].fusion == "off"

    def test_repeated_batch_failures_shrink_width(self, tmp_path):
        jobs = [EnsembleJob(bubble_case(cx=0.3 + 0.08 * i), 10.0, f"j{i}")
                for i in range(2)]
        _, report = run_service(jobs, tmp_path, batch_width=2,
                                supervise=True, max_attempts=2,
                                wall_limit_seconds=0.2,
                                deadline_seconds=30.0,
                                degrade_after=1)
        assert report.batch_width_final == 1
        assert any(e.get("what") == "batch-width" and e.get("to") == 1
                   for e in report.events)
        assert all(j.status == "quarantined" for j in report.jobs)


# ----------------------------------------------------------------------
@pytest.mark.faults
@pytest.mark.chaos
class TestChaosEndToEnd:
    """ISSUE 9 acceptance scenario: worker SIGKILL mid-batch, one
    corrupted checkpoint, one corrupted ledger record, one poison job
    — across a service crash and resume."""

    def test_seeded_chaos_recovers_bit_identical(self, tmp_path):
        jobs = make_jobs(4)
        _, clean = run_service(jobs, tmp_path, name="ref.jsonl",
                               batch_width=2)
        chaos = EnsembleChaosPlan(seed=13, kill_step=4, kill_job=0,
                                  poison_job=3, poison_step=3)
        led = tmp_path / "chaos" / "led.jsonl"
        svc = EnsembleService(
            jobs, BCS, ledger=JobLedger(led, fail_after_appends=13),
            batch_width=2, supervise=True, max_attempts=2, chaos=chaos,
            **{k: v for k, v in FAST.items() if k != "supervise"})
        with pytest.raises(InjectedCrash):
            svc.run()

        # While the service is "dead": silently corrupt the newest
        # checkpoint of a job the ledger still considers in flight
        # (a done job's snapshot, not its checkpoints, feeds resume)
        # and one mid-file ledger record (a replayed 'running' line —
        # index 2 is never a torn tail here).
        from repro.ensemble import job_table

        table = job_table(JobLedger(led).replay().records)
        ckpt_victim = None
        for i in range(4):
            if table.get(svc.job_id(i), {}).get("status") == "done":
                continue
            try:
                ckpt_victim = corrupt_newest_checkpoint(
                    svc.checkpoint_dir, prefix=svc.job_id(i), seed=13)
                break
            except ConfigurationError:
                continue
        assert ckpt_victim is not None, \
            "chaos run left no in-flight checkpoints"
        corrupt_ledger_record(led, index=2, seed=13)

        svc2 = EnsembleService(jobs, BCS, ledger=led, batch_width=2,
                               supervise=True, max_attempts=2,
                               chaos=chaos,
                               **{k: v for k, v in FAST.items()
                                  if k != "supervise"})
        report = svc2.run()

        statuses = {j.name: j.status for j in report.jobs}
        assert statuses == {"j0": "done", "j1": "done", "j2": "done",
                            "j3": "quarantined"}
        for got, want in zip(report.results[:3], clean.results[:3]):
            assert np.array_equal(got.q, want.q), f"{want.name} diverged"
            assert got.steps == want.steps and got.time == want.time
        # Zero jobs lost, zero double-completed.
        counts = done_record_count(led)
        assert counts == {"job0000": 1, "job0001": 1, "job0002": 1}
        # The damage was actually seen and survived.
        assert report.ledger_skipped == 1
        total_skips = svc.recovery.checkpoint_skip_reasons | \
            svc2.recovery.checkpoint_skip_reasons
        assert total_skips, "corrupted checkpoint was never encountered"


# ----------------------------------------------------------------------
class TestSlotPlan:
    def test_slots_split_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {3, 5, 6, 7, 9}, raising=False)
        assert plan_slots(3) == (
            [{3, 5}, {6, 7}, {9}],
            "3 side by side × 1-2 cores: 3 batches, 5 cores")
        assert plan_slots(8)[0] == [{3}, {5}, {6}, {7}, {9}]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert plan_slots(4) == (
            [{0}, {1}], "2 side by side × 1 core: 4 batches, 2 cores")

    def test_one_batch_one_core_or_inline_is_one_unpinned_slot(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert plan_slots(1) == ([None], "1 at a time: 1 batch, 2 cores")
        assert plan_slots(0) == ([None], "1 at a time: 0 batches, 2 cores")
        assert plan_slots(4, supervise=False) == (
            [None], "1 at a time: unsupervised")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2},
                            raising=False)
        assert plan_slots(4) == ([None], "1 at a time: 4 batches, 1 core")


def spied(svc):
    """Record, for one run of ``svc``, each batch it submits (in order)
    and each outcome its positional ``supervisor.run(spec)`` returns,
    with the instant it returned."""
    seen = {"submitted": [], "outcomes": []}
    submit, run = svc.supervisor.submit, svc.supervisor.run

    def spy_submit(spec, **kwargs):
        if not any(s is spec for s in seen["submitted"]):
            seen["submitted"].append(spec)
        return submit(spec, **kwargs)

    def spy_run(spec):
        outcome = run(spec)
        seen["outcomes"].append((spec, outcome, time.monotonic()))
        return outcome

    svc.supervisor.submit, svc.supervisor.run = spy_submit, spy_run
    return seen


def mixed_jobs():
    """Three 12² jobs and two 24² ones, ragged CFL horizons; plan order
    puts a 12² batch first, longest-first the 24² one."""
    small = [EnsembleJob(bubble_case(cx=0.3 + 0.08 * i), 0.1 + 0.02 * i,
                         f"small{i}") for i in range(3)]
    big = [EnsembleJob(bubble_case(n=24, cx=0.35 + 0.1 * i), 0.15 + 0.02 * i,
                       f"big{i}") for i in range(2)]
    return small + big


@pytest.fixture(scope="class")
def side_by_side(tmp_path_factory):
    jobs = mixed_jobs()
    svc = EnsembleService(
        jobs, BCS, ledger=tmp_path_factory.mktemp("sbs") / "led.jsonl",
        batch_width=2, supervise=True, retry_base_seconds=0.0,
        checkpoint_every=2, cfl=0.5)
    seen = spied(svc)
    return jobs, svc.run(), seen


@pytest.mark.chaos
@pytest.mark.skipif(usable_cores() < 2,
                    reason="side-by-side batches need two usable cores")
class TestSideBySide:
    """Supervised batches on a host with two or more cores run side by
    side, one pinned child per slot, the longest first — and every
    durability guarantee of the one-at-a-time service still holds."""

    def test_every_job_matches_a_standalone_simulation(self, side_by_side):
        jobs, report, _ = side_by_side
        assert [j.status for j in report.jobs] == ["done"] * len(jobs)
        for job, got in zip(jobs, report.results):
            with Simulation(job.case, BCS, cfl=0.5) as sim:
                sim.run(t_end=job.t_end)
            assert got.q.tobytes() == sim.q.tobytes(), job.name
            assert (got.steps, got.time) == (sim.step_count, sim.time)

    def test_children_overlap_and_the_longest_batch_goes_first(
            self, side_by_side):
        _, report, seen = side_by_side
        assert seen["submitted"][0].names == ["big0", "big1"]
        assert report.executed_batches == len(seen["outcomes"]) == 3
        # Each child took its initial states along; the service kept none.
        assert all(s.initial_states is None for s in seen["submitted"])
        spans = [(o["telemetry"]["started"], o["telemetry"]["finished"])
                 for _, o, _ in seen["outcomes"]]
        assert any(max(a[0], b[0]) < min(a[1], b[1])
                   for i, a in enumerate(spans) for b in spans[i + 1:])
        # Each child planned its gang from its own share of the cores.
        shares, why = plan_slots(3)
        assert report.slots == why and f"batch slots: {why}" in \
            report.summary()
        for _, outcome, _ in seen["outcomes"]:
            width = int(outcome["telemetry"]["gang"].split(":")[0].split()[0])
            assert width <= max(map(len, shares))

    def test_kill_at_every_ledger_append_then_resume(self, tmp_path):
        """Three batches on two slots, the service crashed after each of
        its 7 appends in turn (children alive), then resumed."""
        jobs = make_jobs(3)
        ref = standalone(jobs)
        knobs = dict(batch_width=1, supervise=True)
        for n in range(1, 8):
            led = tmp_path / f"kill{n}" / "led.jsonl"
            dirs = dict(checkpoint_dir=led.parent / "ckpt",
                        results_dir=led.parent / "res")
            svc = EnsembleService(
                jobs, BCS, ledger=JobLedger(led, fail_after_appends=n),
                **dirs, **{**FAST, **knobs})
            with pytest.raises(InjectedCrash):
                svc.run()
            _, report = run_service(jobs, led.parent, **dirs, **knobs)
            assert [j.status for j in report.jobs] == ["done"] * 3, \
                f"crash after append {n}"
            assert_matches(report.results, ref, f"crash after append {n}: ")
            assert all(v == 1 for v in done_record_count(led).values()), \
                f"crash after append {n}: a job completed twice"

    def test_sigkilled_child_leaves_its_neighbour_intact(self, tmp_path):
        jobs = make_jobs(4)
        _, clean = run_service(jobs, tmp_path, name="ref.jsonl",
                               batch_width=2)
        chaos = EnsembleChaosPlan(seed=5, kill_step=4, kill_job=0)
        _, report = run_service(jobs, tmp_path, batch_width=2,
                                supervise=True, chaos=chaos)
        assert [j.status for j in report.jobs] == ["done"] * 4
        assert [j.attempts for j in report.jobs] == [1, 1, 0, 0]
        for got, want in zip(report.results, clean.results):
            assert np.array_equal(got.q, want.q)
        failed = [e["jobs"] for e in report.events
                  if e.get("event") == "batch-failed"]
        assert failed == [["job0000", "job0001"]]
        assert report.executed_batches == 3
        assert done_record_count(tmp_path / "led.jsonl", "running") == {
            "job0000": 2, "job0001": 2, "job0002": 1, "job0003": 1}

    def test_both_slots_failing_halve_the_width(self, tmp_path):
        jobs = [EnsembleJob(bubble_case(cx=0.3 + 0.08 * i), 10.0, f"j{i}")
                for i in range(4)]
        _, report = run_service(jobs, tmp_path, batch_width=2,
                                supervise=True, max_attempts=2,
                                wall_limit_seconds=0.2,
                                deadline_seconds=30.0, degrade_after=2)
        kinds = [e["event"] if e["event"] == "batch-failed"
                 else f"width {e['to']}" for e in report.events
                 if e["event"] in ("batch-failed", "degrade")]
        # The two width-2 batches fail side by side, and together they
        # are the two consecutive failures that halve the width.
        assert kinds[:3] == ["batch-failed", "batch-failed", "width 1"]
        assert report.batch_width_final == 1
        assert all(j.status == "quarantined" for j in report.jobs)

    def test_backoff_delays_only_the_retried_job(self, tmp_path):
        """The retried batch starts no sooner than its backoff; nothing
        else waits for it — the freed slot takes the next batch at once
        and every other child's outcome is collected as it ends."""
        jobs = make_jobs(3)
        _, clean = run_service(jobs, tmp_path, name="ref.jsonl",
                               batch_width=1)
        backoff = 0.5
        svc = EnsembleService(
            jobs, BCS, ledger=tmp_path / "led.jsonl", batch_width=1,
            chaos=EnsembleChaosPlan(seed=5, kill_step=2, kill_job=0),
            **{**FAST, "supervise": True, "retry_base_seconds": backoff})
        seen = spied(svc)
        report = svc.run()
        assert [j.status for j in report.jobs] == ["done"] * 3
        for got, want in zip(report.results, clean.results):
            assert np.array_equal(got.q, want.q)
        (killed_at,) = [t for _, o, t in seen["outcomes"] if not o["ok"]]
        started = {}
        for spec, outcome, picked_up in seen["outcomes"]:
            if outcome["ok"]:
                tel = outcome["telemetry"]
                started.setdefault(spec.names[0], []).append(tel["started"])
                assert picked_up - tel["finished"] < backoff / 2
        assert started["j2"][0] - killed_at < backoff / 2
        assert started["j0"][0] >= killed_at + backoff


# ----------------------------------------------------------------------
class TestCLI:
    def _spec(self, tmp_path):
        def case_dict(i):
            return {
                "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]],
                         "shape": [12, 12]},
                "fluids": [{"gamma": 1.4, "pi_inf": 0.0},
                           {"gamma": 1.4, "pi_inf": 0.0}],
                "patches": [
                    {"geometry": {"kind": "box", "lo": [0.0, 0.0],
                                  "hi": [1.0, 1.0]},
                     "alpha_rho": [0.5, 0.5], "velocity": [0.3, -0.1],
                     "pressure": 1.0, "alpha": [0.5]},
                    {"geometry": {"kind": "sphere",
                                  "center": [0.3 + 0.08 * i, 0.5],
                                  "radius": 0.15},
                     "alpha_rho": [1.0, 1.0], "velocity": [0.0, 0.0],
                     "pressure": 2.0, "alpha": [0.5]},
                ],
            }
        spec = {
            "batch_width": 2,
            "t_end": 3e-3,
            "jobs": [{"name": f"j{i}", "case": case_dict(i)}
                     for i in range(2)],
            "service": {"ledger": "run/led.jsonl", "max_attempts": 2,
                        "checkpoint_every": 2, "supervise": False},
        }
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(spec))
        return path

    def _run(self, spec):
        return subprocess.run(
            [sys.executable, "-m", "repro", "ensemble", str(spec),
             "--cfl", "0.4"],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent.parent,
            env={**os.environ, "PYTHONPATH": "src"})

    def test_run_and_resume(self, tmp_path):
        spec = self._spec(tmp_path)
        first = self._run(spec)
        assert first.returncode == 0, first.stderr
        assert "ensemble service: 2 jobs" in first.stdout
        assert "done=2" in first.stdout
        assert "batch slots: 1 at a time: unsupervised" in first.stdout
        assert (tmp_path / "run" / "led.jsonl").is_file()
        second = self._run(spec)
        assert second.returncode == 0, second.stderr
        assert "(resuming)" in second.stdout
        assert "0 batches executed" in second.stdout
        assert "2 results replayed" in second.stdout

    def test_service_section_paths_resolve_to_spec_dir(self, tmp_path):
        from repro.io.case_files import load_ensemble_spec

        spec = self._spec(tmp_path)
        jobs, width, options, service = load_ensemble_spec(spec)
        assert width == 2 and len(jobs) == 2
        assert service["ledger"] == tmp_path / "run" / "led.jsonl"
        assert service["supervise"] is False

    @pytest.mark.parametrize("key,bad", [
        ("supervise", "false"), ("supervise", 0), ("deadline_seconds", "60"),
        ("retry_base_seconds", -5), ("wall_limit_seconds", "x"),
        ("checkpoint_keep", 0)])
    def test_bad_service_value_is_named_not_run(self, tmp_path, key, bad):
        """A bad ``"service"`` value is refused by name at load, and the
        CLI reports it as an error: no traceback, no campaign."""
        from repro.io.case_files import load_ensemble_spec

        spec = self._spec(tmp_path)
        data = json.loads(spec.read_text())
        data["service"][key] = bad
        spec.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=f"service {key}"):
            load_ensemble_spec(spec)
        cli = self._run(spec)
        assert cli.returncode == 2, cli.stdout + cli.stderr
        assert cli.stderr.startswith(f"repro: error: service {key}")
        assert "Traceback" not in cli.stderr
        assert not (tmp_path / "run").exists()

    def test_unknown_service_key_rejected(self, tmp_path):
        from repro.io.case_files import load_ensemble_spec

        spec = self._spec(tmp_path)
        data = json.loads(spec.read_text())
        data["service"]["bogus"] = 1
        spec.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="bogus"):
            load_ensemble_spec(spec)

    @pytest.mark.parametrize("where", ["spec", "job", "case"])
    def test_unknown_top_level_key_is_named_not_run(self, tmp_path, where):
        """A misspelt section (``"servce"``) is refused at load, the spec's
        and each job's and case's keys alike; ``_comment`` is allowed."""
        spec = self._spec(tmp_path)
        data = json.loads(spec.read_text())
        data["_comment"] = data["jobs"][0]["_comment"] = "allowed"
        holder = {"spec": data, "job": data["jobs"][1],
                  "case": data["jobs"][1]["case"]}[where]
        holder["servce"] = {}
        spec.write_text(json.dumps(data))
        cli = self._run(spec)
        assert cli.returncode == 2, cli.stdout + cli.stderr
        assert "key(s) ['servce']; choose from" in cli.stderr
        assert not (tmp_path / "run").exists()



# ----------------------------------------------------------------------
class TestCampaignArtifacts:
    """The campaigns users and CI run write the checkpoints and results
    they always have: the example spec as is (a checkpoint every 10
    stacked steps), CI's chaos-leg run of it (``--checkpoint-every 5``)
    and a service section naming only a ledger (the campaign's cadence,
    every 5, into ``checkpoints`` beside the ledger).  Every job still
    matches its standalone run bit for bit."""

    SPEC = Path(__file__).resolve().parents[1] / "examples" / "cases" \
        / "ensemble_service.json"
    #: Checkpoints written, by the spec's directory names.
    WRITTEN = {
        "example": [
            "service_run/checkpoints/job0000_000000010.bin",
            "service_run/checkpoints/job0002_000000010.bin"],
        "ci-every-5": [
            "service_run/checkpoints/job0000_000000005.bin",
            "service_run/checkpoints/job0000_000000010.bin",
            "service_run/checkpoints/job0001_000000005.bin",
            "service_run/checkpoints/job0002_000000005.bin",
            "service_run/checkpoints/job0002_000000010.bin"],
    }
    WRITTEN["ledger-only"] = WRITTEN["ci-every-5"]

    @pytest.mark.parametrize("campaign", sorted(WRITTEN))
    def test_checkpoints_and_results(self, campaign, tmp_path, monkeypatch,
                                     capsys):
        from repro.__main__ import main
        from repro.io.binary import read_snapshot
        from repro.io.case_files import load_ensemble_spec
        from repro.io.checkpoint import CheckpointManager

        log = tmp_path / "written.log"
        save = CheckpointManager.save

        def recorded(self, q, *, step, time):  # forked batches too
            path = save(self, q, step=step, time=time)
            with log.open("a") as fh:
                fh.write(f"{Path(path).as_posix()}\n")
            return path

        monkeypatch.setattr(CheckpointManager, "save", recorded)
        monkeypatch.chdir(tmp_path)
        spec = json.loads(self.SPEC.read_text())
        if campaign == "ledger-only":
            spec["service"] = {"ledger": "service_run/campaign.ledger"}
        Path("spec.json").write_text(json.dumps(spec))
        flags = ["--checkpoint-every", "5"] if campaign == "ci-every-5" \
            else []
        assert main(["ensemble", "spec.json", *flags]) == 0, \
            capsys.readouterr().out
        assert sorted(log.read_text().split()) == self.WRITTEN[campaign]
        results = Path("service_run/results")
        assert sorted(p.name for p in results.iterdir()) == \
            [f"job000{i}.bin" for i in range(3)]
        jobs = load_ensemble_spec("spec.json")[0]
        for i, job in enumerate(jobs):
            header, q = read_snapshot(results / f"job000{i}.bin")
            with Simulation(job.case, BoundarySet.all_extrapolation(2),
                            threads=1) as sim:
                sim.run(t_end=job.t_end)
            assert q.tobytes() == sim.q.tobytes(), job.name
            assert (header.step, header.time) == (sim.step_count, sim.time)
