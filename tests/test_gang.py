"""The forked gang beyond bit-identity: width planning, lifecycle, faults.

``tests/test_threading.py`` and the hash suite in ``tests/test_tiles.py``
hold the gang to the serial bits.  Here: the one width resolver
(:func:`repro.acc.gang.plan_gang_width`), worker and parent death
(nothing hangs, nothing is left behind), telemetry coming back from the
workers, and the drivers' recovery paths — rollback-retry, checkpoint
restart, ensemble retirement — with a live gang.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.acc.gang import GangExecutor, plan_gang_width
from repro.backend import get_backend
from repro.bc import BoundarySet
from repro.common import ConfigurationError, ReproError
from repro.ensemble import EnsembleSimulation
from repro.eos import Mixture, StiffenedGas
from repro.faults import CellFaultPlan
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RetryPolicy, Simulation, box, sphere
from repro.solver.options import SolverOptions
from tests.conftest import live_children

MIX = Mixture((StiffenedGas(1.4, 0.0, "air"), StiffenedGas(4.4, 6000.0, "water")))
ROOT = os.path.join(os.path.dirname(__file__), "..")


def bubble_case(shape=(26, 22), pressure=2.0):
    case = Case(StructuredGrid.uniform(((0.0, 1.0),) * 2, shape), MIX)
    case.add(Patch(box([0, 0], [1, 1]), (0.5, 0.5), (0.3, -0.1), 1.0, (0.5,)))
    case.add(Patch(sphere([0.4, 0.4], 0.25), (1.0, 1.0), (0.0, 0.0), pressure,
                   (0.5,)))
    return case


def bubble_sim(threads, shape=(26, 22), **kwargs):
    """A small case on pinned tiles, so a gang has tiles to share."""
    kwargs.setdefault("tuning", {"tiles": 4, "threads": threads})
    return Simulation(bubble_case(shape), BoundarySet.all_periodic(2),
                      cfl=0.4, **kwargs)


def gone_within(pids, seconds=1.0):
    """Whether every pid has exited (zombies reaped or not) in time."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    if fh.read().rsplit(")", 1)[1].split()[0] != "Z":
                        alive.append(pid)
            except OSError:
                pass
        if not alive:
            return True
        time.sleep(0.01)
    return False


# ----------------------------------------------------------------------
class TestPlannedWidth:
    @pytest.mark.parametrize("threads,cores,tiles,ranks,backend,want", [
        (None, 2, 10, 1, "numpy", (2, "2 of 2 cores, 10 tiles")),
        (None, 8, 3, 1, "numpy", (3, "3 of 8 cores, 3 tiles")),
        (None, 1, 10, 1, "numpy", (1, "1 of 1 cores, 10 tiles")),
        (None, 8, 1, 1, "numpy", (1, "1: one tile")),
        (None, 8, 0, 1, "numpy", (1, "1: one tile")),
        (None, 8, 10, 2, "numpy", (1, "1: ranks > 1")),
        (None, 8, 10, 1, "checked", (8, "8 of 8 cores, 10 tiles")),
        (4, 8, 10, 1, "checked", (4, "4: explicit")),
        (3, 2, 1, 1, "numpy", (3, "3: explicit")),
        (1, 8, 10, 1, "numpy", (1, "1: explicit")),
        (1, 8, 10, 4, "numpy", (1, "1: explicit")),
    ])
    def test_width_table(self, monkeypatch, threads, cores, tiles, ranks,
                         backend, want):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        # Every registered backend gangs: the plan never consults it.
        get_backend(backend)
        assert plan_gang_width(threads, tiles=tiles, ranks=ranks) == want

    @pytest.mark.parametrize("bad", [0, -2, 2.5, False, "2"])
    def test_bad_values_and_ranks_conflict(self, bad):
        with pytest.raises(ConfigurationError):
            plan_gang_width(bad, tiles=4)
        # One refusal, in one place: the options' row, not the planner.
        assert plan_gang_width(2, tiles=4, ranks=2) == (2, "2: explicit")
        with pytest.raises(ConfigurationError, match="threads > 1"):
            SolverOptions(ranks=2, threads=2).require_compatible()

    def test_default_sim_plans_from_cores_and_tiles(self, monkeypatch):
        case, bcs = bubble_case((96, 96)), BoundarySet.all_periodic(2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with Simulation(case, bcs) as wide:
            # The tile count does not follow the width: two tiles, gang 2.
            assert wide.rhs.tile_plan()["gang"] == "2 of 3 cores, 2 tiles"
            assert (wide.threads, wide.gang_why) == (2, "2 of 3 cores, 2 tiles")
            wide.step()
            assert len(wide.rhs.executor._workers) == 1
        # One usable core: no gang, no fork, no shared mapping.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = Simulation(case, bcs)
        assert alone.rhs.executor is None and alone.threads == 1
        assert alone.gang_why == "1 of 1 cores, 2 tiles"
        alone.step()
        assert alone.q.tobytes() == wide.q.tobytes()
        # Small grids stay on the zero-overhead serial path anywhere.
        small = Simulation(bubble_case((24, 20)), bcs)
        assert small.rhs.executor is None and small.gang_why == "1: one tile"

    def test_ranks_plan_one_per_rank_and_refuse_explicit_gangs(self):
        case, bcs = bubble_case((96, 96)), BoundarySet.all_periodic(2)
        sim = Simulation(case, bcs, ranks=2)
        assert (sim.threads, sim.gang_why) == (1, "1: ranks > 1")
        assert sim.rhs.executor is None
        assert Simulation(case, bcs, ranks=2, threads=1).threads == 1
        with pytest.raises(ConfigurationError, match="ranks > 1"):
            Simulation(case, bcs, ranks=2, threads=2)


# ----------------------------------------------------------------------
class TestLifecycle:
    def test_fork_is_lazy_close_reaps_and_a_later_step_forks_again(self):
        sim = bubble_sim(3)
        gang = sim.rhs.executor
        assert gang.threads == 3 and gang._workers == []
        assert live_children(os.getpid()) == {}
        sim.step()
        pids = [worker.pid for worker in gang._workers]
        assert sorted(live_children(os.getpid())) == sorted(pids)
        assert len(pids) == 2
        sim.close()
        sim.close()  # idempotent
        assert live_children(os.getpid()) == {} and gang._workers == []
        sim.step()
        assert len(gang._workers) == 2
        with sim:
            pass
        assert live_children(os.getpid()) == {}

    def test_dropped_gang_reaps_its_workers(self):
        sim = bubble_sim(2)
        sim.step()
        assert len(live_children(os.getpid())) == 1
        del sim
        assert live_children(os.getpid()) == {}

    def test_worker_killed_raises_naming_the_launch(self):
        sim = bubble_sim(2)
        sim.step()
        gang = sim.rhs.executor
        worker, = gang._workers
        os.kill(worker.pid, signal.SIGKILL)
        began = time.monotonic()
        with pytest.raises(ReproError, match=r"gang of 2 \(pid \d+\), "
                                             r"launch \d+ \(arg 0\): worker 1"):
            sim.step()
        assert time.monotonic() - began < gang.timeout
        # Torn down, not left half-alive; the next step starts afresh.
        assert gang._workers == [] and live_children(os.getpid()) == {}
        sim.step()
        sim.close()

    def test_hung_worker_times_out(self):
        def body(arg, rank):
            if rank:
                time.sleep(60)

        gang = GangExecutor(2, body, timeout=0.2)
        with pytest.raises(ReproError, match="no reply in 0.2 s"):
            gang.launch(5)
        assert live_children(os.getpid()) == {}

    def test_parent_killed_leaves_no_orphans(self, tmp_path):
        """A parent that never closes and dies by SIGKILL: the workers
        see EOF on their command pipes and exit — even while a later
        fork of the parent, which inherited every descriptor, lives on."""
        script = textwrap.dedent("""
            import multiprocessing, os, signal, time
            from tests.test_gang import bubble_sim
            sim = bubble_sim(3)
            sim.step()
            sleeper = multiprocessing.get_context("fork").Process(
                target=time.sleep, args=(30,))
            sleeper.start()
            print(sleeper.pid, *(worker.pid for worker in
                                 sim.rhs.executor._workers), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src")]))
        # Files, not pipes: the sleeper would hold a pipe open.
        with open(tmp_path / "out", "w") as out, \
                open(tmp_path / "err", "w") as err:
            code = subprocess.run([sys.executable, "-c", script], env=env,
                                  stdout=out, stderr=err,
                                  timeout=120).returncode
        assert code == -signal.SIGKILL, (tmp_path / "err").read_text()
        sleeper, *workers = map(int, (tmp_path / "out").read_text().split())
        try:
            assert len(workers) == 2
            assert gone_within(workers, 1.0)
            assert not gone_within([sleeper], 0.05)
        finally:
            os.kill(sleeper, signal.SIGKILL)

    @pytest.mark.parametrize("script,count", [
        ("""
            sim = Simulation(bubble_case(16), BCS, fixed_dt=1e-6, ranks=2)
            sim.run(n_steps=10**9)
         """, 2),
        ("""
            import sys
            from repro.ensemble import EnsembleJob, EnsembleService
            EnsembleService([EnsembleJob(bubble_case(16), 1e3, "endless")], BCS,
                            ledger=sys.argv[1] + "/led.jsonl", fixed_dt=1e-6,
                            checkpoint_every=0, supervise=True).run()
         """, 1),
    ], ids=["rank workers", "batch child"])
    def test_parent_killed_stops_rank_workers_and_batch_children(
            self, script, count, tmp_path):
        """Nobody is left to read the result: a rank worker or a batch
        child whose parent dies stops at its next step instead of
        marching to its horizon."""
        prelude = textwrap.dedent("""
            from repro.bc import BoundarySet
            from repro.solver import Simulation
            from tests.test_service import bubble_case
            BCS = BoundarySet.all_periodic(2)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src")]))
        with open(tmp_path / "err", "w") as err:
            parent = subprocess.Popen(
                [sys.executable, "-c", prelude + textwrap.dedent(script),
                 str(tmp_path)], env=env, stdout=err, stderr=err)
        try:
            deadline = time.monotonic() + 60.0
            while len(workers := live_children(parent.pid)) < count:
                assert parent.poll() is None, (tmp_path / "err").read_text()
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.3)  # let them march
            assert sorted(live_children(parent.pid)) == sorted(workers)
        finally:
            parent.kill()
            parent.wait()
        try:
            assert gone_within(workers, 2.0)
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


# ----------------------------------------------------------------------
class TestDriversWithALiveGang:
    def test_guarded_step_rolls_back_and_retries_identically(self):
        def run(threads):
            with bubble_sim(threads, retry=RetryPolicy(),
                            fault_injector=CellFaultPlan(step=2, seed=13)
                            ) as sim:
                sim.run(n_steps=4)
                return (sim.q.tobytes(), sim.time, sim.recovery.as_dict(),
                        sim.rhs.limited_faces,
                        sim.rhs.sweep_counters.as_dict())

        serial, gang = run(1), run(3)
        assert serial[2]["rollbacks"] == 1 and serial[2]["retries"] == 1
        for a, b in zip(serial, gang):
            if isinstance(a, dict):
                a, b = ({k: v for k, v in d.items() if "seconds" not in k}
                        for d in (a, b))
            assert a == b

    def test_checkpoint_restart_continues_bitwise(self, tmp_path):
        ref = bubble_sim(1)
        ref.run(n_steps=6)
        with bubble_sim(2) as sim:
            sim.run(n_steps=3)
            sim.save_checkpoint(tmp_path / "three.bin")
            workers = list(sim.rhs.executor._workers)
            sim.run(n_steps=2)
            # Restart in place: the live gang carries on.
            sim.load_checkpoint(tmp_path / "three.bin")
            sim.run(n_steps=3)
            assert sim.rhs.executor._workers == workers
            assert sim.q.tobytes() == ref.q.tobytes()
        with bubble_sim(3) as fresh:
            fresh.load_checkpoint(tmp_path / "three.bin")
            fresh.run(n_steps=3)
            assert fresh.q.tobytes() == ref.q.tobytes()
            assert fresh.time == ref.time

    def test_ensemble_retirement_retargets_the_gang(self):
        cases = [bubble_case((20, 18), pressure=1.5 + 0.25 * i)
                 for i in range(4)]
        bcs = BoundarySet.all_periodic(2)
        t_ends = [0.02, 0.05, 0.03, 0.05]

        def run(threads):
            with EnsembleSimulation(
                    cases, bcs, cfl=0.4,
                    tuning={"tiles": 4, "threads": threads}) as ens:
                results = ens.run(t_end=t_ends)
                assert ens.retire_events >= 3
                return ([(r.q.tobytes(), r.time, r.steps) for r in results],
                        ens.rhs.limited_faces,
                        ens.rhs.sweep_counters.as_dict())

        assert run(1) == run(3)
        # Every retirement closed the gang of the RHS it replaced.
        assert live_children(os.getpid()) == {}

    def test_out_and_prim_outside_the_workspace(self):
        # Workers see only the shared buffers: a caller's own ``out`` /
        # ``prim`` arrays are copied through them.
        from repro.state.conversions import cons_to_prim

        serial, gang = bubble_sim(1), bubble_sim(2)
        q = serial.q
        prim = cons_to_prim(serial.layout, MIX, q)
        out = np.full_like(q, np.nan)
        with gang:
            got = gang.rhs(q, out=out, prim=prim)
            assert got is out
            assert out.tobytes() == serial.rhs(q).tobytes()
            fresh = gang.rhs(q)
            assert not np.shares_memory(fresh, gang.rhs.workspace.dqdt)
            assert fresh.tobytes() == out.tobytes()
