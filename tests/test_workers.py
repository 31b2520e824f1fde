"""The forked-worker substrate on its own (``repro.common.workers``).

What gang members, rank workers and supervised batch children all rely
on: memory a fork shares, results drained while joining, each way a
worker can fail reported as ``(index, code)``, and never a child left.
"""

import os
import signal
import time
from functools import partial
from multiprocessing.connection import Pipe

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import workers
from repro.common.workers import (
    Worker,
    drain_and_join,
    shared_array,
    stop,
)
from repro.ensemble import BatchSpec, BatchSupervisor
from repro.solver import Simulation
from tests.conftest import live_children
from tests.test_service import bubble_case


def join(*targets, grace=10.0, beat=None, **kwargs):
    beat = shared_array((len(targets),), np.int64) if beat is None else beat
    return drain_and_join(targets, beat, grace, **kwargs)


def send(payload, conn):
    conn.send(payload)


def exit_with(code, conn):
    os._exit(code)


def sleep_then_send(seconds, conn):
    time.sleep(seconds)
    conn.send({"slept": seconds})


class TestDrainAndJoin:
    def test_results_come_back_in_worker_order(self):
        results, failed = join(*(partial(sleep_then_send, s)
                                 for s in (0.05, 0.0, 0.02)))
        assert failed is None
        assert [r["slept"] for r in results] == [0.05, 0.0, 0.02]
        assert live_children(os.getpid()) == {}

    def test_result_larger_than_the_pipe_buffer_drains_while_joining(self):
        # The worker blocks in send until the parent receives: a join
        # that waited for the exit first would never see it.
        big = {"blob": bytes(4 << 20)}
        results, failed = join(partial(send, big), grace=5.0)
        assert failed is None and results == [big]

    @pytest.mark.parametrize("victim,want", [
        (partial(exit_with, 3), (1, 3)),
        (partial(exit_with, 0), (1, 0)),  # clean exit, no result: unusable
        (lambda conn: os.kill(os.getpid(), signal.SIGKILL),
         (1, -signal.SIGKILL)),
        (lambda conn: 1 / 0, (1, 1)),  # traceback printed, exit 1
    ])
    def test_each_death_is_reported_and_the_survivor_reaped(
            self, victim, want, capfd):
        began = time.monotonic()
        assert join(partial(sleep_then_send, 30.0), victim) == (None, want)
        assert time.monotonic() - began < 5.0
        assert live_children(os.getpid()) == {}
        assert ("ZeroDivisionError" in capfd.readouterr().err) == (want == (1, 1))

    def test_no_progress_and_wall_deadlines(self):
        assert join(partial(sleep_then_send, 30.0),
                    grace=0.1) == (None, (-1, -1))
        assert live_children(os.getpid()) == {}

        def beating(beat, conn):
            for _ in range(60):
                beat[0] += 1
                time.sleep(0.01)
            conn.send({"beats": int(beat[0])})

        # Heartbeats re-arm the no-progress deadline ...
        beat = shared_array((1,), np.int64)
        results, failed = join(partial(beating, beat), grace=0.2, beat=beat)
        assert failed is None and results == [{"beats": 60}]
        # ... and do nothing for the wall deadline.
        beat = shared_array((1,), np.int64)
        assert join(partial(beating, beat), grace=0.2, beat=beat,
                    wall_deadline=time.monotonic() + 0.15) == (None, (-1, -2))
        assert live_children(os.getpid()) == {}


def spawn(body, *args):
    """A worker running ``body(*args, conn)`` with a pipe to report down."""
    reader, writer = Pipe(duplex=False)
    return Worker(partial(body, *args, writer), ends=(reader,),
                  child_ends=(writer,))


class TestWorker:
    def test_shared_array_is_zeroed_and_shared_with_a_fork(self):
        field = shared_array((3, 4), np.float64)
        assert field.shape == (3, 4) and not field.any()
        private = np.zeros(4)

        def body(conn):
            field[1] = 7.0
            private[:] = 7.0

        assert spawn(body).reap() == 0
        assert field[1].tolist() == [7.0] * 4 and not field[[0, 2]].any()
        assert not private.any()
        assert shared_array((0, 5), np.int64).shape == (0, 5)

    def test_an_inherited_pipe_end_is_closed_in_a_later_fork(self):
        # The first worker lives until its command pipe reaches EOF.  The
        # second, forked while the parent held the writing end, must not
        # keep it open.
        command_r, command_w = Pipe(duplex=False)

        def until_eof(conn):
            try:
                command_r.recv_bytes()
            except EOFError:
                pass

        listener = Worker(partial(until_eof, None), ends=(command_w,),
                          child_ends=(command_r,))
        bystander = spawn(sleep_then_send, 30.0)
        try:
            command_w.close()
            deadline = time.monotonic() + 2.0
            while listener.exitcode is None and time.monotonic() < deadline:
                time.sleep(0.005)
            assert listener.exitcode == 0
            assert bystander.exitcode is None
        finally:
            stop([listener, bystander])
        assert live_children(os.getpid()) == {}

    def test_kill_and_reap_are_idempotent(self):
        worker = spawn(sleep_then_send, 30.0)
        assert list(live_children(os.getpid())) == [worker.pid]
        assert worker.exitcode is None
        stop([worker])
        stop([worker])
        assert worker.exitcode == -signal.SIGKILL
        assert live_children(os.getpid()) == {}


class TestNoWayOutOfAWaitLeavesAChild:
    """An exception or Ctrl-C escaping the parent's wait — here raised
    mid-run, from where it sleeps between heartbeat checks — still kills
    and reaps the rank workers and the batch child."""

    @pytest.fixture
    def interrupted(self, monkeypatch):
        real, calls = workers.wait, []

        def wait(pipes, timeout):
            calls.append(pipes)
            if len(calls) == 10:  # ~0.2 s in: the workers are marching
                assert len(live_children(os.getpid())) == len(pipes)
                raise KeyboardInterrupt
            return real(pipes, timeout)

        monkeypatch.setattr(workers, "wait", wait)

    def test_rank_workers(self, interrupted):
        sim = Simulation(bubble_case(16), BoundarySet.all_periodic(2),
                         fixed_dt=1e-6, ranks=2)
        with pytest.raises(KeyboardInterrupt):
            sim.run(n_steps=10**9)
        assert live_children(os.getpid()) == {}

    def test_batch_child(self, interrupted):
        spec = BatchSpec(cases=[bubble_case(16)], t_ends=[1e3],
                         names=["endless"], bcs=BoundarySet.all_periodic(2),
                         engine={"fixed_dt": 1e-6})
        with pytest.raises(KeyboardInterrupt):
            BatchSupervisor().run(spec)
        assert live_children(os.getpid()) == {}
