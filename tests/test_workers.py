"""The forked-worker substrate on its own (``repro.common.workers``).

What gang members, rank workers and supervised batch children all rely
on: memory a fork shares, one reply per worker drained while joining,
each way a worker can die reported by its index and how it ended, one
failure classification, and never a child left.
"""

import os
import pickle
import signal
import time
from functools import partial
from multiprocessing.connection import Pipe

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import (
    CheckpointError,
    ClusterError,
    ConfigurationError,
    DeadlineError,
    InjectedCrash,
    NumericsError,
    ReproError,
    ShapeError,
    WorkerDiedError,
    failure_class,
    workers,
)
from repro.common.workers import (
    Worker,
    WorkerError,
    drain_and_join,
    reply_of,
    send_reply,
    shared_array,
    stop,
    unwrap,
)
from repro.ensemble import BatchSpec, BatchSupervisor
from repro.solver import Simulation, SimulationDivergedError
from repro.solver.resilience import StateDiagnostics
from tests.conftest import live_children
from tests.test_service import bubble_case
from tests.test_timestepping import callers_of


def join(*targets, grace=10.0, beat=None, **kwargs):
    beat = shared_array((len(targets),), np.int64) if beat is None else beat
    return drain_and_join(targets, beat, grace, **kwargs)


def give(payload):
    return payload


def exit_with(code):
    os._exit(code)


def sleep_then_return(seconds):
    time.sleep(seconds)
    return {"slept": seconds}


class TestDrainAndJoin:
    def test_results_come_back_in_worker_order(self):
        replies, death = join(*(partial(sleep_then_return, s)
                                for s in (0.05, 0.0, 0.02)))
        assert death is None
        assert [unwrap(r)["slept"] for r in replies] == [0.05, 0.0, 0.02]
        assert live_children(os.getpid()) == {}

    def test_result_larger_than_the_pipe_buffer_drains_while_joining(self):
        # The worker blocks in send until the parent receives: a join
        # that waited for the exit first would never see it.
        big = {"blob": bytes(4 << 20)}
        replies, death = join(partial(give, big), grace=5.0)
        assert death is None and [unwrap(r) for r in replies] == [big]

    @pytest.mark.parametrize("victim,want", [
        (partial(exit_with, 3), ("exit code", 3)),
        (partial(exit_with, 0), ("exit code", 0)),  # no reply: unusable
        (lambda: os.kill(os.getpid(), signal.SIGKILL), ("signal", "SIGKILL")),
        (lambda: os.kill(os.getpid(), signal.SIGTERM), ("signal", "SIGTERM")),
    ])
    def test_each_death_is_reported_and_the_survivor_reaped(
            self, victim, want):
        began = time.monotonic()
        replies, death = join(partial(sleep_then_return, 30.0), victim)
        assert replies is None
        assert death.message == "worker 1 died ({} {})".format(*want)
        assert (death.type, death.failure_class) == ("WorkerDiedError",
                                                     "transient")
        assert time.monotonic() - began < 5.0
        assert live_children(os.getpid()) == {}

    def test_no_progress_and_wall_deadlines(self):
        replies, death = join(partial(sleep_then_return, 30.0), grace=0.1)
        assert replies is None
        assert death.message == "worker 0 died (no-progress deadline)"
        assert (death.type, death.failure_class) == ("DeadlineError",
                                                     "transient")
        assert live_children(os.getpid()) == {}

        def beating(beat):
            for _ in range(60):
                beat[0] += 1
                time.sleep(0.01)
            return {"beats": int(beat[0])}

        # Heartbeats re-arm the no-progress deadline ...
        beat = shared_array((1,), np.int64)
        replies, death = join(partial(beating, beat), grace=0.2, beat=beat)
        assert death is None and unwrap(replies[0]) == {"beats": 60}
        # ... and do nothing for the wall deadline.
        beat = shared_array((1,), np.int64)
        _, death = join(partial(beating, beat), grace=0.2, beat=beat,
                        wall_deadline=time.monotonic() + 0.15)
        assert death.message == "worker 0 died (wall-clock deadline)"
        assert live_children(os.getpid()) == {}

    def test_a_worker_that_stops_beating_is_named_by_its_index(self):
        beat = shared_array((2,), np.int64)

        def beat_then_stall():
            for _ in range(5):
                beat[1] += 1
                time.sleep(0.05)
            time.sleep(30.0)

        began = time.monotonic()
        _, death = join(partial(give, 0), beat_then_stall, grace=0.2,
                        beat=beat, name="rank")
        assert death.message == "rank 1 died (no-progress deadline)"
        assert 0.25 < time.monotonic() - began < 5.0  # it beat for a while
        assert live_children(os.getpid()) == {}

    def test_a_raised_exception_is_a_reply_not_a_death(self, capfd):
        replies, death = join(partial(sleep_then_return, 0.1), lambda: 1 / 0)
        assert death is None
        assert replies[0].error is None
        error = replies[1].error
        assert (error.type, error.failure_class) == ("ZeroDivisionError",
                                                     "permanent")
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            unwrap(replies[1])
        assert "Traceback" not in capfd.readouterr().err
        assert live_children(os.getpid()) == {}


class _Local(Exception):
    """Pickles by reference to a name its module does not have."""


class TestReply:
    """One reply, one wrapper, one classification."""

    @pytest.mark.parametrize("err,cls", [
        (WorkerDiedError("x"), "transient"), (DeadlineError("x"), "transient"),
        (ClusterError("x"), "transient"), (OSError("x"), "transient"),
        (MemoryError("x"), "transient"), (InjectedCrash("x"), "transient"),
        (ReproError("x"), "transient"), (CheckpointError("x"), "transient"),
        (ConfigurationError("x"), "permanent"), (ShapeError("x"), "permanent"),
        (NumericsError("x"), "permanent"), (TypeError("x"), "permanent"),
        (RuntimeError("x"), "permanent"), (KeyError("x"), "permanent"),
    ])
    def test_failure_classes(self, err, cls):
        assert failure_class(err) == cls
        assert WorkerError.of(err).failure_class == cls

    def test_the_wrapper_catches_and_records(self):
        assert reply_of(give, 5) == (5, None, None)
        diag = StateDiagnostics("non-finite", "alpha_rho[0]", (13, 8), 1)
        err = SimulationDivergedError(step=2, time=0.1, dts=(1e-3,),
                                      schemes=("weno5",), diagnostics=diag,
                                      limited_faces=0)

        def diverge():
            raise err

        error = reply_of(diverge).error
        assert error == ("SimulationDivergedError", str(err), "permanent",
                         (13, 8), err)
        with pytest.raises(SimulationDivergedError) as raised:
            unwrap(reply_of(diverge))
        assert raised.value is err

    def test_a_diverged_error_crosses_the_pipe_whole(self):
        diag = StateDiagnostics("non-finite", "alpha_rho[0]", (13, 8), 1)
        err = SimulationDivergedError(step=2, time=0.1, dts=(1e-3, 5e-4),
                                      schemes=("weno5", "weno5"),
                                      diagnostics=diag, limited_faces=3)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SimulationDivergedError
        assert str(back) == str(err) and back.diagnostics == diag
        assert (back.step, back.dts, back.limited_faces) == (2, (1e-3, 5e-4),
                                                             3)

    def _sent(self, body):
        reader, writer = Pipe(duplex=False)
        send_reply(writer, body)
        return reader.recv()

    def test_an_exception_that_does_not_pickle_is_named(self):
        def raise_local():
            raise type("Local", (_Local,), {})("no way back")

        error = self._sent(raise_local).error
        assert error.exc is None and error.failure_class == "permanent"
        with pytest.raises(ReproError, match="Local: no way back"):
            unwrap(self._sent(raise_local))

    def test_a_payload_that_does_not_pickle_is_an_error(self):
        error = self._sent(lambda: (lambda: None)).error
        assert error.exc is None and error.failure_class == "permanent"
        assert "pickle" in error.message.lower()


class TestOneReply:
    """Regrowth guard: a worker answers through ``repro.common.workers``
    only.  A second module calling ``send``/``recv`` on a pipe is a reply
    protocol of its own growing back (the gang's launch channel uses
    ``send_bytes``/``recv_bytes``)."""

    @pytest.mark.parametrize("name", ["send", "recv"])
    def test_called_from_the_workers_module_only(self, name):
        assert callers_of(name) <= {"repro/common/workers.py"}


def spawn(body, *args):
    """A worker running ``body(*args)``."""
    return Worker(partial(body, *args))


class TestWorker:
    def test_shared_array_is_zeroed_and_shared_with_a_fork(self):
        field = shared_array((3, 4), np.float64)
        assert field.shape == (3, 4) and not field.any()
        private = np.zeros(4)

        def body():
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

        def until_eof():
            try:
                command_r.recv_bytes()
            except EOFError:
                pass

        listener = Worker(until_eof, ends=(command_w,),
                          child_ends=(command_r,))
        bystander = spawn(time.sleep, 30.0)
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
        worker = spawn(time.sleep, 30.0)
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
