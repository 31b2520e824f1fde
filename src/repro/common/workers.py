"""The forked-worker substrate: one way to share memory, fork, wait and reap.

Gang members (:mod:`repro.acc.gang`), rank workers
(:mod:`repro.cluster.procs`) and supervised batch children
(:mod:`repro.ensemble.supervisor`) are all a :class:`Worker` — one fork
that ends in ``os._exit`` and that only its parent reaps — over
:func:`shared_array` memory, which has no name: nothing to close, unlink
or leak, and no helper process keeping track of it.  Death is noticed
both ways: the parent reads a worker's exit status or EOF on its pipe; a
worker reads EOF on a pipe it listens to, or asks
:func:`quit_if_orphaned` between steps.  Whatever is still alive when
this process exits is killed and reaped by one ``atexit`` backstop.

Every worker answers with one :class:`Reply` (:func:`send_reply`), and
one that ends without it becomes the same :class:`WorkerError`
(:func:`died`), classified once, when the record is built.
"""

from __future__ import annotations

import atexit
import math
import mmap
import os
import pickle
import signal
import sys
import time
import traceback
from functools import partial
from multiprocessing.connection import Pipe, wait
from typing import Callable, Iterable, NamedTuple

import numpy as np

from repro.common.errors import (
    DeadlineError,
    ReproError,
    WorkerDiedError,
    failure_class,
)


def _mapped_array(shape, dtype, flags: int) -> np.ndarray:
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1),
                    flags=flags)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array this process shares with every later fork of it (an
    anonymous ``MAP_SHARED`` mapping, unmapped with its last view)."""
    return _mapped_array(shape, dtype, mmap.MAP_SHARED)


def private_array(shape, dtype) -> np.ndarray:
    """A zeroed array in an anonymous private mapping of its own (unmapped
    with its last view): copy-on-write across forks like heap memory, but
    never carved from the malloc heap, so a page costs memory only once
    written — a large ``np.empty`` may instead land in a freed, still
    resident hole of the heap and keep it."""
    return _mapped_array(shape, dtype, mmap.MAP_PRIVATE)


#: This process's workers that it has not reaped yet.
_LIVE: set["Worker"] = set()
#: In a worker: the pid of the process that forked it.
_forked_by: int | None = None


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass  # detached or closed


class Worker:
    """One forked child of this process, running ``target()``.

    ``ends`` are the pipe ends this process keeps and ``child_ends`` the
    ones the child keeps; each side closes the other's.  ``pin`` binds
    the child to a core set: an int is that core of the affinity mask
    (modulo its size), a collection is those core ids.  The child exits
    0 when ``target`` returns and 1, traceback printed, when it raises.
    """

    def __init__(self, target: Callable[[], object], *, ends=(),
                 child_ends=(), pin: int | Iterable[int] | None = None,
                 ) -> None:
        global _forked_by
        self.ends = tuple(ends)
        self._code: int | None = None
        parent = os.getpid()
        _flush_std_streams()  # or the child's exit flush writes them twice
        self.pid: int | None = os.fork()
        if self.pid == 0:
            code = 1
            try:  # the at-fork hook dropped every earlier worker's ends
                _forked_by = parent
                for end in self.ends:
                    end.close()
                if pin is not None and hasattr(os, "sched_setaffinity"):
                    if isinstance(pin, int):
                        cores = sorted(os.sched_getaffinity(0))
                        pin = {cores[pin % len(cores)]}
                    os.sched_setaffinity(0, pin)
                target()
                code = 0
            except BaseException:
                # Not re-raised: every frame above this one is the
                # parent's, copied by the fork.
                traceback.print_exc()
            finally:
                _flush_std_streams()
                os._exit(code)
        for end in child_ends:
            end.close()
        _LIVE.add(self)

    def _wait(self, flags: int) -> int | None:
        if self._code is None and self.pid is not None:
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:  # reaped elsewhere
                pid, status = self.pid, 0
            if pid:
                self._code = os.waitstatus_to_exitcode(status)
        return self._code

    @property
    def exitcode(self) -> int | None:
        """Exit code, ``-signal`` if killed, None while running; never blocks."""
        return self._wait(os.WNOHANG)

    def kill(self) -> None:
        if self.pid is not None and self.exitcode is None:
            os.kill(self.pid, signal.SIGKILL)

    def reap(self) -> int | None:
        """Close our pipe ends (a child blocked writing to us fails and
        exits), wait for the child and forget it; returns its exit code."""
        for end in self.ends:
            end.close()
        code = self._wait(0)
        _LIVE.discard(self)
        return code


def stop(workers: Iterable[Worker]) -> None:
    """Kill and reap every worker not already reaped."""
    workers = list(workers)
    for worker in workers:
        worker.kill()
    for worker in workers:
        worker.reap()


def _disown_inherited() -> None:
    # Any fork of this process — a worker or not — inherits its pipe ends;
    # held open they would keep a worker from seeing EOF when this process
    # dies.  Nor are its workers the new process's children to kill or reap.
    for worker in _LIVE:
        for end in worker.ends:
            end.close()
        worker.pid = None
    _LIVE.clear()


os.register_at_fork(after_in_child=_disown_inherited)
atexit.register(stop, _LIVE)


def quit_if_orphaned() -> None:
    """In a worker: exit quietly once the process that forked it is gone
    (nobody is left to read the result)."""
    if _forked_by is not None and os.getppid() != _forked_by:
        os._exit(0)


#: How a pool member ended without a usable result when no exit code
#: says so: it was killed for sitting stuck, or for overrunning its wall
#: budget.
STALLED = "no-progress deadline"
OVERRUN = "wall-clock deadline"


class WorkerError(NamedTuple):
    """A worker's failure: its exception's type name, message and
    :func:`~repro.common.errors.failure_class`, the cell of its state
    diagnostics, and the exception itself when it crossed the pipe."""

    type: str
    message: str
    failure_class: str
    cell: tuple[int, ...] | None = None
    exc: BaseException | None = None

    @classmethod
    def of(cls, err: BaseException) -> "WorkerError":
        return cls(type(err).__name__, str(err), failure_class(err),
                   getattr(getattr(err, "diagnostics", None), "cell", None),
                   err)

    def exception(self) -> BaseException:
        """The worker's exception with this record's message, or a
        :class:`~repro.common.ReproError` naming its type."""
        if self.exc is None:
            return ReproError(f"{self.type}: {self.message}")
        if str(self.exc) != self.message:
            self.exc.args = (self.message,)
        return self.exc


class Reply(NamedTuple):
    """A worker's answer: its payload, lap deltas and error (or None)."""

    payload: object = None
    laps: dict | None = None
    error: WorkerError | None = None


def reply_of(body: Callable, *args, laps: dict | None = None) -> Reply:
    """The one wrapper: ``body(*args)``'s payload or error as a Reply."""
    try:
        return Reply(body(*args), laps)
    except Exception as err:
        return Reply(None, laps, WorkerError.of(err))


def send_reply(conn, body: Callable, *args, laps: dict | None = None) -> None:
    """Send :func:`reply_of` down ``conn`` (:class:`OSError`: the parent
    is gone); an exception that would not unpickle travels as its name,
    a payload that does not pickle as the pickling error."""
    reply = reply_of(body, *args, laps=laps)
    try:
        if reply.error is not None:
            pickle.loads(pickle.dumps(reply))
        conn.send(reply)
    except OSError:
        raise
    except Exception as err:
        error = reply.error or WorkerError.of(err)
        conn.send(Reply(None, laps, error._replace(exc=None)))


def receive(conn, timeout: float) -> Reply | None:
    """The Reply on ``conn``, None after ``timeout`` s, EOFError if gone."""
    return conn.recv() if conn.poll(timeout) else None


def unwrap(reply: Reply):
    """The reply's payload; raises its error."""
    if reply.error is not None:
        raise reply.error.exception()
    return reply.payload


def died(who: str, how: int | str) -> WorkerError:
    """``who`` ended without a reply: ``how`` is its exit code (-signal
    if killed) or a text starting with STALLED or OVERRUN."""
    if isinstance(how, str):
        return WorkerError.of(DeadlineError(f"{who} died ({how})"))
    end = f"exit code {how}" if how >= 0 else "signal " + next(
        (s.name for s in signal.Signals if s == -how), str(-how))
    return WorkerError.of(WorkerDiedError(f"{who} died ({end})"))


class _Member:
    """A pool worker and what the wait loop knows of it: the reply it
    sent, the heartbeat it last saw, and when it counts as stuck."""

    def __init__(self, worker: Worker, beat, grace: float,
                 wall_deadline: float | None) -> None:
        self.worker, self.beat, self.grace = worker, beat, grace
        self.wall_deadline = wall_deadline
        self.last_beat = np.array(beat, copy=True)
        self.deadline = time.monotonic() + grace
        self.sent, self.result = False, None

    def end(self, now: float) -> int | str | None:
        """None while it runs, else its exit code, STALLED or OVERRUN."""
        # Exit status first, pipe second: whatever a worker seen to have
        # exited sent is in the pipe by now.
        code, conn = self.worker.exitcode, self.worker.ends[0]
        progress = False
        if conn.poll(0):
            try:
                result = conn.recv()
                if not self.sent:
                    self.sent, self.result = True, result
                progress = True
            except EOFError:
                # It let go of the pipe, which a worker does only by
                # exiting, so this wait is short.  (EOF leads the exit
                # status by 1-3 ms: polling would spin.)
                code = self.worker.reap()
        if code is not None:
            return code
        if not np.array_equal(self.beat, self.last_beat):
            np.copyto(self.last_beat, self.beat)
            progress = True
        if progress:
            self.deadline = now + self.grace
        elif now > self.deadline:
            return STALLED
        if self.wall_deadline is not None and now > self.wall_deadline:
            return OVERRUN
        return None


class Pool:
    """Workers that each send one reply down a pipe, drained while they
    run and handed back one by one as they end, in whatever order they
    end (:meth:`next_done`, this module's one wait loop).

    Replies are drained *while* waiting: a reply can outgrow the OS pipe
    buffer, in which case the worker blocks in ``send`` and only exits
    once the parent has received — recv-after-join would deadlock.

    A member's no-progress deadline (``grace`` seconds) is re-armed on
    any progress it shows — an advance of its ``beat`` array, its reply
    arriving — so it bounds how long the member may sit *stuck*, never
    the wall time of a legitimately long run.  ``wall_deadline`` (a
    ``time.monotonic()`` instant) optionally bounds its total time
    regardless of progress.
    """

    def __init__(self) -> None:
        self._members: dict[object, _Member] = {}

    def __len__(self) -> int:
        return len(self._members)

    def fork(self, key, target, *, beat, grace: float,
             wall_deadline: float | None = None, pin=None) -> None:
        """Fork member ``key``, which sends :func:`send_reply`
        ``target()`` (``pin``: see :class:`Worker`)."""
        reader, writer = Pipe(duplex=False)
        worker = Worker(partial(send_reply, writer, target), ends=(reader,),
                        child_ends=(writer,), pin=pin)
        self._members[key] = _Member(worker, beat, grace, wall_deadline)

    def next_done(self, timeout: float | None = None):
        """Wait until a member ends → ``(key, reply, failure)``.

        ``failure`` is None for a clean exit after a reply, else the exit
        code (``-signal`` if killed; 0 for a clean exit that sent
        nothing), STALLED or OVERRUN.  The member is killed if still
        alive and reaped before this returns.  Returns None when the pool
        is empty or ``timeout`` seconds passed first.
        """
        until = None if timeout is None else time.monotonic() + timeout
        while self._members:
            wait([m.worker.ends[0] for m in self._members.values()],
                 timeout=0.02)
            now = time.monotonic()
            for key, member in list(self._members.items()):
                end = member.end(now)
                if end is None:
                    continue
                del self._members[key]
                stop([member.worker])
                return key, member.result, (
                    None if end == 0 and member.sent else end)
            if until is not None and now > until:
                return None
        return None

    def close(self) -> None:
        """Kill and reap every member still running."""
        members, self._members = self._members, {}
        stop(m.worker for m in members.values())


def drain_and_join(
    targets, beat, grace: float, *, wall_deadline: float | None = None,
    name: str = "worker",
) -> tuple[list[Reply] | None, WorkerError | None]:
    """Fork a :class:`Pool` member per ``target()`` and wait for them
    all, all or nothing.

    Every member watches the whole ``beat`` array, so any worker's
    heartbeat re-arms every worker's no-progress deadline.  All replies
    (errors included) return ``(replies, None)`` in worker order, the
    first death ``(None, died(f"{name} {index}", ...))``.  However the
    wait ends, no worker outlives it: survivors are killed and all are
    reaped.
    """
    pool = Pool()
    try:
        for index, target in enumerate(targets):
            pool.fork(index, target, beat=beat, grace=grace,
                      wall_deadline=wall_deadline)
        replies: dict[int, Reply] = {}
        while len(pool):
            index, reply, failure = pool.next_done()
            if failure is not None:
                return None, died(f"{name} {index}", failure)
            replies[index] = reply
        return [replies[r] for r in sorted(replies)], None
    finally:
        pool.close()
