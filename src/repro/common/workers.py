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
"""

from __future__ import annotations

import atexit
import math
import mmap
import os
import signal
import sys
import time
import traceback
from functools import partial
from multiprocessing.connection import Pipe, wait
from typing import Callable, Iterable

import numpy as np


def shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array this process shares with every later fork of it (an
    anonymous ``MAP_SHARED`` mapping, unmapped with its last view)."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


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
    the child to that core of the affinity mask (modulo its size).  The
    child exits 0 when ``target`` returns and 1, traceback printed, when
    it raises.
    """

    def __init__(self, target: Callable[[], object], *, ends=(),
                 child_ends=(), pin: int | None = None) -> None:
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
                    cores = sorted(os.sched_getaffinity(0))
                    os.sched_setaffinity(0, {cores[pin % len(cores)]})
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


def drain_and_join(
    targets, beat, grace: float, *, wall_deadline: float | None = None,
) -> tuple[list[dict] | None, tuple[int, int] | None]:
    """Fork a worker per ``target(conn)`` and wait for them all, receiving
    the one result each sends down ``conn`` as it arrives.

    Results are drained *while* joining: a result can outgrow the OS pipe
    buffer, in which case the worker blocks in ``send`` and only exits
    once the parent has received — recv-after-join would deadlock.

    The no-progress deadline (``grace`` seconds) is re-armed on any
    observed progress — an advance of the shared ``beat`` array, a
    result arriving, a worker exiting — so it bounds how long the
    workers may sit *stuck*, never the wall time of a legitimately long
    run.  ``wall_deadline`` (a ``time.monotonic()`` instant) optionally
    bounds the total wait regardless of progress.  The first failure —
    nonzero exit, clean exit without a result, no-progress expiry
    ``(-1, -1)``, or wall expiry ``(-1, -2)`` — returns ``(None, (index,
    exitcode))``; a clean join returns ``(results, None)`` with results
    in worker order.  Whichever way the wait ends, an exception
    included, no worker outlives it: survivors are killed (they would
    otherwise spin until their own wait deadlines) and all are reaped.
    """
    workers: list[Worker] = []
    try:
        for target in targets:
            reader, writer = Pipe(duplex=False)
            workers.append(Worker(partial(target, writer), ends=(reader,),
                                  child_ends=(writer,)))
        last_beat = np.array(beat, copy=True)
        deadline = time.monotonic() + grace
        pending = dict(enumerate(workers))
        results: dict[int, dict] = {}
        failed = None
        while pending and failed is None:
            progress = False
            wait([w.ends[0] for w in pending.values()], timeout=0.02)
            for r, worker in list(pending.items()):
                # Exit status first, pipe second: whatever a worker seen
                # to have exited sent is in the pipe by now.
                code, conn = worker.exitcode, worker.ends[0]
                if conn.poll(0):
                    try:
                        results.setdefault(r, conn.recv())
                        progress = True
                    except EOFError:
                        # It let go of the pipe, which a worker does only
                        # by exiting, so this wait is short.  (EOF leads
                        # the exit status by 1-3 ms: polling would spin.)
                        code = worker.reap()
                if code is None:
                    continue
                del pending[r]
                progress = True
                if code != 0:
                    failed = (r, code)
                elif r not in results:
                    # Exited cleanly without reporting — unusable run.
                    failed = (r, 0)
            if not np.array_equal(beat, last_beat):
                np.copyto(last_beat, beat)
                progress = True
            if progress:
                deadline = time.monotonic() + grace
            elif time.monotonic() > deadline:
                failed = (-1, -1)
            if failed is None and wall_deadline is not None \
                    and time.monotonic() > wall_deadline:
                failed = (-1, -2)
        if failed is None:
            return [results[r] for r in sorted(results)], None
        return None, failed
    finally:
        stop(workers)
