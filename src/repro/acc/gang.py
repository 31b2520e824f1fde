"""Real gang parallelism: slab tiles on forked workers over a shared workspace.

The rest of :mod:`repro.acc` *models* what ``parallel loop gang vector
collapse(n)`` would cost on a simulated device; this module *executes*
one on the host.  It extends the paper's §III.C gang/vector → hardware
mapping one row down to a multicore Python host:

===============  =========================  ==============================
OpenACC axis     GPU realisation (paper)    host realisation (here)
===============  =========================  ==============================
``gang``         thread block               contiguous tile share on a
                                            forked worker over the shared
                                            workspace
``vector``       SIMT lane                  NumPy SIMD inside the tile
``seq``          serial per thread          serial per tile
===============  =========================  ==============================

A :class:`GangExecutor` of width ``n`` is the calling process plus
``n - 1`` :class:`~repro.common.workers.Worker` forks made at the first
launch, each holding the body and all it closes over copy-on-write.  A
launch is one fixed-size pipe message (an integer argument); every
member runs ``body(arg, rank)`` — the body cuts its own contiguous share
of the tile spans with :func:`gang_share` — and workers reply with their
result, their stopwatch laps and any exception.  (Not threads: handing
the interpreter lock over costs more than a tile's ~16 µs ufunc pass;
EXPERIMENTS.md "Real gangs".)

Determinism contract
--------------------
A body may *read* anywhere in the shared buffers but must *write* only
the slab rows of its own tiles.  Under that contract a launch is bitwise
identical to running every tile serially in span order, because the
elementwise NumPy kernels produce each output element from the same
inputs with the same operation order regardless of the slab extent, and
:meth:`GangExecutor.launch` returns only after every member has replied
(the one barrier between two direction sweeps).
"""

from __future__ import annotations

import os
import struct
from contextlib import AbstractContextManager
from functools import partial
from multiprocessing.connection import Pipe
from typing import Callable

from repro.common import ConfigurationError, ReproError
from repro.common.workers import Worker

_ARG = struct.Struct("<q")
_EXIT = -1  # launch arguments are non-negative


def tile_spans(extent: int, tiles: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` spans covering ``range(extent)``.

    The first ``extent % tiles`` spans are one element longer, so uneven
    extents (interior not divisible by the tile count) stay balanced to
    within one row.  ``tiles`` is clamped to ``extent``; an empty extent
    yields no spans.
    """
    if extent < 0:
        raise ConfigurationError(f"extent must be non-negative, got {extent}")
    if tiles < 1:
        raise ConfigurationError(f"tile count must be >= 1, got {tiles}")
    if extent == 0:
        return []
    tiles = min(tiles, extent)
    base, extra = divmod(extent, tiles)
    spans: list[tuple[int, int]] = []
    lo = 0
    for i in range(tiles):
        hi = lo + base + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def gang_share(spans: list, rank: int, width: int) -> list:
    """Member ``rank``'s contiguous run of ``spans`` in a gang of ``width``.

    Shares are balanced to within one tile and in rank order, so rank
    order is span order; members beyond the tile count get none.
    """
    shares = tile_spans(len(spans), width)
    if rank >= len(shares):
        return []
    lo, hi = shares[rank]
    return spans[lo:hi]


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, not the host's)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def plan_gang_width(threads: int | None, *, tiles: int, ranks: int = 1,
                    backend=None) -> tuple[int, str]:
    """The one resolver of the ``threads`` knob → ``(width, why)``.

    An explicit value wins (clamped to 1 where the backend manages its
    own parallelism; refused beside ``ranks > 1``).  ``None`` is
    *planned*: ``min(usable cores, tiles)`` where ``tiles`` is the widest
    direction sweep's tile count, and 1 whenever ranks already occupy
    the cores, the backend cannot gang, or there is one tile to run.
    """
    gangs = backend is None or backend.supports_threads
    if threads is not None:
        if (not isinstance(threads, int) or isinstance(threads, bool)
                or threads < 1):
            raise ConfigurationError(
                f"threads must be a positive integer, got {threads!r}")
        if ranks > 1 and threads > 1:
            raise ConfigurationError(
                "ranks > 1 is incompatible with threads > 1 "
                "(pick one parallel backend)")
        if threads > 1 and not gangs:
            return 1, f"1: {backend.name} backend"
        return threads, f"{threads}: explicit"
    if ranks > 1:
        return 1, "1: ranks > 1"
    if not gangs:
        return 1, f"1: {backend.name} backend"
    if tiles < 2:
        return 1, "1: one tile"
    cores = usable_cores()
    width = min(cores, tiles)
    return width, f"{width} of {cores} cores, {tiles} tiles"


class GangExecutor(AbstractContextManager):
    """Forked gang running one registered body over a shared workspace.

    Parameters
    ----------
    threads:
        Gang width.  ``threads=1`` is the serial contract: every launch
        runs inline, nothing is ever forked.
    body:
        ``body(arg, rank) -> result``; what it reads and writes across
        members must live in shared memory (see
        :class:`~repro.solver.workspace.SolverWorkspace`).
    stopwatch:
        Optional :class:`~repro.common.timing.Stopwatch` the body times
        into; workers' lap deltas come back in every reply and are
        merged into it (kernel busy time summed over members).
    timeout:
        Seconds a worker may take to reply before the gang is declared
        hung (a dead worker is noticed at once, by EOF).

    Workers are forked lazily at the first launch, exit on
    :meth:`close` or when the command pipe reaches EOF (the parent
    died), and are reaped by :meth:`close`.
    """

    def __init__(self, threads: int, body: Callable[[int, int], object], *,
                 stopwatch=None, timeout: float = 30.0) -> None:
        self.threads, _ = plan_gang_width(threads, tiles=0)  # validates
        self.timeout = timeout
        self._body, self._stopwatch = body, stopwatch
        #: Forked members; ``ends`` = (command writer, reply reader).
        self._workers: list[Worker] = []
        self.launches = 0

    # ------------------------------------------------------------------
    def launch(self, arg: int) -> list:
        """Run ``body(arg, rank)`` on every member; results in rank order.

        Rank 0 is the caller.  If any member raises, all members are
        still waited on — shared buffers are never abandoned mid-write —
        and the first error in rank (= span) order is re-raised.  A
        worker that died or hung raises :class:`ReproError` naming the
        gang and the launch, and the gang is torn down.
        """
        if self.threads == 1:
            return [self._body(arg, 0)]
        if not self._workers or self._workers[0].pid is None:
            self._fork()  # none yet, or they are the forking process's
        self.launches += 1
        outcomes: list[tuple] = []
        rank = 1
        try:
            for worker in self._workers:
                worker.ends[0].send_bytes(_ARG.pack(arg))
            try:
                outcomes.append((self._body(arg, 0), None))
            except Exception as err:
                outcomes.append((None, err))
            for rank, worker in enumerate(self._workers, 1):
                reply = worker.ends[1]
                if not reply.poll(self.timeout):
                    raise TimeoutError(f"no reply in {self.timeout:g} s")
                result, err, laps = reply.recv()
                outcomes.append((result, err))
                for name, seconds in laps.items():
                    self._stopwatch.add(name, seconds)
        except BaseException as err:
            # A reply may be missing or half-read: the pipes are out of
            # step and a worker may still be writing.  Stop them all.
            self.close(kill=True)
            if not isinstance(err, (EOFError, OSError)):
                raise
            raise ReproError(
                f"gang of {self.threads} (pid {os.getpid()}), launch "
                f"{self.launches} (arg {arg}): worker {rank} died or hung "
                f"({type(err).__name__}: {err})") from err
        for _result, err in outcomes:
            if err is not None:
                raise err
        return [result for result, _err in outcomes]

    # ------------------------------------------------------------------
    def _fork(self) -> None:
        self._workers = []
        for rank in range(1, self.threads):
            command_r, command_w = Pipe(duplex=False)
            reply_r, reply_w = Pipe(duplex=False)
            # One core per member: a pipe wake-up otherwise queues the
            # worker behind the busy parent, and a short launch is over
            # before the balancer moves it (EXPERIMENTS.md "Real gangs").
            self._workers.append(Worker(
                partial(self._serve, rank, command_r, reply_w),
                ends=(command_w, reply_r), child_ends=(command_r, reply_w),
                pin=rank))

    def _serve(self, rank: int, command, reply) -> None:
        """A worker's life: one body call per command until exit or EOF."""
        laps = self._stopwatch.laps if self._stopwatch is not None else {}
        while True:
            try:
                (arg,) = _ARG.unpack(command.recv_bytes())
            except (EOFError, OSError):
                return
            if arg == _EXIT:
                return
            laps.clear()
            try:
                out = (self._body(arg, rank), None)
            except Exception as err:
                out = (None, err)
            try:
                reply.send((*out, dict(laps)))
            except OSError:
                return  # the parent is gone
            except Exception:  # the error does not pickle
                reply.send((None, ReproError(
                    f"{type(out[1]).__name__}: {out[1]}"), dict(laps)))

    def close(self, *, kill: bool = False) -> None:
        """Stop and reap the workers (forked again lazily if reused)."""
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                if kill:
                    worker.kill()
                else:
                    worker.ends[0].send_bytes(_ARG.pack(_EXIT))
            except OSError:
                pass  # already gone
        for worker in workers:
            worker.reap()

    def __del__(self) -> None:
        if getattr(self, "_workers", None):
            self.close()

    def __exit__(self, *exc) -> None:
        self.close()
