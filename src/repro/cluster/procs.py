"""Real multi-process distributed runs with shared-memory halo exchange.

This is the executable counterpart of the analytic cluster models: one
forked :class:`~repro.common.workers.Worker` per rank of the 3D block
decomposition, each running the march loop (:class:`repro.solver.march.
March`) on the serial :class:`~repro.solver.rhs.RHS` over its own block
grid with its transport as the other ghost source — the loop and the
RHS every driver runs, with the CFL rate and the state check reduced
across ranks — with halo buffers packed zero-copy into
one anonymous shared mapping (:func:`~repro.common.workers.
shared_array` — no ``/dev/shm`` name, nothing to unlink) and exchanged
through a lightweight mailbox protocol (the single-node stand-in for
``MPI_Sendrecv``).  :class:`SharedMemoryTransport` is the one halo
transport: its per-rank :class:`~repro.profiling.counters.HaloCounters`
are what the decomposition's ``total_messages()`` and
``total_halo_bytes()`` reconcile against, one full exchange per RHS
evaluation.  Ranks need not be processes to use it: one arena and one
transport per rank in a single process form an in-process team, one
thread per rank (a rank's RHS posts, then waits on its neighbours').

Mailbox protocol
----------------
Every neighboured ``(rank, axis, side)`` gets a boundary-strip-shaped
mailbox in the arena plus two int64 sequence words:

* the **producer** (the strip's owner) waits until ``ack >= s - 1``
  (the consumer finished with the previous exchange), writes the strip
  directly into the shared mapping, then publishes ``post = s``;
* the **consumer** (the neighbour) waits until ``post >= s``, its
  sweep's tiles copy their rows of the strip into their ghost layers,
  then it publishes ``ack = s``.

Posts of exchange ``s`` wait only on fills of ``s - 1`` and fills of
``s`` wait only on posts of ``s``, so the dependency graph is acyclic —
no deadlock for any decomposition, periodic or not.  Waits spin with a
deadline and are tallied in :class:`~repro.profiling.counters.
HaloCounters` (``waits``/``wait_ns`` — time a rank spent waiting on a
peer; on one host that is load imbalance, not wire latency).  All strips
are posted before the first sweep, so nothing but the dt reduction is
overlapped with compute (stage one's first sweep).

Plain stores give no cross-process ordering on weakly-ordered CPUs
(aarch64), so every sequence word is *published* inside a per-mailbox
``multiprocessing.Lock`` critical section and every successful wait is
followed by an acquire/release round-trip of the same lock before the
payload is touched.  The waiter's acquire synchronises with the
publisher's release (the sequence word was stored while the lock was
held), so payload stores made before the publish happen-before payload
loads made after the fence — a seqlock with the fences made explicit.
The spin itself stays lock-free; the lock round-trip costs one
semaphore pair per exchange, not per spin.

The per-step dt reduction reuses the same idea with one slot, one
write-sequence word, one read-sequence word, and one lock per rank;
every rank computes ``max`` over the slots in the same order, so all
ranks adopt a bitwise-identical dt (max is exact in floating point).

Liveness is monitored through a per-rank heartbeat word bumped on
every completed step and transport operation: the progress signal of
the parent's :func:`~repro.common.workers.drain_and_join`, which also
kills and reaps the ranks on every way out of its wait.  A rank whose
parent died stops at its next step or halo wait, and one waiting on a
rank that raised (its heartbeat word set to -1) stops at once.

Fault tolerance
---------------
The ranks checkpoint as every driver does, one :class:`~repro.io.
checkpoint.CheckpointManager` set per step: each rank writes its block
(``rank0000_*.bin`` …, file-per-process — the strategy MFC switched to
at scale) and, after one reduction, rank 0 the manifest.  When a rank
dies the parent terminates the survivors, restores this run's newest
valid set (its run id is picked once per :meth:`ProcessCluster.run`)
as :meth:`~repro.solver.simulation.Simulation.restore_latest` does, and
respawns the cluster from it.  Restarted runs are bit-identical to
failure-free ones (every step is deterministic).  A rank death with
checkpointing disabled raises :class:`~repro.common.ClusterError`;
:class:`RankFault` injects a deterministic rank death.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from repro.backend import precision_dtype, to_host_array
from repro.bc.boundary import BoundarySet
from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.halo import (
    boundary_strip,
    validate_block_extents,
    validate_periodicity,
)
from repro.common import DTYPE, CheckpointError, ClusterError, ConfigurationError
from repro.common.workers import (
    Reply,
    WorkerError,
    drain_and_join,
    quit_if_orphaned,
    shared_array,
)
from repro.eos.mixture import Mixture
from repro.grid.cartesian import StructuredGrid
from repro.io.checkpoint import CheckpointManager
from repro.profiling.counters import HaloCounters, SweepCounters
from repro.solver.march import March
from repro.solver.options import KnobAccess, SolverOptions, fold
from repro.solver.resilience import RecoveryCounters
from repro.solver.rhs import RHS, RHSConfig
from repro.state.layout import StateLayout
from repro.weno import halo_width

#: Exit code a worker uses to simulate a hardware fault.
_FAULT_EXIT = 3

#: In a rank's error when its cause is another rank's.
_PEER = "a peer rank"


@dataclass(frozen=True)
class RankFault:
    """Deterministic injected rank death: ``rank`` exits (as a crashed
    process would — no cleanup, no final checkpoint) right after
    completing step ``step`` (counted on the run's absolute step clock,
    i.e. including any ``base_step``).  Fires on the first attempt
    only, so the restarted run can finish."""

    rank: int
    step: int


class ShmArena:
    """One anonymous shared mapping holding every cross-process array.

    Layout (all 8-byte aligned, zero-initialised):

    * per-rank state blocks ``(nvars, *local_cells)`` of the state
      ``dtype`` — the authoritative ``q`` each worker marches (the parent
      scatters the initial condition in and gathers the result out);
    * per-``(rank, axis, side)`` halo mailboxes (boundary-strip shaped,
      ``dtype``) with their ``post``/``ack`` sequence words;
    * the dt-reduction triple: ``slots`` float64 and
      ``wrote``/``read`` sequence words, one each per rank (the CFL
      rate and the state-check flag are scalars);
    * a per-rank ``beat`` heartbeat word (bumped by workers on every
      step and transport operation; the parent's liveness monitor).

    The arena also owns the protocol's synchronisation locks
    (:attr:`locks`): one per halo mailbox and one per rank for the dt
    reduction, inherited by the workers through fork.  Publishing a
    sequence word inside its lock and fencing through the same lock
    after a wait gives the payload hand-off a happens-before edge on
    weakly-ordered CPUs (see the module docstring).
    """

    def __init__(self, decomp: BlockDecomposition, nvars: int, ng: int,
                 dtype=DTYPE):
        self.decomp = decomp
        self.nvars = nvars
        self.ng = ng
        self.dtype = dtype
        self._slots: dict[object, tuple[int, tuple[int, ...], np.dtype]] = {}
        offset = 0

        def add(key, shape, dtype):
            nonlocal offset
            arr_bytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            self._slots[key] = (offset, tuple(shape), np.dtype(dtype))
            offset += arr_bytes

        ctx = multiprocessing.get_context("fork")
        #: Mailbox lock per ``(rank, axis, side)`` plus a reduction lock
        #: per ``("red", rank)`` — the protocol's explicit fences.
        self.locks: dict[tuple, object] = {}
        for r in range(decomp.nranks):
            add(("block", r), (nvars, *decomp.local_cells(r)), dtype)
        for r in range(decomp.nranks):
            local = decomp.local_cells(r)
            for axis in range(decomp.ndim):
                for side in (-1, 1):
                    if decomp.neighbor(r, axis, side) is None:
                        continue
                    shape = [nvars, *local]
                    shape[axis + 1] = ng
                    add(("box", r, axis, side), shape, dtype)
                    add(("post", r, axis, side), (1,), np.int64)
                    add(("ack", r, axis, side), (1,), np.int64)
                    self.locks[(r, axis, side)] = ctx.Lock()
        add("slots", (decomp.nranks,), DTYPE)
        add("wrote", (decomp.nranks,), np.int64)
        add("read", (decomp.nranks,), np.int64)
        add("beat", (decomp.nranks,), np.int64)
        for r in range(decomp.nranks):
            self.locks[("red", r)] = ctx.Lock()

        self._bytes = shared_array((offset,), np.uint8)

    def view(self, key) -> np.ndarray:
        offset, shape, dtype = self._slots[key]
        return np.ndarray(shape, dtype=dtype, buffer=self._bytes,
                          offset=offset)

    def block(self, rank: int) -> np.ndarray:
        return self.view(("block", rank))

    def scatter(self, q: np.ndarray) -> None:
        """Copy a global ``(nvars, *cells)`` field into the rank blocks."""
        for r in range(self.decomp.nranks):
            self.block(r)[...] = q[(slice(None), *self.decomp.local_slices(r))]

    def gather(self) -> np.ndarray:
        """The global field reassembled from the rank blocks (a copy)."""
        q = np.empty((self.nvars, *self.decomp.global_cells),
                     dtype=self.dtype)
        for r in range(self.decomp.nranks):
            q[(slice(None), *self.decomp.local_slices(r))] = self.block(r)
        return q


class SharedMemoryTransport:
    """One rank's halo endpoint over the arena (see module docstring).

    A rank's :class:`~repro.solver.rhs.RHS` ``transport`` and its D2H/H2D
    seam: :meth:`post` packs the host view of boundary strips straight
    into the shared mailboxes, :meth:`fill` lends the neighbours' host
    strips to the sweep's tiles, which copy them into their ghost layers.
    """

    def __init__(self, arena: ShmArena, rank: int, *,
                 timeout: float = 30.0) -> None:
        self.arena = arena
        self.decomp = arena.decomp
        self.rank = rank
        self.ng = arena.ng
        self.timeout = timeout
        self.counters = HaloCounters()
        # Exchange sequence numbers, tracked independently by producer
        # and consumer — both sides perform exactly one exchange per
        # RHS evaluation, so the counts agree by construction.
        self._posted: dict[tuple[int, int], int] = {}
        self._filled: dict[tuple[int, int], int] = {}
        self._reduced = 0
        self._slots = arena.view("slots")
        self._wrote = arena.view("wrote")
        self._read = arena.view("read")
        self._beat = arena.view("beat")
        self._locks = arena.locks
        # Views are materialised once; post/fill then touch only numpy
        # arrays already mapped over the shared arena.
        self._view: dict[tuple, np.ndarray] = {}
        for r in range(self.decomp.nranks):
            for axis in range(self.decomp.ndim):
                for side in (-1, 1):
                    if self.decomp.neighbor(r, axis, side) is None:
                        continue
                    for kind in ("box", "post", "ack"):
                        key = (kind, r, axis, side)
                        self._view[key] = arena.view(key)

    # ------------------------------------------------------------------
    def beat(self) -> None:
        """Bump this rank's heartbeat (the parent's liveness signal)."""
        self._beat[self.rank] += 1

    def _acquire(self, lock, what: str):
        if not lock.acquire(timeout=self.timeout):
            raise ClusterError(
                f"rank {self.rank}: timed out after {self.timeout}s "
                f"acquiring the lock for {what} — a peer rank likely died "
                f"holding it")
        return lock

    def _fence(self, lock, what: str) -> None:
        """Acquire/release ``lock`` once: pairs with the publisher's
        release so payload stores made before the publish are visible
        to payload loads made after this call (weak-memory fence)."""
        self._acquire(lock, what).release()

    def _publish(self, lock, seq: np.ndarray, index: int, value: int,
                 what: str) -> None:
        """Store ``seq[index] = value`` inside the lock (release-publish)."""
        self._acquire(lock, what)
        try:
            seq[index] = value
        finally:
            lock.release()

    def _wait(self, seq: np.ndarray, value: int, what: str, lock) -> None:
        """Spin until ``seq[0] >= value`` (with deadline), then fence
        through ``lock`` before the caller touches the payload."""
        if seq[0] < value:
            t0 = time.perf_counter_ns()
            deadline = t0 + int(self.timeout * 1e9)
            self.counters.waits += 1
            spins = 0
            while seq[0] < value:
                spins += 1
                # Yield aggressively once it is clearly not a micro-wait
                # so oversubscribed single-core hosts make progress.
                time.sleep(0 if spins < 200 else 5e-5)
                quit_if_orphaned()  # the peer may have left for that reason
                if seq[0] < value and self._beat.min() < 0:
                    raise ClusterError(f"{_PEER} stopped while this rank "
                                       f"waited for {what}")
                if time.perf_counter_ns() > deadline:
                    raise ClusterError(
                        f"rank {self.rank}: timed out after {self.timeout}s "
                        f"waiting for {what} (seq {seq[0]} < {value}) — "
                        f"{_PEER} likely died")
            self.counters.wait_ns += time.perf_counter_ns() - t0
        self._fence(lock, what)

    # ------------------------------------------------------------------
    def post(self, rank: int, axis: int, field: np.ndarray) -> None:
        """Pack ``rank``'s boundary strips along ``axis`` into shared
        mailboxes (zero-copy: the strided copy's destination *is* the
        shared arena)."""
        ng = self.ng
        seq = self._posted.get((rank, axis), 0) + 1
        for side in (-1, 1):
            if self.decomp.neighbor(rank, axis, side) is None:
                continue
            lock = self._locks[(rank, axis, side)]
            self._wait(self._view[("ack", rank, axis, side)], seq - 1,
                       f"ack of exchange {seq - 1} on axis {axis}", lock)
            box = self._view[("box", rank, axis, side)]
            box[...] = to_host_array(boundary_strip(field, axis, ng, side))
            self._publish(lock, self._view[("post", rank, axis, side)], 0,
                          seq, f"post {seq} on axis {axis}")
            self.counters.posts += 1
        self._posted[(rank, axis)] = seq
        self.beat()

    @contextmanager
    def fill(self, rank: int, axis: int, ng: int | None = None):
        """Deliver the neighbours' strips along ``axis`` into ``rank``'s
        ghost layers, tile by tile.

        Waits for the neighbours' posts and yields ``(lo, hi)``: the
        ``ng`` rows next to the block (default all) of the strip each
        neighbour posted for that side (a view of its shared mailbox),
        or None on a global-edge side.  The caller's tiles copy their
        rows of them into their ghost layers; leaving the context
        acknowledges the strips, which frees the neighbours to post the
        next exchange.
        """
        seq = self._filled.get((rank, axis), 0) + 1
        # The mailbox each side's neighbour posted for this side.
        peers = {side: (nb, axis, -side) for side in (-1, 1)
                 if (nb := self.decomp.neighbor(rank, axis, side)) is not None}
        for key in peers.values():
            self._wait(self._view[("post", *key)], seq,
                       f"post {seq} from rank {key[0]} on axis {axis}",
                       self._locks[key])
            self.counters.messages += 1
            self.counters.bytes_exchanged += self._view[("box", *key)].nbytes
        yield tuple(boundary_strip(self._view[("box", *peers[side])], axis,
                                   ng or self.ng, -side)
                    if side in peers else None for side in (-1, 1))
        for key in peers.values():
            self._publish(self._locks[key], self._view[("ack", *key)], 0, seq,
                          f"ack {seq} to rank {key[0]} on axis {axis}")
        self._filled[(rank, axis)] = seq
        self.beat()

    # ------------------------------------------------------------------
    def reduce_max_begin(self, value) -> None:
        """Post this rank's contribution to the next max-reduction.

        The nonblocking half of :meth:`reduce_max` (``MPI_Iallreduce``'s
        start): waits until every rank consumed the *previous* round,
        publishes ``value`` in this rank's slot, and returns — the
        caller overlaps independent compute (the first RK stage's RHS,
        which does not depend on dt) before collecting the result with
        :meth:`reduce_max_finish`.
        """
        s = self._reduced + 1
        for r in range(self.decomp.nranks):
            self._wait(self._read[r:r + 1], s - 1,
                       f"rank {r} to consume reduction {s - 1}",
                       self._locks[("red", r)])
        self._slots[self.rank] = value
        self._publish(self._locks[("red", self.rank)], self._wrote,
                      self.rank, s, f"reduction value {s}")
        self.beat()

    def reduce_max_finish(self, *, overlapped: bool = False) -> float:
        """Complete the reduction started by :meth:`reduce_max_begin`.

        Waits for every rank's slot of this round, takes the max in
        rank order — bitwise identical on every rank, and bitwise equal
        to the serial whole-domain max (floating max is exact under any
        grouping; a NaN anywhere is NaN everywhere) — then releases the
        slots for the next round.  ``overlapped=True`` tallies the
        reduction as hidden behind compute
        (:attr:`HaloCounters.reductions_overlapped`).
        """
        s = self._reduced + 1
        n = self.decomp.nranks
        for r in range(n):
            self._wait(self._wrote[r:r + 1], s,
                       f"rank {r}'s reduction value {s}",
                       self._locks[("red", r)])
        value = self._slots[0]
        for r in range(1, n):
            value = np.maximum(value, self._slots[r])
        self._publish(self._locks[("red", self.rank)], self._read,
                      self.rank, s, f"reduction consume {s}")
        self._reduced = s
        self.counters.reductions += 1
        if overlapped:
            self.counters.reductions_overlapped += 1
        self.beat()
        return float(value)

    def reduce_max(self, value: float) -> float:
        """Blocking cluster-wide max: begin + finish back to back."""
        self.reduce_max_begin(value)
        return self.reduce_max_finish()


@dataclass(frozen=True)
class ClusterResult:
    """What one multi-process run produced.  ``time``/``step_count``
    (and the history/checkpoint records behind them) are absolute —
    they include the ``base_time``/``base_step`` the run was seeded
    with."""

    q: np.ndarray
    time: float
    step_count: int
    halo: HaloCounters
    sweep: SweepCounters
    #: Per-step ``(step, time, dt, wall_seconds)`` tuples from rank 0.
    history: tuple[tuple[int, float, float, float], ...]
    limited_faces: int
    #: Per rank ``(wait_ns, faces_evaluated, faces)``: the merged
    #: ``halo``/``sweep`` split, which shows a rank idling on its peers.
    ranks: tuple[tuple[int, int, int], ...]
    #: The ranks' merged tallies (ladder counts once) and the restarts.
    recovery: RecoveryCounters
    #: The rank grid marched (and the candidates it was chosen from).
    decomp: BlockDecomposition


class _RankMarch(March):
    """One rank: one slot of the march loop on the serial RHS over its
    block grid, the transport its other ghost source, marched on the
    RHS's workspace from its arena block, with the CFL rate reduced
    across ranks.  The cadence and retry checks are collective (a max of
    the failure flag): every rank stops, or takes the same rung, at the
    step any block fails, so no peer waits out ``cluster_timeout`` on a
    halo post.  A cell fault injector strikes its block's cells, and
    the check names global cells.  It checkpoints its block of the
    ranks' set."""

    def __init__(self, arena: ShmArena, rank: int, grid: StructuredGrid,
                 layout: StateLayout, mixture: Mixture, bcs: BoundarySet,
                 config: RHSConfig, options: SolverOptions, march: dict):
        decomp = arena.decomp
        self.transport = transport = SharedMemoryTransport(
            arena, rank, timeout=options.cluster_timeout)
        self.grid = decomp.block_grid(grid, rank)
        self.rhs = RHS(layout, mixture, self.grid, bcs, config, options,
                       transport=transport)
        self.options, self.layout, self.mixture = (self.rhs.options, layout,
                                                   mixture)
        self.bcs, self.config, self.stopwatch = bcs, config, None
        self.widths = self.grid.width_fields()
        self.q = self.backend.from_host(arena.block(rank))
        # The injector draws from the global shape, at this block's origin.
        self.origin = tuple(s.start for s in decomp.local_slices(rank))
        injector = march.get("injector")
        block = ((layout.nvars, *decomp.global_cells), self.origin)

        def reduce(rate):
            # Post the local wave rate now and collect the global max
            # once stage one's RHS — which does not depend on dt — is
            # done, so the other ranks' contributions arrive while this
            # rank computes; the max is bitwise the blocking one.
            transport.reduce_max_begin(rate)
            return partial(transport.reduce_max_finish, overlapped=True)

        self.checkpoint_set = dict(
            run_id=march.get("run_id"), block=rank,
            blocks=[(f"rank{r:04d}", [s.start for s in decomp.local_slices(r)])
                    for r in range(decomp.nranks)],
            barrier=partial(transport.reduce_max, 0.0))
        super().__init__(times=[march["base_time"]], steps=[march["base_step"]],
                         step_count=march["base_step"],
                         prefixes=["ckpt"], reduce=reduce,
                         fault_plans=injector and {0: SimpleNamespace(
                             apply=partial(injector.apply, block=block))})

    def _unphysical(self, q, ws):
        # The one state check, collective: the cadence's and the ladder's.
        found = [(slot, replace(diag, cell=tuple(
            c + o for c, o in zip(diag.cell, self.origin))))
            for slot, diag in super()._unphysical(q, ws)]
        if self.transport.reduce_max(float(bool(found))) and not found:
            found = [(0, f"{_PEER}'s block is unphysical")]
        yield from found


def _worker(arena: ShmArena, rank: int, grid: StructuredGrid,
            layout: StateLayout, mixture: Mixture, bcs: BoundarySet,
            config: RHSConfig, options: SolverOptions, march: dict,
            attempt: int) -> dict:
    """One rank's process body (fork-inherited arguments, no pickling).

    ``march`` carries what one attempt of :meth:`ProcessCluster.run`
    adds to the options: ``fault injector t_end stop_step run_id
    base_time base_step``.  The rank marches on the driver's absolute
    clock, so its checkpoints and history carry a serial run's steps.
    """
    m = _RankMarch(arena, rank, grid, layout, mixture, bcs, config, options,
                   march)
    fault = march["fault"]

    def after_step(m, rec) -> None:
        m.transport.beat()
        quit_if_orphaned()
        if (fault is not None and attempt == 0
                and rank == fault.rank and m.step_count == fault.step):
            # Die as a crashed process would: no cleanup, no final
            # checkpoint, peers left mid-protocol.
            os._exit(_FAULT_EXIT)

    try:
        if march["stop_step"] is not None:
            m.run(n_steps=march["stop_step"] - m.step_count,
                  callback=after_step)
        else:
            m.run(t_end=march["t_end"], callback=after_step)
    except BaseException:
        arena.view("beat")[rank] = -1  # a peer waiting on it stops now
        raise
    arena.block(rank)[...] = to_host_array(m.q)
    return {
        "time": float(m.times[0]),
        "step_count": m.step_count,
        "halo": m.transport.counters.as_dict(),
        "sweep": m.rhs.sweep_counters.as_dict(),
        "limited_faces": m.rhs.limited_faces,
        "recovery": m.recovery.as_dict(),
        "history": ([(r.step, r.time, r.dt, r.wall_seconds)
                     for r in m.history] if rank == 0 else []),
    }


def _rank_failure(replies: list[Reply]) -> WorkerError | None:
    """The first failing rank's error whose cause is its own, naming
    every failing rank."""
    failed = [(r, reply.error) for r, reply in enumerate(replies)
              if reply.error is not None]
    if not failed:
        return None
    own = [e for _, e in failed if _PEER not in e.message] or [failed[0][1]]
    return own[0]._replace(message="; ".join(
        f"rank {r}: {e.message}" for r, e in failed))


class ProcessCluster(KnobAccess):
    """Multi-process executor for the 3D block decomposition.

    Runs ``decomp.nranks`` forked workers over a
    shared-memory arena and marches them bulk-synchronously via the
    mailbox protocol.  Results are bit-identical to the single-block
    :class:`~repro.solver.simulation.Simulation` — including across an
    injected rank failure recovered by a restart from the run's newest
    valid checkpoint set.

    ``options`` and/or loose keyword knobs say how to march (DESIGN.md
    "Options: one table"; ``ranks`` is the decomposition's).  The halo
    waits spin for ``cluster_timeout`` seconds and the parent's join
    uses ``cluster_timeout + 60`` as its *no-progress* deadline (a
    hang's bound, not a legitimate run's).  ``fault`` is an injected
    :class:`RankFault`, ``fault_injector`` a cell fault plan (as
    :class:`~repro.solver.simulation.Simulation`'s; each rank strikes
    the cells of its block, see :class:`~repro.faults.CellFaultPlan`).
    """

    def __init__(self, grid: StructuredGrid, layout: StateLayout,
                 mixture: Mixture, bcs: BoundarySet,
                 decomp: BlockDecomposition, config: RHSConfig,
                 options: SolverOptions | None = None, *,
                 fault: RankFault | None = None, fault_injector=None,
                 **knobs) -> None:
        self.options = fold(options, {**knobs, "ranks": decomp.nranks})
        self.options.require_compatible(rank_fault=fault)
        self.grid, self.layout, self.mixture = grid, layout, mixture
        self.bcs, self.decomp, self.config = bcs, decomp, config
        self.fault, self.fault_injector = fault, fault_injector
        if decomp.global_cells != grid.shape:
            raise ConfigurationError(
                f"decomposition covers {decomp.global_cells}, "
                f"grid has {grid.shape}")
        validate_periodicity(decomp, bcs)
        ng = halo_width(config.weno_order)
        validate_block_extents(decomp, ng)
        if not 0 <= getattr(fault, "rank", 0) < decomp.nranks:
            raise ConfigurationError(
                f"fault rank {fault.rank} outside 0..{decomp.nranks - 1}")
        # Validate the numerics up front (in-process, before any fork)
        # by building rank 0's march as its worker will.
        _RankMarch(self._arena(), 0, grid, layout, mixture, bcs, config,
                   self.options, dict(base_time=0.0, base_step=0)).close()

    def _arena(self) -> ShmArena:
        return ShmArena(self.decomp, self.layout.nvars,
                        halo_width(self.config.weno_order),
                        precision_dtype(self.precision))

    def run(self, q0: np.ndarray, *, t_end: float | None = None,
            n_steps: int | None = None, base_time: float = 0.0,
            base_step: int = 0) -> ClusterResult:
        """March ``q0`` and gather the final global field.

        Exactly one of ``t_end``/``n_steps``; semantics match
        :meth:`Simulation.run` (final step clipped onto ``t_end``, with
        ``t_end`` an *absolute* horizon when ``base_time`` is given).
        ``base_time``/``base_step`` seed the workers' clock so
        checkpoint headers, history records, and the returned
        time/step are absolute — a cluster continuing a driver that
        already marched to step ``S`` records step ``S + 1`` next, not
        ``1``.  Survives up to ``max_restarts`` rank deaths, each
        restarted from this run's newest valid checkpoint set (see the
        module docstring); a transient error a rank raised counts as its
        death.  A permanent one — a NaN wave rate,
        a block failing the collective check, a bug — is raised
        unrestarted (it would recur), as the class of the rank whose own
        block or body failed, every failing rank named.
        """
        if (t_end is None) == (n_steps is None):
            raise ConfigurationError("specify exactly one of t_end or n_steps")
        if q0.shape != (self.layout.nvars, *self.grid.shape):
            raise ConfigurationError(
                f"q0 has shape {q0.shape}, expected "
                f"{(self.layout.nvars, *self.grid.shape)}")
        manager = None if self.checkpoint_dir is None else CheckpointManager(
            self.checkpoint_dir, keep=self.checkpoint_keep)
        march = dict(fault=self.fault, injector=self.fault_injector,
                     t_end=t_end, run_id=getattr(manager, "run_id", None),
                     stop_step=None if n_steps is None else base_step + n_steps,
                     base_time=base_time, base_step=base_step)
        restarts = 0
        while True:
            arena = self._arena()
            arena.scatter(q0)
            replies, death = drain_and_join(
                [partial(_worker, arena, r, self.grid, self.layout,
                         self.mixture, self.bcs, self.config, self.options,
                         march, restarts)
                 for r in range(self.decomp.nranks)],
                arena.view("beat"), grace=self.cluster_timeout + 60.0,
                name="rank")
            failure = death or _rank_failure(replies)
            if failure is None:
                return self._collect(
                    arena, [reply.payload for reply in replies], restarts,
                    manager)
            if failure.failure_class == "permanent":
                raise failure.exception()
            restarts += 1
            if restarts > self.max_restarts:
                raise ClusterError(
                    f"{failure.message}, and max_restarts="
                    f"{self.max_restarts} exhausted")
            if manager is None:
                raise ClusterError(
                    f"{failure.message}, but checkpointing is disabled (no "
                    "checkpoint_dir) — cannot restart; set checkpoint_every "
                    "and checkpoint_dir to make rank failures recoverable")
            try:
                _, header, q0 = manager.load_latest(
                    expect_shape=q0.shape, run_id=manager.run_id)
            except CheckpointError as err:
                raise ClusterError(f"{failure.message}; {err}") from err
            march.update(base_time=header.time, base_step=header.step)

    # ------------------------------------------------------------------
    def _collect(self, arena: ShmArena, results: list[dict], restarts: int,
                 manager: CheckpointManager | None) -> ClusterResult:
        """The run's result from the ranks' payloads, in rank order, and
        the restores' checkpoint tallies."""
        halo, sweep, loads = HaloCounters(), SweepCounters(), []
        for res in results:
            rank_halo = HaloCounters(**res["halo"])
            rank_sweep = SweepCounters(**res["sweep"])
            halo.merge(rank_halo)
            sweep.merge(rank_sweep)
            loads.append((rank_halo.wait_ns, rank_sweep.faces_evaluated,
                          rank_sweep.faces))
        r0 = results[0]
        # The ladder is collective: count its rungs once, sum the rest.
        ladder = {name: r0["recovery"][name] for name in (
            "retries", "rollbacks", "dt_halvings", "escalations",
            "guard_failures")}
        assert all(res["recovery"][k] == n for res in results
                   for k, n in ladder.items()), "ranks left the ladder"
        recovery = RecoveryCounters(restarts=restarts)
        if manager is not None:
            recovery.record_checkpoint_skips(manager)
        for res in results:
            recovery.merge(RecoveryCounters(**res["recovery"]))
        return ClusterResult(
            q=arena.gather(), time=r0["time"], step_count=r0["step_count"],
            halo=halo, sweep=sweep,
            history=tuple(tuple(h) for h in r0["history"]),
            limited_faces=sum(res["limited_faces"] for res in results),
            ranks=tuple(loads),
            recovery=replace(recovery, **ladder), decomp=self.decomp)
