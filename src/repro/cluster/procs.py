"""Real multi-process distributed runs with shared-memory halo exchange.

This is the executable counterpart of the analytic cluster models: one
forked :class:`~repro.common.workers.Worker` per rank of the 3D block
decomposition, each running a :class:`~repro.cluster.ranksolver.
RankSolver` over its own block, with halo buffers packed zero-copy into
one anonymous shared mapping (:func:`~repro.common.workers.
shared_array` — no ``/dev/shm`` name, nothing to unlink) and exchanged
through a lightweight mailbox protocol (the single-node stand-in for
``MPI_Sendrecv``).

Mailbox protocol
----------------
Every neighboured ``(rank, axis, side)`` gets a boundary-strip-shaped
mailbox in the arena plus two int64 sequence words:

* the **producer** (the strip's owner) waits until ``ack >= s - 1``
  (the consumer finished with the previous exchange), writes the strip
  directly into the shared mapping, then publishes ``post = s``;
* the **consumer** (the neighbour) waits until ``post >= s``, unpacks
  the strip into its ghost layer, then publishes ``ack = s``.

Posts of exchange ``s`` wait only on fills of ``s - 1`` and fills of
``s`` wait only on posts of ``s``, so the dependency graph is acyclic —
no deadlock for any decomposition, periodic or not.  Waits spin with a
deadline and are tallied in :class:`~repro.profiling.counters.
HaloCounters` (``waits``/``wait_ns`` — the un-hidden communication the
interior-compute overlap exists to shrink).

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
parent died stops at its next step or halo wait.

Fault tolerance
---------------
Each rank writes its own rotating :class:`~repro.io.checkpoint.
CheckpointManager` file (``rank0000_*.bin`` …, file-per-process — the
strategy MFC switched to at scale).  When a rank dies the parent
terminates the survivors, finds the newest step for which *every* rank
holds a checkpoint, builds a fresh arena, and respawns the cluster from
that step.  Restarted runs are bit-identical to failure-free ones
(every step is deterministic, so re-marching from step ``S`` reproduces
the same states).  Each call to :meth:`ProcessCluster.run` owns the
rank-prefixed checkpoint set: stale ``rank####_*`` files left in the
directory by a previous run are removed up front so only *this* run's
steps are restart candidates, and a rank death with checkpointing
disabled raises :class:`~repro.common.ClusterError` instead of
attempting a restart.  :class:`RankFault` injects a deterministic rank
death to exercise the path end to end; wire it from a
:class:`~repro.faults.ranks.RankFailurePlan` via
:meth:`RankFault.from_plan`.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.bc.boundary import BoundarySet
from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.halo import boundary_strip, ghost_strip, validate_periodicity
from repro.cluster.ranksolver import RankSolver
from repro.common import DTYPE, ClusterError, ConfigurationError, NumericsError
from repro.common.checks import integer
from repro.common.workers import (
    drain_and_join,
    quit_if_orphaned,
    shared_array,
)
from repro.eos.mixture import Mixture
from repro.grid.cartesian import StructuredGrid
from repro.io.binary import read_snapshot
from repro.io.checkpoint import CheckpointManager
from repro.profiling.counters import HaloCounters, SweepCounters
from repro.solver.options import KnobAccess, SolverOptions, fold
from repro.solver.rhs import RHSConfig
from repro.state.layout import StateLayout
from repro.timestepping import horizon_reached, time_step
from repro.weno import halo_width

#: Exit code a worker uses to simulate a hardware fault (vs. 1 for a
#: real Python error — both trigger the same restart path).
_FAULT_EXIT = 3

#: Per-rank checkpoint file names (any rank count, any step width) —
#: the prefix set each :meth:`ProcessCluster.run` owns in its
#: checkpoint directory.
_RANK_CKPT = re.compile(r"rank\d{4}_\d+\.bin")


@dataclass(frozen=True)
class RankFault:
    """Deterministic injected rank death: ``rank`` exits (as a crashed
    process would — no cleanup, no final checkpoint) right after
    completing step ``step`` (counted on the run's absolute step clock,
    i.e. including any ``base_step``).  Fires on the first attempt
    only, so the restarted run can finish."""

    rank: int
    step: int

    @classmethod
    def from_plan(cls, plan, *, step_seconds: float, nranks: int,
                  horizon_hours: float = 24.0) -> "RankFault | None":
        """Derive the first injected death from a PR-4
        :class:`~repro.faults.ranks.RankFailurePlan`.

        The plan's first failure time (hours) is converted to the step
        count a run with the given wall seconds-per-step would have
        reached; returns None when the plan predicts no failure inside
        the horizon."""
        times = plan.failure_times(horizon_hours)
        if not times:
            return None
        hours, rank = times[0]
        step = max(1, int(hours * 3600.0 / step_seconds))
        return cls(rank=rank % nranks, step=step)


class ShmArena:
    """One anonymous shared mapping holding every cross-process array.

    Layout (all 8-byte aligned, zero-initialised):

    * per-rank state blocks ``(nvars, *local_cells)`` float64 — the
      authoritative ``q`` each worker marches in place (the parent
      scatters the initial condition in and gathers the result out,
      zero-copy on the worker side);
    * per-``(rank, axis, side)`` halo mailboxes (boundary-strip shaped)
      with their ``post``/``ack`` sequence words;
    * the dt-reduction triple: ``slots`` float64 and
      ``wrote``/``read`` sequence words, one each per rank;
    * a per-rank ``beat`` heartbeat word (bumped by workers on every
      step and transport operation; the parent's liveness monitor).

    The arena also owns the protocol's synchronisation locks
    (:attr:`locks`): one per halo mailbox and one per rank for the dt
    reduction, inherited by the workers through fork.  Publishing a
    sequence word inside its lock and fencing through the same lock
    after a wait gives the payload hand-off a happens-before edge on
    weakly-ordered CPUs (see the module docstring).
    """

    def __init__(self, decomp: BlockDecomposition, nvars: int, ng: int, *,
                 red_width: int = 1):
        self.decomp = decomp
        self.nvars = nvars
        self.ng = ng
        #: Payload width of one dt-reduction round: 1 for the scalar
        #: single-case rate, B for an ensemble's per-case dt vector.
        self.red_width = integer(1)("red_width", red_width)
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
            add(("block", r), (nvars, *decomp.local_cells(r)), DTYPE)
        for r in range(decomp.nranks):
            local = decomp.local_cells(r)
            for axis in range(decomp.ndim):
                for side in (-1, 1):
                    if decomp.neighbor(r, axis, side) is None:
                        continue
                    shape = [nvars, *local]
                    shape[axis + 1] = ng
                    add(("box", r, axis, side), shape, DTYPE)
                    add(("post", r, axis, side), (1,), np.int64)
                    add(("ack", r, axis, side), (1,), np.int64)
                    self.locks[(r, axis, side)] = ctx.Lock()
        add("slots", (decomp.nranks, red_width), DTYPE)
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


class SharedMemoryTransport:
    """One worker's halo endpoint over the arena (see module docstring).

    Duck-type compatible with :class:`~repro.cluster.halo.HaloExchanger`
    as a :class:`RankSolver` transport: :meth:`post` packs boundary
    strips straight into the shared mailboxes, :meth:`fill` completes
    the sendrecv into the ghost layers.
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
                if time.perf_counter_ns() > deadline:
                    raise ClusterError(
                        f"rank {self.rank}: timed out after {self.timeout}s "
                        f"waiting for {what} (seq {seq[0]} < {value}) — a "
                        f"peer rank likely died")
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
            box[...] = boundary_strip(field, axis, ng, side)
            self._publish(lock, self._view[("post", rank, axis, side)], 0,
                          seq, f"post {seq} on axis {axis}")
            self.counters.posts += 1
        self._posted[(rank, axis)] = seq
        self.beat()

    def fill(self, rank: int, axis: int, padded: np.ndarray) -> None:
        """Fill ``rank``'s interior-face ghosts along ``axis`` from the
        neighbours' shared mailboxes."""
        ng = self.ng
        seq = self._filled.get((rank, axis), 0) + 1
        for side in (-1, 1):
            nb = self.decomp.neighbor(rank, axis, side)
            if nb is None:
                continue
            lock = self._locks[(nb, axis, -side)]
            self._wait(self._view[("post", nb, axis, -side)], seq,
                       f"post {seq} from rank {nb} on axis {axis}", lock)
            box = self._view[("box", nb, axis, -side)]
            ghost_strip(padded, axis, ng, side)[...] = box
            self._publish(lock, self._view[("ack", nb, axis, -side)], 0,
                          seq, f"ack {seq} to rank {nb} on axis {axis}")
            self.counters.messages += 1
            self.counters.bytes_exchanged += box.nbytes
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

        ``value`` may be a scalar (broadcast across the slot row) or a
        vector of the arena's ``red_width`` — the latter carries an
        ensemble's per-case dt payload through one reduction round.
        """
        s = self._reduced + 1
        for r in range(self.decomp.nranks):
            self._wait(self._read[r:r + 1], s - 1,
                       f"rank {r} to consume reduction {s - 1}",
                       self._locks[("red", r)])
        self._slots[self.rank, :] = value
        self._publish(self._locks[("red", self.rank)], self._wrote,
                      self.rank, s, f"reduction value {s}")
        self.beat()

    def reduce_max_finish(self, *, overlapped: bool = False) -> float:
        """Complete the reduction started by :meth:`reduce_max_begin`.

        Waits for every rank's slot of this round, takes the
        elementwise max in rank order — bitwise identical on every
        rank, and bitwise equal to the serial whole-domain max
        (floating max is exact under any grouping) — then releases the
        slots for the next round.  Returns a float for width-1 arenas
        (the historical scalar contract) and the reduced vector for
        wider payloads.  ``overlapped=True`` tallies the reduction as
        hidden behind compute
        (:attr:`HaloCounters.reductions_overlapped`).
        """
        s = self._reduced + 1
        n = self.decomp.nranks
        for r in range(n):
            self._wait(self._wrote[r:r + 1], s,
                       f"rank {r}'s reduction value {s}",
                       self._locks[("red", r)])
        row = self._slots[0].copy()
        for r in range(1, n):
            np.maximum(row, self._slots[r], out=row)
        self._publish(self._locks[("red", self.rank)], self._read,
                      self.rank, s, f"reduction consume {s}")
        self._reduced = s
        self.counters.reductions += 1
        if overlapped:
            self.counters.reductions_overlapped += 1
        self.beat()
        return float(row[0]) if row.shape[0] == 1 else row

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
    restarts: int
    limited_faces: int


def _worker(arena: ShmArena, rank: int, grid: StructuredGrid,
            layout: StateLayout, mixture: Mixture, bcs: BoundarySet,
            config: RHSConfig, options: SolverOptions, march: dict,
            attempt: int, restore_step: int | None, conn) -> None:
    """One rank's process body (fork-inherited arguments, no pickling).

    ``march`` carries what one :meth:`ProcessCluster.run` adds to the
    options: ``overlap fault t_end n_steps base_time base_step``.
    """
    transport = SharedMemoryTransport(arena, rank,
                                      timeout=options.cluster_timeout)
    rs = RankSolver(arena.decomp, rank, layout, mixture, bcs, config,
                    grid, transport, sweep_layout=options.sweep_layout,
                    overlap=march["overlap"], fusion=options.fusion)
    q = arena.block(rank)
    mgr = None
    if options.checkpoint_dir is not None:
        mgr = CheckpointManager(options.checkpoint_dir,
                                keep=options.checkpoint_keep,
                                prefix=f"rank{rank:04d}")
    # The march runs on the driver's absolute clock: checkpoint
    # headers and history records carry the same time/step a serial
    # Simulation would, even when the cluster continues a run that
    # already advanced to base_time/base_step.
    sim_time = march["base_time"]
    step_count = march["base_step"]
    if restore_step is not None:
        header, saved = read_snapshot(mgr.path_for(restore_step))
        q[...] = saved
        sim_time = header.time
        step_count = header.step

    fault = march["fault"]
    history = []

    def reduce(rate):
        # Post the local wave rate now and collect the global max
        # only once stage one's RHS — which does not depend on dt —
        # is done, so the other ranks' contributions arrive while
        # this rank computes.  The reduction order and values are
        # unchanged, so the overlapped dt is bitwise the blocking one.
        transport.reduce_max_begin(rate)
        return partial(transport.reduce_max_finish, overlapped=True)

    def march_one(dt_limit=None):
        nonlocal sim_time, step_count
        t0 = time.perf_counter()
        q_new, dt, _ = time_step(
            rs.rhs, q, layout=layout, mixture=mixture, widths=rs.widths,
            options=options, workspace=rs.ws, dt_limit=dt_limit,
            reduce=reduce)
        q[...] = q_new
        sim_time += dt
        step_count += 1
        history.append((step_count, sim_time, dt,
                        time.perf_counter() - t0))
        transport.beat()
        quit_if_orphaned()
        if (fault is not None and attempt == 0
                and rank == fault.rank and step_count == fault.step):
            # Die as a crashed process would: no cleanup, no final
            # checkpoint, peers left mid-protocol.
            os._exit(_FAULT_EXIT)
        if (mgr is not None and options.checkpoint_every
                and step_count % options.checkpoint_every == 0):
            mgr.save(q, step=step_count, time=sim_time)

    try:
        if march["n_steps"] is not None:
            end_step = march["base_step"] + march["n_steps"]
            while step_count < end_step:
                march_one()
        else:
            t_end = march["t_end"]
            while not horizon_reached(sim_time, t_end):
                march_one(dt_limit=t_end - sim_time)
    except NumericsError as err:
        # Deterministic: a restart would replay it.  Every rank reaches
        # the same reduced dt, so they all stop here.
        conn.send({"rank": rank, "error": f"rank {rank}, step "
                   f"{step_count + 1}: {err}"})
        return

    conn.send({
        "rank": rank,
        "time": sim_time,
        "step_count": step_count,
        "halo": transport.counters.as_dict(),
        "sweep": rs.sweep_counters.as_dict(),
        "limited_faces": rs.limited_faces,
        "history": history if rank == 0 else [],
    })


class ProcessCluster(KnobAccess):
    """Multi-process executor for the 3D block decomposition.

    Runs ``decomp.nranks`` forked workers over a
    shared-memory arena and marches them bulk-synchronously via the
    mailbox protocol.  Results are bit-identical to the single-block
    :class:`~repro.solver.simulation.Simulation` and to the in-process
    :class:`~repro.cluster.distributed.DistributedSolver` — including
    across an injected rank failure recovered through
    checkpoint-coordinated restart.

    ``options`` and/or loose keyword knobs say how to march (DESIGN.md
    "Options: one table"; ``ranks`` is the decomposition's).  The halo
    waits spin for ``cluster_timeout`` seconds and the parent's join
    uses ``cluster_timeout + 60`` as its *no-progress* deadline (a
    hang's bound, not a legitimate run's).  ``overlap=False``
    waits for the exchange up front (same results, no hiding; an A/B
    toggle); ``fault`` is an injected :class:`RankFault`.
    """

    def __init__(self, grid: StructuredGrid, layout: StateLayout,
                 mixture: Mixture, bcs: BoundarySet,
                 decomp: BlockDecomposition, config: RHSConfig,
                 options: SolverOptions | None = None, *,
                 overlap: bool = True, fault: RankFault | None = None,
                 **knobs) -> None:
        self.options = fold(options, {**knobs, "ranks": decomp.nranks})
        self.options.require_compatible(rank_fault=fault)
        self.grid, self.layout, self.mixture = grid, layout, mixture
        self.bcs, self.decomp, self.config = bcs, decomp, config
        self.overlap, self.fault = overlap, fault
        if decomp.global_cells != grid.shape:
            raise ConfigurationError(
                f"decomposition covers {decomp.global_cells}, "
                f"grid has {grid.shape}")
        validate_periodicity(decomp, bcs)
        if not 0 <= getattr(fault, "rank", 0) < decomp.nranks:
            raise ConfigurationError(
                f"fault rank {fault.rank} outside 0..{decomp.nranks - 1}")
        # Validate numerics knobs up front (in-process, good tracebacks)
        # by building rank 0's solver against a throwaway transport.
        RankSolver(decomp, 0, layout, mixture, bcs, config, grid,
                   transport=None, sweep_layout=self.sweep_layout,
                   overlap=overlap, fusion=self.fusion)

    def _discard_stale_checkpoints(self) -> None:
        """Remove rank checkpoints left by a previous run.

        Each :meth:`run` owns the ``rank####_*`` prefix set in its
        checkpoint directory: a stale file from an earlier run would
        otherwise win ``max(common)`` during restart coordination and
        silently resume this run from an unrelated, higher-step state.
        """
        if self.checkpoint_dir is None:
            return
        directory = Path(self.checkpoint_dir)
        if not directory.is_dir():
            return
        for p in directory.iterdir():
            if _RANK_CKPT.fullmatch(p.name):
                p.unlink(missing_ok=True)

    def _common_checkpoint_step(self) -> int:
        """Newest step for which every rank holds a checkpoint file."""
        if self.checkpoint_dir is None:
            raise ClusterError(
                "a rank died but checkpointing is disabled (no "
                "checkpoint_dir) — cannot coordinate a restart; enable "
                "checkpoint_every/checkpoint_dir to make rank failures "
                "recoverable")
        common: set[int] | None = None
        for r in range(self.decomp.nranks):
            mgr = CheckpointManager(self.checkpoint_dir,
                                    keep=self.checkpoint_keep,
                                    prefix=f"rank{r:04d}")
            steps = {int(p.stem.split("_")[-1]) for p in mgr.checkpoints()}
            common = steps if common is None else common & steps
        if not common:
            raise ClusterError(
                "restart needed but no checkpoint step is present on "
                "every rank")
        return max(common)

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
        ``1``.  Survives up to ``max_restarts`` rank deaths via
        checkpoint-coordinated restart; stale rank checkpoints from a
        previous run in the same directory are discarded up front (see
        :meth:`_discard_stale_checkpoints`).  A :class:`NumericsError` on
        the ranks (a NaN wave rate: the reduction hands every rank the
        same one) is raised here naming the rank and step — it would
        recur on restart.
        """
        if (t_end is None) == (n_steps is None):
            raise ConfigurationError("specify exactly one of t_end or n_steps")
        if q0.shape != (self.layout.nvars, *self.grid.shape):
            raise ConfigurationError(
                f"q0 has shape {q0.shape}, expected "
                f"{(self.layout.nvars, *self.grid.shape)}")
        self._discard_stale_checkpoints()
        march = dict(overlap=self.overlap, fault=self.fault, t_end=t_end,
                     n_steps=n_steps, base_time=base_time,
                     base_step=base_step)
        restarts = 0
        restore_step = None
        while True:
            arena = ShmArena(self.decomp, self.layout.nvars,
                             halo_width(self.config.weno_order))
            for r in range(self.decomp.nranks):
                arena.block(r)[...] = q0[
                    (slice(None), *self.decomp.local_slices(r))]
            results, failed = drain_and_join(
                [partial(_worker, arena, r, self.grid, self.layout,
                         self.mixture, self.bcs, self.config, self.options,
                         march, restarts, restore_step)
                 for r in range(self.decomp.nranks)],
                arena.view("beat"), grace=self.cluster_timeout + 60.0)
            if failed is None:
                for res in results:
                    if "error" in res:
                        raise NumericsError(res["error"])
                return self._collect(arena, results, restarts)
            restarts += 1
            if restarts > self.max_restarts:
                raise ClusterError(
                    f"rank {failed[0]} exited with code {failed[1]} and "
                    f"max_restarts={self.max_restarts} exhausted")
            restore_step = self._common_checkpoint_step()

    # ------------------------------------------------------------------
    def _collect(self, arena: ShmArena, results: list[dict],
                 restarts: int) -> ClusterResult:
        q = np.empty((self.layout.nvars, *self.grid.shape), dtype=DTYPE)
        for r in range(self.decomp.nranks):
            q[(slice(None), *self.decomp.local_slices(r))] = arena.block(r)
        halo = HaloCounters()
        sweep = SweepCounters()
        history: list = []
        limited = 0
        for res in results:
            halo.merge(HaloCounters(**res["halo"]))
            sweep.merge(SweepCounters(**res["sweep"]))
            limited += res["limited_faces"]
            if res["rank"] == 0:
                history = res["history"]
        r0 = next(res for res in results if res["rank"] == 0)
        return ClusterResult(
            q=q, time=r0["time"], step_count=r0["step_count"], halo=halo,
            sweep=sweep, history=tuple(tuple(h) for h in history),
            restarts=restarts, limited_faces=limited)
