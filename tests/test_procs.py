"""Multi-process executor tests: shared-memory halos, bit-identity,
rank-fault restart, and the ``ranks`` wiring through Simulation/CLI.

The load-bearing invariant mirrors ``test_cluster.py``'s in-process
one, now across real OS processes: a ``ProcessCluster`` run — one
forked worker per rank, halos through shared-memory mailboxes, dt
reduced in rank order — is **bit-identical** to the serial
``Simulation`` march, for any rank count, WENO order, Riemann solver,
sweep layout, and uneven split (property-tested), and stays so after a
rank is killed mid-run and the team restarts from its newest valid
checkpoint set — which restores at any rank count.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import to_host_array
from repro.bc import BoundarySet
from repro.cluster import (
    BlockDecomposition,
    ProcessCluster,
    RankFault,
    SharedMemoryTransport,
    ShmArena,
)
from repro.common import ClusterError, ConfigurationError, NumericsError
from repro.ensemble import EnsembleJob, EnsembleService, EnsembleSimulation
from repro.eos import Mixture, StiffenedGas
from repro.faults import bitflip_file
from repro.grid import StructuredGrid
from repro.io.binary import HEADER_BYTES
from repro.io.checkpoint import CheckpointManager
from repro.profiling import HaloCounters, Profile
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, sphere
from tests.conftest import live_children

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


def bubble_case(shape):
    ndim = len(shape)
    grid = StructuredGrid.uniform(tuple((0.0, 1.0) for _ in shape), shape)
    case = Case(grid, MIX)
    case.add(Patch(box([0.0] * ndim, [1.0] * ndim), (0.5, 0.5),
                   (0.3,) + (0.0,) * (ndim - 1), 1.0, (0.5,)))
    case.add(Patch(sphere([0.4] * ndim, 0.2), (1.0, 1.0),
                   (0.0,) * ndim, 2.0, (0.5,)))
    return case


def cluster_for(case, bcs, nranks, **kwargs):
    from repro.bc import BC

    periodic = tuple(lo is BC.PERIODIC for lo, _ in bcs.per_axis)
    decomp = BlockDecomposition.balanced(case.grid.shape, nranks,
                                         periodic=periodic)
    config = kwargs.pop("config", RHSConfig())
    return ProcessCluster(case.grid, case.layout, MIX, bcs, decomp, config,
                          **kwargs)


def serial_march(case, bcs, *, n_steps=None, t_end=None, **kwargs):
    sim = Simulation(case, bcs, validate_every=0, **kwargs)
    sim.run(n_steps=n_steps, t_end=t_end)
    return sim


class TestProcessClusterBitIdentity:
    @pytest.mark.parametrize("nranks,shape", [
        (2, (48,)),
        (4, (24, 24)),
    ])
    def test_fixed_dt_matches_serial(self, nranks, shape):
        case = bubble_case(shape)
        bcs = BoundarySet.all_extrapolation(len(shape))
        sim = serial_march(case, bcs, n_steps=4, fixed_dt=2e-4)
        pc = cluster_for(case, bcs, nranks, fixed_dt=2e-4)
        result = pc.run(case.initial_conservative(), n_steps=4)
        np.testing.assert_array_equal(result.q, sim.q)
        assert result.step_count == 4
        assert result.halo.messages > 0

    def test_cfl_t_end_matches_serial_exactly(self):
        # The CFL path exercises the shared-memory dt reduction: every
        # rank must land on the bitwise-identical global wave speed, or
        # the trajectories (and final times) drift apart.
        case = bubble_case((20, 20))
        bcs = BoundarySet.all_periodic(2)
        sim = serial_march(case, bcs, t_end=2e-3, cfl=0.4)
        pc = cluster_for(case, bcs, 4, cfl=0.4)
        result = pc.run(case.initial_conservative(), t_end=2e-3)
        np.testing.assert_array_equal(result.q, sim.q)
        assert result.time == sim.time
        assert result.step_count == sim.step_count
        assert result.halo.reductions == 4 * sim.step_count

    def test_3d_uneven_split(self):
        case = bubble_case((11, 10, 9))
        bcs = BoundarySet.all_extrapolation(3)
        sim = serial_march(case, bcs, n_steps=1, fixed_dt=2e-4,
                           config=RHSConfig(weno_order=3))
        pc = cluster_for(case, bcs, 2, fixed_dt=2e-4,
                         config=RHSConfig(weno_order=3))
        result = pc.run(case.initial_conservative(), n_steps=1)
        np.testing.assert_array_equal(result.q, sim.q)

    @settings(max_examples=5, deadline=None)
    @given(order=st.sampled_from([1, 3, 5]),
           riemann=st.sampled_from(["hllc", "hll", "rusanov"]),
           layout=st.sampled_from(["strided", "transposed"]),
           n=st.integers(min_value=19, max_value=23),
           nranks=st.sampled_from([2, 3]))
    def test_any_order_solver_layout_split(self, order, riemann, layout,
                                           n, nranks):
        # Uneven splits by construction: n in 19..23 over 2-3 ranks
        # leaves remainder cells on the low ranks for most draws.  The
        # serial reference always runs strided/serial, so this also
        # asserts cross-layout identity.
        case = bubble_case((n, 16))
        bcs = BoundarySet.all_extrapolation(2)
        config = RHSConfig(weno_order=order, riemann_solver=riemann)
        sim = serial_march(case, bcs, n_steps=2, fixed_dt=2e-4,
                           config=config)
        pc = cluster_for(case, bcs, nranks, fixed_dt=2e-4, config=config,
                         sweep_layout=layout)
        result = pc.run(case.initial_conservative(), n_steps=2)
        np.testing.assert_array_equal(result.q, sim.q)

    @pytest.mark.parametrize("rank_grid", [(2, 1), (1, 2)])
    def test_two_ranks_along_each_axis_at_minimal_split_extents(
            self, rank_grid):
        # 13 cells over two ranks are blocks of 2 ng + 1 and 2 ng: only
        # two faces on one rank and one on the other read no ghost.
        case = bubble_case((13, 13))
        bcs = BoundarySet.all_extrapolation(2)
        sim = serial_march(case, bcs, n_steps=2, fixed_dt=2e-4)
        decomp = BlockDecomposition((13, 13), rank_grid)
        split, again = (
            ProcessCluster(case.grid, case.layout, MIX, bcs, decomp,
                           RHSConfig(), fixed_dt=2e-4,
                           ).run(case.initial_conservative(), n_steps=2)
            for _ in range(2))
        np.testing.assert_array_equal(split.q, sim.q)
        # One full exchange per RHS evaluation, three per RK3 step.
        assert split.halo.messages == decomp.total_messages() * 3 * 2
        # The ranks skip uniform faces, the same ones on every run.
        assert split.sweep.as_dict() == again.sweep.as_dict()
        assert 0 < split.sweep.faces_evaluated < split.sweep.faces


class TestRankSolverIsTheSerialSweep:
    """A 1-rank block runs the serial ``RHS`` with the posted strips as
    its only other ghost source, so it agrees with a whole-domain RHS on
    every observable: bytes, limiter count, counters (faces evaluated
    included)."""

    @pytest.mark.parametrize("layout,fusion,periodic", [
        ("strided", "off", True),      # self-exchange: ghosts from strips
        ("strided", "off", False),     # walls only: ghosts from the BCs
        ("transposed", "off", True),
        ("transposed", "off", False),
        ("strided", "on", False),      # tiles fuse (pack=False)
        ("strided", "on", True),
    ])
    @pytest.mark.parametrize("shape", [(21, 16), (9, 8, 7)])
    def test_one_rank_equals_rhs(self, layout, fusion, periodic, shape):
        ndim = len(shape)
        case = bubble_case(shape)
        bcs = (BoundarySet.all_periodic(ndim) if periodic
               else BoundarySet.all_extrapolation(ndim))
        config = RHSConfig()
        decomp = BlockDecomposition.balanced(shape, 1,
                                             periodic=(periodic,) * ndim)
        transport = SharedMemoryTransport(
            ShmArena(decomp, case.layout.nvars, 3), 0, timeout=5.0)
        rank = RHS(case.layout, MIX, decomp.block_grid(case.grid, 0), bcs,
                   config, fusion=fusion, transport=transport)
        # Both take the heuristic tile count; a whole-domain RHS plans
        # a gang of it on a multi-core host, so pin it serial.
        rhs = RHS(case.layout, MIX, case.grid, bcs, config,
                  sweep_layout=layout, fusion=fusion, threads=1)
        q = case.initial_conservative()
        assert rank(q).tobytes() == rhs(q).tobytes()
        assert rank.limited_faces == rhs.limited_faces
        assert (rank.sweep_counters.as_dict()
                == rhs.sweep_counters.as_dict())
        assert (rhs.sweep_counters.fused_launches > 0) == (fusion == "on")


class TestRankBlocks:
    """What a rank's block grid brings along: its own radii, per-rank
    figures, and a declared refusal of blocks too narrow to post."""

    def test_narrow_block_refused_before_any_fork(self):
        # Blocks of 3 and 2 cells along x: WENO5's ng = 3 strip does not
        # fit rank 1's block, WENO3's ng = 2 does.
        case = bubble_case((5, 8))
        bcs = BoundarySet.all_extrapolation(2)
        decomp = BlockDecomposition((5, 8), (2, 1), (False, False))
        with pytest.raises(ConfigurationError,
                           match=r"rank 1: .* 2 cells along axis 0.*ng = 3"):
            ProcessCluster(case.grid, case.layout, MIX, bcs, decomp,
                           RHSConfig())
        config = RHSConfig(weno_order=3)
        result = ProcessCluster(
            case.grid, case.layout, MIX, bcs, decomp, config,
            fixed_dt=2e-4).run(case.initial_conservative(), n_steps=2)
        serial = serial_march(case, bcs, n_steps=2, fixed_dt=2e-4,
                              config=config)
        np.testing.assert_array_equal(result.q, serial.q)

    def test_rank_loads_sum_to_the_merged_counters(self):
        sim = Simulation(bubble_case((24, 24)),
                         BoundarySet.all_extrapolation(2), validate_every=0,
                         ranks=2)
        sim.run(n_steps=3)
        sweep = sim.rhs.sweep_counters
        waits, evaluated, faces = zip(*sim.rank_loads)
        assert len(waits) == 2
        assert sum(waits) == sim.halo_counters.wait_ns
        assert sum(evaluated) == sweep.faces_evaluated
        assert sum(faces) == sweep.faces
        assert all(0 < e <= f for e, f in zip(evaluated, faces))

    @pytest.mark.parametrize("rank_grid", [(2, 1), (1, 2)],
                             ids=["split-x", "split-r"])
    def test_axisymmetric_ranks_match_serial(self, rank_grid):
        from repro.bc import BC

        grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 0.5)), (16, 12))
        case = Case(grid, MIX)
        case.add(Patch(box([0.0, 0.0], [1.0, 1.0]), (0.5, 0.5),
                       (0.2, 0.0), 1.0, (0.5,)))
        case.add(Patch(sphere([0.5, 0.0], 0.2), (1.0, 1.0),
                       (0.0, 0.0), 2.0, (0.5,)))
        bcs = BoundarySet(((BC.EXTRAPOLATION, BC.EXTRAPOLATION),
                           (BC.REFLECTIVE, BC.EXTRAPOLATION)))
        config = RHSConfig(geometry="axisymmetric")
        serial = serial_march(case, bcs, n_steps=3, config=config)
        decomp = BlockDecomposition((16, 12), rank_grid, (False, False))
        result = ProcessCluster(grid, case.layout, MIX, bcs, decomp, config,
                                validate_every=0).run(
            case.initial_conservative(), n_steps=3)
        np.testing.assert_array_equal(result.q, serial.q)
        assert result.time == serial.time

    def test_viscous_ranks_refused(self):
        # Viscous fluxes read neighbour cells no halo strip carries.
        with pytest.raises(ConfigurationError, match="viscous"):
            cluster_for(bubble_case((16, 16)), BoundarySet.all_periodic(2),
                        2, config=RHSConfig(viscosity=(1e-3, 1e-3)))


class TestJoinAndDrain:
    def test_history_larger_than_pipe_buffer_completes(self):
        # Rank 0's result carries the whole per-step history; beyond the
        # OS pipe buffer (~64 KiB, ~2000 steps) the worker blocks in
        # send until the parent receives.  The parent must drain the
        # result pipes *while* joining — recv-after-join deadlocks, the
        # no-progress watchdog then kills a perfectly healthy run.
        case = bubble_case((16,))
        bcs = BoundarySet.all_extrapolation(1)
        pc = cluster_for(case, bcs, 2, fixed_dt=1e-5,
                         config=RHSConfig(weno_order=1))
        result = pc.run(case.initial_conservative(), n_steps=2200)
        assert result.step_count == 2200
        assert len(result.history) == 2200
        assert np.isfinite(result.q).all()

    def test_arena_has_heartbeats(self):
        # The join watchdog re-arms on heartbeat progress; the arena
        # must expose one beat word per rank, zero-initialised.
        decomp = BlockDecomposition.balanced((10, 8), 4)
        arena = ShmArena(decomp, nvars=5, ng=3)
        beat = arena.view("beat")
        assert beat.shape == (4,)
        assert np.all(beat == 0)
        # One mailbox lock per neighboured (rank, axis, side), one
        # reduction lock per rank.
        assert ("red", 0) in arena.locks
        assert sum(1 for k in arena.locks if k[0] != "red") > 0


class TestRankFaultRestart:
    def test_killed_rank_restarts_bit_identical(self, tmp_path):
        case = bubble_case((32,))
        bcs = BoundarySet.all_extrapolation(1)
        sim = serial_march(case, bcs, n_steps=6, fixed_dt=2e-4)
        pc = cluster_for(case, bcs, 2, fixed_dt=2e-4,
                         checkpoint_every=2, checkpoint_dir=tmp_path,
                         fault=RankFault(rank=1, step=3))
        result = pc.run(case.initial_conservative(), n_steps=6)
        np.testing.assert_array_equal(result.q, sim.q)
        assert result.recovery.restarts == 1

    def test_fault_before_any_checkpoint_raises(self, tmp_path):
        case = bubble_case((32,))
        bcs = BoundarySet.all_extrapolation(1)
        pc = cluster_for(case, bcs, 2, fixed_dt=2e-4,
                         checkpoint_every=5, checkpoint_dir=tmp_path,
                         fault=RankFault(rank=0, step=1))
        with pytest.raises(ClusterError):
            pc.run(case.initial_conservative(), n_steps=3)

    def test_fault_requires_checkpointing(self):
        case = bubble_case((32,))
        bcs = BoundarySet.all_extrapolation(1)
        with pytest.raises(ConfigurationError):
            cluster_for(case, bcs, 2, fixed_dt=2e-4,
                        fault=RankFault(rank=0, step=1))

    def test_rank_death_without_checkpointing_raises_cluster_error(
            self, monkeypatch):
        # A genuine rank death (not an injected fault) in a run with
        # checkpointing disabled must surface as a ClusterError naming
        # the rank and how it ended, not a TypeError from
        # CheckpointManager(None, ...).  (An exception a rank raises is
        # not a death: TestOneRankReply.)
        import repro.solver.march as march

        def crash(*args, **kwargs):
            os._exit(1)

        case = bubble_case((32,))
        bcs = BoundarySet.all_extrapolation(1)
        pc = cluster_for(case, bcs, 2, cfl=0.5)
        monkeypatch.setattr(march, "time_step", crash)  # forked workers die
        with pytest.raises(ClusterError, match=r"rank [01] died \(exit code "
                           r"1\), but checkpointing is disabled"):
            pc.run(case.initial_conservative(), n_steps=2)

    def test_nan_state_raises_the_numerics_error_at_the_first_step(self):
        # A NaN rate is not a rank death: every rank reaches the same
        # reduced (NaN) rate and the run stops naming it, unrestarted.
        case = bubble_case((32,))
        bcs = BoundarySet.all_extrapolation(1)
        pc = cluster_for(case, bcs, 2, cfl=0.5)
        q0 = case.initial_conservative()
        q0[case.layout.energy, 20] = np.nan  # on rank 1's block only
        with pytest.raises(NumericsError, match=r"step 1: .*rate nan"):
            pc.run(q0, n_steps=2)

    def test_an_unphysical_block_stops_every_rank_together(self):
        # Finite but unphysical on rank 1's block only: a negative minor
        # partial density, which the wave rate does not see.  Every rank
        # checks its block on the validate_every cadence and the stop is
        # collective (a max of the failure flag), so rank 0 does not
        # wait out its halo timeout into a ClusterError and a restart.
        case = bubble_case((32,))
        bcs = BoundarySet.all_extrapolation(1)
        pc = cluster_for(case, bcs, 2, cfl=0.5, validate_every=4,
                         cluster_timeout=5.0)
        q0 = case.initial_conservative()
        q0[1, 24] = -0.3  # alpha_rho[1] of cell 8 of rank 1's block
        with pytest.raises(NumericsError, match=r"rank 1: unphysical state "
                           r"at step 4: negative-density: alpha_rho\[1\]"):
            pc.run(q0, n_steps=12)

    def test_stale_checkpoints_from_previous_run_not_restored(self, tmp_path):
        # Run 1 leaves rank checkpoints at steps 4/6/8 in the
        # directory.  Run 2 (same directory) loses a rank at step 3:
        # the restart must come from run 2's own step-2 checkpoint, not
        # silently resume from run 1's higher-step state.
        case = bubble_case((32,))
        bcs = BoundarySet.all_extrapolation(1)
        pc1 = cluster_for(case, bcs, 2, fixed_dt=2e-4,
                          checkpoint_every=2, checkpoint_dir=tmp_path)
        pc1.run(case.initial_conservative(), n_steps=8)
        assert list(tmp_path.glob("rank*_*.bin"))
        serial = serial_march(case, bcs, n_steps=6, fixed_dt=2e-4)
        pc2 = cluster_for(case, bcs, 2, fixed_dt=2e-4,
                          checkpoint_every=2, checkpoint_dir=tmp_path,
                          fault=RankFault(rank=1, step=3))
        result = pc2.run(case.initial_conservative(), n_steps=6)
        assert result.recovery.restarts == 1
        assert result.step_count == 6
        np.testing.assert_array_equal(result.q, serial.q)


    def test_a_rank_run_resumes_at_any_rank_count(self, tmp_path):
        # The sets two ranks write restore into a driver of any rank
        # count, which carries on bitwise as the uninterrupted run.
        case = bubble_case((32, 16))
        bcs = BoundarySet.all_periodic(2)
        serial = serial_march(case, bcs, n_steps=8)
        Simulation(case, bcs, ranks=2, checkpoint_every=2,
                   checkpoint_dir=tmp_path).run(n_steps=4)
        for ranks in (1, 2, 4):
            sim = Simulation(case, bcs, ranks=ranks, checkpoint_dir=tmp_path)
            assert sim.restore_latest().name == "ckpt_000000004.json"
            assert (sim.step_count, sim.recovery.restarts) == (4, 1)
            sim.run(n_steps=4)
            np.testing.assert_array_equal(sim.q, serial.q)
            assert sim.time == serial.time

    def test_a_corrupt_block_falls_back_to_the_previous_set(self, tmp_path):
        # Rank 1's block of set 4 rots on disk during step 5, then rank 1
        # dies: the restart skips set 4 and re-marches from set 2.
        class RotRankOnesBlock:
            def apply(self, q, *, step, attempt=0, block=None):
                if step == 5 and block[1] != (0, 0) \
                        and not (tmp_path / "rotted").exists():
                    (tmp_path / "rotted").touch()
                    bitflip_file(tmp_path / "rank0001_000000004.bin",
                                 seed=1, skip_bytes=HEADER_BYTES)
                return 0

        case = bubble_case((32, 16))
        bcs = BoundarySet.all_periodic(2)
        serial = serial_march(case, bcs, n_steps=7, fixed_dt=2e-4)
        pc = cluster_for(case, bcs, 2, fixed_dt=2e-4, checkpoint_every=2,
                         checkpoint_dir=tmp_path, fault=RankFault(1, 5),
                         fault_injector=RotRankOnesBlock())
        result = pc.run(case.initial_conservative(), n_steps=7)
        np.testing.assert_array_equal(result.q, serial.q)
        assert result.recovery.restarts == 1
        assert result.recovery.checkpoint_skip_reasons == {"crc": 1}
        assert result.history[0][0] == 3  # re-marched from set 2


class TestShmArena:
    def test_width_one_still_returns_float(self):
        # Two transports over one arena in one process: the reduction
        # hands every rank the same bare float, the max in rank order.
        decomp = BlockDecomposition.balanced((16,), 2)
        arena = ShmArena(decomp, nvars=3, ng=2)
        t0 = SharedMemoryTransport(arena, 0, timeout=5.0)
        t1 = SharedMemoryTransport(arena, 1, timeout=5.0)
        t0.reduce_max_begin(2.0)
        t1.reduce_max_begin(6.0)
        out = t0.reduce_max_finish()
        assert isinstance(out, float)
        assert out == 6.0
        assert t1.reduce_max_finish() == 6.0

    def test_blocks_map_decomposition(self):
        decomp = BlockDecomposition.balanced((10, 8), 4)
        arena = ShmArena(decomp, nvars=5, ng=3)
        for r in range(4):
            block = arena.block(r)
            assert block.shape == (5,) + decomp.local_cells(r)
            block[...] = float(r)  # writable, disjoint
        for r in range(4):
            assert np.all(arena.block(r) == float(r))


class TestSimulationRanksWiring:
    def test_run_matches_serial_and_merges_counters(self):
        case = bubble_case((24, 24))
        bcs = BoundarySet.all_periodic(2)
        serial = serial_march(case, bcs, n_steps=3, fixed_dt=2e-4)
        sim = Simulation(bubble_case((24, 24)), bcs, fixed_dt=2e-4,
                         validate_every=0, ranks=2)
        sim.run(n_steps=3)
        np.testing.assert_array_equal(sim.q, serial.q)
        assert sim.step_count == 3
        assert sim.time == serial.time
        assert len(sim.history) == 3
        assert sim.history[-1].step == 3
        assert sim.halo_counters is not None
        assert sim.halo_counters.messages > 0
        # Fixed dt: every rank already knows the step, nothing to reduce.
        assert sim.halo_counters.reductions == 0
        assert sim.rhs.sweep_counters.bytes_reconstructed_strided > 0

    def test_checkpoint_headers_use_driver_clock(self, tmp_path):
        # A second run() continues the driver's absolute clock: worker
        # checkpoints of the continuation must record the driver's
        # step/time, not cluster-local ones starting at zero.
        from repro.io.binary import read_snapshot

        bcs = BoundarySet.all_extrapolation(1)
        sim = Simulation(bubble_case((24,)), bcs, fixed_dt=2e-4,
                         validate_every=0, ranks=2,
                         checkpoint_every=2, checkpoint_dir=tmp_path)
        sim.run(n_steps=3)
        sim.run(n_steps=3)  # steps 4..6 — checkpoints at 4 and 6
        assert sim.step_count == 6
        assert [r.step for r in sim.history] == list(range(1, 7))
        steps = sorted(int(p.stem.split("_")[-1])
                       for p in tmp_path.glob("rank0000_*.bin"))
        assert steps == [4, 6]
        header, _ = read_snapshot(
            tmp_path / f"rank0000_{6:09d}.bin")
        assert header.step == 6
        assert header.time == sim.time
        serial = serial_march(bubble_case((24,)), bcs, n_steps=6,
                              fixed_dt=2e-4)
        np.testing.assert_array_equal(sim.q, serial.q)
        assert sim.time == serial.time

    def test_cluster_knobs_plumbed(self):
        # cluster_timeout/max_restarts reach the Simulation and are
        # validated there.
        case = bubble_case((16, 16))
        sim = Simulation(case, BoundarySet.all_periodic(2), ranks=2,
                         fixed_dt=2e-4, validate_every=0,
                         cluster_timeout=120.0, max_restarts=2)
        sim.run(n_steps=1)
        assert sim.step_count == 1
        for kwargs in ({"cluster_timeout": 0.0}, {"cluster_timeout": -1.0},
                       {"max_restarts": -1}):
            with pytest.raises(ConfigurationError):
                Simulation(bubble_case((16, 16)),
                           BoundarySet.all_periodic(2), ranks=2, **kwargs)

    def test_t_end_horizon_already_reached_is_noop(self):
        case = bubble_case((16, 16))
        sim = Simulation(case, BoundarySet.all_periodic(2), ranks=2)
        sim.run(t_end=0.0)
        assert sim.step_count == 0
        assert sim.halo_counters is None

    def test_step_rejected(self):
        sim = Simulation(bubble_case((16, 16)), BoundarySet.all_periodic(2),
                         ranks=2)
        with pytest.raises(ConfigurationError):
            sim.step()

    def test_callback_rejected(self):
        sim = Simulation(bubble_case((16, 16)), BoundarySet.all_periodic(2),
                         ranks=2)
        with pytest.raises(ConfigurationError):
            sim.run(n_steps=1, callback=lambda s, r: None)

    # The retry and fault_injector cases went with their REFUSALS rows:
    # TestRanksTakeTheSerialKnobs runs them bitwise against ranks=1.
    @pytest.mark.parametrize("kwargs", [
        {"ranks": 0},
        {"ranks": 2, "threads": 2},
        {"ranks": 2, "tuning": "auto"},
    ])
    def test_incompatible_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Simulation(bubble_case((16, 16)), BoundarySet.all_periodic(2),
                       **kwargs)


def _refusal_cases():
    """One construction that must trip each row of ``REFUSALS``."""
    case, bcs = bubble_case((16, 16)), BoundarySet.all_periodic(2)

    def sim(**kwargs):
        return lambda: Simulation(case, bcs, **kwargs)

    return {
        "checkpoint_every requires": sim(checkpoint_every=2),
        "threads > 1": sim(ranks=2, threads=2),
        "support tuning": sim(ranks=2, tuning="auto"),
        "per-step callbacks": lambda: Simulation(case, bcs, ranks=2).run(
            n_steps=1, callback=lambda sim, rec: None),
        "requires checkpointing": lambda: cluster_for(
            case, bcs, 2, fault=RankFault(rank=0, step=1)),
        "batched ensemble engine": lambda: EnsembleSimulation(
            [case], bcs, retry={"max_retries": 1}),
        "need a ledger": lambda: EnsembleService(
            [EnsembleJob(case, 1e-3)], bcs, checkpoint_every=2),
    }


class TestDeclaredRefusals:
    """Every knob combination no driver runs is one row of
    ``repro.solver.options.REFUSALS`` and is refused with its reason."""

    @pytest.mark.parametrize("row", range(7))
    def test_each_row_is_raised_with_its_reason(self, row):
        import re

        from repro.solver.options import REFUSALS

        assert len(REFUSALS) == 7  # a new row needs a case above
        reason = REFUSALS[row][1]
        (build,) = [b for fragment, b in _refusal_cases().items()
                    if fragment in reason]
        with pytest.raises(ConfigurationError, match=re.escape(reason)):
            build()

    def test_rank_run_refuses_what_the_serial_run_refuses(self):
        # Drift fixed: a rank worker used to divide cfl by the rate
        # without the serial path's range check.
        with pytest.raises(ConfigurationError, match="cfl"):
            Simulation(bubble_case((16, 16)), BoundarySet.all_periodic(2),
                       ranks=2, cfl=1.5)


class TestRanksTakeTheSerialKnobs:
    """The combinations the deleted ``REFUSALS`` rows refused — ``ranks >
    1`` × precision, × backend, × retry and × cell fault injector — run on
    the rank path bitwise equal to ``ranks=1``, with equal recovery
    tallies."""

    CASE, BCS = bubble_case((16, 16)), BoundarySet.all_periodic(2)

    def pair(self, ranks, n_steps=4, **knobs):
        one = Simulation(self.CASE, self.BCS, **knobs)
        one.run(n_steps=n_steps)
        many = Simulation(self.CASE, self.BCS, ranks=ranks, **knobs)
        many.run(n_steps=n_steps)
        assert to_host_array(many.q).dtype == to_host_array(one.q).dtype
        assert to_host_array(many.q).tobytes() == to_host_array(one.q).tobytes()
        assert [r.dt for r in many.history] == [r.dt for r in one.history]
        assert many.recovery.as_dict() == one.recovery.as_dict()
        return one, many

    # Was the row "ranks > 1 marches in float64 (cluster workers are not
    # precision-aware)".
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_float32(self, ranks):
        one, _ = self.pair(ranks, precision="float32")
        assert one.q.dtype == np.float32

    # Was the row "ranks > 1 marches on the numpy backend (cluster
    # workers are not backend-aware)"; a host leak would raise
    # BackendLeakError in a rank.
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_checked_backend(self, ranks):
        self.pair(ranks, backend="checked")

    # Was the rows "ranks > 1 does not support the rollback-retry guard"
    # and "... cell fault injectors": a persistent fault forces a same-dt
    # retry (attempts=1), a dt halving (2), then escalation to WENO3 (5)
    # and to first order (6); each rank strikes its block's share.
    @pytest.mark.parametrize("ranks", [2, 4])
    @pytest.mark.parametrize("attempts,retries,halvings,escalations", [
        (1, 1, 0, 0), (2, 2, 1, 0), (5, 5, 3, 1), (6, 6, 3, 2)])
    def test_retry_ladder_under_cell_faults(self, ranks, attempts, retries,
                                            halvings, escalations):
        from repro.faults import CellFaultPlan
        from repro.solver import RetryPolicy

        plan = CellFaultPlan(step=2, seed=7, ncells=3, attempts=attempts)
        _, many = self.pair(ranks, retry=RetryPolicy(), fault_injector=plan)
        rec = many.recovery
        assert (rec.retries, rec.dt_halvings, rec.escalations) == (
            retries, halvings, escalations)
        assert rec.faults_injected == 3 * attempts

    def test_exhausted_ladder_stops_every_rank(self):
        from repro.faults import CellFaultPlan
        from repro.solver import RetryPolicy

        plan = CellFaultPlan(step=2, seed=7, ncells=3, attempts=None)
        sim = Simulation(self.CASE, self.BCS, ranks=2, retry=RetryPolicy(),
                         fault_injector=plan)
        with pytest.raises(NumericsError) as err:
            sim.run(n_steps=4)
        for rank in (0, 1):
            assert f"rank {rank}: step 2 diverged" in str(err.value)
        assert live_children(os.getpid()) == {}

    def test_chaos_cell_fault_and_killed_rank_both_recover(self, tmp_path):
        from repro.faults import CellFaultPlan
        from repro.solver import RetryPolicy

        plan = CellFaultPlan(step=5, seed=3, ncells=2)
        serial = Simulation(self.CASE, self.BCS, retry=RetryPolicy(),
                            fault_injector=plan)
        serial.run(n_steps=6)
        pc = cluster_for(self.CASE, self.BCS, 2, retry=RetryPolicy(),
                         fault_injector=plan, checkpoint_every=2,
                         checkpoint_dir=tmp_path,
                         fault=RankFault(rank=1, step=3))
        result = pc.run(self.CASE.initial_conservative(), n_steps=6)
        assert result.q.tobytes() == serial.q.tobytes()
        assert result.recovery.restarts == 1
        assert result.recovery.retries == serial.recovery.retries == 1
        assert result.recovery.faults_injected == 2


class TestOneRankReply:
    """A rank answers with the substrate's one reply: its error crosses
    as its own class, classified once, and names global cells."""

    CASE, BCS = bubble_case((16, 16)), BoundarySet.all_periodic(2)

    def diverged(self, ranks, plan):
        from repro.solver import RetryPolicy, SimulationDivergedError

        sim = Simulation(self.CASE, self.BCS, ranks=ranks, fault_injector=plan,
                         retry=RetryPolicy(max_retries=0, same_dt_retries=0,
                                           escalation=()))
        with pytest.raises(SimulationDivergedError) as err:
            sim.run(n_steps=4)
        assert live_children(os.getpid()) == {}
        return err.value

    def test_a_struck_cell_is_named_by_its_global_index(self):
        from repro.faults import CellFaultPlan

        plan = CellFaultPlan(step=2, seed=3)
        serial = self.diverged(1, plan).diagnostics
        assert serial.cell[0] >= 8  # outside rank 0's block on two ranks
        for ranks in (2, 4):
            err = self.diverged(ranks, plan)
            assert err.diagnostics == serial, ranks
            assert f"at cell {serial.cell}" in str(err)

    def test_an_exhausted_ladder_raises_the_serial_class(self):
        from repro.faults import CellFaultPlan

        err = self.diverged(2, CellFaultPlan(step=2, seed=7, ncells=3,
                                             attempts=None))
        assert err.step == 2 and "rank 0: step 2 diverged" in str(err)

    def test_a_bug_in_a_rank_is_raised_not_restarted(self, tmp_path,
                                                     monkeypatch):
        class Hook:  # a duck-typed injector without the block= keyword
            def apply(self, q, *, step, attempt=0):
                return 0

        def no_restart(*args, **kwargs):
            raise AssertionError("restart entered")

        monkeypatch.setattr(CheckpointManager, "load_latest", no_restart)
        sim = Simulation(self.CASE, self.BCS, ranks=2, fault_injector=Hook(),
                         checkpoint_every=1, checkpoint_dir=tmp_path)
        with pytest.raises(TypeError, match=r"rank 0: .*'block'.*; rank 1:"):
            sim.run(n_steps=2)
        assert sim.recovery.restarts == 0
        assert live_children(os.getpid()) == {}

    def test_a_rank_that_raises_alone_stops_its_peers_at_once(self):
        class Hook:  # raises on the rank whose block is off the origin
            def apply(self, q, *, step, attempt=0, block=None):
                if block[1] != (0, 0):
                    raise RuntimeError("only here")
                return 0

        sim = Simulation(self.CASE, self.BCS, ranks=2, fault_injector=Hook(),
                         cluster_timeout=60.0)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 0: a peer rank stopped"
                           ".*; rank 1: only here") as err:
            sim.run(n_steps=2)
        assert time.monotonic() - began < 20.0  # not the halo timeout
        assert type(err.value) is RuntimeError


class TestCaseFileAndCLI:
    CASE = {
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [20, 20]},
        "fluids": [{"gamma": 1.4}, {"gamma": 1.667}],
        "patches": [
            {"geometry": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
             "alpha_rho": [1.0, 0.001], "velocity": [0.0, 0.0],
             "pressure": 1.0, "alpha": [0.999]},
            {"geometry": {"kind": "sphere", "center": [0.4, 0.5],
                          "radius": 0.15},
             "alpha_rho": [0.001, 0.2], "velocity": [0.0, 0.0],
             "pressure": 1.5, "alpha": [0.001], "smear": 0.01},
        ],
    }

    def test_solver_ranks_parsed(self):
        from repro.io.case_files import solver_options_from_dict

        spec = dict(self.CASE, solver={"ranks": 3})
        assert solver_options_from_dict(spec) == {"ranks": 3}

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2"])
    def test_solver_ranks_invalid(self, bad):
        from repro.io.case_files import solver_options_from_dict

        with pytest.raises(ConfigurationError):
            solver_options_from_dict(dict(self.CASE, solver={"ranks": bad}))

    def test_solver_cluster_knobs_parsed(self):
        from repro.io.case_files import solver_options_from_dict

        spec = dict(self.CASE, solver={"ranks": 2, "cluster_timeout": 120,
                                       "max_restarts": 2})
        assert solver_options_from_dict(spec) == {
            "ranks": 2, "cluster_timeout": 120.0, "max_restarts": 2}

    @pytest.mark.parametrize("solver", [
        {"cluster_timeout": 0},
        {"cluster_timeout": -5.0},
        {"cluster_timeout": "30"},
        {"cluster_timeout": True},
        {"max_restarts": -1},
        {"max_restarts": 1.5},
        {"max_restarts": True},
    ])
    def test_solver_cluster_knobs_invalid(self, solver):
        from repro.io.case_files import solver_options_from_dict

        with pytest.raises(ConfigurationError):
            solver_options_from_dict(dict(self.CASE, solver=solver))

    def test_cli_ranks_bit_identical_snapshot(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.io.binary import read_snapshot

        case_path = tmp_path / "case.json"
        case_path.write_text(json.dumps(self.CASE))
        serial_snap = tmp_path / "serial.bin"
        ranks_snap = tmp_path / "ranks.bin"
        assert main(["run", str(case_path), "--steps", "2",
                     "--snapshot", str(serial_snap)]) == 0
        assert main(["run", str(case_path), "--steps", "2", "--ranks", "2",
                     "--cluster-timeout", "60", "--max-restarts", "2",
                     "--snapshot", str(ranks_snap)]) == 0
        out = capsys.readouterr().out
        assert "2 ranks" in out
        assert "halo:" in out
        assert "rank 0: faces evaluated" in out
        assert "rank 1: faces evaluated" in out
        _, q_serial = read_snapshot(serial_snap)
        _, q_ranks = read_snapshot(ranks_snap)
        np.testing.assert_array_equal(q_ranks, q_serial)


    def test_cli_ranks_report_merged_recovery(self, tmp_path, capsys):
        # Each rank writes its own checkpoints; the summary counts them all.
        from repro.__main__ import main

        case = str(Path(__file__).resolve().parents[1] / "examples" / "cases"
                   / "shock_bubble_cluster.json")
        for ranks in (1, 2):
            assert main(["run", case, "--steps", "6", "--ranks", str(ranks),
                         "--checkpoint-every", "2", "--checkpoint-dir",
                         str(tmp_path / f"r{ranks}")]) == 0
            out = capsys.readouterr().out
            assert f"checkpoints: {3 * ranks} written" in out
        assert len(list((tmp_path / "r2").glob("rank000*_*.bin"))) == 6


class TestProfileHaloReport:
    def test_report_includes_halo_summary(self):
        prof = Profile(device_name="host")
        prof.record("weno", "weno", 1e-3)
        halo = HaloCounters(messages=12, bytes_exchanged=4096, posts=12,
                            waits=3, wait_ns=1_000_000, reductions=4)
        prof.halo = halo
        assert halo.summary() in prof.report()
