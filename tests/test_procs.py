"""Multi-process executor tests: shared-memory halos, bit-identity,
rank-fault restart, and the ``ranks`` wiring through Simulation/CLI.

The load-bearing invariant mirrors ``test_cluster.py``'s in-process
one, now across real OS processes: a ``ProcessCluster`` run — one
forked worker per rank, halos through shared-memory mailboxes, dt
reduced in rank order — is **bit-identical** to the serial
``Simulation`` march, for any rank count, WENO order, Riemann solver,
sweep layout, and uneven split (property-tested), and stays so after a
rank is killed mid-run and the team restarts from the newest common
checkpoint.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BoundarySet
from repro.cluster import (
    BlockDecomposition,
    HaloExchanger,
    ProcessCluster,
    RankFault,
    RankSolver,
    SharedMemoryTransport,
    ShmArena,
)
from repro.common import ClusterError, ConfigurationError, NumericsError
from repro.ensemble import EnsembleSimulation
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.profiling import HaloCounters, Profile
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, sphere

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
    sim = Simulation(case, bcs, check_every=0, **kwargs)
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
           layout=st.sampled_from(["strided", "transposed", "auto"]),
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
        # 13 cells over two ranks are blocks of 2 ng + 1 and 2 ng: the
        # ghost-free face span a split sweep runs before the exchange
        # is two faces on one rank and one on the other.
        case = bubble_case((13, 13))
        bcs = BoundarySet.all_extrapolation(2)
        sim = serial_march(case, bcs, n_steps=2, fixed_dt=2e-4)
        split, bulk = (
            ProcessCluster(case.grid, case.layout, MIX, bcs,
                           BlockDecomposition((13, 13), rank_grid),
                           RHSConfig(), fixed_dt=2e-4, overlap=overlap
                           ).run(case.initial_conservative(), n_steps=2)
            for overlap in (True, False))
        np.testing.assert_array_equal(split.q, sim.q)
        np.testing.assert_array_equal(bulk.q, sim.q)
        assert split.sweep.as_dict() == bulk.sweep.as_dict()

    def test_overlap_off_identical(self):
        case = bubble_case((24, 24))
        bcs = BoundarySet.all_periodic(2)
        q0 = case.initial_conservative()
        on = cluster_for(case, bcs, 4, fixed_dt=2e-4, overlap=True)
        off = cluster_for(case, bcs, 4, fixed_dt=2e-4, overlap=False)
        np.testing.assert_array_equal(on.run(q0, n_steps=2).q,
                                      off.run(q0, n_steps=2).q)


class TestRankSolverIsTheSerialSweep:
    """A 1-rank ``RankSolver`` runs the same sweep body as ``RHS`` with
    the ghost hook and the face-span split as its only parameters, so
    the two agree on every observable: bytes, limiter count, counters."""

    @pytest.mark.parametrize("layout,fusion,periodic", [
        ("strided", "off", True),      # self-exchange: split face spans
        ("strided", "off", False),     # walls only: bulk span
        ("transposed", "off", True),
        ("transposed", "off", False),
        ("strided", "on", False),      # bulk sweeps fuse (pack=False)
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
        halo = HaloExchanger(decomp, case.layout, bcs, 3)
        rank = RankSolver(decomp, 0, case.layout, MIX, bcs, config,
                          case.grid, halo, sweep_layout=layout,
                          fusion=fusion)
        # A rank takes the heuristic tile count, one tile on a block
        # this small (tests/test_tiles.py pins it higher); pin the
        # serial fused RHS to the same count so the launch counters are
        # comparable on any host's cache size.
        rhs = RHS(case.layout, MIX, case.grid, bcs, config,
                  sweep_layout=layout, fusion=fusion,
                  tiles=1 if fusion == "on" else None)
        q = case.initial_conservative()
        assert rank.rhs(q).tobytes() == rhs(q).tobytes()
        assert rank.limited_faces == rhs.limited_faces
        assert rank.sweep_counters.as_dict() == rhs.sweep_counters.as_dict()
        assert (rhs.sweep_counters.fused_launches > 0) == (fusion == "on")


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
        assert result.restarts == 1

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
        # checkpointing disabled must surface as a ClusterError, not a
        # TypeError from CheckpointManager(None, ...).
        import repro.cluster.procs as procs

        def crash(*args, **kwargs):
            raise RuntimeError("rank crashed")

        case = bubble_case((32,))
        bcs = BoundarySet.all_extrapolation(1)
        pc = cluster_for(case, bcs, 2, cfl=0.5)
        monkeypatch.setattr(procs, "time_step", crash)  # forked workers die
        with pytest.raises(ClusterError, match="checkpoint"):
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
        assert result.restarts == 1
        assert result.step_count == 6
        np.testing.assert_array_equal(result.q, serial.q)


class TestShmArena:
    def test_red_width_sizes_reduction_slots(self):
        decomp = BlockDecomposition.balanced((10, 8), 2)
        arena = ShmArena(decomp, nvars=3, ng=2, red_width=4)
        assert arena.red_width == 4
        assert arena.view("slots").shape == (2, 4)
        default = ShmArena(decomp, nvars=3, ng=2)
        assert default.view("slots").shape == (2, 1)

    def test_red_width_validated(self):
        decomp = BlockDecomposition.balanced((10, 8), 2)
        for bad in (0, -1, 2.0, True):
            with pytest.raises(ConfigurationError):
                ShmArena(decomp, nvars=3, ng=2, red_width=bad)

    def test_vector_reduce_max_round_trip(self):
        # An ensemble carries a per-case dt vector through one
        # reduction round; the result must be the elementwise max
        # over ranks, identical on every rank.
        decomp = BlockDecomposition.balanced((16,), 2)
        arena = ShmArena(decomp, nvars=3, ng=2, red_width=3)
        t0 = SharedMemoryTransport(arena, 0, timeout=5.0)
        t1 = SharedMemoryTransport(arena, 1, timeout=5.0)
        t0.reduce_max_begin(np.array([1.0, 5.0, 2.0]))
        t1.reduce_max_begin(np.array([4.0, 0.5, 2.5]))
        r0 = t0.reduce_max_finish()
        r1 = t1.reduce_max_finish()
        np.testing.assert_array_equal(r0, [4.0, 5.0, 2.5])
        np.testing.assert_array_equal(r1, r0)

    def test_scalar_broadcast_into_vector_slots(self):
        # A scalar contribution (e.g. a rank with no ensemble payload)
        # broadcasts across the slot row.
        decomp = BlockDecomposition.balanced((16,), 2)
        arena = ShmArena(decomp, nvars=3, ng=2, red_width=2)
        t0 = SharedMemoryTransport(arena, 0, timeout=5.0)
        t1 = SharedMemoryTransport(arena, 1, timeout=5.0)
        t0.reduce_max_begin(3.0)
        t1.reduce_max_begin(np.array([1.0, 7.0]))
        np.testing.assert_array_equal(t0.reduce_max_finish(),
                                      [3.0, 7.0])
        np.testing.assert_array_equal(t1.reduce_max_finish(),
                                      [3.0, 7.0])

    def test_width_one_still_returns_float(self):
        # The historical scalar contract: width-1 arenas return a bare
        # float, so existing cluster dt logic is untouched.
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
                         check_every=0, ranks=2)
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
                         check_every=0, ranks=2,
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
                         fixed_dt=2e-4, check_every=0,
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

    @pytest.mark.parametrize("kwargs", [
        {"ranks": 0},
        {"ranks": 2, "threads": 2},
        {"ranks": 2, "retry": {"max_retries": 1}},
        {"ranks": 2, "tuning": "auto"},
        {"ranks": 2, "fault_injector": object()},
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
        "marches in float64": sim(ranks=2, precision="float32"),
        "numpy backend": sim(ranks=2, backend="checked"),
        "rollback-retry guard": sim(ranks=2, retry={"max_retries": 1}),
        "support tuning": sim(ranks=2, tuning="auto"),
        "cell fault injectors": sim(ranks=2, fault_injector=object()),
        "per-step callbacks": lambda: Simulation(case, bcs, ranks=2).run(
            n_steps=1, callback=lambda sim, rec: None),
        "requires checkpointing": lambda: cluster_for(
            case, bcs, 2, fault=RankFault(rank=0, step=1)),
        "batched ensemble engine": lambda: EnsembleSimulation(
            [case], bcs, validate_every=2),
    }


class TestDeclaredRefusals:
    """Every knob combination no driver runs is one row of
    ``repro.solver.options.REFUSALS`` and is refused with its reason."""

    @pytest.mark.parametrize("row", range(10))
    def test_each_row_is_raised_with_its_reason(self, row):
        import re

        from repro.solver.options import REFUSALS

        assert len(REFUSALS) == 10  # a new row needs a case above
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
        _, q_serial = read_snapshot(serial_snap)
        _, q_ranks = read_snapshot(ranks_snap)
        np.testing.assert_array_equal(q_ranks, q_serial)


class TestProfileHaloReport:
    def test_report_includes_halo_summary(self):
        prof = Profile(device_name="host")
        prof.record("weno", "weno", 1e-3)
        halo = HaloCounters(messages=12, bytes_exchanged=4096, posts=12,
                            waits=3, wait_ns=1_000_000, reductions=4)
        prof.halo = halo
        assert halo.summary() in prof.report()
