"""Tests for decomposition, halo exchange, comm/I-O models, and scaling.

Decomposed runs go through the ranks' one transport: multi-step runs
through ``ProcessCluster`` (forked ranks), single RHS evaluations
through an in-process team (``tests/test_tiles.py::rank_team``) whose
ranks share one ``ShmArena``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BC, BoundarySet
from repro.cluster import (
    BlockDecomposition,
    FRONTIER,
    IOModel,
    CommModel,
    NetworkModel,
    ProcessCluster,
    ScalingDriver,
    ShmArena,
    SUMMIT,
    factor3d,
)
from repro.cluster.halo import boundary_strip, ghost_strip
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHSConfig, Simulation, box, sphere
from repro.state import StateLayout
from tests.test_tiles import rank_team, team_call, team_rhs

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


class TestFactor3D:
    def test_perfect_cube(self):
        assert factor3d(64) == (4, 4, 4)

    def test_powers_of_two(self):
        assert factor3d(128) == (8, 4, 4)
        assert factor3d(2048) == (16, 16, 8)

    def test_one_rank(self):
        assert factor3d(1) == (1, 1, 1)

    def test_prime(self):
        assert factor3d(7) == (7, 1, 1)

    def test_2d(self):
        assert factor3d(12, ndim=2) == (4, 3)

    def test_product_preserved(self):
        for n in (6, 30, 128, 360, 1024):
            dims = factor3d(n)
            assert np.prod(dims) == n

    @given(st.integers(1, 10000))
    @settings(max_examples=50)
    def test_product_always_preserved(self, n):
        assert int(np.prod(factor3d(n))) == n

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            factor3d(0)


class TestBlockDecomposition:
    def test_local_cells_sum_to_global(self):
        d = BlockDecomposition((10, 7), (3, 2), (False, False))
        total = sum(int(np.prod(d.local_cells(r))) for r in range(d.nranks))
        assert total == 70

    def test_local_slices_tile_domain(self):
        d = BlockDecomposition((9,), (3,), (False,))
        covered = []
        for r in range(3):
            s = d.local_slices(r)[0]
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(9))

    def test_rank_coords_roundtrip(self):
        d = BlockDecomposition((8, 8, 8), (2, 2, 2))
        for r in range(8):
            assert d.coords_rank(d.rank_coords(r)) == r

    def test_neighbors_interior(self):
        d = BlockDecomposition((8, 8), (4, 2), (False, False))
        r = d.coords_rank((1, 0))
        assert d.neighbor(r, 0, -1) == d.coords_rank((0, 0))
        assert d.neighbor(r, 0, 1) == d.coords_rank((2, 0))

    def test_neighbors_at_wall(self):
        d = BlockDecomposition((8,), (4,), (False,))
        assert d.neighbor(0, 0, -1) is None
        assert d.neighbor(3, 0, 1) is None

    def test_periodic_wraps(self):
        d = BlockDecomposition((8,), (4,), (True,))
        assert d.neighbor(0, 0, -1) == 3
        assert d.neighbor(3, 0, 1) == 0

    def test_blocks_beat_slabs_on_surface_to_volume(self):
        # The paper's §III-A rationale for 3D blocks.
        cells = (128, 128, 128)
        blocks = BlockDecomposition.balanced(cells, 64)
        slabs = BlockDecomposition.slabs(cells, 64)
        pencils = BlockDecomposition.pencils(cells, 64)
        r = blocks.coords_rank(tuple(g // 2 for g in blocks.rank_grid))
        sv_block = blocks.surface_to_volume(r, ng=3)
        rs = slabs.coords_rank(tuple(g // 2 for g in slabs.rank_grid))
        sv_slab = slabs.surface_to_volume(rs, ng=3)
        rp = pencils.coords_rank(tuple(g // 2 for g in pencils.rank_grid))
        sv_pencil = pencils.surface_to_volume(rp, ng=3)
        assert sv_block < sv_pencil < sv_slab

    def test_cannot_oversplit(self):
        with pytest.raises(ConfigurationError):
            BlockDecomposition((4,), (8,), (False,))

    def test_max_halo_bytes_upper_bounds_actual(self):
        d = BlockDecomposition((16, 16, 16), (2, 2, 2))
        bound = d.max_halo_bytes(ng=3, nvars=7)
        actual = max(d.halo_cells(r, 3) for r in range(8)) * 7 * 8
        assert bound >= actual


class TestPackUnpack:
    def test_roundtrip(self):
        # A block's low boundary strip is its low neighbour's high
        # ghost layer: the transport's pack and unpack.
        lay = StateLayout(2, 1)
        rng = np.random.default_rng(0)
        block = rng.random((lay.nvars, 8))
        padded = np.zeros((lay.nvars, 14))
        ghost_strip(padded, 0, 3, 1)[...] = boundary_strip(block, 0, 3, -1)
        np.testing.assert_array_equal(padded[:, -3:], block[:, :3])
        np.testing.assert_array_equal(padded[:, :-3], 0.0)


def sod_like_setup(n=48, ndim=1):
    shape = (n,) * ndim
    bounds = tuple((0.0, 1.0) for _ in range(ndim))
    grid = StructuredGrid.uniform(bounds, shape)
    case = Case(grid, MIX)
    case.add(Patch(box([0.0] * ndim, [1.0] * ndim), (0.5, 0.5),
                   (0.0,) * ndim, 1.0, (0.5,)))
    case.add(Patch(sphere([0.4] * ndim, 0.2), (1.0, 1.0),
                   (0.0,) * ndim, 2.0, (0.5,)))
    return case


class TestDistributedEqualsSerial:
    @pytest.mark.parametrize("nranks,ndim,bc_factory", [
        (4, 1, BoundarySet.all_extrapolation),
        (3, 1, BoundarySet.all_reflective),
        (2, 1, BoundarySet.all_periodic),
        (4, 2, BoundarySet.all_extrapolation),
        (4, 2, BoundarySet.all_periodic),
    ])
    def test_bitwise_identical(self, nranks, ndim, bc_factory):
        case = sod_like_setup(24 if ndim == 2 else 48, ndim)
        bcs = bc_factory(ndim)
        sim = Simulation(case, bcs, fixed_dt=5e-4, validate_every=0)
        q0 = sim.q.copy()
        for _ in range(4):
            sim.step()

        periodic = tuple(b[0] is BC.PERIODIC for b in bcs.per_axis)
        decomp = BlockDecomposition.balanced(case.grid.shape, nranks,
                                             periodic=periodic)
        pc = ProcessCluster(case.grid, case.layout, MIX, bcs, decomp,
                            RHSConfig(), fixed_dt=5e-4, validate_every=0)
        np.testing.assert_array_equal(pc.run(q0, n_steps=4).q, sim.q)

    def test_halo_byte_accounting(self):
        case = sod_like_setup(48, 1)
        bcs = BoundarySet.all_extrapolation(1)
        decomp = BlockDecomposition((48,), (4,), (False,))
        pc = ProcessCluster(case.grid, case.layout, MIX, bcs, decomp,
                            RHSConfig(), fixed_dt=5e-4)
        halo = pc.run(case.initial_conservative(), n_steps=1).halo
        # 3 interior faces x 2 directions x 3 RK stages x 1 axis sweep.
        assert halo.messages == 3 * 2 * 3
        assert halo.bytes_exchanged == halo.messages * 3 * case.layout.nvars * 8

    def test_split_gather_roundtrip(self):
        lay = StateLayout(2, 2)
        decomp = BlockDecomposition((12, 8), (3, 2))
        arena = ShmArena(decomp, lay.nvars, 3)
        rng = np.random.default_rng(5)
        field = rng.random((lay.nvars, 12, 8))
        arena.scatter(field)
        np.testing.assert_array_equal(arena.gather(), field)

    def test_periodicity_mismatch_rejected(self):
        case = sod_like_setup(8, 1)
        decomp = BlockDecomposition((8,), (2,), (False,))
        with pytest.raises(ConfigurationError, match="periodicity"):
            ProcessCluster(case.grid, case.layout, MIX,
                           BoundarySet.all_periodic(1), decomp, RHSConfig())


class TestModelMeasuredReconciliation:
    """The analytic comm model must bill exactly what the transport does."""

    @pytest.mark.parametrize("shape,rank_grid,periodic", [
        ((48,), (4,), (False,)),
        ((48,), (2,), (True,)),
        ((24, 24), (2, 1), (False, False)),   # undecomposed axis: no messages
        ((24, 24), (2, 2), (False, True)),
        ((12, 12, 12), (2, 2, 1), (False, False, False)),
    ])
    def test_modeled_counts_equal_measured(self, shape, rank_grid, periodic):
        from repro.weno import halo_width

        ndim = len(shape)
        grid = StructuredGrid.uniform(tuple((0.0, 1.0) for _ in shape), shape)
        case = Case(grid, MIX)
        case.add(Patch(box([0.0] * ndim, [1.0] * ndim), (0.5, 0.5),
                       (0.0,) * ndim, 1.0, (0.5,)))
        bcs = BoundarySet(tuple(
            (BC.PERIODIC, BC.PERIODIC) if p
            else (BC.EXTRAPOLATION, BC.EXTRAPOLATION) for p in periodic))
        decomp = BlockDecomposition(shape, rank_grid, periodic)
        arena, ranks = rank_team(case, bcs, rank_grid)
        ng = halo_width(RHSConfig().weno_order)
        q = case.initial_conservative()
        for evaluation in range(1, 4):  # one SSP-RK3 step's evaluations
            team_rhs(arena, ranks, q)
            counters = [rank.transport.counters for rank in ranks]
            assert sum(c.messages for c in counters) == \
                decomp.total_messages() * evaluation
            assert sum(c.bytes_exchanged for c in counters) == \
                decomp.total_halo_bytes(ng, case.layout.nvars) * evaluation

    def test_undecomposed_axis_billed_zero_by_model(self):
        # The satellite-1 regression in model terms: a (2, 1) rank grid
        # must be billed less than the flat two-messages-per-axis
        # worst case the model used to charge.
        comm = CommModel(SUMMIT)
        decomp = BlockDecomposition((24, 24), (2, 1), (False, False))
        charged = comm.halo_exchange_time(
            local_cells=(12, 24), ng=3, nvars=6,
            sides_per_axis=decomp.max_neighbors_per_axis())
        flat = comm.halo_exchange_time(local_cells=(12, 24), ng=3, nvars=6)
        assert charged < flat

    def test_one_sided_periodic_rejected_naming_axis(self):
        # A malformed BoundarySet (frozen-dataclass validation
        # bypassed, as a hand-built config could) must be rejected by
        # the cluster naming the axis, not half-wrapped.
        from repro.cluster import validate_periodicity

        bcs = BoundarySet.all_extrapolation(2)
        object.__setattr__(bcs, "per_axis",
                           ((BC.EXTRAPOLATION, BC.EXTRAPOLATION),
                            (BC.PERIODIC, BC.EXTRAPOLATION)))
        decomp = BlockDecomposition((8, 8), (2, 2), (False, True))
        with pytest.raises(ConfigurationError, match="axis 1"):
            validate_periodicity(decomp, bcs)
        case = sod_like_setup(8, 2)
        with pytest.raises(ConfigurationError, match="axis 1"):
            ProcessCluster(case.grid, case.layout, MIX, bcs, decomp,
                           RHSConfig())


class TestDistributedAllocationBudget:
    """A team evaluation reuses every rank's workspace buffers."""

    def _team(self):
        case = sod_like_setup(24, 2)
        arena, ranks = rank_team(case, BoundarySet.all_extrapolation(2),
                                 (2, 1))
        q0 = case.initial_conservative()
        arena.scatter(q0)
        return (lambda: team_call(arena, ranks)), ranks, q0

    def test_returns_same_buffers_every_call(self):
        evaluate, ranks, _ = self._team()
        first = evaluate()
        second = evaluate()
        for rank, a, b in zip(ranks, first, second):
            assert a is b is rank.workspace.dqdt

    def test_steady_state_rhs_stays_under_budget(self):
        from repro.profiling import measure_call_allocations

        evaluate, _, q0 = self._team()
        stats = measure_call_allocations(evaluate, warmup=2, repeats=3)
        # Same budget shape as the serial workspace test: transients
        # stay under a few fields (kernel temporaries), and nothing
        # leaks a field per call.
        assert stats.min_transient_bytes < 4 * q0.nbytes
        assert stats.net_bytes < q0.nbytes


class TestCommModel:
    def test_message_time_monotone_in_size(self):
        net = NetworkModel.of(FRONTIER)
        assert net.message_time(1e6) < net.message_time(1e7)

    def test_latency_floor(self):
        net = NetworkModel.of(FRONTIER)
        assert net.message_time(0) == pytest.approx(FRONTIER.mpi_latency_us * 1e-6)

    def test_allreduce_pays_contention_at_scale(self):
        # Satellite 2: the dt allreduce rides the same congested
        # network as the halo messages, so beyond the contention
        # threshold it must cost more per hop, not stay at the
        # uncontended price.
        from repro.cluster.mpi_sim import allreduce_time

        import math

        net = NetworkModel.of(FRONTIER)
        nranks, nbytes = 4096, 8.0
        assert net.contention(4096) > 1.0
        contended = allreduce_time(net, nranks, nbytes, nnodes=4096)
        flat = allreduce_time(net, nranks, nbytes, nnodes=1)
        assert contended > flat
        # Contention inflates exactly the bandwidth term of every hop.
        hops = 2 * math.ceil(math.log2(nranks))
        assert contended - flat == pytest.approx(
            hops * nbytes / (net.bandwidth_gbps * 1e9)
            * (net.contention(4096) - 1.0))

    def test_contention_unity_below_threshold(self):
        net = NetworkModel.of(FRONTIER)
        assert net.contention(16) == 1.0
        assert net.contention(8192) > 1.0

    def test_staged_slower_than_gpu_aware(self):
        ga = CommModel(FRONTIER, gpu_aware=True)
        st_ = CommModel(FRONTIER, gpu_aware=False)
        assert st_.sendrecv_time(1e7) > ga.sendrecv_time(1e7)

    def test_halo_time_grows_with_block_surface(self):
        cm = CommModel(FRONTIER)
        small = cm.halo_exchange_time(local_cells=(64, 64, 64), ng=3, nvars=7)
        large = cm.halo_exchange_time(local_cells=(128, 128, 128), ng=3, nvars=7)
        assert large > small


class TestIOModel:
    def test_shared_file_superlinear(self):
        io = IOModel()
        per_rank = 1e6
        t1 = io.shared_file_time(1024, per_rank)
        t2 = io.shared_file_time(2048, per_rank)
        assert t2 > 2.0 * t1 * 0.9  # superlinear-ish growth

    def test_fpp_scales_linearly(self):
        io = IOModel()
        per_rank = 1e6
        t1 = io.file_per_process_time(1024, per_rank)
        t2 = io.file_per_process_time(2048, per_rank)
        assert t2 < 2.5 * t1

    def test_fpp_wins_at_scale(self):
        # The paper's 65,536-GCD observation.
        io = IOModel()
        per_rank = 32e6 * 7 * 8 / 1000  # 1/1000th of state per snapshot
        assert io.file_per_process_time(65536, per_rank) < \
            io.shared_file_time(65536, per_rank)

    def test_crossover_exists(self):
        io = IOModel()
        n = io.crossover_ranks(1e6)
        assert 2 <= n <= 1 << 20

    def test_wave_count_effect(self):
        io_small_waves = IOModel(wave_size=16)
        io_big_waves = IOModel(wave_size=1024)
        assert io_small_waves.file_per_process_time(4096, 1e6) > \
            io_big_waves.file_per_process_time(4096, 1e6)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            IOModel(wave_size=0)
        with pytest.raises(ConfigurationError):
            IOModel().shared_file_time(0, 1e6)


class TestScalingDriver:
    def test_weak_scaling_near_unity(self):
        drv = ScalingDriver(FRONTIER)
        eff = drv.weak_efficiency(drv.weak_scaling(32_000_000, [128, 1024, 65536]))
        assert eff[0] == 1.0
        assert all(0.9 < e <= 1.001 for e in eff)

    def test_weak_efficiency_decreases(self):
        drv = ScalingDriver(FRONTIER)
        eff = drv.weak_efficiency(drv.weak_scaling(32_000_000, [128, 8192, 65536]))
        assert eff[2] <= eff[1] <= eff[0] + 1e-9

    def test_strong_efficiency_decreases(self):
        drv = ScalingDriver(FRONTIER, gpu_aware=False)
        eff = drv.strong_efficiency(drv.strong_scaling(32e6 * 128,
                                                       [128, 512, 2048]))
        assert eff[0] == 1.0
        assert eff[2] < eff[1] < 1.0

    def test_gpu_aware_improves_strong_scaling(self):
        pts_ga = ScalingDriver(FRONTIER, gpu_aware=True)
        pts_st = ScalingDriver(FRONTIER, gpu_aware=False)
        e_ga = pts_ga.strong_efficiency(pts_ga.strong_scaling(32e6 * 128, [128, 2048]))
        e_st = pts_st.strong_efficiency(pts_st.strong_scaling(32e6 * 128, [128, 2048]))
        assert e_ga[1] > e_st[1]

    def test_smaller_problem_scales_worse(self):
        drv = ScalingDriver(FRONTIER, gpu_aware=False)
        big = drv.strong_efficiency(drv.strong_scaling(32e6 * 128, [128, 2048]))
        small = drv.strong_efficiency(drv.strong_scaling(16e6 * 128, [128, 2048]))
        assert small[1] < big[1]

    def test_empty_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ScalingDriver(SUMMIT).weak_scaling(1_000_000, [])

    def test_machine_fraction(self):
        assert FRONTIER.fraction_of_machine(65536) == pytest.approx(0.87, abs=0.01)
        assert SUMMIT.fraction_of_machine(13824) == pytest.approx(0.50, abs=0.01)
