"""Property-based tests for the cluster substrate: random decompositions,
random fields, random BCs — a rank team on the shared-memory transport
must always agree with the serial RHS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BC, BoundarySet
from repro.cluster import BlockDecomposition, ShmArena
from repro.cluster.mpi_sim import NetworkModel, allreduce_time
from repro.cluster.topology import FRONTIER
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import RHS, Case
from repro.state import StateLayout
from tests.test_tiles import rank_team, team_rhs

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


@st.composite
def decomp_1d(draw):
    nranks = draw(st.integers(1, 6))
    cells = draw(st.integers(max(nranks * 3, 12), 48))
    periodic = draw(st.booleans())
    return cells, nranks, periodic


class TestHaloProperty:
    @given(decomp_1d(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_distributed_rhs_equals_serial_rhs(self, cfg, seed):
        cells, nranks, periodic = cfg
        rng = np.random.default_rng(seed)
        lay = StateLayout(2, 1)
        grid = StructuredGrid.uniform(((0.0, 1.0),), (cells,))
        bcs = (BoundarySet.all_periodic(1) if periodic
               else BoundarySet.all_extrapolation(1))

        prim = np.empty((lay.nvars, cells), dtype=DTYPE)
        prim[lay.partial_densities] = rng.uniform(0.2, 1.0, (2, cells))
        prim[lay.velocity] = rng.uniform(-0.5, 0.5, (1, cells))
        prim[lay.pressure] = rng.uniform(0.5, 2.0, cells)
        prim[lay.advected] = rng.uniform(0.2, 0.8, (1, cells))
        from repro.state import prim_to_cons

        q = prim_to_cons(lay, MIX, prim)

        serial = RHS(lay, MIX, grid, bcs)(q)
        arena, ranks = rank_team(Case(grid, MIX), bcs, (nranks,))
        np.testing.assert_array_equal(team_rhs(arena, ranks, q), serial)

    @given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_split_gather_identity_2d(self, rx, ry, seed):
        lay = StateLayout(2, 2)
        cells = (rx * 5, ry * 4)
        arena = ShmArena(BlockDecomposition(cells, (rx, ry)), lay.nvars, 3)
        rng = np.random.default_rng(seed)
        field = rng.random((lay.nvars, *cells))
        arena.scatter(field)
        np.testing.assert_array_equal(arena.gather(), field)

    @given(st.integers(1, 512))
    @settings(max_examples=30)
    def test_every_rank_block_positive(self, nranks):
        cells = (600, 600, 600)  # larger than any prime factor of <= 512
        decomp = BlockDecomposition.balanced(cells, nranks)
        for r in (0, nranks // 2, nranks - 1):
            local = decomp.local_cells(r)
            assert all(c >= 1 for c in local)


@st.composite
def weighed_grid(draw):
    """Global cells, rank count, periodicity, ghost width and a state of
    random uniform runs (so the candidates' predictions differ)."""
    ndim = draw(st.integers(1, 3))
    nranks = draw(st.integers(1, 8))
    cells = tuple(draw(st.lists(st.integers(nranks, 24), min_size=ndim,
                                max_size=ndim)))
    periodic = tuple(draw(st.lists(st.booleans(), min_size=ndim,
                                   max_size=ndim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    state = rng.integers(0, 2, (2, *cells)).astype(DTYPE)
    return cells, nranks, periodic, draw(st.integers(1, 3)), state


class TestWorkBalancedGridProperty:
    @given(weighed_grid())
    @settings(max_examples=60, deadline=None)
    def test_every_candidate_moves_the_default_halo_traffic(self, cfg):
        # The e2e harness reconciles a run's halo messages against
        # balanced()'s grid, whichever candidate the run marched.
        cells, nranks, periodic, ng, state = cfg
        default = BlockDecomposition.balanced(cells, nranks, periodic)
        chosen = BlockDecomposition.balanced(cells, nranks, periodic,
                                             state=state, ng=ng)
        assert sorted(chosen.rank_grid) == sorted(default.rank_grid)
        grids = {chosen.rank_grid, *(grid for grid, _ in chosen.predicted)}
        for grid in grids:
            decomp = BlockDecomposition(cells, grid, periodic)
            assert decomp.total_messages() == default.total_messages()
            assert decomp.total_halo_bytes(ng, 2) == \
                default.total_halo_bytes(ng, 2)
        if chosen.predicted:
            predicted = dict(chosen.predicted)
            assert predicted[chosen.rank_grid] == min(predicted.values())


class TestAllreduce:
    def test_single_rank_free(self):
        net = NetworkModel.of(FRONTIER)
        assert allreduce_time(net, 1) == 0.0

    def test_logarithmic_growth(self):
        net = NetworkModel.of(FRONTIER)
        t256 = allreduce_time(net, 256)
        t65536 = allreduce_time(net, 65536)
        # 8 doublings more -> cost grows by exactly 16/8 hops ratio.
        assert t65536 / t256 == pytest.approx(2.0, rel=1e-9)

    def test_microseconds_at_machine_scale(self):
        # Paper §IV-B: "no significant collective communication".
        net = NetworkModel.of(FRONTIER)
        assert allreduce_time(net, 65536) < 200e-6

    def test_invalid_ranks(self):
        net = NetworkModel.of(FRONTIER)
        with pytest.raises(ConfigurationError):
            allreduce_time(net, 0)
