"""Host-side benchmarks of the remaining substrates: the halo
transport's post/fill, FFT filtering, conversions, boundary fills, and
the IBM build.

These keep every hot path of the functional layer under
pytest-benchmark regression tracking.
"""

import numpy as np
import pytest

from repro.bc import BC, fill_axis_ghosts, pad_axis
from repro.cluster import BlockDecomposition, SharedMemoryTransport, ShmArena
from repro.cluster.halo import ghost_strip
from repro.eos import Mixture, StiffenedGas
from repro.fftfilter import FFTFilterPlan
from repro.grid import CylindricalGrid, StructuredGrid
from repro.ib import Circle, ImmersedBoundary
from repro.state import StateLayout, cons_to_prim, prim_to_cons

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


@pytest.fixture(scope="module")
def field3d():
    rng = np.random.default_rng(0)
    lay = StateLayout(2, 3)
    prim = np.empty((lay.nvars, 48, 48, 48))
    prim[lay.partial_densities] = rng.uniform(0.2, 1.0, (2, 48, 48, 48))
    prim[lay.velocity] = rng.uniform(-1, 1, (3, 48, 48, 48))
    prim[lay.pressure] = rng.uniform(0.5, 2.0, (48, 48, 48))
    prim[lay.advected] = rng.uniform(0.2, 0.8, (1, 48, 48, 48))
    return lay, prim


def test_cons_prim_roundtrip_cost(benchmark, field3d):
    lay, prim = field3d
    q = prim_to_cons(lay, MIX, prim)

    def roundtrip():
        return prim_to_cons(lay, MIX, cons_to_prim(lay, MIX, q))

    out = benchmark(roundtrip)
    np.testing.assert_allclose(out, q, rtol=1e-10)


def test_ghost_fill_cost(benchmark, field3d):
    lay, prim = field3d

    def fill():
        p = pad_axis(prim, 0, 3)
        fill_axis_ghosts(p, lay, 0, 3, BC.REFLECTIVE, BC.EXTRAPOLATION)
        return p

    p = benchmark(fill)
    assert p.shape[1] == 54


def unpack(transport, padded, axis: int = 0) -> None:
    """Receive one exchange along ``axis`` into a whole padded block
    (as every tile of a sweep does for its own rows)."""
    with transport.fill(transport.rank, axis) as strips:
        for side, strip in zip((-1, 1), strips):
            if strip is not None:
                ghost_strip(padded, axis, 3, side)[...] = strip


def test_halo_post_fill_cost(benchmark, field3d):
    """One rank wrapped onto itself along x: both strips posted into the
    shared mailboxes, then unpacked into its own ghost layers."""
    lay, prim = field3d
    decomp = BlockDecomposition((48, 48, 48), (1, 1, 1), (True, False, False))
    transport = SharedMemoryTransport(ShmArena(decomp, lay.nvars, 3), 0)
    padded = pad_axis(prim, 0, 3)

    def exchange():
        transport.post(0, 0, prim)
        unpack(transport, padded)

    benchmark(exchange)
    assert transport.counters.messages == transport.counters.posts
    np.testing.assert_array_equal(padded[:, -3:], prim[:, :3])
    np.testing.assert_array_equal(padded[:, :3], prim[:, -3:])


def test_full_halo_exchange_cost(benchmark, field3d):
    """A 2 x 2 team in one process: every rank posts its x strips, then
    every rank fills its x ghosts (the order a team needs to never wait)."""
    lay, prim = field3d
    decomp = BlockDecomposition((48, 48, 48), (2, 2, 1), (False, False, False))
    arena = ShmArena(decomp, lay.nvars, 3)
    arena.scatter(prim)
    team = [SharedMemoryTransport(arena, r) for r in range(decomp.nranks)]
    padded = [pad_axis(arena.block(r), 0, 3) for r in range(decomp.nranks)]

    def exchange():
        for t in team:
            t.post(t.rank, 0, arena.block(t.rank))
        for t, p in zip(team, padded):
            unpack(t, p)

    benchmark(exchange)
    assert sum(t.counters.waits for t in team) == 0
    hi = decomp.neighbor(0, 0, 1)
    np.testing.assert_array_equal(padded[0][:, -3:], arena.block(hi)[:, :3])


def test_fft_filter_cost(benchmark):
    zr = StructuredGrid.uniform(((0.0, 1.0), (0.01, 1.0)), (16, 32))
    grid = CylindricalGrid(zr, 128)
    plan = FFTFilterPlan(grid.ntheta, grid.mode_cutoff())
    rng = np.random.default_rng(0)
    data = rng.random((7, 16, 32, 128))
    out = benchmark(plan.execute, data)
    assert out.shape == data.shape


def test_ibm_construction_cost(benchmark):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (96, 96))
    lay = StateLayout(2, 2)

    ib = benchmark(ImmersedBoundary, grid, lay, MIX, Circle((0.5, 0.5), 0.2))
    assert ib.num_ghost_cells() > 0


def test_ibm_apply_cost(benchmark):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (96, 96))
    lay = StateLayout(2, 2)
    ib = ImmersedBoundary(grid, lay, MIX, Circle((0.5, 0.5), 0.2))
    rng = np.random.default_rng(1)
    prim = np.empty((lay.nvars, 96, 96))
    prim[lay.partial_densities] = rng.uniform(0.4, 0.6, (2, 96, 96))
    prim[lay.velocity] = rng.uniform(-0.5, 0.5, (2, 96, 96))
    prim[lay.pressure] = 1.0
    prim[lay.advected] = 0.5
    q = prim_to_cons(lay, MIX, prim)
    out = benchmark(ib.apply, q)
    assert np.all(np.isfinite(out))
