"""Tests for the gang execution backend (the ``threads`` knob).

The host gang backend must be numerically invisible: an RHS evaluation
(and a whole simulation) on a forked gang produces bitwise the same
floats as the serial path, for every WENO order, Riemann solver, gang
width, and uneven interior-to-tile split.  The executor itself must obey
its contracts — ``threads=1`` never forks, tile spans stay balanced,
exceptions propagate — and the L2 tile heuristic must react to the
device catalog's cache sizes.  (The file keeps its name: ``threads`` is
still what the knob is called.)
"""

import mmap
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acc import GangExecutor, tile_spans
from repro.acc.gang import gang_share
from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.hardware import suggest_tile_count
from repro.hardware.devices import get_device
from repro.io.case_files import solver_options_from_dict
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, sphere
from repro.state import StateLayout, prim_to_cons

AIR = StiffenedGas(1.4, 0.0, "air")
WATER = StiffenedGas(4.4, 6000.0, "water")
MIX = Mixture((AIR, WATER))


def random_prim(rng, layout, shape):
    """A random but physical primitive field."""
    prim = np.empty((layout.nvars, *shape), dtype=DTYPE)
    prim[layout.partial_densities] = rng.uniform(0.1, 2.0,
                                                 (layout.ncomp, *shape))
    prim[layout.velocity] = rng.uniform(-1.0, 1.0, (layout.ndim, *shape))
    prim[layout.pressure] = rng.uniform(0.5, 3.0, shape)
    alpha = rng.uniform(0.05, 0.95, (layout.ncomp - 1, *shape))
    prim[layout.advected] = alpha
    return prim


def make_rhs(shape, *, threads=1, order=5, solver="hllc", **kwargs):
    grid = StructuredGrid.uniform(tuple((0.0, 1.0) for _ in shape), shape)
    layout = StateLayout(ncomp=2, ndim=len(shape))
    return RHS(layout, MIX, grid, BoundarySet.all_periodic(len(shape)),
               RHSConfig(weno_order=order, riemann_solver=solver),
               threads=threads, **kwargs)


def bubble_sim(n=16, **kwargs):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n - 3))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([0.5, 0.5], 0.2), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,),
                   smear=0.05))
    return Simulation(case, BoundarySet.all_periodic(2), cfl=0.4, **kwargs)


# ----------------------------------------------------------------------
class TestTileSpans:
    def test_even_split(self):
        assert tile_spans(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_remainder(self):
        spans = tile_spans(10, 4)
        assert spans == [(0, 3), (3, 6), (6, 8), (8, 10)]
        widths = [hi - lo for lo, hi in spans]
        assert max(widths) - min(widths) <= 1

    def test_spans_cover_exactly(self):
        for extent in (1, 2, 7, 33):
            for tiles in (1, 2, 5, 40):
                spans = tile_spans(extent, tiles)
                assert spans[0][0] == 0 and spans[-1][1] == extent
                for (_, a), (b, _) in zip(spans, spans[1:]):
                    assert a == b

    def test_tiles_clamped_to_extent(self):
        assert tile_spans(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_extent(self):
        assert tile_spans(0, 4) == []

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            tile_spans(-1, 2)
        with pytest.raises(ConfigurationError):
            tile_spans(4, 0)


def shared_array(n):
    """A float array in anonymous shared memory (what a gang writes)."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


class TestGangExecutor:
    def test_serial_executor_never_creates_pool(self):
        ex = GangExecutor(1, lambda arg, rank: (arg, rank, os.getpid()))
        assert ex.launch(10) == [(10, 0, os.getpid())]
        assert ex._workers == []  # zero executor overhead at threads=1

    def test_results_in_rank_order(self):
        spans = tile_spans(10, 7)
        with GangExecutor(4, lambda n, rank: (
                os.getpid(), gang_share(tile_spans(10, n), rank, 4))) as ex:
            out = ex.launch(7)
            again = ex.launch(7)
        # Results come back in rank order, member r holding every 4th
        # span from the r-th on (balanced to within one tile, together
        # every span once); every member is its own process, and the
        # same workers serve every launch.
        assert [share for _, share in out] == [spans[r::4] for r in range(4)]
        assert sorted(s for _, share in out for s in share) == spans
        assert [len(share) for _, share in out] == [2, 2, 2, 1]
        assert len({pid for pid, _ in out}) == 4
        assert out[0][0] == os.getpid() and again == out

    def test_parallel_writes_disjoint_slabs(self):
        arr = shared_array(23)

        def fill(n, rank):
            for lo, hi in gang_share(tile_spans(n, 3), rank, 3):
                arr[lo:hi] = rank + 1.0

        with GangExecutor(3, fill) as ex:
            ex.launch(23)
        assert arr.tolist() == [1.0] * 8 + [2.0] * 8 + [3.0] * 7

    def test_exception_propagates(self):
        done = shared_array(4)

        def boom(arg, rank):
            done[rank] = 1.0
            if rank in (1, 3):
                raise ValueError(f"tile {rank}")
            return rank

        with GangExecutor(4, boom) as ex:
            # First error in rank order, after every member finished.
            with pytest.raises(ValueError, match="tile 1"):
                ex.launch(8)
            assert done.tolist() == [1.0] * 4
            with pytest.raises(ValueError, match="tile 1"):
                ex.launch(8)  # the gang survives a body's exception

    def test_worker_laps_merge_into_the_stopwatch(self):
        from repro.common import Stopwatch

        sw = Stopwatch()
        with GangExecutor(3, lambda arg, rank: sw.add("busy", 1.0 + rank),
                          stopwatch=sw) as ex:
            ex.launch(0)
            ex.launch(0)
        assert sw.laps == {"busy": 2 * (1.0 + 2.0 + 3.0)}

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_invalid_threads(self, bad):
        with pytest.raises(ConfigurationError):
            GangExecutor(bad, lambda arg, rank: None)


class TestTileHeuristic:
    def test_baseline_one_tile_per_worker(self):
        assert suggest_tile_count(100, 4) == 4
        assert suggest_tile_count(3, 8) == 3

    def test_small_l2_forces_more_tiles(self):
        # One row's working set of 1 MiB: a 64-row extent at 4 tiles is
        # 16 MiB/tile — far over the MI250X's 8 MB L2 budget but well
        # inside the A100's 40 MB.
        kwargs = dict(bytes_per_slice=1 << 20, workers=4)
        mi = suggest_tile_count(64, device=get_device("mi250x"), **kwargs)
        a100 = suggest_tile_count(64, device=get_device("a100"), **kwargs)
        assert a100 == 4
        assert mi > a100
        assert mi % 4 == 0  # grown in worker multiples
        # The chosen MI250X tiling fits the budget.
        assert -(-64 // mi) * (1 << 20) <= 8388608 * 0.5

    def test_growth_caps_at_extent(self):
        tiles = suggest_tile_count(6, 4, bytes_per_slice=1 << 30,
                                   device=get_device("mi250x"))
        assert tiles == 6

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            suggest_tile_count(0, 4)
        with pytest.raises(ConfigurationError):
            suggest_tile_count(4, 0)


# ----------------------------------------------------------------------
class TestThreadedBitwise:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 5]),
           st.sampled_from(["hllc", "hll", "rusanov"]),
           st.integers(2, 4), st.integers(11, 23),
           st.sampled_from([(), (9,), (5, 4)]),
           st.sampled_from([None, 2, 3, 5]))
    @example(7, 5, "hllc", 2, 37, (), None)     # 1D: one tile, no ⟂ axis
    @example(11, 3, "hll", 3, 13, (9,), 4)      # 2D strided, d=0 cut on y
    @example(13, 5, "hllc", 4, 10, (7, 6), 3)   # 3D strided, d=0 cut on y
    def test_rhs_matches_serial(self, seed, order, solver, threads, nx,
                                tail, tiles):
        # nx deliberately not divisible by most tile counts: uneven
        # spans must still reproduce the serial floats bit for bit.
        rng = np.random.default_rng(seed)
        shape = (nx, *tail)
        serial = make_rhs(shape, order=order, solver=solver)
        oracle = make_rhs(shape, order=order, solver=solver,
                          use_workspace=False)
        tiled = make_rhs(shape, threads=threads, order=order, solver=solver,
                         sweep_layout="strided", tiles=tiles)
        q = prim_to_cons(serial.layout, MIX,
                         random_prim(rng, serial.layout, shape))
        with tiled:
            out = tiled(q)
        np.testing.assert_array_equal(serial(q), out)
        np.testing.assert_array_equal(oracle(q), out)
        assert serial.limited_faces == tiled.limited_faces
        assert oracle.limited_faces == tiled.limited_faces
        # Every direction — d=0 included — is tiled on the first axis
        # perpendicular to it, never on the reconstruction axis; 1D has
        # no such axis and runs one tile.
        plans = tiled.tile_plan()["directions"]
        assert [p["kind"] for p in plans] == (
            ["slab"] * (len(shape) - 1)
            + ["gathered" if len(shape) > 1 else "slab"])
        if len(shape) == 1:
            assert (plans[0]["slab_axis"], plans[0]["tiles"]) == (None, 1)
        else:
            assert [p["slab_axis"] for p in plans] == (
                [1] + [0] * (len(shape) - 1))
            extents = [shape[1]] + [shape[0]] * (len(shape) - 1)
            for p, extent in zip(plans, extents):
                assert 1 <= p["tiles"] <= extent
                if tiles is not None:
                    assert p["tiles"] == min(tiles, extent)

    def test_rhs_matches_serial_1d(self):
        rng = np.random.default_rng(7)
        serial = make_rhs((37,))
        q = prim_to_cons(serial.layout, MIX,
                         random_prim(rng, serial.layout, (37,)))
        with make_rhs((37,), threads=3) as tiled:
            np.testing.assert_array_equal(serial(q), tiled(q))

    def test_rhs_matches_serial_3d(self):
        rng = np.random.default_rng(11)
        shape = (10, 7, 6)
        serial = make_rhs(shape, order=3)
        q = prim_to_cons(serial.layout, MIX,
                         random_prim(rng, serial.layout, shape))
        with make_rhs(shape, threads=4, order=3) as tiled:
            # An explicit width asks for a tile per member.
            assert [p["tiles"] for p in tiled.tile_plan()["directions"]] == [
                4, 4, 4]
            np.testing.assert_array_equal(serial(q), tiled(q))

    def test_simulation_matches_serial_over_steps(self):
        # Whole-driver identity: covers the RK stages around gang
        # sweeps, the limiter counter reduction, and workspace reuse
        # across steps.
        a = bubble_sim(n=19, threads=1)
        with bubble_sim(n=19, threads=3) as b:
            for _ in range(5):
                a.step()
                b.step()
        np.testing.assert_array_equal(a.q, b.q)
        assert a.time == b.time
        assert a.rhs.limited_faces == b.rhs.limited_faces


class TestThreadPlumbing:
    def test_threads_one_takes_serial_path(self):
        sim = bubble_sim(threads=1)
        assert sim.rhs.executor is None
        assert [p["tiles"] for p in sim.rhs.tile_plan()["directions"]] == [1, 1]

    def test_threaded_sim_builds_executor_and_tiles(self):
        sim = bubble_sim(threads=3)
        assert sim.rhs.executor is not None
        assert sim.rhs.executor.threads == 3 == sim.threads
        assert sim.gang_why == "3: explicit"
        assert [p["tiles"] for p in sim.rhs.tile_plan()["directions"]] == [3, 3]
        assert sim.rhs.executor._workers == []  # forked at the first launch

    @pytest.mark.parametrize("bad", [0, -2, 2.5, False])
    def test_invalid_threads_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            bubble_sim(threads=bad)
        with pytest.raises(ConfigurationError):
            make_rhs((8, 8), threads=bad)

    def test_worker_scratch_private_per_process(self):
        sim = bubble_sim(threads=2)
        ws = sim.rhs.workspace

        def mark(arg, rank):
            # Launch 0 leaves this member's rank in its arena; launch 1
            # reads back what is there now.
            arena = ws.tile_arena(0, 8)
            if arg == 0:
                arena.pad[...] = rank + 1.0
            return float(arena.pad.max()), float(ws.prim.flat[0])

        ws.prim.flat[0] = 7.0
        with GangExecutor(2, mark) as ex:
            ex.launch(0)
            ws.prim.flat[0] = 9.0
            # Each process kept its own arena contents; the field buffer
            # is shared (the worker sees the parent's later write).
            assert ex.launch(1) == [(1.0, 9.0), (2.0, 9.0)]
        mine = ws.tile_arena(0, 8)
        for buf in (mine.pad, mine.vl, mine.flux, mine.wscr[0],
                    mine.rscr.cons_l, mine.dscr):
            assert np.shares_memory(buf, mine.pool)
        assert not np.shares_memory(mine.pool, ws.prim)
        # Re-asking gets the cached arena back (a narrower request fits
        # the one it has).
        assert ws.tile_arena(0, 4) is mine
        # A wider tile outgrows the pool: the arena is rebuilt on a new
        # one, and the other arenas follow on next use.
        wider = ws.tile_arena(0, 9)
        assert wider is not mine and wider.width_cap == 9
        assert ws.tile_arena(0, 8) is wider
        # The pool is the workspace's memory accounting: one per process.
        assert ws.nbytes == sum(a.nbytes for a in ws._all_arrays())
        assert ws._pool is wider.pool
        assert ws.nbytes >= 5 * ws.prim.nbytes + wider.nbytes

    def test_threaded_kernel_breakdown_has_same_rows(self):
        with bubble_sim(threads=3) as sim:
            sim.step()
            shares = sim.kernel_breakdown()
        assert {"packing", "weno", "riemann", "other"} <= set(shares)
        assert abs(sum(shares.values()) - 1.0) < 1e-9


class TestSolverOptions:
    def test_absent_section_defaults_empty(self):
        assert solver_options_from_dict({"grid": {}}) == {}

    def test_threads_parsed(self):
        assert solver_options_from_dict({"solver": {"threads": 4}}) == {
            "threads": 4}

    @pytest.mark.parametrize("bad", [{"threads": 0}, {"threads": -1},
                                     {"threads": 2.5}, {"threads": True},
                                     {"threads": "4"}, {"warp": 9}, []])
    def test_invalid_sections_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            solver_options_from_dict({"solver": bad})

    def test_cli_threads_flag(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        spec = {
            "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [12, 12]},
            "fluids": [{"gamma": 1.4}, {"gamma": 1.4}],
            "patches": [{
                "geometry": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
                "alpha_rho": [0.5, 0.5], "velocity": [0.3, 0.0],
                "pressure": 1.0, "alpha": [0.5],
            }],
            "solver": {"threads": 2},
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(spec))
        assert main(["run", str(path), "--steps", "2", "--bc", "periodic",
                     "--weno", "3"]) == 0
        assert "gang 2: explicit" in capsys.readouterr().out
        # The flag overrides the case file.
        assert main(["run", str(path), "--steps", "1", "--bc", "periodic",
                     "--weno", "3", "--threads", "1"]) == 0
        assert "gang 1: explicit" in capsys.readouterr().out
