"""Tests for the sweep layout rule and the layout knob.

A tile never reconstructs along its innermost axis: every direction but
the trailing one sweeps standard-order slabs, the trailing direction
gathers its tiles reconstruction-axis-first.  Both values of the
``sweep_layout`` knob plan that one schedule, so for every WENO order,
Riemann solver, thread count, engine mode and uneven tile split they
give bitwise the same floats, the same tile plan and the same counters
— for an RHS evaluation, a whole simulation, and a checkpoint round
trip.  The knob must still validate everywhere it is plumbed (RHS,
Simulation, case files, CLI), the workspace must own every tile buffer
(no steady-state allocations), and the sweep counters must tally what
actually ran.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.io.case_files import solver_options_from_dict
from repro.profiling import SweepCounters, measure_call_allocations
from repro.solver import (
    SWEEP_LAYOUTS,
    Case,
    Patch,
    RHS,
    RHSConfig,
    Simulation,
    box,
    sphere,
)
from repro.solver.sweep import validate_sweep_layout
from repro.solver.workspace import tile_axes
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
    prim[layout.advected] = rng.uniform(0.05, 0.95, (layout.ncomp - 1, *shape))
    return prim


def make_rhs(shape, *, threads=1, order=5, solver="hllc",
             sweep_layout="strided", use_workspace=True, **kwargs):
    grid = StructuredGrid.uniform(tuple((0.0, 1.0) for _ in shape), shape)
    layout = StateLayout(ncomp=2, ndim=len(shape))
    return RHS(layout, MIX, grid, BoundarySet.all_periodic(len(shape)),
               RHSConfig(weno_order=order, riemann_solver=solver),
               threads=threads, use_workspace=use_workspace,
               sweep_layout=sweep_layout, **kwargs)


def random_q(shape, seed=0):
    layout = StateLayout(ncomp=2, ndim=len(shape))
    rng = np.random.default_rng(seed)
    return prim_to_cons(layout, MIX, random_prim(rng, layout, shape))


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
class TestPlanner:
    def test_leading_directions_keep_standard_order(self):
        # Every direction but the trailing one already reconstructs
        # along a non-innermost axis: its tile is a plain slab.
        assert tile_axes(2, 0) == (0, 1, 2)
        assert tile_axes(3, 0) == (0, 1, 2, 3)
        assert tile_axes(3, 1) == (0, 1, 2, 3)
        for ndim in (2, 3):
            for d in range(ndim - 1):
                assert tile_axes(ndim, d) == tuple(range(ndim + 1))

    def test_only_the_trailing_direction_gathers(self):
        # Reconstruction axis first among the spatial axes; the rest
        # keep their standard order.
        assert tile_axes(2, 1) == (0, 2, 1)
        assert tile_axes(3, 2) == (0, 3, 1, 2)
        for ndim in (2, 3):
            for d in range(ndim):
                axes = tile_axes(ndim, d)
                assert axes[-1] != d + 1  # never innermost
                assert sorted(axes) == list(range(ndim + 1))
                assert (axes == tuple(range(ndim + 1))) == (d < ndim - 1)

    def test_both_layouts_plan_one_schedule(self):
        for shape in ((11,), (11, 9), (11, 9, 8)):
            plans = [make_rhs(shape, sweep_layout=mode).tile_plan()
                     for mode in SWEEP_LAYOUTS]
            assert plans[0] == plans[1]
            assert [p["kind"] for p in plans[0]["directions"]] == (
                ["slab"] * (len(shape) - 1)
                + ["gathered" if len(shape) > 1 else "slab"])

    def test_1d_has_no_candidates(self):
        # A single-case 1D tile has no other spatial axis to put inside:
        # it keeps standard order (a batched 1D tile gathers).
        assert tile_axes(1, 0) == (0, 1)
        kinds = [[p["kind"] for p in make_rhs((11,), **kw).tile_plan()[
            "directions"]] for kw in ({}, {"batch": 3})]
        assert kinds == [["slab"], ["gathered"]]

    def test_validate_rejects_unknown_mode(self):
        for mode in ("coalesced", "auto"):
            with pytest.raises(ConfigurationError):
                validate_sweep_layout(mode)


# ----------------------------------------------------------------------
class TestRHSBitwiseIdentity:
    @settings(max_examples=12, deadline=None)
    @given(order=st.sampled_from([1, 3, 5]),
           solver=st.sampled_from(["hllc", "hll", "rusanov"]),
           threads=st.sampled_from([1, 2, 3]),
           nx=st.integers(7, 18), ny=st.integers(7, 18),
           seed=st.integers(0, 2**31 - 1))
    def test_2d_matches_strided(self, order, solver, threads, nx, ny, seed):
        q = random_q((nx, ny), seed)
        base = make_rhs((nx, ny), order=order, solver=solver)(q)
        rhs = make_rhs((nx, ny), order=order, solver=solver, threads=threads,
                       sweep_layout="transposed")
        np.testing.assert_array_equal(rhs(q), base)

    @settings(max_examples=6, deadline=None)
    @given(order=st.sampled_from([1, 3, 5]),
           solver=st.sampled_from(["hllc", "rusanov"]),
           threads=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**31 - 1))
    def test_3d_matches_strided(self, order, solver, threads, seed):
        shape = (7, 6, 9)
        q = random_q(shape, seed)
        base = make_rhs(shape, order=order, solver=solver)(q)
        rhs = make_rhs(shape, order=order, solver=solver, threads=threads,
                       sweep_layout="transposed")
        np.testing.assert_array_equal(rhs(q), base)

    def test_uneven_tile_splits(self):
        # Extents with remainders against every tile count.
        for shape in [(13, 11), (17, 7)]:
            q = random_q(shape, 3)
            base = make_rhs(shape)(q)
            for threads in (2, 3, 5):
                rhs = make_rhs(shape, threads=threads,
                               sweep_layout="transposed")
                np.testing.assert_array_equal(rhs(q), base)

    def test_repeated_calls_stay_identical(self):
        # Gathered tile buffers are reused across calls; stale ghost or face
        # data from call N must not leak into call N+1.
        shape = (12, 10)
        strided, transposed = make_rhs(shape), make_rhs(
            shape, sweep_layout="transposed")
        for seed in range(3):
            q = random_q(shape, seed)
            np.testing.assert_array_equal(transposed(q), strided(q))

    def test_no_workspace_falls_back_to_strided(self):
        # The allocating reference path sweeps whole standard-order
        # fields: nothing is gathered.
        rhs = make_rhs((10, 9), sweep_layout="transposed",
                       use_workspace=False)
        assert [p["kind"] for p in rhs.tile_plan()["directions"]] == [
            "slab", "slab"]
        q = random_q((10, 9), 1)
        np.testing.assert_array_equal(rhs(q), make_rhs((10, 9))(q))

    def test_off_workspace_dtype_falls_back(self):
        # A call whose field does not match the workspace (here: dtype)
        # must still be answered — through the strided allocating path,
        # identically to a workspace-free RHS.
        rhs = make_rhs((12, 10), sweep_layout="transposed")
        q = random_q((12, 10), 2).astype(np.float32)
        ref = make_rhs((12, 10), use_workspace=False)
        np.testing.assert_array_equal(rhs(q), ref(q))
        assert rhs.sweep_counters.transposed_sweeps == 0

    def test_rejects_unknown_layout(self):
        with pytest.raises(ConfigurationError):
            make_rhs((8, 8), sweep_layout="diagonal")


# ----------------------------------------------------------------------
class TestSimulationIdentity:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_multistep_bitwise(self, threads):
        ref = bubble_sim()
        ref.run(n_steps=4)
        sim = bubble_sim(threads=threads, sweep_layout="transposed")
        sim.run(n_steps=4)
        np.testing.assert_array_equal(sim.q, ref.q)
        assert sim.time == ref.time

    def test_checkpoint_roundtrip_under_transposed(self, tmp_path):
        path = tmp_path / "restart.bin"
        ref = bubble_sim(sweep_layout="transposed")
        ref.run(n_steps=4)

        first = bubble_sim(sweep_layout="transposed")
        first.run(n_steps=2)
        first.save_checkpoint(path)

        second = bubble_sim(sweep_layout="transposed")
        second.load_checkpoint(path)
        assert second.step_count == 2
        second.run(n_steps=2)
        np.testing.assert_array_equal(second.q, ref.q)

    def test_checkpoint_crosses_layouts(self, tmp_path):
        # A snapshot written by a strided run restarts bitwise under the
        # transposed engine (the state carries no layout).
        path = tmp_path / "restart.bin"
        ref = bubble_sim()
        ref.run(n_steps=4)

        first = bubble_sim()
        first.run(n_steps=2)
        first.save_checkpoint(path)
        second = bubble_sim(sweep_layout="transposed")
        second.load_checkpoint(path)
        second.run(n_steps=2)
        np.testing.assert_array_equal(second.q, ref.q)


# ----------------------------------------------------------------------
class TestWorkspaceOwnership:
    def test_transposed_buffers_exist_per_axis(self):
        """One arena per swept direction; only the trailing direction's
        is gathered, with its reconstruction axis first."""
        rhs = make_rhs((11, 9, 8), sweep_layout="transposed", tiles=2)
        ws = rhs.workspace
        nv = rhs.layout.nvars
        ng = rhs.ghost_width
        for _ in range(2):  # a later direction may outgrow the first pool
            rhs(random_q((11, 9, 8), 2))
        assert sorted(ws._arenas) == [0, 1, 2]
        x, y, z = (ws.tile_arena(0, 5), ws.tile_arena(1, 6),
                   ws.tile_arena(2, 6))
        assert [a.gathered for a in (x, y, z)] == [False, False, True]
        # Slab-order tiles: the slab (y for x, x otherwise) holds the
        # wider tile of the uneven 2-way split.
        assert x.pad.shape == (nv, 11 + 2 * ng, 5, 8)
        assert y.pad.shape == (nv, 6, 9 + 2 * ng, 8)
        assert x.vl.shape == x.flux.shape == (nv, 12, 5, 8)
        assert y.uface.shape == (6, 10, 8)
        # The gathered z tile: reconstruction axis, slab, then y.
        assert z.axes == (0, 3, 1, 2) and z.axis == 1
        assert z.pad.shape == (nv, 8 + 2 * ng, 6, 9)
        assert z.vl.shape == z.flux.shape == (nv, 9, 6, 9)
        assert z.uface.shape == (9, 6, 9)
        assert z.dscr.shape == (nv, 8, 6, 9)

    def test_narrowed_arena_is_contiguous_and_aliases(self):
        """One contiguous pool block per buffer; the axis-last views the
        WENO kernels take of a tile's scratch are axis-permuted views of
        blocks in the tile's own order."""
        ws = make_rhs((11, 9, 8), sweep_layout="transposed").workspace
        for d in range(3):
            arena = ws.tile_arena(d, 5)
            tile = arena.narrow(4)
            assert arena.narrow(5) is arena
            assert arena.narrow(4) is tile  # cached across tiles/steps
            assert tile.pool is arena.pool and tile.nbytes < arena.nbytes
            for buf in (tile.pad, tile.flux, tile.uface, tile.dscr,
                        *tile.wscr, tile.rscr.star_tmp):
                order = np.argsort([-s for s in buf.strides], kind="stable")
                assert buf.transpose(order).flags.c_contiguous
                assert np.shares_memory(buf, arena.pool)
            assert tile.pad.shape[tile.axes.index(arena.slab_axis + 1)] == 4
            # Scratch is handed out reconstruction-axis-last, in the
            # memory order of the face states it is combined with.
            vl = np.moveaxis(tile.vl, tile.axis, -1)
            plain = tile.wscr[-1]
            assert plain.shape == vl.shape and plain.strides == vl.strides
            assert not plain.flags.c_contiguous

    def test_strided_workspace_has_no_transposed_buffers(self):
        # No arena keeps an axis-last variant or scatter views.
        for mode in SWEEP_LAYOUTS:
            rhs = make_rhs((11, 9), sweep_layout=mode)
            for _ in range(2):
                rhs(random_q((11, 9), 3))
            arenas = list(rhs.workspace._arenas.values())
            assert len(arenas) == 2
            for arena in arenas:
                for name in ("tpad", "tvl", "tvr", "tflux", "tuface",
                             "flux_t", "uface_t"):
                    assert not hasattr(arena, name)

    def test_transposed_bytes_counted_in_arena(self):
        # The gathered tile is an arena of the same size as a slab one,
        # and the workspace's byte count covers it under either knob.
        q = random_q((16, 13), 4)
        strided = make_rhs((16, 13), tiles=1)
        transposed = make_rhs((16, 13), sweep_layout="transposed", tiles=1)
        strided(q), transposed(q)
        assert transposed.workspace.nbytes == strided.workspace.nbytes
        ws = transposed.workspace
        assert ws.tile_arena(1, 16).gathered
        assert ws.tile_arena(1, 16).nbytes <= ws._pool.nbytes
        assert ws.nbytes == sum(a.nbytes for a in ws._all_arrays())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_steady_state_allocations_zero(self, threads):
        rhs = make_rhs((16, 13), threads=threads, sweep_layout="transposed")
        q = random_q((16, 13), 5)
        out = np.empty_like(q)
        stats = measure_call_allocations(lambda: rhs(q, out=out),
                                         warmup=2, repeats=3)
        # Budget the min over repeats: a real per-call allocation shows
        # in every repeat (the allocating reference path measures ~175 KB
        # here vs ~48 KB of Python-object noise), while one-off
        # interpreter events inflate only the peak.
        assert stats.min_transient_bytes < 64 * 1024


# ----------------------------------------------------------------------
class TestSweepCounters:
    def test_strided_run_counts_strided(self):
        rhs = make_rhs((10, 9))
        rhs(random_q((10, 9), 0))
        c = rhs.sweep_counters
        # Direction 0 sweeps standard-order slabs; direction 1 gathers
        # its tiles — one transpose of the primitives.
        assert c.strided_sweeps == 1
        assert c.transposed_sweeps == 1
        assert c.transposes == 1
        assert c.bytes_transposed == rhs.layout.nvars * 10 * 9 * 8
        assert c.bytes_reconstructed_strided > 0
        assert c.bytes_reconstructed_contiguous == 0  # never innermost

    @pytest.mark.parametrize("threads", [1, 2])
    def test_transposed_run_counts_transposes(self, threads):
        rhs = make_rhs((10, 9), threads=threads, sweep_layout="transposed")
        rhs(random_q((10, 9), 0))
        rhs.close()
        ref = make_rhs((10, 9))
        ref(random_q((10, 9), 0))
        c = rhs.sweep_counters
        assert c.transposed_sweeps == 1
        assert c.transposes == 1  # the gather; the divergence is a view
        assert c.as_dict() == ref.sweep_counters.as_dict()

    def test_merge_and_dict_roundtrip(self):
        a = SweepCounters()
        a.record_strided(100)
        a.record_transposed(200, 300)
        b = SweepCounters()
        b.record_strided(50, contiguous=True)
        a.merge(b)
        d = a.as_dict()
        assert d["strided_sweeps"] == 1
        assert d["transposed_sweeps"] == 1
        assert d["bytes_reconstructed_strided"] == 100 + 200
        assert d["bytes_reconstructed_contiguous"] == 50
        assert d["bytes_transposed"] == 300
        assert d["transposes"] == 1
        assert "transposed" in a.summary()

    def test_profile_report_includes_sweeps(self):
        from repro.profiling import Profile

        prof = Profile(device_name="host")
        prof.record("weno5", "weno", 1e-3)
        c = SweepCounters()
        c.record_transposed(1000, 2000)
        prof.sweep = c
        assert "sweeps: 1 transposed" in prof.report()


# ----------------------------------------------------------------------
def assert_layout_rule(workspaces, nsp):
    """No tile arena of ``workspaces`` reconstructs along its innermost
    axis.  Every arena buffer is one C-contiguous block in the tile's
    own axis order, so that axis is the last one.  A single-case 1D tile
    has no other spatial axis to put there and keeps standard order."""
    arenas = [tile for ws in workspaces for arena in ws._arenas.values()
              for tile in (arena, *arena._narrowed.values())]
    assert arenas
    for tile in arenas:
        for buf in (tile.pad, tile.vl, tile.vr, tile.flux, tile.dscr):
            assert buf.flags.c_contiguous
            if nsp == 1:
                assert tile.axes == (0, 1)
            else:
                assert tile.axis != buf.ndim - 1


class TestLayoutRule:
    """Property test of the one layout rule over every engine mode, 1D to
    3D and WENO orders 1, 3 and 5: the rule holds in every arena, and
    the two values of the layout knob are one schedule — same tile plan,
    same dq/dt bits (the oracle's), same limiter count, same counters."""

    SHAPES = {1: (24,), 2: (14, 11), 3: (12, 7, 8)}
    MODES = {"serial": {}, "gang": {"threads": 2}, "fused": {"fusion": "on"},
             "batched": {"batch": 3}}

    @staticmethod
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    @pytest.mark.parametrize("order", [1, 3, 5])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_rhs_engines(self, mode, ndim, order):
        shape = self.SHAPES[ndim]
        kwargs = self.MODES[mode]
        batch = kwargs.get("batch")
        spatial = shape if batch is None else (batch, *shape)
        q = random_q(spatial, seed=order) if batch is None else np.stack(
            [random_q(shape, seed=order + b) for b in range(batch)], axis=1)
        oracle = make_rhs(shape, order=order, use_workspace=False)
        expect = (oracle(q) if batch is None else np.stack(
            [oracle(q[:, b]) for b in range(batch)], axis=1))
        runs = {}
        for layout in SWEEP_LAYOUTS:
            with make_rhs(shape, order=order, sweep_layout=layout, tiles=2,
                          **kwargs) as rhs:
                out = rhs(q)
                assert_layout_rule([rhs.workspace], len(spatial))
            runs[layout] = (rhs.tile_plan(), self.digest(out),
                            rhs.limited_faces, rhs.sweep_counters.as_dict())
        assert runs["strided"] == runs["transposed"]
        assert runs["strided"][1] == self.digest(expect)
        if batch is None:
            assert runs["strided"][2] == oracle.limited_faces

    @pytest.mark.parametrize("order", [1, 3, 5])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("decomposed", [True, False],
                             ids=["split", "unsplit"])
    def test_rank_local_engines(self, decomposed, ndim, order):
        """A rank's engine has no layout knob: tiles whose ghosts come
        from the neighbours' strips (the domain split over two periodic
        ranks) and from the BCs only (one rank between walls) plan the
        one schedule and obey the layout rule."""
        from tests.test_tiles import bubble_case, rank_team, team_rhs

        shape = self.SHAPES[ndim]
        case = bubble_case(shape)
        bcs = (BoundarySet.all_periodic(ndim) if decomposed
               else BoundarySet.all_extrapolation(ndim))
        rank_grid = ((2,) if decomposed else (1,)) + (1,) * (ndim - 1)
        config = RHSConfig(weno_order=order)
        q = case.initial_conservative()
        serial = RHS(case.layout, case.mixture, case.grid, bcs, config)
        arena, ranks = rank_team(case, bcs, rank_grid, tiles=2, config=config)
        out = team_rhs(arena, ranks, q)
        assert_layout_rule([rank.workspace for rank in ranks], ndim)
        assert bool(ranks[0].transport.counters.messages) == decomposed
        assert self.digest(out) == self.digest(serial(q))


# ----------------------------------------------------------------------
class TestCaseFileAndCLI:
    def test_solver_section_accepts_layout(self):
        opts = solver_options_from_dict(
            {"solver": {"threads": 2, "layout": "transposed"}})
        assert opts == {"threads": 2, "sweep_layout": "transposed"}

    def test_solver_section_rejects_bad_layout(self):
        with pytest.raises(ConfigurationError):
            solver_options_from_dict({"solver": {"layout": "fast"}})

    def test_cli_flag_parses(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["run", "case.json", "--steps", "1", "--layout", "transposed"])
        assert args.layout == "transposed"

    def test_cli_flag_rejects_unknown(self):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "case.json", "--layout", "sideways"])

    def test_simulation_rejects_bad_layout(self):
        with pytest.raises(ConfigurationError):
            bubble_sim(sweep_layout="columnar")


# ----------------------------------------------------------------------
class TestLayoutSmoke:
    """Tier-1 smoke: one RHS evaluation per layout mode stays healthy."""

    @pytest.mark.parametrize("mode", SWEEP_LAYOUTS)
    def test_one_rhs_eval_per_layout(self, mode):
        rhs = make_rhs((16, 13), sweep_layout=mode)
        dqdt = rhs(random_q((16, 13), 7))
        assert np.all(np.isfinite(dqdt))
