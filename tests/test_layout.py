"""Tests for the coalesced sweep engine (axis-contiguous transposed sweeps).

The engine must be numerically invisible: for every WENO order, Riemann
solver, thread count, layout mode, and uneven tile split, a transposed
RHS evaluation — and a whole transposed simulation, and a checkpoint
round trip under the transposed engine — produces bitwise the same
floats as the strided path.  The ``auto`` planner must follow its
documented heuristic, the layout knob must validate everywhere it is
plumbed (RHS, Simulation, case files, CLI), the workspace must own all
transposed scratch (no steady-state allocations), and the sweep
counters must tally what actually ran.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.hardware.devices import get_device
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
    plan_transposed_axes,
    sphere,
)
from repro.hardware.tiling import L2_OCCUPANCY
from repro.solver.sweep import cache_budget_bytes, validate_sweep_layout
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
    def test_strided_transposes_nothing(self):
        assert plan_transposed_axes("strided", 6, (64, 64), 5) == frozenset()

    def test_transposed_takes_all_noncontiguous_axes(self):
        assert plan_transposed_axes("transposed", 6, (8, 8), 5) == {0}
        assert plan_transposed_axes("transposed", 6, (8, 8, 8), 5) == {0, 1}

    def test_trailing_axis_never_transposed(self):
        for mode in SWEEP_LAYOUTS:
            for spatial in [(32,), (32, 32), (16, 16, 16)]:
                axes = plan_transposed_axes(mode, 6, spatial, 5)
                assert len(spatial) - 1 not in axes

    def test_1d_has_no_candidates(self):
        assert plan_transposed_axes("transposed", 6, (128,), 5) == frozenset()

    def test_auto_keeps_cache_resident_blocks_strided(self):
        # A tiny block fits any catalog device's budget: stay strided.
        assert plan_transposed_axes("auto", 6, (8, 8), 5,
                                    device=get_device("epyc9564")) == frozenset()

    def test_auto_transposes_large_blocks(self):
        # A 512^2 padded block is far beyond one core's cache share, and
        # order-5 strided passes waste far more than three transposes.
        axes = plan_transposed_axes("auto", 6, (512, 512), 5,
                                    device=get_device("epyc9564"))
        assert axes == {0}

    def test_auto_defaults_to_host_device(self):
        with_default = plan_transposed_axes("auto", 6, (512, 512), 5)
        explicit = plan_transposed_axes("auto", 6, (512, 512), 5,
                                        device=get_device("epyc9564"))
        assert with_default == explicit

    def test_cache_budget_scales_with_cores(self):
        epyc = get_device("epyc9564")
        assert cache_budget_bytes(epyc) < epyc.l2_bytes

    def test_validate_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            validate_sweep_layout("coalesced")

    # -- device sensitivity regressions (two catalog devices) ----------
    def test_auto_follows_device_cache_budget(self):
        # An MI250X GCD exposes its whole 8 MiB L2 to the sweep (no
        # per-core split), twice the EPYC core's share: at 256^2 the
        # EPYC transposes while the GCD keeps the block resident.
        assert plan_transposed_axes("auto", 6, (256, 256), 5,
                                    device=get_device("epyc9564")) == {0}
        assert plan_transposed_axes("auto", 6, (256, 256), 5,
                                    device=get_device("mi250x")) == frozenset()

    def test_auto_transposes_oversized_blocks_on_gpu_device(self):
        # Past any budget, both devices agree: transpose the y sweep.
        assert plan_transposed_axes("auto", 6, (512, 512), 5,
                                    device=get_device("mi250x")) == {0}

    def test_cache_budget_whole_l2_without_core_count(self):
        gcd = get_device("mi250x")
        epyc = get_device("epyc9564")
        assert cache_budget_bytes(gcd) == pytest.approx(
            gcd.l2_bytes * L2_OCCUPANCY)
        assert cache_budget_bytes(epyc) == pytest.approx(
            epyc.l2_bytes / epyc.cores * L2_OCCUPANCY)


# ----------------------------------------------------------------------
class TestRHSBitwiseIdentity:
    @settings(max_examples=12, deadline=None)
    @given(order=st.sampled_from([1, 3, 5]),
           solver=st.sampled_from(["hllc", "hll", "rusanov"]),
           mode=st.sampled_from(["transposed", "auto"]),
           threads=st.sampled_from([1, 2, 3]),
           nx=st.integers(7, 18), ny=st.integers(7, 18),
           seed=st.integers(0, 2**31 - 1))
    def test_2d_matches_strided(self, order, solver, mode, threads, nx, ny,
                                seed):
        q = random_q((nx, ny), seed)
        base = make_rhs((nx, ny), order=order, solver=solver)(q)
        rhs = make_rhs((nx, ny), order=order, solver=solver, threads=threads,
                       sweep_layout=mode)
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
        # Transposed scratch is reused across calls; stale ghost or face
        # data from call N must not leak into call N+1.
        shape = (12, 10)
        strided, transposed = make_rhs(shape), make_rhs(
            shape, sweep_layout="transposed")
        for seed in range(3):
            q = random_q(shape, seed)
            np.testing.assert_array_equal(transposed(q), strided(q))

    def test_no_workspace_falls_back_to_strided(self):
        rhs = make_rhs((10, 9), sweep_layout="transposed",
                       use_workspace=False)
        assert [p["kind"] for p in rhs.tile_plan()["directions"]] == [
            "strided", "strided"]
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

    def test_auto_mode_runs(self):
        sim = bubble_sim(sweep_layout="auto")
        sim.run(n_steps=2)
        sim.validate_state()

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
        rhs = make_rhs((11, 9, 8), sweep_layout="transposed", tiles=2)
        ws = rhs.workspace
        nv = rhs.layout.nvars
        ng = rhs.ghost_width
        for _ in range(2):  # a later direction may outgrow the first pool
            rhs(random_q((11, 9, 8), 2))
        # One arena per swept direction, in that direction's layout.
        assert sorted((d, t) for d, t, _ in ws._arenas) == [
            (0, True), (1, True), (2, False)]
        # Reconstruction axis last, padded by the ghost width; the slab
        # (axis 1) holds the wider tile of the uneven 2-way split.
        x, y = ws.tile_arena(0, 5, transposed=True), ws.tile_arena(
            1, 6, transposed=True)
        assert x.tpad.shape == (nv, 5, 8, 11 + 2 * ng)
        assert y.tpad.shape == (nv, 6, 8, 9 + 2 * ng)
        assert x.tvl.shape == x.tflux.shape == (nv, 5, 8, 12)
        assert y.tuface.shape == (6, 8, 10)
        # Standard-layout scatter targets and their axis-last views.
        assert x.flux.shape == (nv, 12, 5, 8)
        assert x.flux_t.shape == x.tflux.shape
        assert np.shares_memory(x.flux_t, x.flux)
        assert y.uface.shape == (6, 10, 8)
        assert y.uface_t.shape == y.tuface.shape

    def test_narrowed_arena_is_contiguous_and_aliases(self):
        """One contiguous pool block per buffer; the axis-last views the
        WENO kernels take of a strided tile's scratch are axis-permuted
        views of blocks in the tile's own (standard) order."""
        for transposed, variant in itertools.product(
                (False, True), ("chained", "stacked")):
            ws = make_rhs((11, 9, 8), sweep_layout="transposed",
                          weno_variant=variant).workspace
            arena = ws.tile_arena(0, 5, transposed=transposed)
            tile = arena.narrow(4)
            assert arena.narrow(5) is arena
            assert arena.narrow(4) is tile  # cached across tiles/steps
            assert tile.pool is arena.pool and tile.nbytes < arena.nbytes
            pad = tile.tpad if transposed else tile.pad
            for buf in (pad, tile.flux, tile.uface, tile.dscr,
                        *tile.wscr, tile.rscr.star_tmp):
                order = np.argsort([-s for s in buf.strides], kind="stable")
                assert buf.transpose(order).flags.c_contiguous
                assert np.shares_memory(buf, arena.pool)
            assert pad.shape[1 if transposed else 2] == 4
            # Scratch is handed out reconstruction-axis-last, in the
            # memory order of the face states it is combined with.
            vl = np.moveaxis(tile.tvl if transposed else tile.vl,
                             -1 if transposed else 1, -1)
            plain = tile.wscr[-1]
            assert plain.shape == vl.shape and plain.strides == vl.strides
            assert plain.flags.c_contiguous == transposed

    def test_strided_workspace_has_no_transposed_buffers(self):
        rhs = make_rhs((11, 9))
        for _ in range(2):
            rhs(random_q((11, 9), 3))
        arenas = list(rhs.workspace._arenas.values())
        assert len(arenas) == 2
        for arena in arenas:
            assert not arena.transposed
            assert not hasattr(arena, "tpad") and not hasattr(arena, "tflux")

    def test_transposed_bytes_counted_in_arena(self):
        q = random_q((16, 13), 4)
        strided = make_rhs((16, 13), tiles=1)
        transposed = make_rhs((16, 13), sweep_layout="transposed", tiles=1)
        strided(q), transposed(q)
        # The axis-last arena carries both layouts' flux and interface
        # velocity (work buffers + scatter targets).
        assert transposed.workspace.nbytes > strided.workspace.nbytes

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
        # Direction 1 is naturally contiguous: only direction 0 counts
        # as a strided sweep.
        assert c.strided_sweeps == 1
        assert c.transposed_sweeps == 0
        assert c.bytes_reconstructed_strided > 0
        assert c.bytes_reconstructed_contiguous > 0  # the trailing axis

    @pytest.mark.parametrize("threads", [1, 2])
    def test_transposed_run_counts_transposes(self, threads):
        rhs = make_rhs((10, 9), threads=threads, sweep_layout="transposed")
        rhs(random_q((10, 9), 0))
        c = rhs.sweep_counters
        assert c.transposed_sweeps == 1
        assert c.strided_sweeps == 0
        assert c.transposes == 3  # gather in, flux + u_face scatter out
        assert c.bytes_transposed > 0
        assert c.bytes_reconstructed_strided == 0

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
        assert d["bytes_reconstructed_contiguous"] == 200 + 50
        assert d["bytes_transposed"] == 300
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

    @pytest.mark.parametrize("mode", SWEEP_LAYOUTS)
    def test_bench_harness_accepts_layout(self, mode):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
        try:
            from bench_rhs import make_sim
        finally:
            sys.path.pop(0)
        sim = make_sim(8, layout=mode)
        sim.run(n_steps=1)
        sim.validate_state()
