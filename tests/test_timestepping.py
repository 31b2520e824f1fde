"""Tests for SSP-RK integrators and CFL step control."""

import numpy as np
import pytest

from repro.common import ConfigurationError, NumericsError
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.state import StateLayout, prim_to_cons
from repro.timestepping import (
    SSP_SCHEMES,
    cfl_dt,
    ssp_rk_step,
    wave_rate,
)
from repro.validation import observed_order

AIR = StiffenedGas(1.4)


class TestSSPRKSchemes:
    def test_tableaux_consistency(self):
        # Each stage's q_n/q_prev coefficients must sum to 1 (convexity).
        for order, stages in SSP_SCHEMES.items():
            for a, b, c in stages:
                assert a + b == pytest.approx(1.0), f"order {order}"
                assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and c > 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exact_on_constant_rhs(self, order):
        # dq/dt = k integrates exactly for any RK order.
        q = np.array([1.0])
        out = ssp_rk_step(lambda q: np.array([2.0]), q, 0.5, order)
        assert out[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("order,expected", [(1, 0.9), (2, 1.9), (3, 2.9)])
    def test_temporal_convergence_order(self, order, expected):
        # dq/dt = -q with exact solution e^{-t}.
        def run(dt):
            q = np.array([1.0])
            t = 0.0
            while t < 1.0 - 1e-12:
                q = ssp_rk_step(lambda q: -q, q, dt, order)
                t += dt
            return abs(q[0] - np.exp(-1.0))
        dts = [0.1, 0.05, 0.025, 0.0125]
        errors = [run(dt) for dt in dts]
        ns = [1.0 / dt for dt in dts]
        assert observed_order(ns, errors) > expected

    def test_linear_stability_with_cfl_one(self):
        # SSP property: forward-Euler-stable steps stay stable composed.
        q = np.array([1.0])
        for _ in range(100):
            q = ssp_rk_step(lambda q: -q, q, 1.0, 3)
        assert 0.0 < q[0] < 1.0

    def test_rejects_bad_order(self):
        with pytest.raises(ConfigurationError):
            ssp_rk_step(lambda q: q, np.array([1.0]), 0.1, 4)

    def test_does_not_mutate_input(self):
        q = np.array([1.0, 2.0])
        q_copy = q.copy()
        ssp_rk_step(lambda x: -x, q, 0.1, 3)
        np.testing.assert_array_equal(q, q_copy)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_preserves_shape_and_dtype(self, order):
        q = np.zeros((5, 4, 3))
        out = ssp_rk_step(lambda x: x * 0.0, q, 0.1, order)
        assert out.shape == q.shape and out.dtype == q.dtype


class TestDtThunk:
    """``dt`` may be a zero-argument callable (the rank worker's
    overlapped reduction): resolved once, after stage one's RHS."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("use_workspace", [False, True])
    def test_thunk_is_bitwise_the_scalar_step(self, order, use_workspace):
        from repro.bc import BoundarySet
        from repro.solver import Simulation
        from tests.test_procs import bubble_case

        sim = Simulation(bubble_case((12, 10)), BoundarySet.all_periodic(2),
                         use_workspace=use_workspace)
        q0, ws = np.array(sim.q), sim.rhs.workspace
        events = []

        def rhs(q, **kwargs):
            events.append("rhs")
            return sim.rhs(q, **kwargs)

        def thunk():
            events.append("dt")
            return 1e-3

        stepped = np.array(ssp_rk_step(rhs, q0.copy(), thunk, order,
                                       workspace=ws))
        assert events == ["rhs", "dt"] + ["rhs"] * (order - 1)
        ref = ssp_rk_step(sim.rhs, q0.copy(), 1e-3, order, workspace=ws)
        assert stepped.tobytes() == np.asarray(ref).tobytes()


class TestCFL:
    def setup_method(self):
        self.lay = StateLayout(ncomp=2, ndim=1)
        self.mix = Mixture((AIR, AIR))
        self.grid = StructuredGrid.uniform(((0.0, 1.0),), (10,))

    def make_prim(self, u=0.0, p=1.0, rho=1.0):
        prim = np.empty((self.lay.nvars, 10))
        prim[self.lay.partial_densities] = rho / 2.0
        prim[self.lay.velocity] = u
        prim[self.lay.pressure] = p
        prim[self.lay.advected] = 0.5
        return prim

    def test_max_wave_speed_still_gas(self):
        prim = self.make_prim()
        rate = wave_rate(self.lay, self.mix, prim, self.grid.width_fields())
        # (|u| + c) / dx = sqrt(1.4) / 0.1
        assert rate == pytest.approx(np.sqrt(1.4) / 0.1, rel=1e-12)

    def test_velocity_increases_rate(self):
        r0 = wave_rate(self.lay, self.mix, self.make_prim(u=0.0), self.grid.width_fields())
        r1 = wave_rate(self.lay, self.mix, self.make_prim(u=5.0), self.grid.width_fields())
        assert r1 == pytest.approx(r0 + 5.0 / 0.1, rel=1e-12)

    def test_cfl_dt_scaling(self):
        prim = self.make_prim()
        dt1 = cfl_dt(self.lay, self.mix, prim, self.grid, 0.5)
        dt2 = cfl_dt(self.lay, self.mix, prim, self.grid, 0.25)
        assert dt1 == pytest.approx(2.0 * dt2)

    def test_cfl_range_enforced(self):
        prim = self.make_prim()
        with pytest.raises(NumericsError):
            cfl_dt(self.lay, self.mix, prim, self.grid, 0.0)
        with pytest.raises(NumericsError):
            cfl_dt(self.lay, self.mix, prim, self.grid, 1.5)

    def test_nan_state_rejected(self):
        prim = self.make_prim()
        prim[self.lay.pressure] = np.nan
        with pytest.raises(NumericsError):
            cfl_dt(self.lay, self.mix, prim, self.grid, 0.5)

    def test_stretched_grid_uses_min_width(self):
        grid_s = StructuredGrid.stretched(((0.0, 1.0),), (10,), focus=(0.5,),
                                          strength=5.0)
        prim = self.make_prim()
        dt_u = cfl_dt(self.lay, self.mix, prim, self.grid, 0.5)
        dt_s = cfl_dt(self.lay, self.mix, prim, grid_s, 0.5)
        assert dt_s < dt_u


class TestBatchedCFL:
    """The batch-vectorised reduction replays the scalar one per case."""

    def setup_method(self):
        self.lay = StateLayout(ncomp=2, ndim=1)
        self.mix = Mixture((AIR, AIR))
        self.grid = StructuredGrid.uniform(((0.0, 1.0),), (10,))

    def make_prim(self, u=0.0, p=1.0, rho=1.0):
        prim = np.empty((self.lay.nvars, 10))
        prim[self.lay.partial_densities] = rho / 2.0
        prim[self.lay.velocity] = u
        prim[self.lay.pressure] = p
        prim[self.lay.advected] = 0.5
        return prim

    def test_vector_matches_scalar_bitwise(self):
        prims = [self.make_prim(u=u, p=p)
                 for u, p in ((0.0, 1.0), (3.0, 2.0), (-1.5, 0.7))]
        stacked = np.stack(prims, axis=1)
        rates = wave_rate(self.lay, self.mix, stacked, self.grid.width_fields())
        dts = cfl_dt(self.lay, self.mix, stacked, self.grid, 0.5)
        assert rates.shape == dts.shape == (3,)
        for i, prim in enumerate(prims):
            assert rates[i] == wave_rate(self.lay, self.mix, prim, self.grid.width_fields())
            assert dts[i] == cfl_dt(self.lay, self.mix, prim, self.grid, 0.5)

    def test_rank_blocks_reduce_to_the_whole_domain_rate(self):
        """``wave_rate`` on a rank's block and its block grid's widths
        is the arithmetic spelled out (below), and the max over ranks is
        bitwise the whole-domain rate."""
        from repro.cluster import BlockDecomposition
        from repro.state import cons_to_prim, full_alphas
        from tests.test_procs import MIX, bubble_case

        case = bubble_case((14, 12))
        lay = case.layout
        prim = cons_to_prim(lay, MIX, case.initial_conservative())
        decomp = BlockDecomposition((14, 12), (2, 2), periodic=(True, True))
        rates = []
        for r in range(decomp.nranks):
            widths = decomp.block_grid(case.grid, r).width_fields()
            block = prim[(slice(None), *decomp.local_slices(r))]
            rho = block[lay.partial_densities].sum(axis=0)
            c = MIX.sound_speed(full_alphas(lay, block[lay.advected]), rho,
                                block[lay.pressure])
            old = 0.0
            for d in range(lay.ndim):
                speed = np.abs(block[lay.momentum_component(d)]) + c
                old = max(old, float((speed / widths[d]).max()))
            rates.append(wave_rate(lay, MIX, block, widths))
            assert rates[-1] == old
        assert max(rates) == wave_rate(lay, MIX, prim,
                                       case.grid.width_fields())

    def test_error_names_the_bad_case(self):
        prims = [self.make_prim(), self.make_prim()]
        prims[1][self.lay.pressure] = np.nan
        stacked = np.stack(prims, axis=1)
        with pytest.raises(NumericsError, match="case 1"):
            cfl_dt(self.lay, self.mix, stacked, self.grid, 0.5)

    def test_cfl_range_enforced(self):
        stacked = np.stack([self.make_prim()], axis=1)
        with pytest.raises(NumericsError):
            cfl_dt(self.lay, self.mix, stacked, self.grid, 0.0)


class TestOneMarchLoop:
    """Regrowth guard: every march goes through one loop.  A second
    module calling the step body or the horizon predicate is a second
    march loop growing back."""

    @pytest.mark.parametrize("name", ["time_step", "horizon_reached"])
    def test_called_from_the_loop_module_only(self, name):
        assert callers_of(name) == {"repro/solver/march.py"}


def src_trees():
    """``(module path under src/, parsed tree)`` of every source file."""
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    return [(path.relative_to(src).as_posix(), ast.parse(path.read_text()))
            for path in sorted(src.rglob("*.py"))]


def callers_of(name: str) -> set[str]:
    """Modules under src/ that call ``name`` (bare or as an attribute)."""
    import ast

    return {module for module, tree in src_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))}


class TestOneHaloExchange:
    """Regrowth guard: one halo transport and one RK step body.  A second
    class with the transport's ``post``/``fill`` pair is a second halo
    exchange growing back; a caller of the stage tableau or the
    Shu-Osher combination outside ``repro.timestepping`` is a second
    step driver."""

    def test_one_class_defines_post_and_fill(self):
        import ast

        transports = [
            f"{module}:{node.name}" for module, tree in src_trees()
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and {"post", "fill"} <= {item.name for item in node.body
                                     if isinstance(item, ast.FunctionDef)}]
        assert transports == ["repro/cluster/procs.py:SharedMemoryTransport"]

    @pytest.mark.parametrize("name", ["rk_stages", "shu_osher_combine"])
    def test_stage_arithmetic_called_in_timestepping_only(self, name):
        callers = callers_of(name)
        assert callers and all(module.startswith("repro/timestepping/")
                               for module in callers), callers

    def test_removed_drivers_are_not_exported(self):
        import repro.cluster as cluster

        for name in ("DistributedSolver", "HaloExchanger"):
            assert name not in cluster.__all__
            assert not hasattr(cluster, name)


class TestOneRHS:
    """Regrowth guard: a rank runs the serial RHS over its block grid.
    A second module building a sweep engine or a workspace, or adding
    the nonconservative term itself, is a second RHS driver growing
    back."""

    @pytest.mark.parametrize("name", ["SweepEngine", "SolverWorkspace",
                                      "nonconservative_tile"])
    def test_called_from_the_rhs_module_only(self, name):
        assert callers_of(name) == {"repro/solver/rhs.py"}

    def test_no_rank_solver_export(self):
        import repro.cluster as cluster

        assert "RankSolver" not in cluster.__all__
        assert not hasattr(cluster, "RankSolver")


class TestOneRankTileBody:
    """Regrowth guard: a rank tile is a serial tile with another ghost
    source.  A face-span split around the halo wait (its ``split=``
    sweep, end-strip arenas and per-direction ``_split`` flags) keeps a
    rank's faces out of the active spans; it must not grow back."""

    def test_no_split_phases(self):
        import inspect

        from repro.solver.sweep import SweepEngine
        from repro.solver.workspace import SolverWorkspace

        assert "split" not in inspect.signature(SweepEngine.sweep).parameters
        assert "strip" not in inspect.signature(
            SolverWorkspace.tile_arena).parameters

    def test_two_rank_team_skips_uniform_faces(self):
        from repro.bc import BoundarySet
        from repro.profiling.counters import SweepCounters
        from tests.test_tiles import bubble_case, rank_team, team_rhs

        # Periodic on both axes: every direction of both ranks has a
        # neighbour, and every tile still skips its uniform faces.
        case = bubble_case((24, 16))
        arena, team = rank_team(case, BoundarySet.all_periodic(2), (2, 1))
        team_rhs(arena, team, case.initial_conservative())
        merged = SweepCounters()
        for rank in team:
            assert not hasattr(rank, "_split")
            merged.merge(rank.sweep_counters)
        assert 0 < merged.faces_evaluated < merged.faces
