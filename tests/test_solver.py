"""Tests for RHS assembly, case/patch setup, and the simulation driver."""

import numpy as np
import pytest

from repro.bc import BC, BoundarySet
from repro.common import ConfigurationError, DTYPE, NumericsError, Stopwatch
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, halfspace, sphere
from repro.state import StateLayout, cons_to_prim, prim_to_cons
from repro.validation import sod_solution

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))


def uniform_case_2d(n=16, u=(0.0, 0.0), p=1.0):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=u, pressure=p, alpha=(0.5,)))
    return case


class TestPatchGeometry:
    def test_box_region(self):
        r = box([0.0], [0.5])
        x = np.array([0.1, 0.5, 0.9])
        np.testing.assert_array_equal(r(x), [True, False, False])

    def test_sphere_region_2d(self):
        r = sphere([0.5, 0.5], 0.25)
        x = np.array([0.5, 0.5, 0.9])
        y = np.array([0.5, 0.8, 0.9])
        np.testing.assert_array_equal(r(x, y), [True, False, False])

    def test_halfspace_sides(self):
        below = halfspace(0, 0.5, side="below")
        above = halfspace(0, 0.5, side="above")
        x = np.array([0.2, 0.7])
        np.testing.assert_array_equal(below(x), [True, False])
        np.testing.assert_array_equal(above(x), [False, True])

    def test_halfspace_bad_side(self):
        with pytest.raises(ConfigurationError):
            halfspace(0, 0.5, side="left")


class TestCase:
    def test_first_patch_must_cover_domain(self):
        grid = StructuredGrid.uniform(((0.0, 1.0),), (8,))
        case = Case(grid, MIX)
        case.add(Patch(halfspace(0, 0.5), (0.5, 0.5), (0.0,), 1.0, (0.5,)))
        with pytest.raises(ConfigurationError):
            case.initial_primitive()

    def test_no_patches_rejected(self):
        grid = StructuredGrid.uniform(((0.0, 1.0),), (8,))
        with pytest.raises(ConfigurationError):
            Case(grid, MIX).initial_primitive()

    def test_patch_layering(self):
        grid = StructuredGrid.uniform(((0.0, 1.0),), (10,))
        case = Case(grid, MIX)
        case.add(Patch(box([0.0], [1.0]), (0.5, 0.5), (0.0,), 1.0, (0.5,)))
        case.add(Patch(halfspace(0, 0.5), (1.0, 1.0), (0.0,), 2.0, (0.5,)))
        prim = case.initial_primitive()
        lay = case.layout
        assert prim[lay.pressure, 0] == 2.0
        assert prim[lay.pressure, -1] == 1.0

    def test_patch_validation(self):
        grid = StructuredGrid.uniform(((0.0, 1.0),), (8,))
        case = Case(grid, MIX)
        with pytest.raises(ConfigurationError):
            case.add(Patch(box([0.0], [1.0]), (0.5,), (0.0,), 1.0, (0.5,)))
        with pytest.raises(ConfigurationError):
            case.add(Patch(box([0.0], [1.0]), (0.5, 0.5), (0.0, 0.0), 1.0, (0.5,)))

    def test_smeared_sphere_is_diffuse(self):
        grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (32, 32))
        case = Case(grid, MIX)
        case.add(Patch(box([0, 0], [1, 1]), (1.0, 0.0), (0.0, 0.0), 1.0, (1.0,)))
        case.add(Patch(sphere([0.5, 0.5], 0.2), (0.0, 1.0), (0.0, 0.0), 1.0,
                       (0.0,), smear=0.05))
        prim = case.initial_primitive()
        lay = case.layout
        alpha = prim[lay.advected][0]
        # The interface must contain intermediate values, not a sharp jump.
        assert np.any((alpha > 0.2) & (alpha < 0.8))

    def test_initial_conservative_consistent(self):
        case = uniform_case_2d()
        prim = case.initial_primitive()
        q = case.initial_conservative()
        back = cons_to_prim(case.layout, MIX, q)
        np.testing.assert_allclose(back, prim, rtol=1e-12)


class TestRHS:
    def test_uniform_state_has_zero_rhs(self):
        # Free-stream preservation: a uniform moving state must not evolve.
        case = uniform_case_2d(u=(3.0, -2.0), p=2.0)
        rhs = RHS(case.layout, MIX, case.grid, BoundarySet.all_periodic(2))
        q = case.initial_conservative()
        dqdt = rhs(q)
        np.testing.assert_allclose(dqdt, 0.0, atol=1e-10)

    def test_uniform_pressure_velocity_equilibrium_preserved(self):
        # The Allaire model's design property: a density/volume-fraction
        # disturbance in uniform p and u must keep p and u uniform.
        grid = StructuredGrid.uniform(((0.0, 1.0),), (64,))
        case = Case(grid, MIX)
        case.add(Patch(box([0.0], [1.0]), (0.8, 0.2), (1.0,), 1.0, (0.8,)))
        case.add(Patch(box([0.3], [0.6]), (0.1, 0.9), (1.0,), 1.0, (0.1,)))
        sim = Simulation(case, BoundarySet.all_periodic(1), fixed_dt=1e-3)
        sim.run(n_steps=20)
        prim = sim.primitive()
        lay = case.layout
        np.testing.assert_allclose(prim[lay.pressure], 1.0, rtol=1e-7)
        np.testing.assert_allclose(prim[lay.velocity], 1.0, rtol=1e-7)

    def test_conservation_under_periodic_bcs(self):
        grid = StructuredGrid.uniform(((0.0, 1.0),), (64,))
        case = Case(grid, MIX)
        case.add(Patch(box([0.0], [1.0]), (0.5, 0.5), (0.0,), 1.0, (0.5,)))
        case.add(Patch(box([0.25], [0.75]), (1.0, 1.0), (0.0,), 2.0, (0.5,)))
        sim = Simulation(case, BoundarySet.all_periodic(1), cfl=0.4)
        t0 = sim.conserved_totals()
        sim.run(n_steps=30)
        t1 = sim.conserved_totals()
        lay = case.layout
        # Partial densities, momentum, energy are conservative variables.
        for v in list(range(lay.ncomp)) + [lay.momentum_component(0), lay.energy]:
            assert t1[v] == pytest.approx(t0[v], rel=1e-12, abs=1e-12)

    def test_rhs_dimension_mismatch(self):
        case = uniform_case_2d()
        with pytest.raises(ConfigurationError):
            RHS(StateLayout(2, 1), MIX, case.grid, BoundarySet.all_periodic(2))

    def test_bad_riemann_name(self):
        with pytest.raises(ConfigurationError):
            RHSConfig(riemann_solver="roe")

    def test_bad_weno_order(self):
        with pytest.raises(ConfigurationError):
            RHSConfig(weno_order=4)

    def test_stopwatch_records_kernel_families(self):
        # A uniform field's tiles evaluate no face (its stencils are all
        # bitwise uniform): a bubble gives the kernels work.
        case = uniform_case_2d(n=12)
        case.add(Patch(sphere([0.5, 0.5], 0.25), alpha_rho=(1.0, 1.0),
                       velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
        sw = Stopwatch()
        rhs = RHS(case.layout, MIX, case.grid, BoundarySet.all_periodic(2),
                  stopwatch=sw)
        rhs(case.initial_conservative())
        assert {"weno", "riemann", "packing", "other"} <= set(sw.laps)


class TestSimulation:
    def test_sod_matches_exact_solution(self):
        from repro import quickstart_sod
        sim = quickstart_sod(400)
        sim.run(t_end=0.2)
        prim = sim.primitive()
        lay = sim.layout
        x = sim.grid.centers(0)
        rho_e, u_e, p_e = sod_solution(x, 0.2)
        rho = prim[lay.partial_densities].sum(axis=0)
        # L1 errors against the exact profile.
        assert np.abs(rho - rho_e).mean() < 0.01
        assert np.abs(prim[lay.velocity][0] - u_e).mean() < 0.02
        assert np.abs(prim[lay.pressure] - p_e).mean() < 0.01

    def test_run_lands_exactly_on_t_end(self):
        from repro import quickstart_sod
        sim = quickstart_sod(64)
        sim.run(t_end=0.05)
        assert sim.time == pytest.approx(0.05, rel=1e-12)

    def test_run_arg_validation(self):
        from repro import quickstart_sod
        sim = quickstart_sod(32)
        with pytest.raises(ConfigurationError):
            sim.run()
        with pytest.raises(ConfigurationError):
            sim.run(t_end=0.1, n_steps=5)

    def test_callback_invoked_each_step(self):
        from repro import quickstart_sod
        sim = quickstart_sod(32)
        seen = []
        sim.run(n_steps=5, callback=lambda s, rec: seen.append(rec.step))
        assert seen == [1, 2, 3, 4, 5]

    def test_validate_state_catches_nan(self):
        from repro import quickstart_sod
        sim = quickstart_sod(32)
        sim.q[0, 0] = np.nan
        with pytest.raises(NumericsError):
            sim.validate_state()

    def test_grind_time_requires_history(self):
        from repro import quickstart_sod
        sim = quickstart_sod(32)
        with pytest.raises(NumericsError):
            sim.grind_time_ns()

    def test_grind_time_positive_after_run(self):
        from repro import quickstart_sod
        sim = quickstart_sod(32)
        sim.run(n_steps=3)
        assert sim.grind_time_ns() > 0.0

    def test_kernel_breakdown_fractions(self):
        from repro import quickstart_sod
        sim = quickstart_sod(32)
        sim.run(n_steps=3)
        frac = sim.kernel_breakdown()
        assert sum(frac.values()) == pytest.approx(1.0)
        assert frac["riemann"] > 0.0 and frac["weno"] > 0.0

    def test_reflective_box_keeps_mass(self):
        case = uniform_case_2d(n=16, p=1.0)
        case.add(Patch(sphere([0.5, 0.5], 0.2), (1.0, 1.0), (0.0, 0.0), 2.0, (0.5,)))
        sim = Simulation(case, BoundarySet.all_reflective(2), cfl=0.4)
        m0 = sim.conserved_totals()[:2].sum()
        sim.run(n_steps=10)
        m1 = sim.conserved_totals()[:2].sum()
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_weno3_also_runs_sod(self):
        from repro import quickstart_sod
        sim = quickstart_sod(128, weno_order=3)
        sim.run(t_end=0.1)
        assert np.all(np.isfinite(sim.q))

    @pytest.mark.parametrize("solver", ["hll", "rusanov"])
    def test_baseline_solvers_run(self, solver):
        from repro import quickstart_sod
        sim = quickstart_sod(128, riemann_solver=solver)
        sim.run(t_end=0.1)
        sim.validate_state()

    def test_hllc_sharper_than_rusanov_at_contact(self):
        from repro import quickstart_sod
        results = {}
        for solver in ("hllc", "rusanov"):
            sim = quickstart_sod(200, riemann_solver=solver)
            sim.run(t_end=0.2)
            prim = sim.primitive()
            rho = prim[sim.layout.partial_densities].sum(axis=0)
            x = sim.grid.centers(0)
            rho_e, _, _ = sod_solution(x, 0.2)
            results[solver] = np.abs(rho - rho_e).mean()
        assert results["hllc"] < results["rusanov"]
