"""Grid-convergence studies on smooth problems, three-fluid runs, and
checkpoint/restart determinism."""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHSConfig, Simulation, box
from repro.state import StateLayout, prim_to_cons
from repro.validation import observed_order

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


def entropy_wave_sim(n, order, *, amplitude=0.2, u0=1.0):
    """A smooth density wave advecting in uniform p and u (exact solution:
    pure translation at speed u0)."""
    grid = StructuredGrid.uniform(((0.0, 1.0),), (n,))
    case = Case(grid, MIX)
    case.add(Patch(box([0.0], [1.0]), (0.5, 0.5), (u0,), 1.0, (0.5,)))
    sim = Simulation(case, BoundarySet.all_periodic(1),
                     config=RHSConfig(weno_order=order), cfl=0.4,
                     validate_every=0)
    x = grid.centers(0)
    prim = sim.primitive()
    lay = sim.layout
    rho = 1.0 + amplitude * np.sin(2 * np.pi * x)
    prim[lay.partial_densities] = rho / 2.0
    sim.q = prim_to_cons(lay, MIX, prim)
    return sim, x, rho


class TestSmoothConvergence:
    @pytest.mark.parametrize("order,expected", [(3, 1.8), (5, 2.5)])
    def test_entropy_wave_order(self, order, expected):
        # The entropy wave crosses the contact only, where HLLC is exact;
        # accuracy is limited by reconstruction (and, for WENO5, by the
        # smoothness-indicator behaviour at the wave's extrema).
        errors, ns = [], [32, 64, 128]
        for n in ns:
            sim, x, rho0 = entropy_wave_sim(n, order)
            t_end = 0.25  # wave moves a quarter period
            sim.run(t_end=t_end)
            prim = sim.primitive()
            rho = prim[sim.layout.partial_densities].sum(axis=0)
            exact = 1.0 + 0.2 * np.sin(2 * np.pi * (x - t_end))
            errors.append(np.abs(rho - exact).mean())
        assert observed_order(ns, errors) > expected

    def test_higher_order_is_more_accurate(self):
        errs = {}
        for order in (1, 3, 5):
            sim, x, _ = entropy_wave_sim(64, order)
            sim.run(t_end=0.25)
            rho = sim.primitive()[sim.layout.partial_densities].sum(axis=0)
            exact = 1.0 + 0.2 * np.sin(2 * np.pi * (x - 0.25))
            errs[order] = np.abs(rho - exact).mean()
        assert errs[5] < errs[3] < errs[1]

    def test_entropy_wave_keeps_pressure_velocity(self):
        sim, _, _ = entropy_wave_sim(64, 5)
        sim.run(t_end=0.25)
        prim = sim.primitive()
        lay = sim.layout
        np.testing.assert_allclose(prim[lay.pressure], 1.0, rtol=1e-6)
        np.testing.assert_allclose(prim[lay.velocity], 1.0, rtol=1e-6)


class TestThreeFluids:
    def make_case(self, n=64):
        fluids = (StiffenedGas(1.4, 0.0, "air"),
                  StiffenedGas(1.67, 0.0, "helium"),
                  StiffenedGas(6.12, 3.43e8, "water"))
        mix = Mixture(fluids)
        grid = StructuredGrid.uniform(((0.0, 1.0),), (n,))
        case = Case(grid, mix)
        eps = 1e-6
        # Three side-by-side slabs of nearly pure fluid.
        case.add(Patch(box([0.0], [1.0]),
                       ((1 - 2 * eps) * 1.2, eps * 0.16, eps * 1000.0),
                       (0.0,), 1e5, (1 - 2 * eps, eps)))
        case.add(Patch(box([0.33], [0.66]),
                       (eps * 1.2, (1 - 2 * eps) * 0.16, eps * 1000.0),
                       (0.0,), 1e5, (eps, 1 - 2 * eps)))
        case.add(Patch(box([0.66], [1.0]),
                       (eps * 1.2, eps * 0.16, (1 - 2 * eps) * 1000.0),
                       (0.0,), 1e5, (eps, eps)))
        return case

    def test_layout_and_ic(self):
        case = self.make_case()
        lay = case.layout
        # 3 densities + 1 momentum + energy + 2 advected fractions.
        assert lay.ncomp == 3 and lay.nvars == 7
        q = case.initial_conservative()
        assert np.all(np.isfinite(q))

    def test_three_fluid_equilibrium_preserved(self):
        case = self.make_case()
        sim = Simulation(case, BoundarySet.all_extrapolation(1), cfl=0.3,
                         validate_every=1)
        sim.run(n_steps=30)
        sim.validate_state()
        prim = sim.primitive()
        lay = sim.layout
        # Uniform p/u IC must stay in equilibrium (to limiter tolerance).
        np.testing.assert_allclose(prim[lay.pressure], 1e5, rtol=1e-4)
        assert np.abs(prim[lay.velocity]).max() < 10.0

    def test_three_fluid_shock(self):
        case = self.make_case()
        # Pressurise the first slab.
        case.add(Patch(box([0.0], [0.15]),
                       ((1 - 2e-6) * 2.4, 1e-6 * 0.16, 1e-6 * 1000.0),
                       (0.0,), 1e6, (1 - 2e-6, 1e-6)))
        sim = Simulation(case, BoundarySet.all_extrapolation(1), cfl=0.3,
                         validate_every=5)
        sim.run(n_steps=60)
        sim.validate_state()


class TestCheckpointRestart:
    def test_restart_is_deterministic(self, tmp_path):
        from repro import quickstart_sod

        ref = quickstart_sod(96)
        ref.fixed_dt = 1e-3
        ref.run(n_steps=10)

        first = quickstart_sod(96)
        first.fixed_dt = 1e-3
        first.run(n_steps=5)
        first.save_checkpoint(tmp_path / "ck.bin")

        second = quickstart_sod(96)
        second.fixed_dt = 1e-3
        second.load_checkpoint(tmp_path / "ck.bin")
        assert second.step_count == 5
        second.run(n_steps=5)

        np.testing.assert_array_equal(second.q, ref.q)
        assert second.time == pytest.approx(ref.time)

    def test_checkpoint_shape_mismatch(self, tmp_path):
        from repro import quickstart_sod

        a = quickstart_sod(32)
        a.save_checkpoint(tmp_path / "ck.bin")
        b = quickstart_sod(64)
        with pytest.raises(ConfigurationError):
            b.load_checkpoint(tmp_path / "ck.bin")
