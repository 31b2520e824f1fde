"""Tests for the viscous stress terms."""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, kinetic_energy
from repro.solver.viscous import Viscosity, viscous_rhs
from repro.state import StateLayout, prim_to_cons

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))
LAY2 = StateLayout(2, 2)


def grid2d(n=32, length=2 * np.pi):
    return StructuredGrid.uniform(((0.0, length), (0.0, length)), (n, n))


def base_prim(grid, p=50.0):
    prim = np.empty((LAY2.nvars, *grid.shape), dtype=DTYPE)
    prim[LAY2.partial_densities] = 0.5
    prim[LAY2.velocity] = 0.0
    prim[LAY2.pressure] = p
    prim[LAY2.advected] = 0.5
    return prim


class TestViscosity:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Viscosity(())
        with pytest.raises(ConfigurationError):
            Viscosity((-1.0,))

    def test_mixture_viscosity_weighting(self):
        grid = grid2d(8)
        prim = base_prim(grid)
        prim[LAY2.advected] = 0.25
        mu = Viscosity((1.0, 3.0)).mixture_mu(LAY2, prim)
        np.testing.assert_allclose(mu, 0.25 * 1.0 + 0.75 * 3.0)

    def test_component_count_checked(self):
        grid = grid2d(8)
        prim = base_prim(grid)
        with pytest.raises(ConfigurationError):
            Viscosity((1.0,)).mixture_mu(LAY2, prim)


class TestViscousRHS:
    def test_uniform_flow_stress_free(self):
        grid = grid2d(16)
        prim = base_prim(grid)
        prim[LAY2.momentum_component(0)] = 2.0
        dqdt = viscous_rhs(LAY2, grid, prim, Viscosity((0.1, 0.1)))
        np.testing.assert_allclose(dqdt, 0.0, atol=1e-12)

    def test_shear_layer_laplacian(self):
        # u = sin(y): d tau_xy/dy = mu u'' = -mu sin(y).
        grid = grid2d(128)
        prim = base_prim(grid)
        _, Y = grid.meshgrid()
        prim[LAY2.momentum_component(0)] = np.sin(Y)
        dqdt = viscous_rhs(LAY2, grid, prim, Viscosity((0.1, 0.1)))
        interior = (slice(4, -4), slice(4, -4))
        np.testing.assert_allclose(dqdt[LAY2.momentum_component(0)][interior],
                                   -0.1 * np.sin(Y)[interior], atol=2e-3)

    def test_zero_viscosity_is_zero(self):
        grid = grid2d(16)
        prim = base_prim(grid)
        rng = np.random.default_rng(0)
        prim[LAY2.velocity] = rng.random((2, *grid.shape))
        dqdt = viscous_rhs(LAY2, grid, prim, Viscosity((0.0, 0.0)))
        np.testing.assert_allclose(dqdt, 0.0, atol=1e-15)

    def test_only_momentum_and_energy_rows(self):
        grid = grid2d(16)
        prim = base_prim(grid)
        _, Y = grid.meshgrid()
        prim[LAY2.momentum_component(0)] = np.sin(Y)
        dqdt = viscous_rhs(LAY2, grid, prim, Viscosity((0.1, 0.1)))
        np.testing.assert_allclose(dqdt[LAY2.partial_densities], 0.0)
        np.testing.assert_allclose(dqdt[LAY2.advected], 0.0)


class TestViscousSimulation:
    def tg_sim(self, viscosity):
        grid = grid2d(48)
        case = Case(grid, MIX)
        case.add(Patch(box([0.0, 0.0], [7.0, 7.0]), (0.5, 0.5), (0.0, 0.0),
                       100.0, (0.5,)))
        sim = Simulation(case, BoundarySet.all_periodic(2), cfl=0.4,
                         config=RHSConfig(viscosity=viscosity), validate_every=0)
        X, Y = grid.meshgrid()
        prim = sim.primitive()
        lay = sim.layout
        prim[lay.momentum_component(0)] = np.cos(X) * np.sin(Y)
        prim[lay.momentum_component(1)] = -np.sin(X) * np.cos(Y)
        prim[lay.pressure] = 100.0 - 0.25 * (np.cos(2 * X) + np.cos(2 * Y))
        sim.q = prim_to_cons(lay, MIX, prim)
        return sim

    def test_taylor_green_viscous_decay_rate(self):
        # Incompressible TG decays as exp(-4 nu t) in KE (2D, k=1).
        mu = 0.05  # nu = mu / rho = 0.05
        sim = self.tg_sim((mu, mu))
        ke0 = kinetic_energy(sim.layout, sim.grid, sim.primitive())
        sim.run(t_end=1.0)
        ke1 = kinetic_energy(sim.layout, sim.grid, sim.primitive())
        expected = np.exp(-4.0 * mu / 1.0 * 1.0)
        assert ke1 / ke0 == pytest.approx(expected, rel=0.08)

    def test_viscous_decays_faster_than_inviscid(self):
        inviscid = self.tg_sim(None)
        viscous = self.tg_sim((0.05, 0.05))
        for sim in (inviscid, viscous):
            sim.run(t_end=0.5)
        ke_i = kinetic_energy(inviscid.layout, inviscid.grid, inviscid.primitive())
        ke_v = kinetic_energy(viscous.layout, viscous.grid, viscous.primitive())
        assert ke_v < ke_i

    def test_config_validates_viscosity(self):
        with pytest.raises(ConfigurationError):
            RHSConfig(viscosity=(-1.0, 0.0))

    def test_component_mismatch_at_rhs_construction(self):
        grid = grid2d(8)
        case = Case(grid, MIX)
        case.add(Patch(box([0, 0], [7, 7]), (0.5, 0.5), (0.0, 0.0), 1.0, (0.5,)))
        with pytest.raises(ConfigurationError):
            RHS(case.layout, MIX, grid, BoundarySet.all_periodic(2),
                RHSConfig(viscosity=(0.1,)))
