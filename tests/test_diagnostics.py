"""Tests for flow diagnostics, including a Taylor-Green vortex run
(paper §III.F cites Taylor-Green among MFC's validation cases)."""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHSConfig, Simulation, box
from repro.solver.diagnostics import (
    enstrophy,
    interface_cells,
    kinetic_energy,
    max_mach,
    mixedness,
    phase_volumes,
)
from repro.state import StateLayout, prim_to_cons

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))
LAY2 = StateLayout(2, 2)


def uniform_prim(grid, u=(0.0, 0.0), p=1.0, rho=1.0, alpha=0.5):
    prim = np.empty((LAY2.nvars, *grid.shape), dtype=DTYPE)
    prim[LAY2.partial_densities] = rho / 2.0
    for d in range(2):
        prim[LAY2.momentum_component(d)] = u[d]
    prim[LAY2.pressure] = p
    prim[LAY2.advected] = alpha
    return prim


class TestBasicDiagnostics:
    def setup_method(self):
        self.grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (16, 16))

    def test_kinetic_energy_uniform_flow(self):
        prim = uniform_prim(self.grid, u=(3.0, 4.0))
        # 0.5 * 1 * 25 over a unit square.
        assert kinetic_energy(LAY2, self.grid, prim) == pytest.approx(12.5)

    def test_kinetic_energy_zero_at_rest(self):
        prim = uniform_prim(self.grid)
        assert kinetic_energy(LAY2, self.grid, prim) == 0.0

    def test_enstrophy_zero_for_uniform_flow(self):
        prim = uniform_prim(self.grid, u=(2.0, -1.0))
        assert enstrophy(LAY2, self.grid, prim) == pytest.approx(0.0, abs=1e-20)

    def test_enstrophy_positive_for_shear(self):
        prim = uniform_prim(self.grid)
        X, Y = self.grid.meshgrid()
        prim[LAY2.momentum_component(0)] = Y  # du/dy = 1 -> omega = -1
        ens = enstrophy(LAY2, self.grid, prim)
        assert ens == pytest.approx(0.5, rel=0.05)

    def test_enstrophy_needs_2d(self):
        grid1 = StructuredGrid.uniform(((0.0, 1.0),), (8,))
        lay1 = StateLayout(2, 1)
        prim = np.zeros((lay1.nvars, 8))
        with pytest.raises(ConfigurationError):
            enstrophy(lay1, grid1, prim)

    def test_max_mach(self):
        prim = uniform_prim(self.grid, u=(np.sqrt(1.4), 0.0))  # c = sqrt(1.4)
        assert max_mach(LAY2, MIX, prim) == pytest.approx(1.0, rel=1e-10)

    def test_phase_volumes_sum_to_domain(self):
        prim = uniform_prim(self.grid, alpha=0.3)
        vols = phase_volumes(LAY2, self.grid, prim)
        assert vols.sum() == pytest.approx(1.0)
        assert vols[0] == pytest.approx(0.3)

    def test_mixedness_limits(self):
        pure = uniform_prim(self.grid, alpha=1.0 - 1e-12)
        mixed = uniform_prim(self.grid, alpha=0.5)
        assert mixedness(LAY2, self.grid, pure) == pytest.approx(0.0, abs=1e-9)
        assert mixedness(LAY2, self.grid, mixed) == pytest.approx(1.0)

    def test_mixedness_two_components_only(self):
        lay3 = StateLayout(3, 2)
        prim = np.zeros((lay3.nvars, 4, 4))
        with pytest.raises(ConfigurationError):
            mixedness(lay3, self.grid, prim)

    def test_interface_cells(self):
        prim = uniform_prim(self.grid, alpha=1.0 - 1e-12)
        assert interface_cells(LAY2, prim) == 0
        prim[LAY2.advected, 3:5, :] = 0.5
        assert interface_cells(LAY2, prim) == 2 * 16


class TestTaylorGreen:
    """Inviscid 2D Taylor-Green: at low Mach the flow is nearly
    incompressible and kinetic energy is conserved to a few percent over
    an eddy turnover (no physical dissipation in the model)."""

    def run_tg(self, n=48, steps=60):
        grid = StructuredGrid.uniform(((0.0, 2 * np.pi), (0.0, 2 * np.pi)),
                                      (n, n))
        case = Case(grid, MIX)
        case.add(Patch(box([0.0, 0.0], [7.0, 7.0]), (0.5, 0.5),
                       (0.0, 0.0), 100.0, (0.5,)))  # p >> rho u^2: Mach ~ 0.08
        sim = Simulation(case, BoundarySet.all_periodic(2), cfl=0.4,
                         validate_every=0)
        X, Y = grid.meshgrid()
        prim = sim.primitive()
        lay = sim.layout
        prim[lay.momentum_component(0)] = np.cos(X) * np.sin(Y)
        prim[lay.momentum_component(1)] = -np.sin(X) * np.cos(Y)
        # Incompressible TG pressure field keeps the IC near equilibrium.
        prim[lay.pressure] = 100.0 - 0.25 * (np.cos(2 * X) + np.cos(2 * Y))
        sim.q = prim_to_cons(lay, MIX, prim)
        ke0 = kinetic_energy(lay, grid, sim.primitive())
        ens0 = enstrophy(lay, grid, sim.primitive())
        sim.run(n_steps=steps)
        prim = sim.primitive()
        return sim, ke0, ens0, kinetic_energy(lay, grid, prim), \
            enstrophy(lay, grid, prim)

    def test_kinetic_energy_nearly_conserved(self):
        sim, ke0, _, ke1, _ = self.run_tg()
        assert ke1 == pytest.approx(ke0, rel=0.05)
        sim.validate_state()

    def test_mach_stays_low(self):
        sim, *_ = self.run_tg(steps=20)
        assert max_mach(sim.layout, MIX, sim.primitive()) < 0.15

    def test_enstrophy_does_not_blow_up(self):
        _, _, ens0, _, ens1 = self.run_tg()
        assert ens1 < 2.0 * ens0
