"""Discrete symmetry preservation — a sensitive detector of flux or
indexing asymmetries that norms miss."""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHSConfig, Simulation, box, sphere

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


class TestMirrorSymmetry1D:
    def run_double_blast(self, order):
        n = 128  # even: symmetric about the midpoint
        grid = StructuredGrid.uniform(((0.0, 1.0),), (n,))
        case = Case(grid, MIX)
        case.add(Patch(box([0.0], [1.0]), (0.5, 0.5), (0.0,), 0.1, (0.5,)))
        case.add(Patch(box([0.4], [0.6]), (0.5, 0.5), (0.0,), 5.0, (0.5,)))
        sim = Simulation(case, BoundarySet.all_reflective(1),
                         config=RHSConfig(weno_order=order), cfl=0.4,
                         validate_every=0)
        sim.run(n_steps=40)
        return sim

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_density_stays_mirror_symmetric(self, order):
        sim = self.run_double_blast(order)
        prim = sim.primitive()
        lay = sim.layout
        rho = prim[lay.partial_densities].sum(axis=0)
        np.testing.assert_allclose(rho, rho[::-1], rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("order", [3, 5])
    def test_velocity_stays_antisymmetric(self, order):
        sim = self.run_double_blast(order)
        u = sim.primitive()[sim.layout.momentum_component(0)]
        np.testing.assert_allclose(u, -u[::-1], rtol=1e-10, atol=1e-11)


class TestQuadrantSymmetry2D:
    def run_quadrant(self):
        n = 48
        grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
        case = Case(grid, MIX)
        case.add(Patch(box([0, 0], [1, 1]), (0.5, 0.5), (0.0, 0.0), 1.0, (0.5,)))
        case.add(Patch(sphere([0.5, 0.5], 0.2), (1.0, 1.0), (0.0, 0.0), 6.0,
                       (0.5,)))
        sim = Simulation(case, BoundarySet.all_reflective(2), cfl=0.4,
                         validate_every=0)
        sim.run(n_steps=25)
        return sim

    def test_four_fold_symmetry(self):
        sim = self.run_quadrant()
        p = sim.primitive()[sim.layout.pressure]
        np.testing.assert_allclose(p, p[::-1, :], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(p, p[:, ::-1], rtol=1e-10, atol=1e-12)

    def test_diagonal_symmetry(self):
        sim = self.run_quadrant()
        p = sim.primitive()[sim.layout.pressure]
        np.testing.assert_allclose(p, p.T, rtol=1e-10, atol=1e-12)

    def test_velocity_antisymmetry(self):
        sim = self.run_quadrant()
        lay = sim.layout
        u = sim.primitive()[lay.momentum_component(0)]
        v = sim.primitive()[lay.momentum_component(1)]
        np.testing.assert_allclose(u, -u[::-1, :], rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(u, v.T, rtol=1e-9, atol=1e-11)


class TestRotationalInvariance:
    def test_x_and_y_sweeps_equivalent(self):
        """A 1D problem embedded along x or along y must produce the
        transposed solution: the dimension-split fluxes are isotropic."""
        n = 64
        bcs = BoundarySet.all_extrapolation(2)

        def run(axis):
            grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
            case = Case(grid, MIX)
            case.add(Patch(box([0, 0], [1, 1]), (0.0625, 0.0625), (0.0, 0.0),
                           0.1, (0.5,)))
            if axis == 0:
                case.add(Patch(box([0.0, 0.0], [0.5, 1.0]), (0.5, 0.5),
                               (0.0, 0.0), 1.0, (0.5,)))
            else:
                case.add(Patch(box([0.0, 0.0], [1.0, 0.5]), (0.5, 0.5),
                               (0.0, 0.0), 1.0, (0.5,)))
            sim = Simulation(case, bcs, fixed_dt=5e-4, validate_every=0)
            sim.run(n_steps=30)
            return sim

        sx = run(0)
        sy = run(1)
        rho_x = sx.primitive()[sx.layout.partial_densities].sum(axis=0)
        rho_y = sy.primitive()[sy.layout.partial_densities].sum(axis=0)
        np.testing.assert_allclose(rho_x, rho_y.T, rtol=1e-12)
        # Velocity components swap under the transpose.
        u_x = sx.primitive()[sx.layout.momentum_component(0)]
        v_y = sy.primitive()[sy.layout.momentum_component(1)]
        np.testing.assert_allclose(u_x, v_y.T, rtol=1e-12, atol=1e-15)
