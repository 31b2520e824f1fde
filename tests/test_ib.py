"""Tests for the ghost-cell immersed boundary method and geometries."""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import ConfigurationError
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.ib import Circle, ImmersedBoundary, NACA4
from repro.solver import Case, Patch, box
from repro.state import StateLayout, cons_to_prim

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))
LAY = StateLayout(2, 2)


class TestCircle:
    def test_sdf_signs(self):
        c = Circle((0.0, 0.0), 1.0)
        assert c.sdf(np.array(2.0), np.array(0.0)) == pytest.approx(1.0)
        assert c.sdf(np.array(0.0), np.array(0.0)) == pytest.approx(-1.0)
        assert c.sdf(np.array(1.0), np.array(0.0)) == pytest.approx(0.0)

    def test_normals_point_outward(self):
        c = Circle((0.0, 0.0), 1.0)
        nx, ny = c.normals(np.array(2.0), np.array(0.0))
        assert nx == pytest.approx(1.0, abs=1e-5)
        assert ny == pytest.approx(0.0, abs=1e-5)

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigurationError):
            Circle((0.0, 0.0), -1.0)


class TestNACA4:
    def test_code_validation(self):
        with pytest.raises(ConfigurationError):
            NACA4("24")
        with pytest.raises(ConfigurationError):
            NACA4("abcd")

    def test_vertices_closed_shape(self):
        foil = NACA4("2412")
        v = foil.vertices
        assert v.shape[1] == 2
        # Chord extent ~ [0, 1] for unit chord at zero AoA.
        assert v[:, 0].min() == pytest.approx(0.0, abs=1e-3)
        assert v[:, 0].max() == pytest.approx(1.0, abs=1e-2)

    def test_sdf_inside_outside(self):
        foil = NACA4("0012")  # symmetric
        # Mid-chord on the camber line is inside; far away is outside.
        assert foil.sdf(np.array(0.5), np.array(0.0)) < 0.0
        assert foil.sdf(np.array(0.5), np.array(1.0)) > 0.0
        assert foil.sdf(np.array(-1.0), np.array(0.0)) > 0.0

    def test_thickness_scales(self):
        thin = NACA4("0006")
        thick = NACA4("0024")
        y = np.array(0.08)
        x = np.array(0.3)
        # The thick foil contains a point the thin one does not.
        assert thick.sdf(x, y) < 0.0
        assert thin.sdf(x, y) > 0.0

    def test_camber_breaks_symmetry(self):
        foil = NACA4("2412")
        up = foil.sdf(np.array(0.4), np.array(0.05))
        down = foil.sdf(np.array(0.4), np.array(-0.05))
        assert up != pytest.approx(down, rel=1e-3)

    def test_symmetric_foil_is_symmetric(self):
        foil = NACA4("0012")
        up = foil.sdf(np.array(0.4), np.array(0.03))
        down = foil.sdf(np.array(0.4), np.array(-0.03))
        assert up == pytest.approx(down, rel=1e-2, abs=1e-5)

    def test_angle_of_attack_rotates(self):
        foil = NACA4("0012", angle_of_attack_deg=15.0)
        v = foil.vertices
        # Trailing edge drops below the leading edge at positive AoA.
        te = v[np.argmax(v[:, 0])]
        assert te[1] < 0.0

    def test_chord_scaling(self):
        foil = NACA4("0012", chord=2.0)
        assert foil.vertices[:, 0].max() == pytest.approx(2.0, abs=2e-2)


def circle_case(n=40):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), (0.5, 0.5), (1.0, 0.0), 1.0, (0.5,)))
    return case


class TestImmersedBoundary:
    def setup_method(self):
        self.case = circle_case()
        self.body = Circle((0.5, 0.5), 0.15)
        self.ib = ImmersedBoundary(self.case.grid, LAY, MIX, self.body)

    def test_cell_classification_partitions(self):
        total = self.ib.fluid.sum() + self.ib.ghost.sum() + self.ib.interior.sum()
        assert total == self.case.grid.num_cells
        assert self.ib.num_ghost_cells() > 0
        assert self.ib.num_fluid_cells() > self.ib.num_ghost_cells()

    def test_ghost_band_hugs_surface(self):
        X, Y = self.case.grid.meshgrid()
        sd = self.body.sdf(X, Y)
        assert np.all(sd[self.ib.ghost] <= 0.0)
        assert np.all(sd[self.ib.ghost] > -3.0 * 2.0 / 40.0)

    def test_apply_reflects_normal_velocity(self):
        q = self.case.initial_conservative()
        q2 = self.ib.apply(q)
        prim = cons_to_prim(LAY, MIX, q2)
        # Fluid region untouched.
        p0 = cons_to_prim(LAY, MIX, q)
        np.testing.assert_allclose(prim[:, self.ib.fluid], p0[:, self.ib.fluid],
                                   rtol=1e-12)
        # Ghost velocities mirror the uniform (1, 0) flow: the x-facing
        # ghosts see reversed normal velocity, so speeds stay bounded.
        speed = np.sqrt(prim[LAY.momentum_component(0)] ** 2
                        + prim[LAY.momentum_component(1)] ** 2)
        assert speed.max() <= 1.0 + 1e-9

    def test_apply_freezes_interior(self):
        q = self.case.initial_conservative()
        q2 = self.ib.apply(q)
        prim = cons_to_prim(LAY, MIX, q2)
        if np.any(self.ib.interior):
            assert np.allclose(prim[LAY.momentum_component(0)][self.ib.interior], 0.0)

    def test_tangential_flow_preserved_at_side_ghosts(self):
        # For a ghost directly below the circle centre, the outward
        # normal is -y; uniform x-velocity is tangential there and must
        # be preserved under slip reflection.
        q = self.case.initial_conservative()
        prim = cons_to_prim(LAY, MIX, self.ib.apply(q))
        X, Y = self.case.grid.meshgrid()
        mask = self.ib.ghost & (np.abs(X - 0.5) < 0.02) & (Y < 0.5)
        if np.any(mask):
            np.testing.assert_allclose(prim[LAY.momentum_component(0)][mask],
                                       1.0, rtol=0.05)

    def test_requires_2d(self):
        grid1 = StructuredGrid.uniform(((0.0, 1.0),), (10,))
        with pytest.raises(ConfigurationError):
            ImmersedBoundary(grid1, StateLayout(2, 1), MIX, self.body)

    def test_requires_uniform_grid(self):
        grid = StructuredGrid.stretched(((0.0, 1.0), (0.0, 1.0)), (20, 20),
                                        focus=(0.5, 0.5), strength=3.0)
        with pytest.raises(ConfigurationError):
            ImmersedBoundary(grid, LAY, MIX, self.body)

    def test_simulation_with_ib_stays_finite(self):
        sim = Simulation_with_ib()
        assert np.all(np.isfinite(sim.q))


def Simulation_with_ib():
    from repro.solver import Simulation
    case = circle_case(32)
    sim = Simulation(case, BoundarySet.all_extrapolation(2), cfl=0.4,
                     validate_every=0)
    ib = ImmersedBoundary(case.grid, LAY, MIX, Circle((0.5, 0.5), 0.15))
    sim.q = ib.apply(sim.q)
    for _ in range(5):
        sim.step()
        sim.q = ib.apply(sim.q)
    return sim
