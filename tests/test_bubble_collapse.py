"""Spherical bubble collapse (paper §III.F lists it among MFC's
validation cases).

A gas bubble centred on the axis of an axisymmetric ``(x, r)`` domain
collapses under a liquid overpressure.  The Rayleigh collapse time

.. math::

    t_c = 0.915\\, R_0 \\sqrt{\\rho_\\ell / \\Delta p}

sets the scaling law we verify: quadrupling the driving overpressure
must halve the collapse time (up to compressibility and grid effects).
"""

import numpy as np
import pytest

from repro.bc import BC, BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHSConfig, Simulation, box, phase_volumes, sphere

GAS = StiffenedGas(1.4, 0.0, "gas")
LIQUID = StiffenedGas(4.4, 0.0, "liquid")  # dense ideal gas as the liquid


def collapse_sim(delta_p, *, n=48, r0=0.15, rho_l=1000.0):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 0.5)), (n, n // 2))
    mix = Mixture((GAS, LIQUID))
    case = Case(grid, mix)
    eps = 1e-6
    p_inf = 1.0 + delta_p
    case.add(Patch(box([0.0, 0.0], [1.0, 1.0]),
                   (eps * 1.0, (1 - eps) * rho_l),
                   (0.0, 0.0), p_inf, (eps,)))
    case.add(Patch(sphere([0.5, 0.0], r0),
                   ((1 - eps) * 1.0, eps * rho_l),
                   (0.0, 0.0), 1.0, (1 - eps,), smear=0.02))
    bcs = BoundarySet(((BC.EXTRAPOLATION, BC.EXTRAPOLATION),
                       (BC.REFLECTIVE, BC.EXTRAPOLATION)))
    return Simulation(case, bcs, config=RHSConfig(geometry="axisymmetric"),
                      cfl=0.4, validate_every=0)


def time_to_min_volume(sim, *, t_max, rayleigh_estimate):
    lay = sim.layout
    best_t, best_v = 0.0, np.inf
    v0 = phase_volumes(lay, sim.grid, sim.primitive())[0]
    while sim.time < t_max:
        sim.step()
        v = phase_volumes(lay, sim.grid, sim.primitive())[0]
        if v < best_v:
            best_v, best_t = v, sim.time
        # Stop early once well past the estimated collapse time.
        if sim.time > 1.6 * rayleigh_estimate and best_v < 0.6 * v0:
            break
    return best_t, best_v / v0


def rayleigh_time(r0, rho_l, delta_p):
    return 0.915 * r0 * np.sqrt(rho_l / delta_p)


class TestBubbleCollapse:
    @pytest.fixture(scope="class")
    def collapse_results(self):
        out = {}
        for dp in (10.0, 40.0):
            sim = collapse_sim(dp)
            t_ray = rayleigh_time(0.15, 1000.0, dp)
            out[dp] = time_to_min_volume(sim, t_max=2.0 * t_ray,
                                         rayleigh_estimate=t_ray)
        return out

    def test_bubble_actually_collapses(self, collapse_results):
        for dp, (t_min, v_frac) in collapse_results.items():
            assert v_frac < 0.7, f"dp={dp}: volume only fell to {v_frac:.2f}"
            assert t_min > 0.0

    def test_rayleigh_pressure_scaling(self, collapse_results):
        # Quadrupled overpressure -> half the collapse time (Rayleigh).
        t10, _ = collapse_results[10.0]
        t40, _ = collapse_results[40.0]
        assert t10 / t40 == pytest.approx(2.0, rel=0.35)

    def test_collapse_time_order_of_rayleigh(self, collapse_results):
        for dp, (t_min, _) in collapse_results.items():
            t_ray = rayleigh_time(0.15, 1000.0, dp)
            assert 0.4 * t_ray < t_min < 2.0 * t_ray
