"""Tests for snapshot time series, plus 3D end-to-end simulation coverage."""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.io.series import SeriesReader, SeriesWriter
from repro.solver import Case, Patch, Simulation, box, sphere

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


class TestSeriesWriter:
    def test_interval_logic(self, tmp_path):
        w = SeriesWriter(tmp_path, interval=3)
        q = np.zeros((3, 4), dtype=DTYPE)
        written = [w.maybe_write(q, step=s, time=s * 0.1) for s in range(7)]
        assert written == [True, False, False, True, False, False, True]
        assert len(w.entries) == 3

    def test_manifest_roundtrip(self, tmp_path):
        w = SeriesWriter(tmp_path, interval=1)
        for s in range(4):
            q = np.full((2, 3), float(s), dtype=DTYPE)
            w.write(q, step=s, time=s * 0.5)
        r = SeriesReader(tmp_path)
        assert len(r) == 4
        assert r.times() == [0.0, 0.5, 1.0, 1.5]
        header, q = r.load(2)
        assert header.step == 2
        np.testing.assert_array_equal(q, 2.0)

    def test_iteration(self, tmp_path):
        w = SeriesWriter(tmp_path, interval=1)
        for s in range(3):
            w.write(np.zeros((2, 2), dtype=DTYPE), step=s, time=float(s))
        steps = [h.step for h, _ in SeriesReader(tmp_path)]
        assert steps == [0, 1, 2]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SeriesReader(tmp_path)

    def test_invalid_interval(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SeriesWriter(tmp_path, interval=0)

    def test_simulation_callback_integration(self, tmp_path):
        from repro import quickstart_sod

        sim = quickstart_sod(48)
        sim.fixed_dt = 1e-3
        writer = SeriesWriter(tmp_path, interval=2)
        sim.run(n_steps=6, callback=writer.callback)
        reader = SeriesReader(tmp_path)
        assert [e.step for e in reader.entries] == [2, 4, 6]
        # Last snapshot equals the final state.
        _, q_last = reader.load(-1)
        np.testing.assert_array_equal(q_last, sim.q)


class Test3DSimulation:
    """End-to-end 3D coverage: a small spherical shock-bubble run (the
    §VI-C configuration in miniature)."""

    def make_sim(self, n=20):
        grid = StructuredGrid.uniform(((0.0, 1.0),) * 3, (n, n, n))
        case = Case(grid, MIX)
        case.add(Patch(box([0.0] * 3, [1.0] * 3), (0.5, 0.5),
                       (0.0, 0.0, 0.0), 1.0, (0.5,)))
        case.add(Patch(sphere([0.5] * 3, 0.2), (0.1, 0.1),
                       (0.0, 0.0, 0.0), 1.0, (0.5,), smear=0.05))
        case.add(Patch(box([0.0, 0.0, 0.0], [0.2, 1.0, 1.0]), (1.0, 1.0),
                       (1.0, 0.0, 0.0), 3.0, (0.5,)))
        return Simulation(case, BoundarySet.all_extrapolation(3), cfl=0.4,
                          validate_every=5)

    def test_3d_run_stays_physical(self):
        sim = self.make_sim()
        sim.run(n_steps=12)
        sim.validate_state()
        assert sim.time > 0.0

    def test_3d_conservation_periodic(self):
        grid = StructuredGrid.uniform(((0.0, 1.0),) * 3, (16, 16, 16))
        case = Case(grid, MIX)
        case.add(Patch(box([0.0] * 3, [1.0] * 3), (0.5, 0.5),
                       (0.0, 0.0, 0.0), 1.0, (0.5,)))
        case.add(Patch(sphere([0.5] * 3, 0.25), (1.0, 1.0),
                       (0.0, 0.0, 0.0), 2.0, (0.5,)))
        sim = Simulation(case, BoundarySet.all_periodic(3), cfl=0.4,
                         validate_every=0)
        t0 = sim.conserved_totals()
        sim.run(n_steps=8)
        t1 = sim.conserved_totals()
        lay = sim.layout
        for v in list(range(lay.ncomp)) + [lay.energy]:
            assert t1[v] == pytest.approx(t0[v], rel=1e-12)

    def test_3d_kernel_breakdown_recorded(self):
        sim = self.make_sim(n=12)
        sim.run(n_steps=3)
        frac = sim.kernel_breakdown()
        assert {"weno", "riemann", "packing", "other"} <= set(frac)
