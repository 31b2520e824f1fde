"""Host-side benchmarks of the real solver: full RHS, one SSP-RK3 step,
and the grind time of a laptop-scale two-phase problem.

These are the wall-clock counterparts of the paper's grind-time metric;
pytest-benchmark tracks them so performance regressions in the NumPy
kernels are caught.
"""

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, sphere

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


def two_phase_case(n, ndim):
    bounds = tuple((0.0, 1.0) for _ in range(ndim))
    grid = StructuredGrid.uniform(bounds, (n,) * ndim)
    case = Case(grid, MIX)
    case.add(Patch(box([0.0] * ndim, [1.0] * ndim), (0.5, 0.5),
                   (0.0,) * ndim, 1.0, (0.5,)))
    case.add(Patch(sphere([0.5] * ndim, 0.2), (1.0, 1.0),
                   (0.0,) * ndim, 2.0, (0.5,)))
    return case


@pytest.mark.parametrize("ndim,n", [(1, 4096), (2, 128), (3, 32)])
def test_rhs_evaluation(benchmark, ndim, n):
    case = two_phase_case(n, ndim)
    rhs = RHS(case.layout, MIX, case.grid, BoundarySet.all_periodic(ndim))
    q = case.initial_conservative()
    dqdt = benchmark(rhs, q)
    assert np.all(np.isfinite(dqdt))


def test_full_step_3d(benchmark):
    case = two_phase_case(32, 3)
    sim = Simulation(case, BoundarySet.all_periodic(3), fixed_dt=1e-4,
                     validate_every=0)
    benchmark(sim.step)
    assert np.all(np.isfinite(sim.q))


def test_host_grind_time_3d(benchmark, record_rows):
    case = two_phase_case(32, 3)
    sim = Simulation(case, BoundarySet.all_periodic(3), fixed_dt=1e-4,
                     validate_every=0)

    def five_steps():
        for _ in range(5):
            sim.step()
        return sim.grind_time_ns()

    grind = benchmark.pedantic(five_steps, rounds=1, iterations=1)
    breakdown = sim.kernel_breakdown()
    record_rows("host_grind_time",
                [f"host (NumPy) grind time, 32^3 two-phase 3D: {grind:.1f} "
                 f"ns/cell/PDE/RHS",
                 "host kernel shares: "
                 + ", ".join(f"{k}={100 * v:.0f}%"
                             for k, v in sorted(breakdown.items()))])
    assert grind > 0.0
    # The two hot kernels dominate host compute time too.
    assert breakdown["weno"] + breakdown["riemann"] > 0.4


@pytest.mark.parametrize("order", [3, 5])
def test_weno_order_cost(benchmark, order):
    case = two_phase_case(64, 2)
    rhs = RHS(case.layout, MIX, case.grid, BoundarySet.all_periodic(2),
              RHSConfig(weno_order=order))
    q = case.initial_conservative()
    benchmark(rhs, q)


@pytest.mark.parametrize("solver", ["hllc", "hll", "rusanov"])
def test_riemann_solver_cost(benchmark, solver):
    case = two_phase_case(64, 2)
    rhs = RHS(case.layout, MIX, case.grid, BoundarySet.all_periodic(2),
              RHSConfig(riemann_solver=solver))
    q = case.initial_conservative()
    benchmark(rhs, q)
