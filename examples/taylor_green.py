"""Taylor-Green vortex: inviscid conservation and viscous decay
(paper §III.F lists Taylor-Green among MFC's validation cases).

Runs the 2D Taylor-Green vortex at Mach ~0.08 twice — inviscid and with
a Newtonian viscosity — and compares kinetic-energy histories against
the incompressible reference: constant KE (inviscid) and
:math:`KE(t) = KE_0\\,e^{-4\\nu t}` (viscous, k = 1 modes).

    python examples/taylor_green.py
"""

import numpy as np

from repro.bc import BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import (
    Case,
    Patch,
    RHSConfig,
    Simulation,
    box,
    enstrophy,
    kinetic_energy,
    max_mach,
)
from repro.state import prim_to_cons

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


def taylor_green_sim(viscosity, n=64):
    grid = StructuredGrid.uniform(((0.0, 2 * np.pi), (0.0, 2 * np.pi)), (n, n))
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


def main() -> None:
    mu = 0.05
    t_end = 2.0
    print(f"Taylor-Green vortex, 64^2, Mach ~0.08; viscous case nu = {mu}")
    print(f"{'t':>5} {'KE/KE0 inviscid':>16} {'KE/KE0 viscous':>15} "
          f"{'exp(-4 nu t)':>13} {'enstrophy ratio':>16}")

    runs = {"inviscid": taylor_green_sim(None),
            "viscous": taylor_green_sim((mu, mu))}
    ke0 = {k: kinetic_energy(s.layout, s.grid, s.primitive())
           for k, s in runs.items()}
    ens0 = enstrophy(runs["viscous"].layout, runs["viscous"].grid,
                     runs["viscous"].primitive())

    for checkpoint in np.arange(0.4, t_end + 1e-9, 0.4):
        for sim in runs.values():
            sim.run(t_end=checkpoint)
        ke_i = kinetic_energy(runs["inviscid"].layout, runs["inviscid"].grid,
                              runs["inviscid"].primitive()) / ke0["inviscid"]
        ke_v = kinetic_energy(runs["viscous"].layout, runs["viscous"].grid,
                              runs["viscous"].primitive()) / ke0["viscous"]
        ens_v = enstrophy(runs["viscous"].layout, runs["viscous"].grid,
                          runs["viscous"].primitive()) / ens0
        exact = np.exp(-4.0 * mu * checkpoint)
        print(f"{checkpoint:>5.1f} {ke_i:>16.4f} {ke_v:>15.4f} "
              f"{exact:>13.4f} {ens_v:>16.4f}")

    m = max_mach(runs["viscous"].layout, MIX, runs["viscous"].primitive())
    err = abs(ke_v - np.exp(-4.0 * mu * t_end)) / np.exp(-4.0 * mu * t_end)
    print(f"\nfinal viscous KE error vs incompressible theory: {100 * err:.1f}%")
    print(f"max Mach stays {m:.3f} (low-Mach regime holds)")
    for name, sim in runs.items():
        sim.validate_state()
        print(f"{name}: {sim.step_count} steps, grind "
              f"{sim.grind_time_ns():.0f} ns/cell/PDE/RHS (host)")


if __name__ == "__main__":
    main()
