"""Flow over a NACA 2412 airfoil via the ghost-cell immersed boundary
method (paper §VI-B, laptop scale).

The paper resolves 500 cells per chord on 2.25 billion cells across 128
A100s; here the same method runs at ~60 cells per chord in 2D.  The
airfoil sits at 15 degrees angle of attack in a Mach 0.3 stream; the
ghost-cell IBM imposes the slip-wall condition, and the flow develops
the leading-edge suction peak and pressure-side compression that
generate lift.

    python examples/airfoil_immersed_boundary.py
"""

import numpy as np

from repro.bc import BC, BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.ib import ImmersedBoundary, NACA4
from repro.solver import Case, Patch, RHSConfig, Simulation, box

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))


def main() -> None:
    # Free stream: rho = 1, p = 1, Mach 0.3.
    mach = 0.3
    u_inf = mach * np.sqrt(1.4)
    nx, ny = 192, 128
    grid = StructuredGrid.uniform(((-1.0, 2.0), (-1.0, 1.0)), (nx, ny))

    case = Case(grid, MIX)
    case.add(Patch(box([-1.0, -1.0], [2.0, 1.0]), alpha_rho=(0.5, 0.5),
                   velocity=(u_inf, 0.0), pressure=1.0, alpha=(0.5,)))

    foil = NACA4("2412", chord=1.0, leading_edge=(0.0, 0.0),
                 angle_of_attack_deg=15.0)
    ib = ImmersedBoundary(grid, case.layout, MIX, foil)
    print(f"NACA 2412 at 15 deg, Mach {mach}; grid {nx}x{ny} "
          f"(~{int(1.0 / float(grid.widths(0)[0]))} cells/chord), "
          f"{ib.num_ghost_cells()} ghost cells, "
          f"{ib.num_fluid_cells()} fluid cells")

    bcs = BoundarySet(((BC.EXTRAPOLATION, BC.EXTRAPOLATION),
                       (BC.EXTRAPOLATION, BC.EXTRAPOLATION)))
    sim = Simulation(case, bcs, config=RHSConfig(weno_order=5), cfl=0.4,
                     validate_every=0)
    sim.q = ib.apply(sim.q)
    lay = sim.layout

    t_end = 2.0  # ~ one convective time over the chord at Mach 0.3
    next_report = 0.4
    while sim.time < t_end:
        sim.step()
        sim.q = ib.apply(sim.q)
        if sim.time >= next_report:
            prim = sim.primitive()
            p = prim[lay.pressure]
            print(f"  t={sim.time:.2f}  steps={sim.step_count:4d}  "
                  f"p range on fluid: ({p[ib.fluid].min():.3f}, "
                  f"{p[ib.fluid].max():.3f})")
            next_report += 0.4

    # Surface pressure statistics: suction side vs pressure side.
    prim = sim.primitive()
    p = prim[lay.pressure]
    X, Y = grid.meshgrid()
    sd = foil.sdf(X, Y)
    near = ib.fluid & (sd < 0.05)
    # Rotate into the chord frame to split upper/lower surfaces.
    aoa = np.deg2rad(15.0)
    y_chord = np.sin(aoa) * X + np.cos(aoa) * Y
    upper = near & (y_chord > 0.0)
    lower = near & (y_chord <= 0.0)
    p_up = float(p[upper].mean())
    p_lo = float(p[lower].mean())
    print(f"\nmean near-surface pressure: suction side {p_up:.4f}, "
          f"pressure side {p_lo:.4f}")
    print(f"pressure difference (lift-generating): {p_lo - p_up:+.4f}")
    assert p_lo > p_up, "positive AoA must load the pressure side"
    print(f"grind time: {sim.grind_time_ns():.1f} ns per cell-PDE-RHS (host)")
    sim.validate_state()
    print("state remains physical")


if __name__ == "__main__":
    main()
