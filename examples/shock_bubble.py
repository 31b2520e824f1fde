"""Shock-bubble interaction (paper §VI-C, laptop scale).

A Mach-2.4-style planar shock in a heavy fluid impinges on a circular
bubble of light fluid — the 2D, coarse-grid analog of the paper's
2-billion-cell shock-bubble-cloud run on 1,024 MI250X GCDs.  The
diffuse interface deforms, the bubble compresses, and vorticity is
deposited along the interface (the baroclinic mechanism the paper's
Fig. 10 renders in 3D).

The strong shock meeting the sharp density jump drives a few steps
unphysical at the CFL bound, so the march runs under the solver's own
step guard (``retry=RetryPolicy()``): a failed step is rolled back and
re-run at a smaller dt or a lower reconstruction order, and the run
prints what the guard did.

    python examples/shock_bubble.py
"""

import numpy as np

from repro.bc import BC, BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import (
    Case,
    Patch,
    RetryPolicy,
    RHSConfig,
    Simulation,
    box,
    halfspace,
    sphere,
)

# Heavy ambient fluid and light bubble, both ideal gases with different
# gamma (the classic helium-bubble-in-air configuration, nondimensional).
HEAVY = StiffenedGas(gamma=1.4, pi_inf=0.0, name="air")
LIGHT = StiffenedGas(gamma=1.67, pi_inf=0.0, name="helium")


def post_shock_state(mach, rho0, p0, gamma):
    """Rankine-Hugoniot post-shock (rho, u, p) via the shared library."""
    from repro.validation.shock_relations import post_shock_state as rh

    s = rh(StiffenedGas(gamma=gamma, pi_inf=0.0), mach, rho0, p0)
    return s.rho, s.velocity, s.pressure


def build_case(n: int = 160) -> Case:
    grid = StructuredGrid.uniform(((0.0, 2.0), (0.0, 1.0)), (2 * n, n))
    case = Case(grid, Mixture((HEAVY, LIGHT)))

    eps = 1e-6
    rho_amb, p_amb = 1.0, 1.0
    rho_bub = 0.18  # light gas density

    # Ambient heavy fluid.
    case.add(Patch(box([0.0, 0.0], [2.0, 1.0]),
                   alpha_rho=((1 - eps) * rho_amb, eps * rho_bub),
                   velocity=(0.0, 0.0), pressure=p_amb, alpha=(1 - eps,)))
    # Post-shock region moving right, upstream of the bubble.
    rho1, u1, p1 = post_shock_state(2.4, rho_amb, p_amb, HEAVY.gamma)
    case.add(Patch(halfspace(0, 0.3),
                   alpha_rho=((1 - eps) * rho1, eps * rho_bub),
                   velocity=(u1, 0.0), pressure=p1, alpha=(1 - eps,)))
    # The bubble: light fluid, pressure/velocity equilibrium with ambient.
    case.add(Patch(sphere([0.7, 0.5], 0.15),
                   alpha_rho=(eps * rho_amb, (1 - eps) * rho_bub),
                   velocity=(0.0, 0.0), pressure=p_amb, alpha=(eps,),
                   smear=0.01))
    return case


def vorticity(sim: Simulation) -> np.ndarray:
    prim = sim.primitive()
    lay = sim.layout
    u = prim[lay.momentum_component(0)]
    v = prim[lay.momentum_component(1)]
    dx = float(sim.grid.widths(0)[0])
    dy = float(sim.grid.widths(1)[0])
    return np.gradient(v, dx, axis=0) - np.gradient(u, dy, axis=1)


def main() -> None:
    case = build_case(n=96)
    bcs = BoundarySet(((BC.EXTRAPOLATION, BC.EXTRAPOLATION),
                       (BC.REFLECTIVE, BC.REFLECTIVE)))
    sim = Simulation(case, bcs, config=RHSConfig(weno_order=5), cfl=0.4,
                     retry=RetryPolicy())
    lay = sim.layout

    print(f"shock-bubble: {sim.grid.shape[0]}x{sim.grid.shape[1]} cells, "
          f"Mach 2.4 shock into a light bubble")
    t_end = 0.25
    next_report = 0.05
    while sim.time < t_end:
        sim.step()
        if sim.time >= next_report:
            prim = sim.primitive()
            alpha_bub = 1.0 - prim[lay.advected][0]
            area = float((alpha_bub * sim.grid.cell_volumes()).sum())
            print(f"  t={sim.time:.3f}  steps={sim.step_count:4d}  "
                  f"bubble area={area:.4f}  max|vorticity|={np.abs(vorticity(sim)).max():8.1f}")
            next_report += 0.05

    prim = sim.primitive()
    alpha_bub = 1.0 - prim[lay.advected][0]
    area0 = np.pi * 0.15 ** 2
    area = float((alpha_bub * sim.grid.cell_volumes()).sum())
    print(f"\nfinal bubble area / initial: {area / area0:.2f} "
          f"(< 1: shock compression)")
    print(f"grind time: {sim.grind_time_ns():.1f} ns per cell-PDE-RHS (host)")
    rec = sim.recovery
    print(f"step guard: {rec.retries} retries ({rec.dt_halvings} with a "
          f"smaller dt, {rec.escalations} escalations to a lower order) "
          f"over {sim.step_count} steps")

    # ASCII rendering of the volume-fraction field.
    print("\nbubble volume fraction (dark = bubble fluid):")
    chars = " .:-=+*#%@"
    sub = alpha_bub[:: max(1, alpha_bub.shape[0] // 72),
                    :: max(1, alpha_bub.shape[1] // 28)]
    for row in sub.T[::-1]:
        print("".join(chars[min(int(v * (len(chars) - 1) + 0.5), len(chars) - 1)]
                      for v in row))


if __name__ == "__main__":
    main()
