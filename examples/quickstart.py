"""Quickstart: a two-fluid Sod shock tube validated against the exact solution.

This is the single-fluid limit of the five-equation model — both
"phases" are air — so the computed profile must match the classic Sod
solution.  Run time: a few seconds.

    python examples/quickstart.py
"""

import numpy as np

from repro import quickstart_sod
from repro.profiling import measure_step_allocations
from repro.validation import sod_solution


def main() -> None:
    sim = quickstart_sod(n_cells=400)
    print(f"marching {sim.grid.num_cells} cells, WENO{sim.config.weno_order} + "
          f"{sim.config.riemann_solver.upper()} + SSP-RK{sim.rk_order} ...")
    sim.run(t_end=0.2)

    prim = sim.primitive()
    lay = sim.layout
    x = sim.grid.centers(0)
    rho = prim[lay.partial_densities].sum(axis=0)
    rho_exact, u_exact, p_exact = sod_solution(x, 0.2)

    print(f"steps taken:          {sim.step_count}")
    print(f"L1 density error:     {np.abs(rho - rho_exact).mean():.5f}")
    print(f"L1 velocity error:    {np.abs(prim[lay.velocity][0] - u_exact).mean():.5f}")
    print(f"L1 pressure error:    {np.abs(prim[lay.pressure] - p_exact).mean():.5f}")
    print(f"grind time:           {sim.grind_time_ns():.1f} ns per cell-PDE-RHS (host)")
    breakdown = sim.kernel_breakdown()
    print("host kernel shares:   "
          + ", ".join(f"{k}={100 * v:.0f}%" for k, v in sorted(breakdown.items())))
    # A few steps past t_end: what a steady step allocates beyond the
    # solver's own buffers, which it allocated once.
    stats = measure_step_allocations(sim)
    print(f"transient allocation: {stats.min_transient_bytes / 1e3:.0f} kB per "
          f"step (the state is {sim.q.nbytes / 1e3:.0f} kB)")

    # Crude terminal plot of the density profile.
    print("\ndensity profile (computed '*', exact '.'):")
    rows, cols = 16, 80
    idx = np.linspace(0, x.size - 1, cols).astype(int)
    grid_chars = [[" "] * cols for _ in range(rows)]
    for c, i in enumerate(idx):
        r_ex = int((1.0 - rho_exact[i] / 1.05) * (rows - 1))
        r_nm = int((1.0 - rho[i] / 1.05) * (rows - 1))
        grid_chars[min(max(r_ex, 0), rows - 1)][c] = "."
        grid_chars[min(max(r_nm, 0), rows - 1)][c] = "*"
    print("\n".join("".join(row) for row in grid_chars))


if __name__ == "__main__":
    main()
