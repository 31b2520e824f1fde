"""Distributed execution, two ways (paper §III-A, §IV-C).

1. **Functional**: run the same shock problem serially and over 4
   ranks — forked processes exchanging halos through shared memory —
   and verify the results are bit-for-bit identical, the correctness
   property under all of the paper's scaling numbers.
2. **Timeline**: simulate the event-level schedule of a 16-GCD Frontier
   step with and without GPU-aware MPI and print Gantt traces, showing
   where the staged path loses its 11 points of strong-scaling
   efficiency.

    python examples/distributed_timeline.py
"""

import numpy as np

from repro.bc import BoundarySet
from repro.cluster import BlockDecomposition, EventSimulator, FRONTIER
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, Simulation, box, sphere

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))


def functional_demo() -> None:
    print("=== functional halo exchange: distributed == serial ===")
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (48, 48))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), (0.5, 0.5), (0.0, 0.0), 1.0, (0.5,)))
    case.add(Patch(sphere([0.4, 0.5], 0.15), (1.0, 1.0), (0.0, 0.0), 5.0, (0.5,)))
    bcs = BoundarySet.all_extrapolation(2)

    serial = Simulation(case, bcs, fixed_dt=5e-4)
    serial.run(n_steps=10)
    sim = Simulation(case, bcs, fixed_dt=5e-4, ranks=4)
    sim.run(n_steps=10)

    diff = np.abs(sim.q - serial.q).max()
    decomp = BlockDecomposition.balanced(grid.shape, 4)
    print(f"4-rank grid {decomp.rank_grid}, 10 steps: "
          f"max |distributed - serial| = {diff} (bitwise identical: "
          f"{sim.q.tobytes() == serial.q.tobytes()})")
    halo = sim.halo_counters
    print(f"halo traffic: {halo.messages} messages, "
          f"{halo.bytes_exchanged / 1e6:.2f} MB "
          f"({decomp.total_messages()} per RHS evaluation x 3 stages x 10 "
          f"steps)")


def timeline_demo() -> None:
    print("\n=== event timeline: one Frontier step, 16 GCDs ===")
    decomp = BlockDecomposition.balanced((512, 256, 256), 16)
    for aware, label in ((True, "GPU-aware MPI"), (False, "host-staged MPI")):
        tl = EventSimulator(FRONTIER, decomp, gpu_aware=aware).simulate_rhs()
        print(f"\n{label}: RHS finishes in {tl.finish * 1e3:.2f} ms "
              f"(worst idle {100 * tl.max_idle_fraction():.1f}%)")
        print(tl.gantt(width=64, max_ranks=6))
    print("\nlegend: c=compute p=pack s=staging w=wire u=unpack .=idle")


def imbalance_demo() -> None:
    print("\n=== load imbalance from remainder blocks ===")
    decomp = BlockDecomposition((524, 256, 256), (8, 1, 1))
    sizes = sorted({decomp.local_cells(r)[0] for r in range(8)})
    tl = EventSimulator(FRONTIER, decomp).simulate_rhs()
    print(f"524 cells over 8 ranks -> slab widths {sizes}; "
          f"worst idle {100 * tl.max_idle_fraction():.2f}%")


def main() -> None:
    functional_demo()
    timeline_demo()
    imbalance_demo()


if __name__ == "__main__":
    main()
