"""Fault tolerance on one rank and on many (paper §II's production runs).

Runs at the paper's scale meet soft errors as a matter of course, so the
solver guards every step and every fault here is manufactured from a
seed — it repeats bit for bit:

1. **A struck cell heals.**  A ``CellFaultPlan`` turns one cell to NaN
   at step 2; the rollback-retry guard retries the step from its input,
   and the run ends bitwise equal to an undisturbed one, on one rank and
   on two (every rank takes the same rung of the ladder).
2. **A persistent fault diverges, named the same way everywhere.**  With
   retries off the step cannot be saved: ``SimulationDivergedError``
   names the struck cell by its global index on 1, 2 and 4 ranks — a
   rank reports its block's failure through the one worker reply, which
   carries the exception across as its own class.

    python examples/fault_tolerance.py
"""

import numpy as np

from repro.bc import BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.faults import CellFaultPlan
from repro.grid import StructuredGrid
from repro.solver import (
    Case,
    Patch,
    RetryPolicy,
    Simulation,
    SimulationDivergedError,
    box,
    sphere,
)

AIR = StiffenedGas(1.4)
MIX = Mixture((AIR, AIR))
BCS = BoundarySet.all_periodic(2)


def bubble(n: int = 32) -> Case:
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), (0.5, 0.5), (0.3, 0.0), 1.0, (0.5,)))
    case.add(Patch(sphere([0.4, 0.5], 0.2), (1.0, 1.0), (0.0, 0.0), 2.0,
                   (0.5,)))
    return case


def heal(case: Case) -> None:
    print("=== a struck cell heals: retried, bitwise the clean run ===")
    clean = Simulation(case, BCS)
    clean.run(n_steps=4)
    for ranks in (1, 2):
        sim = Simulation(case, BCS, ranks=ranks, retry=RetryPolicy(),
                         fault_injector=CellFaultPlan(step=2, seed=3))
        sim.run(n_steps=4)
        rec = sim.recovery
        print(f"ranks={ranks}: {rec.faults_injected} cell struck, "
              f"{rec.retries} retry, bitwise the clean run: "
              f"{np.array_equal(sim.q, clean.q)}")


def diverge(case: Case) -> None:
    print("\n=== a persistent fault diverges: the same cell on every "
          "rank count ===")
    plan = CellFaultPlan(step=2, seed=3, attempts=None)
    no_retries = RetryPolicy(max_retries=0, same_dt_retries=0, escalation=())
    for ranks in (1, 2, 4):
        sim = Simulation(case, BCS, ranks=ranks, retry=no_retries,
                         fault_injector=plan)
        try:
            sim.run(n_steps=4)
        except SimulationDivergedError as err:
            diag = err.diagnostics
            print(f"ranks={ranks}: step {err.step} diverged, {diag.reason} "
                  f"{diag.variable} at global cell {diag.cell}")


def main() -> None:
    case = bubble()
    heal(case)
    diverge(case)


if __name__ == "__main__":
    main()
