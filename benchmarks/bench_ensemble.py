"""Ensemble batching benchmark: stacked vs sequential per-case grind.

For each grid N and batch width B, advances B variants of the standard
advecting-bubble case two ways:

* **sequential** — B standalone :class:`Simulation` drivers, one after
  the other (the pre-ensemble campaign workflow);
* **batched** — ONE :class:`repro.ensemble.EnsembleSimulation` whose
  stacked ``(nvars, B, N, N)`` RHS advances all B cases per step.

Both sides march the same number of case-steps, so the **amortization
ratio** — sequential per-case grind over batched per-case grind — is
the direct price/performance of the batch axis: every stacked step
pays the Python pipeline dispatch once instead of B times, the same
occupancy argument the paper makes for filling the GPU from small
per-rank grids.  Batched results are bitwise identical to sequential
(enforced by the ensemble test suite), so the ratio is pure time.

Appends one entry to the ``"history"`` list of
``benchmarks/results/BENCH_ensemble.json``; ``host_cpus``, the short
git SHA, the NumPy version, and the dtype are stamped on every entry.

Usage::

    PYTHONPATH=src python benchmarks/bench_ensemble.py \
        [--grid N ...] [--batch B ...] [--steps K] [--warmup W]
        [--fusion MODE] [--threads T] [--label TEXT]

Defaults sweep B = 1, 2, 4, 8, 16 at 64^2 and 128^2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
from pathlib import Path

import numpy as np

from repro.bc import BoundarySet
from repro.common import DTYPE, WallTimer
from repro.ensemble import EnsembleSimulation
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, Simulation, box, sphere
from repro.timestepping.ssp_rk import SSP_SCHEMES

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_ensemble.json"


def make_case(n: int, i: int) -> Case:
    """Variant ``i`` of the benchmark bubble (same grid, shifted bubble)."""
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    cx = 0.35 + 0.03 * (i % 8)
    r = 0.14 + 0.01 * (i % 5)
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([cx, 0.5], r), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
    return case


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True,
                              cwd=Path(__file__).parent)
        return proc.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_batch(n: int, batch: int, *, steps: int, warmup: int,
                fusion: str, threads: int) -> dict:
    """One (grid, batch-width) comparison point."""
    bcs = BoundarySet.all_periodic(2)
    cases = [make_case(n, i) for i in range(batch)]
    kwargs = dict(cfl=0.4, fusion=fusion, threads=threads)

    # Sequential baseline: B standalone drivers, timed back to back
    # (fresh drivers, so each pays its own warmup outside the timer).
    sims = [Simulation(case, bcs, **kwargs) for case in cases]
    for sim in sims:
        sim.run(n_steps=warmup)
        sim.history.clear()
    with WallTimer() as seq_timer:
        for sim in sims:
            sim.run(n_steps=steps)
    layout = sims[0].layout
    num_cells = sims[0].grid.num_cells
    stages = len(SSP_SCHEMES[sims[0].rk_order])
    seq_work = num_cells * layout.nvars * stages * steps * batch
    seq_grind = seq_timer.elapsed / seq_work * 1e9
    for sim in sims:
        sim.close()

    # Batched: one stacked driver advancing every case per step.
    ens = EnsembleSimulation(cases, bcs, **kwargs)
    ens.run(n_steps=warmup)
    ens.history.clear()  # grind over the timed steps only
    with WallTimer() as bat_timer:
        ens.run(n_steps=steps)
    bat_grind = ens.grind_time_ns()
    ens.close()

    return {
        "batch": batch,
        "fusion": fusion,
        "threads": threads,
        "grind_time_ns": bat_grind,
        "sequential_grind_time_ns": seq_grind,
        "amortization": seq_grind / bat_grind,
        "wall_seconds": bat_timer.elapsed,
        "sequential_wall_seconds": seq_timer.elapsed,
        "kernel_breakdown": ens.kernel_breakdown(),
    }


def load_history() -> list[dict]:
    if not RESULT_PATH.exists():
        return []
    return json.loads(RESULT_PATH.read_text())["history"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, action="append", default=None,
                        help="grid extent N (repeatable; default 64, 128)")
    parser.add_argument("--batch", type=int, action="append", default=None,
                        help="batch width B (repeatable; default 1 2 4 8 16)")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed steps per run (default 25, or 8 for "
                             "grids >= 128)")
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument("--fusion", default="off",
                        choices=("off", "on", "auto"))
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--label", default="batch-sweep")
    args = parser.parse_args(argv)

    grids = args.grid or [64, 128]
    batches = args.batch or [1, 2, 4, 8, 16]
    host_cpus = os.cpu_count() or 1
    entry: dict = {"label": args.label, "host_cpus": host_cpus,
                   "git_sha": _git_sha(), "numpy": np.__version__,
                   "dtype": str(np.dtype(DTYPE)),
                   "fusion": args.fusion, "threads": args.threads,
                   "grids": []}
    print(f"host cpus: {host_cpus}")
    for n in grids:
        steps = args.steps if args.steps is not None else (25 if n < 128
                                                           else 8)
        gentry: dict = {"grid": [n, n], "timed_steps": steps, "runs": []}
        for batch in batches:
            run = bench_batch(n, batch, steps=steps, warmup=args.warmup,
                              fusion=args.fusion, threads=args.threads)
            gentry["runs"].append(run)
            print(f"  {n:4d}^2  B={batch:3d}: batched "
                  f"{run['grind_time_ns']:8.1f} ns/cell/PDE/RHS, sequential "
                  f"{run['sequential_grind_time_ns']:8.1f}  "
                  f"({run['amortization']:.2f}x amortization)")
        entry["grids"].append(gentry)

    history = load_history()
    history.append(entry)
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps({"history": history}, indent=2) + "\n")
    print(f"wrote {RESULT_PATH} ({len(history)} history entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
