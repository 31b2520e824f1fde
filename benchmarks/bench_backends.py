"""Backend × dtype kernel benchmark with measured-vs-modeled columns.

For every registered execution backend (and every
requested precision) this script runs the per-kernel timing harness
(:mod:`repro.profiling.kernelbench`) on the standard bench case and
**appends** one ``"backend-sweep"`` entry to the ``"history"`` list of
``benchmarks/results/BENCH_rhs.json`` — the same ledger the thread and
fusion sweeps write, now stamped with ``backend`` and ``dtype`` and
carrying per-stage model-error columns, the way PR 6 did for the comm
model.

The cost model is anchored to *measured* host bandwidth (the
STREAM-triad probe in :mod:`repro.hardware.devices`); the entry also
records the catalog-vs-measured bandwidth delta so a reader can see how
far this host sits from the spec-sheet machine the catalog describes.

Run via ``make bench-backends`` or directly::

    PYTHONPATH=src python benchmarks/bench_backends.py --grid 64
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.backend import BACKEND_NAMES
from repro.bc import BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.hardware import bandwidth_report
from repro.profiling import bench_kernels
from repro.solver import Case, Patch, RHSConfig, box, sphere

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_rhs.json"


def make_case(n: int) -> Case:
    """Same pressurised-bubble case the other RHS benches march."""
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([0.5, 0.5], 0.2), alpha_rho=(1.0, 1.0),
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


def load_history() -> list:
    if not RESULT_PATH.exists():
        return []
    try:
        return json.loads(RESULT_PATH.read_text()).get("history", [])
    except ValueError:
        return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=64,
                        help="grid edge length (default 64)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed RHS evaluations per configuration")
    parser.add_argument("--warmup", type=int, default=2,
                        help="untimed RHS evaluations per configuration")
    parser.add_argument("--backend", action="append", default=None,
                        help="backend(s) to bench (default: all registered)")
    parser.add_argument("--precision", action="append", default=None,
                        help="precision(s) to bench (default float64+float32)")
    args = parser.parse_args(argv)

    backends = args.backend or list(BACKEND_NAMES)
    precisions = args.precision or ["float64", "float32"]
    case = make_case(args.grid)
    q = case.initial_conservative()
    bcs = BoundarySet.all_periodic(2)
    config = RHSConfig()

    bw = bandwidth_report()
    print(f"host bandwidth: measured {bw['measured_gbps']:.1f} GB/s vs "
          f"catalog {bw['catalog_gbps']:.1f} GB/s "
          f"({bw['delta_pct']:+.1f}%)")

    runs = []
    for name in backends:
        for prec in precisions:
            res = bench_kernels(case.layout, MIX, case.grid, bcs, config, q,
                                backend=name, precision=prec,
                                warmup=args.warmup, repeats=args.repeats)
            print(res.report())
            runs.append(res.as_dict())

    entry = {
        "label": "backend-sweep",
        "git_sha": _git_sha(),
        "numpy": np.__version__,
        "grid": args.grid,
        "backends": backends,
        "precisions": precisions,
        "bandwidth": bw,
        "runs": runs,
    }
    history = load_history()
    history.append(entry)
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps({"history": history}, indent=2) + "\n")
    print(f"wrote {RESULT_PATH} ({len(history)} history entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
