"""Bit-identity guard for a refactor: one sha256 line per initial state
the four benchmark workloads (seeds 1, 7, 4242; every campaign job) and
``examples/cases/*.json`` build, and per ``final.bin`` of the three
``run`` workloads after their own ``n_steps`` and ``solver`` section.

    python3 benchmarks/bits.py <tree> > bits.<side>.txt

``<tree>`` is the checkout to hash (its ``src/`` and ``benchmarks/e2e``
are put on the path).  Run it on a copy of the parent commit and on the
change; ``cmp`` of the two outputs must find no difference.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "e2e")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from repro.bc import BoundarySet  # noqa: E402
from repro.io.binary import write_snapshot  # noqa: E402
from repro.io.case_files import (  # noqa: E402
    load_case, load_ensemble_spec, load_solver_options)
from repro.solver import RHSConfig, Simulation  # noqa: E402

SEEDS = (1, 7, 4242)


def sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cases_in(path: Path) -> list[tuple[str, object]]:
    """``(label suffix, case)`` of a case file, or of every job of an
    ensemble spec."""
    with Path(path).open() as fh:
        if "jobs" not in json.load(fh):
            return [("", load_case(path))]
    return [(f" job={j.name}", j.case) for j in load_ensemble_spec(path)[0]]


def print_initial_states(label: str, path: Path) -> None:
    for suffix, case in cases_in(path):
        print(f"init {label}{suffix} {sha(case.initial_conservative())}")


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="bits-"))
    here = os.getcwd()
    try:
        for name, wl in workloads.WORKLOADS.items():
            for seed in SEEDS:
                out = tmp / f"{name}-{seed}"
                job = workloads.generate(name, seed, out)
                os.chdir(out)  # the solver section's paths are relative
                print_initial_states(f"{name} seed={seed}", out / job["input"])
                if wl.kind == "run":
                    case = load_case(job["input"])
                    bcs = BoundarySet.all_extrapolation(case.grid.ndim)
                    with Simulation(case, bcs, config=RHSConfig(), cfl=0.5,
                                    **load_solver_options(job["input"])) as sim:
                        sim.run(n_steps=job["n_steps"])
                        write_snapshot(job["snapshot"], sim.q,
                                       step=sim.step_count, time=sim.time)
                    print(f"final {name} seed={seed} steps={job['n_steps']} "
                          f"{file_sha(out / job['snapshot'])}")
                os.chdir(here)
        for path in sorted((root / "examples" / "cases").glob("*.json")):
            print_initial_states(f"examples/{path.name}", path)
    finally:
        os.chdir(here)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
