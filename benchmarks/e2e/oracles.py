"""Reference side of the output oracles (run untimed, once per invocation).

Every execution mode of the solver is bitwise-identical by construction,
so each workload's engine is checked against the plainest one on a short
prefix of the same generated input:

* ``march2d-256``: first steps == the allocating ``use_workspace=False``
  path;
* ``prod3d-48``: first steps == staged / strided / unguarded;
* ``ranks2-192``: first steps == ``ranks=1``;
* ``campaign-svc``: two sampled jobs (one per grid) == a standalone
  ``Simulation.run(t_end=...)``.

This script computes the reference snapshot(s) in its work directory
(``cwd``: ``job.json`` + the generated input); the harness runs the
workload's own engine for the same prefix through ``child.py`` at the
same time and compares the snapshot files byte for byte (header with
step and time, payload, CRC).
"""

from __future__ import annotations

import json
import sys

from repro.bc import BoundarySet
from repro.io.binary import write_snapshot
from repro.io.case_files import load_case, load_ensemble_spec
from repro.solver import RHSConfig, Simulation

from child import CFL


def reference_name(job_name: str) -> str:
    return f"ref_{job_name}.bin"


def _snapshot(sim: Simulation, path: str) -> None:
    write_snapshot(path, sim.q, step=sim.step_count, time=sim.time)


def main() -> int:
    with open("job.json") as fh:
        job = json.load(fh)
    if job["kind"] == "run":
        case = load_case(job["input"])
        sim = Simulation(case, BoundarySet.all_extrapolation(case.grid.ndim),
                         config=RHSConfig(), cfl=CFL,
                         use_workspace=job["workload"] != "march2d-256")
        sim.run(n_steps=job["oracle_steps"])
        _snapshot(sim, reference_name("prefix"))
        return 0
    jobs, _width, _options, _service = load_ensemble_spec(job["input"])
    by_name = {j.name: j for j in jobs}
    for name in job["oracle_jobs"]:
        ejob = by_name[name]
        sim = Simulation(ejob.case, BoundarySet.all_extrapolation(2),
                         config=RHSConfig(), cfl=CFL)
        sim.run(t_end=ejob.t_end)
        _snapshot(sim, reference_name(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
