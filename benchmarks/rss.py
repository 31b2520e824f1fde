"""Where each benchmark workload's resident memory sits, process by process.

    python3 benchmarks/rss.py <tree> [--workload NAME] [--seed N]

For each workload of ``benchmarks/e2e/workloads.py`` (its generated input,
marched the way the e2e child marches it: CLI defaults, the workload's
own ``solver`` section and step count), one fresh interpreter reports
from ``/proc/self/status`` the peak (``VmHWM``) and current (``VmRSS``)
resident set and its ``RssAnon`` / ``RssShmem`` / ``RssFile`` split at
three points — after ``import repro``, after the driver is constructed,
after the march — then the same for every gang member still alive, and
the peak RSS of the children it reaped (rank workers, batch children).
``solver.workspace_mb`` is the traced workspace of the same run.  Run it
on a copy of the parent commit and on the change to see which part of
``peak_rss_mb`` moved.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

FIELDS = ("VmHWM", "VmRSS", "RssAnon", "RssShmem", "RssFile")


def status(pid="self") -> dict:
    """The :data:`FIELDS` of ``/proc/<pid>/status``, in MB."""
    out = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in FIELDS:
                out[key] = int(value.split()[0]) / 1024.0
    return out


def child(tree: Path, work: Path) -> None:
    """The measured process: import, construct, march; one JSON line."""
    import os

    os.chdir(work)
    job = json.loads((work / "job.json").read_text())
    rows = []
    sys.path[:0] = [str(tree / "src")]
    from repro.bc import BoundarySet
    from repro.io.case_files import (
        load_case,
        load_ensemble_spec,
        load_solver_options,
    )
    from repro.solver import RHSConfig, Simulation
    rows.append(("import", status()))
    if job["kind"] == "run":
        case = load_case(job["input"])
        bcs = BoundarySet.all_extrapolation(case.grid.ndim)
        sim = Simulation(case, bcs, config=RHSConfig(), cfl=0.5,
                         **load_solver_options(job["input"]))
        rows.append(("construct", status()))
        sim.run(n_steps=job["n_steps"])
        rows.append((f"{job['n_steps']} steps", status()))
        workspace = sim.rhs.workspace.nbytes / 2**20
        gang = sim.rhs.executor
        for rank, worker in enumerate(gang._workers if gang else [], 1):
            rows.append((f"gang member {rank}", status(worker.pid)))
    else:
        from repro.ensemble import EnsembleService

        jobs, width, options, service = load_ensemble_spec(job["input"])
        bcs = BoundarySet.all_extrapolation(jobs[0].case.grid.ndim)
        svc = EnsembleService(jobs, bcs, batch_width=width,
                              config=RHSConfig(), cfl=0.5, **options,
                              **service)
        rows.append(("construct", status()))
        svc.run()
        rows.append(("campaign", status()))
        workspace = None
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"rows": rows, "reaped_children_mb": reaped,
                      "workspace_mb": workspace}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    tree = args.tree.resolve()
    if args.child is not None:
        child(tree, args.child)
        return 0
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    print(f"{'MB':<24}" + "".join(f"{f:>10}" for f in FIELDS))
    for name in names:
        with tempfile.TemporaryDirectory(prefix="rss-") as tmp:
            workloads.generate(name, args.seed, Path(tmp))
            run = subprocess.run(
                [sys.executable, __file__, str(tree), "--child", tmp],
                capture_output=True, text=True, check=True)
        out = json.loads(run.stdout.splitlines()[-1])
        print(f"{name} (seed {args.seed})")
        for label, row in out["rows"]:
            print(f"  {label:<22}" + "".join(
                f"{row.get(f, float('nan')):>10.2f}" for f in FIELDS))
        print(f"  {'reaped children':<22}{out['reaped_children_mb']:>10.2f}"
              " (peak RSS of the largest)")
        if out["workspace_mb"] is not None:
            print(f"  {'solver workspace':<22}{out['workspace_mb']:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
