"""Cold start of each entry path: module count and import profile.

For the four end-to-end workloads' entry paths — the plain 2D run, the
production 3D one (fused, transposed, guarded, checkpointed), two ranks
and the durable campaign service — and the ledger-less ``python -m repro
ensemble`` (the campaign's jobs without its service section), runs one
fresh interpreter per path
under ``python -X importtime`` on a scratch copy of ``TREE/src`` and
prints the ``repro`` modules it loaded, the total import time (the sum
of every module's self time, lazy imports during construction and the
first step included), the part of it beyond what a bare ``import
numpy`` interpreter loads (the run path's own imports) and the ten most
expensive imports by self time.
Each path is measured with the bytecode cache absent (a copy with no
``__pycache__``, nothing written — how the e2e harness measures) and
present (after a warm-up run wrote it); times are medians of
``--repeats`` runs.  Inputs are the harness's own workloads in quick
form, marched one step.

Usage::

    python3 benchmarks/cold_start.py [TREE] [--repeats 3] [--path plain]

``TREE`` defaults to this checkout; point it at a ``git archive`` of
another commit to compare.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: Entry path -> the e2e workload whose inputs it runs.
PATHS = {"plain": "march2d-256", "fused": "prod3d-48",
         "ranks2": "ranks2-192", "ensemble": "campaign-svc",
         "ensemble-cli": "campaign-svc"}

RUNNER = r"""
import sys
kind = sys.argv[1]
if kind == "ensemble":
    from repro.bc import BoundarySet
    from repro.ensemble import EnsembleService
    from repro.io.case_files import load_ensemble_spec
    from repro.solver import RHSConfig
    jobs, width, options, service = load_ensemble_spec("spec.json")
    svc = EnsembleService(jobs, BoundarySet.all_extrapolation(2),
                          batch_width=width, config=RHSConfig(), cfl=0.5,
                          **options, **service)
    svc.run()
elif kind == "ensemble-cli":
    import json
    import runpy
    spec = json.loads(open("spec.json").read())
    spec.pop("service", None)  # no ledger: nothing written
    with open("cli.json", "w") as f:
        json.dump(spec, f)
    sys.argv = ["repro", "ensemble", "cli.json"]
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as stop:
        assert not stop.code, stop.code
else:
    from repro.bc import BoundarySet
    from repro.io.binary import write_snapshot
    from repro.io.case_files import load_case, load_solver_options
    from repro.solver import RHSConfig, Simulation
    case = load_case("case.json")
    with Simulation(case, BoundarySet.all_extrapolation(case.grid.ndim),
                    config=RHSConfig(), cfl=0.5,
                    **load_solver_options("case.json")) as sim:
        sim.run(n_steps=1)
        write_snapshot("final.bin", sim.q, step=sim.step_count, time=sim.time)
print(sum(m.split(".")[0] == "repro" for m in sys.modules))
"""

GENERATE = r"""
import sys
from pathlib import Path
import workloads
workloads.generate(sys.argv[1], 0, Path(sys.argv[2]), quick=True)
"""


def parse_importtime(stderr: str) -> dict[str, int]:
    """``module -> self time (us)`` from ``-X importtime`` output."""
    selfs = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        selfs[name.strip()] = int(self_us)
    return selfs


def importtime(code: str, *args: str, cwd: Path, env: dict):
    """``(stdout, module -> self us)`` of one ``-X importtime`` run."""
    env = {**env, "PATH": os.environ.get("PATH", "")}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(done.stderr[-2000:])
    return done.stdout, parse_importtime(done.stderr)


def run_once(src: Path, workdir: Path, kind: str, *, cached: bool):
    env = {"PYTHONPATH": str(src)}
    if not cached:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out, selfs = importtime(RUNNER, kind, cwd=workdir, env=env)
    return int(out.split()[-1]), selfs


def measure(tree: Path, path: str, repeats: int, scratch: Path,
            baseline: set[str]) -> None:
    workdir = scratch / path
    gen_env = {"PYTHONPATH": f"{tree / 'src'}:{tree / 'benchmarks' / 'e2e'}",
               "PYTHONDONTWRITEBYTECODE": "1",
               "PATH": os.environ.get("PATH", "")}
    subprocess.run([sys.executable, "-c", GENERATE, PATHS[path], str(workdir)],
                   env=gen_env, check=True, timeout=600)
    kind = path if path.startswith("ensemble") else "run"
    for cached in (False, True):
        src = scratch / f"src-{path}-{'cached' if cached else 'cold'}"
        shutil.copytree(tree / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if cached:
            run_once(src, workdir, kind, cached=True)  # writes the cache
        runs = [run_once(src, workdir, kind, cached=cached)
                for _ in range(repeats)]
        count = runs[0][0]
        totals = [sum(selfs.values()) / 1e3 for _, selfs in runs]
        own = [sum(us for name, us in selfs.items() if name not in baseline)
               / 1e3 for _, selfs in runs]
        names = set().union(*(selfs for _, selfs in runs))
        med = {n: statistics.median(selfs.get(n, 0) for _, selfs in runs)
               for n in names}
        print(f"== {path} ({PATHS[path]}), bytecode cache "
              f"{'present' if cached else 'absent'}: {count} repro modules, "
              f"imports {statistics.median(totals):.1f} ms, "
              f"{statistics.median(own):.1f} ms beyond numpy, "
              f"median of {repeats}")
        for name, us in sorted(med.items(), key=lambda kv: -kv[1])[:10]:
            print(f"   {us / 1e3:8.2f} ms  {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=".",
                        help="checkout whose src/ is measured")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--path", action="append", choices=sorted(PATHS),
                        help="entry path(s) to measure (default: all)")
    args = parser.parse_args()
    tree = Path(args.tree).resolve()
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        _, numpy_only = importtime("import numpy", cwd=Path(tmp), env={})
        for path in args.path or PATHS:
            measure(tree, path, args.repeats, Path(tmp), set(numpy_only))
    return 0


if __name__ == "__main__":
    sys.exit(main())
