"""RHS/RK hot-path benchmark: grind time, threading sweep, allocations.

Runs the standard 2D two-component advecting-bubble case over a grid ×
thread-count sweep and **appends** one entry to the ``"history"`` list
of ``benchmarks/results/BENCH_rhs.json`` — the perf trajectory across
PRs is a growing list, never an overwrite.  (A pre-history result file,
the single workspace-vs-reference record of PR 1, is migrated in place
as the first history entry.)

Per grid the sweep records:

* ``reference`` / serial-workspace allocation stats on the smallest
  grid — ``peak_transient_bytes_per_step`` and ``net_bytes_per_step``
  (tracemalloc is priced out of the larger grids),
* per thread count × sweep layout: ``grind_time_ns`` (nanoseconds per
  cell, per PDE, per RHS evaluation — the paper's metric), the kernel
  breakdown, the planned tile count, the sweep engine's data-movement
  counters, ``speedup_vs_serial``, and — for non-strided layouts —
  ``speedup_vs_strided`` at the same thread count.

``host_cpus``, the short git SHA, the NumPy version, and the dtype are
stamped on every entry so history points are attributable to a commit
and toolchain: thread scaling is only meaningful on multicore hosts,
and a single-core container measures the backend's overhead, not its
speedup.  Each run dict stamps its ``layout`` so the history can be
filtered by engine.

Usage::

    PYTHONPATH=src python benchmarks/bench_rhs.py \
        [--grid N ...] [--threads T ...] [--layout L ...]
        [--steps K] [--warmup W] [--tuned]

Defaults sweep grids 64 and 256 with 1, 2, and 4 threads in the strided
layout; ``--layout transposed`` (repeatable, strided baseline always
included) compares the coalesced sweep engine against it.  ``--tuned``
additionally autotunes each grid (``repro.tuning``, fresh throwaway
cache) and appends a run with the winning plan and its
tuned-vs-untuned speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
from pathlib import Path

import numpy as np

from repro.bc import BoundarySet
from repro.common import DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.profiling import measure_step_allocations
from repro.solver import Case, Patch, Simulation, box, sphere

AIR = StiffenedGas(1.4, 0.0, "air")
MIX = Mixture((AIR, AIR))

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_rhs.json"


def make_sim(n: int, *, use_workspace: bool = True, threads: int = 1,
             layout: str = "strided", **solver_kwargs) -> Simulation:
    """The benchmark case: a pressurised bubble advecting through a box."""
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([0.5, 0.5], 0.2), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
    return Simulation(case, BoundarySet.all_periodic(2), cfl=0.4,
                      use_workspace=use_workspace, threads=threads,
                      sweep_layout=layout, **solver_kwargs)


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True,
                              cwd=Path(__file__).parent)
        return proc.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def time_grind(n: int, threads: int, *, use_workspace: bool = True,
               layout: str = "strided", warmup: int = 3,
               steps: int = 25, **solver_kwargs) -> dict:
    sim = make_sim(n, use_workspace=use_workspace, threads=threads,
                   layout=layout, **solver_kwargs)
    sim.run(n_steps=warmup)
    sim.history.clear()
    sim.stopwatch.laps.clear()
    sim.run(n_steps=steps)
    out = {
        "threads": sim.threads,
        "layout": sim.sweep_layout,
        "fusion": sim.fusion,
        # Single-case driver: batch width 1 (ensemble runs live in
        # BENCH_ensemble.json; the stamp keeps the schemas comparable).
        "batch": 1,
        "grind_time_ns": sim.grind_time_ns(),
        "kernel_breakdown": sim.kernel_breakdown(),
        "sweep_counters": sim.rhs.sweep_counters.as_dict(),
    }
    if sim.rhs.fusion_backend is not None:
        out["fusion_backend"] = sim.rhs.fusion_backend
    if sim.tuning_plan is not None:
        out["tuning_plan"] = sim.tuning_plan.as_dict()
        if sim.tuner is not None:
            out["tuning_timing_runs"] = sim.tuner.timing_runs
    if sim.threads > 1:
        out["tiles"] = [p["tiles"]
                        for p in sim.rhs.tile_plan()["directions"]]
    return out


def alloc_stats(n: int, use_workspace: bool) -> dict:
    sim = make_sim(n, use_workspace=use_workspace)
    stats = measure_step_allocations(sim, warmup=3, repeats=5)
    return {
        "peak_transient_bytes_per_step": stats.peak_transient_bytes,
        "net_bytes_per_step": stats.net_bytes / stats.calls,
    }


def recovery_stats(n: int, *, steps: int = 12) -> dict:
    """Cost of the resilience layer on the benchmark case.

    A guarded run (default retry policy, rotating checkpoints every 5
    steps, one transient injected NaN mid-run) whose recovery counters
    and checkpoint overhead are stamped into the bench record — the
    price tag of turning the failure path on.
    """
    import tempfile

    from repro.faults import CellFaultPlan
    from repro.solver import RetryPolicy

    with tempfile.TemporaryDirectory() as ckdir:
        sim = make_sim(n, retry=RetryPolicy(), checkpoint_every=5,
                       checkpoint_dir=ckdir,
                       fault_injector=CellFaultPlan(step=steps // 2, seed=1234))
        sim.run(n_steps=steps)
        wall = (sum(r.wall_seconds for r in sim.history)
                + sim.recovery.checkpoint_seconds)
        out = sim.recovery.as_dict()
        out["guarded_steps"] = steps
        out["checkpoint_overhead_pct"] = (
            100.0 * sim.recovery.checkpoint_seconds / wall if wall > 0 else 0.0)
        return out


def bench_grid(n: int, thread_counts: list[int], layouts: list[str], *,
               warmup: int, steps: int | None, with_allocs: bool,
               tuned: bool = False, fused: bool = False) -> dict:
    grid_steps = steps if steps is not None else (25 if n < 128 else 8)
    sim = make_sim(n)
    entry: dict = {
        "grid": [n, n],
        "nvars": sim.layout.nvars,
        "field_bytes": sim.q.nbytes,
        "workspace_bytes": sim.rhs.workspace.nbytes,
        "timed_steps": grid_steps,
        "runs": [],
    }
    del sim
    if with_allocs:
        entry["reference_allocs"] = alloc_stats(n, use_workspace=False)
        entry["workspace_allocs"] = alloc_stats(n, use_workspace=True)
    serial_grind = None
    strided_grind: dict[int, float] = {}
    for threads in thread_counts:
        for layout in layouts:
            run = time_grind(n, threads, layout=layout, warmup=warmup,
                             steps=grid_steps)
            if layout == "strided":
                strided_grind[threads] = run["grind_time_ns"]
                if threads == 1:
                    serial_grind = run["grind_time_ns"]
            if serial_grind is not None:
                run["speedup_vs_serial"] = serial_grind / run["grind_time_ns"]
            if layout != "strided" and threads in strided_grind:
                run["speedup_vs_strided"] = (strided_grind[threads]
                                             / run["grind_time_ns"])
            entry["runs"].append(run)
            tiles = f", {run['tiles']} tiles" if "tiles" in run else ""
            speed = (f"   {run['speedup_vs_serial']:.2f}x"
                     if "speedup_vs_serial" in run else "")
            vs = (f"  ({run['speedup_vs_strided']:.2f}x vs strided)"
                  if "speedup_vs_strided" in run else "")
            print(f"  {n:4d}^2  threads={threads} layout={layout:<10}{tiles}: "
                  f"{run['grind_time_ns']:8.1f} ns/cell/PDE/RHS{speed}{vs}")
    if tuned:
        # Tuned-vs-untuned comparison: autotune into a throwaway cache
        # (fresh measurement, not a stale plan), then grind with the
        # winning plan and compare against the serial strided baseline.
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            run = time_grind(n, thread_counts[0], warmup=warmup,
                             steps=grid_steps, tuning="auto",
                             tuning_cache=str(Path(td) / "cache.json"))
        run["tuned"] = True
        if serial_grind is not None:
            run["speedup_vs_untuned"] = serial_grind / run["grind_time_ns"]
        entry["runs"].append(run)
        plan = run["tuning_plan"]
        vs = (f"  ({run['speedup_vs_untuned']:.2f}x vs untuned)"
              if "speedup_vs_untuned" in run else "")
        print(f"  {n:4d}^2  tuned: weno={plan['weno_variant']} "
              f"riemann={plan['riemann_variant']} "
              f"layout={plan['sweep_layout']} threads={plan['threads']}: "
              f"{run['grind_time_ns']:8.1f} ns/cell/PDE/RHS{vs}")
    if fused:
        # Fused-vs-tuned comparison: autotune once (fresh throwaway
        # cache, fusion now a search axis), then grind the winning
        # variant set twice — fusion forced off (the pre-fusion tuned
        # baseline) and forced on — so the speedup isolates what the
        # fused kernels buy over the best staged configuration.
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            probe = make_sim(n, tuning="auto",
                             tuning_cache=str(Path(td) / "cache.json"))
            winner = probe.tuning_plan.as_dict()
            del probe
        runs = {}
        for mode in ("off", "on"):
            plan = dict(winner, fusion=mode, source="manual")
            runs[mode] = time_grind(n, thread_counts[0], warmup=warmup,
                                    steps=grid_steps, tuning=plan)
        runs["off"]["tuned"] = True
        runs["on"]["fused"] = True
        runs["on"]["speedup_vs_tuned"] = (runs["off"]["grind_time_ns"]
                                          / runs["on"]["grind_time_ns"])
        entry["runs"] += [runs["off"], runs["on"]]
        sc = runs["on"]["sweep_counters"]
        print(f"  {n:4d}^2  tuned unfused (weno={winner['weno_variant']} "
              f"riemann={winner['riemann_variant']} "
              f"layout={winner['sweep_layout']}): "
              f"{runs['off']['grind_time_ns']:8.1f} ns/cell/PDE/RHS")
        print(f"  {n:4d}^2  fused ({runs['on'].get('fusion_backend', '?')}, "
              f"{sc['fused_launches']} launches, "
              f"{sc['fused_passes_saved']} passes saved): "
              f"{runs['on']['grind_time_ns']:8.1f} ns/cell/PDE/RHS  "
              f"({runs['on']['speedup_vs_tuned']:.2f}x vs tuned)")
    return entry


def load_history() -> list[dict]:
    """Existing trajectory; migrates the PR-1 single-record format."""
    if not RESULT_PATH.exists():
        return []
    data = json.loads(RESULT_PATH.read_text())
    if isinstance(data, dict) and "history" in data:
        return data["history"]
    # Pre-history format: one workspace-vs-reference record.
    data["label"] = "workspace-arena"
    return [data]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, action="append", default=None,
                        help="grid extent N (repeatable; default 64, 256)")
    parser.add_argument("--threads", type=int, action="append", default=None,
                        help="thread count (repeatable; default 1, 2, 4)")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed steps per run (default 25, or 8 for "
                             "grids >= 128)")
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument("--layout", action="append", default=None,
                        choices=("strided", "transposed", "auto"),
                        help="sweep layout (repeatable; default strided "
                             "only; strided is always included as the "
                             "comparison baseline)")
    parser.add_argument("--tuned", action="store_true",
                        help="also autotune each grid (fresh throwaway "
                             "cache) and record the tuned-vs-untuned "
                             "comparison run")
    parser.add_argument("--fused", action="store_true",
                        help="also record a fused-vs-tuned pair per grid: "
                             "autotune (fresh throwaway cache), then grind "
                             "the winning variants with fusion forced off "
                             "and on (see docs/fusion.md)")
    parser.add_argument("--label", default=None,
                        help="history-entry label (default thread-sweep, "
                             "layout-sweep when layouts are compared, "
                             "tuned-sweep with --tuned, or fused-sweep "
                             "with --fused)")
    args = parser.parse_args(argv)

    grids = args.grid or [64, 256]
    thread_counts = args.threads or [1, 2, 4]
    if 1 not in thread_counts:
        thread_counts = [1] + thread_counts  # speedups need the baseline
    layouts = args.layout or ["strided"]
    if "strided" not in layouts:
        layouts = ["strided"] + layouts  # layout speedups need the baseline
    label = args.label or ("fused-sweep" if args.fused
                           else "tuned-sweep" if args.tuned
                           else "layout-sweep" if len(layouts) > 1
                           else "thread-sweep")

    host_cpus = os.cpu_count() or 1
    entry: dict = {"label": label, "host_cpus": host_cpus,
                   "git_sha": _git_sha(), "numpy": np.__version__,
                   "dtype": str(np.dtype(DTYPE)),
                   "layouts": layouts, "grids": []}
    print(f"host cpus: {host_cpus}"
          + ("  (single core: thread runs measure overhead, not scaling)"
             if host_cpus == 1 else ""))
    smallest = min(grids)
    for n in grids:
        entry["grids"].append(
            bench_grid(n, thread_counts, layouts, warmup=args.warmup,
                       steps=args.steps, with_allocs=(n == smallest),
                       tuned=args.tuned, fused=args.fused))
    entry["recovery"] = recovery_stats(smallest)
    print(f"recovery on {smallest}^2: {entry['recovery']['retries']} retries, "
          f"{entry['recovery']['checkpoints_written']} checkpoints, "
          f"{entry['recovery']['checkpoint_overhead_pct']:.2f}% checkpoint overhead")

    history = load_history()
    history.append(entry)
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps({"history": history}, indent=2) + "\n")
    print(f"wrote {RESULT_PATH} ({len(history)} history entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
