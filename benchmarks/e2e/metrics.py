"""Metric definitions: the names later issues cite verbatim.

``BENCHMARK.json`` at the repo root lists the same names, units and
directions (``run.py --quick`` fails if the two drift apart); the
"moves" column — which end-to-end metric a layer metric should move, on
which workload, written down before measuring — lives here and in the
README because the contract file has no field for it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    #: Absolute floor of the bound, in the metric's unit (``--compare``).
    floor: float
    #: How the repeats of one invocation reduce to the reported value.
    reduce: str
    definition: str

    def reported(self, samples: list[float]) -> float:
        """One invocation's value from its per-repeat samples."""
        if self.reduce == "fastest":
            return min(samples)
        return statistics.median(samples)


# The two march timings report the *fastest* repeat, not the median: on
# the shared 2-core VM this was written on, neighbours only ever slow a
# run, in bursts of 5-30 s that inflate single children by 10-100 %.
# Over 18 consecutive children per workload the quartile distance of
# fastest-of-3 was 0.04-0.17 of the median where median-of-3 gave
# 0.05-0.33 (see README, "Steadiness").  Every repeat's sample is kept
# in the suite's results file, so medians remain available.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, 0.10, "median",
             "child-process spawn -> entry of Simulation.run / "
             "EnsembleService.run (interpreter, import repro, load_case, "
             "driver construction)"),
    EndToEnd("time_to_solution_s", "s", "lower", 0.25, 0.0, "fastest",
             "parent-measured wall from spawning the child to its exit, "
             "outputs written"),
    EndToEnd("grind_ns", "ns", "lower", 0.25, 0.0, "fastest",
             "wall of run() / sum over cases(cells x nvars x 3 x steps): "
             "ns per cell, per PDE, per RHS evaluation, first step included"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05, 0.0, "median",
             "max ru_maxrss of the child and of its reaped descendants "
             "(rank workers, supervised batch forks)"),
)

#: ``failed_frac`` = failed / attempted is reported on every run through
#: the result line's ``attempted``/``failed`` keys (the contract forbids
#: a metric that is normally 0); any increase is a regression.


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str


_L = Layer

PER_LAYER = (
    # solver
    _L("solver.construct_s", "s", "lower", "setup_s, all workloads"),
    _L("solver.first_step_excess_s", "s", "lower",
       "time_to_solution_s on march2d-256 / prod3d-48"),
    _L("solver.step_ms_p50", "ms", "lower", "grind_ns on march2d-256 / prod3d-48"),
    _L("solver.step_ms_p90", "ms", "lower", "grind_ns on march2d-256 / prod3d-48"),
    _L("solver.rhs_eval_ms", "ms", "lower", "grind_ns on march2d-256 / prod3d-48"),
    _L("solver.step_overhead_frac", "fraction", "lower",
       "grind_ns on march2d-256 / prod3d-48"),
    _L("solver.guard_ms_per_step", "ms", "lower", "grind_ns on prod3d-48 only"),
    _L("solver.workspace_mb", "MB", "lower", "peak_rss_mb"),
    _L("solver.retries", "count", "lower", "failed_frac"),
    _L("solver.rollbacks", "count", "lower", "failed_frac"),
    # weno / riemann
    _L("weno.reconstruct_ns_per_cell.x", "ns", "lower", "grind_ns on march2d-256"),
    _L("weno.reconstruct_ns_per_cell.y", "ns", "lower", "grind_ns on march2d-256"),
    _L("weno.reconstruct_ns_per_cell.z", "ns", "lower",
       "none (3D only; inlined into fused kernels on prod3d-48)"),
    _L("weno.passes_per_rhs", "count", "lower", "grind_ns on march2d-256"),
    _L("weno.lap_share", "fraction", "lower",
       "grind_ns on march2d-256 (~70 %); 0 on prod3d-48"),
    _L("riemann.hllc_ns_per_face", "ns", "lower", "grind_ns on march2d-256"),
    _L("riemann.lap_share", "fraction", "lower",
       "grind_ns on march2d-256 (~25 %); 0 on prod3d-48"),
    # acc (fusion)
    _L("acc.fused_compile_s", "s", "lower",
       "setup_s / time_to_solution_s on prod3d-48"),
    _L("acc.fused_launches_per_rhs", "count", "lower", "grind_ns on prod3d-48"),
    _L("acc.fused_passes_saved_per_rhs", "count", "higher",
       "grind_ns on prod3d-48"),
    _L("acc.fused_lap_share", "fraction", "lower",
       "grind_ns on prod3d-48; 0 on march2d-256"),
    # fields
    _L("fields.transpose_gbps", "GB/s", "higher", "grind_ns on prod3d-48"),
    _L("fields.bytes_transposed_per_rhs", "count", "lower",
       "grind_ns on prod3d-48; 0 on march2d-256"),
    _L("fields.transposes_per_rhs", "count", "lower",
       "grind_ns on prod3d-48; 0 on march2d-256"),
    # state / bc / timestepping: the fixed per-step cost
    _L("state.cons_to_prim_ns_per_cell", "ns", "lower",
       "grind_ns on campaign-svc first, < 5 % elsewhere"),
    _L("bc.pad_ns_per_cell", "ns", "lower",
       "grind_ns on campaign-svc first, < 5 % elsewhere"),
    _L("bc.lap_share", "fraction", "lower", "grind_ns on march2d-256 (< 2 %)"),
    _L("timestepping.cfl_dt_ms", "ms", "lower",
       "grind_ns on campaign-svc first, < 5 % elsewhere"),
    _L("timestepping.rk_combine_ms", "ms", "lower",
       "grind_ns on campaign-svc first, < 5 % elsewhere"),
    # io
    _L("io.load_case_ms", "ms", "lower", "setup_s"),
    _L("io.checkpoint_ms", "ms", "lower",
       "time_to_solution_s on prod3d-48 / ranks2-192 / campaign-svc"),
    _L("io.checkpoint_mb", "MB", "lower", "time_to_solution_s, same three"),
    _L("io.checkpoints_written", "count", "lower",
       "time_to_solution_s, same three; 0 on march2d-256"),
    _L("io.snapshot_mb_per_s", "MB/s", "higher", "time_to_solution_s, same three"),
    _L("io.verify_ms", "ms", "lower", "none (restart path)"),
    # cluster
    _L("cluster.spawn_join_s", "s", "lower",
       "setup_s + time_to_solution_s on ranks2-192 only"),
    _L("cluster.halo_messages", "count", "lower", "grind_ns on ranks2-192 only"),
    _L("cluster.halo_mb", "MB", "lower", "grind_ns on ranks2-192 only"),
    _L("cluster.reductions", "count", "lower", "grind_ns on ranks2-192 only"),
    _L("cluster.halo_waits", "count", "lower", "grind_ns on ranks2-192 only"),
    _L("cluster.halo_wait_ms", "ms", "lower", "grind_ns on ranks2-192 only"),
    _L("cluster.strong_eff_2r", "fraction", "higher",
       "grind_ns on ranks2-192 only"),
    # ensemble
    _L("ensemble.batches", "count", "lower", "time_to_solution_s on campaign-svc"),
    _L("ensemble.jobs_done", "count", "higher", "failed_frac on campaign-svc"),
    _L("ensemble.attempts", "count", "lower", "failed_frac on campaign-svc"),
    _L("ensemble.ledger_records", "count", "lower",
       "time_to_solution_s on campaign-svc"),
    _L("ensemble.ledger_append_ms", "ms", "lower",
       "time_to_solution_s on campaign-svc"),
    _L("ensemble.fork_ms", "ms", "lower", "time_to_solution_s on campaign-svc"),
    _L("ensemble.batch_wall_s.g32", "s", "lower", "grind_ns on campaign-svc"),
    _L("ensemble.batch_wall_s.g64", "s", "lower", "grind_ns on campaign-svc"),
    _L("ensemble.batched_over_seq.g32", "ratio", "lower",
       "grind_ns on campaign-svc (< 1: batching wins)"),
    _L("ensemble.batched_over_seq.g64", "ratio", "lower",
       "grind_ns on campaign-svc (> 1: batching is a loss at 64x64)"),
    # hardware / tuning / profiling: context, no end-to-end target
    _L("hardware.stream_triad_gbps", "GB/s", "higher",
       "explains grind_ns on march2d-256"),
    _L("hardware.rhs_bw_frac", "fraction", "higher",
       "explains grind_ns on march2d-256 (computed bytes)"),
    _L("tuning.cold_tune_s", "s", "lower",
       "informational (tuning is off in all workloads)"),
    _L("tuning.timing_runs", "count", "lower", "informational"),
    _L("tuning.cache_hit_ms", "ms", "lower", "informational"),
    _L("profiling.trace_overhead_frac", "fraction", "lower",
       "none: bounds how far per-layer numbers may be trusted"),
)

#: Per-layer metrics that are counts made by the program: they must
#: repeat exactly between two runs of one commit on one seed.
EXACT_COUNTS = (
    "weno.passes_per_rhs", "acc.fused_launches_per_rhs",
    "acc.fused_passes_saved_per_rhs", "fields.bytes_transposed_per_rhs",
    "fields.transposes_per_rhs", "cluster.halo_messages", "cluster.halo_mb",
    "cluster.reductions", "ensemble.batches", "ensemble.jobs_done",
    "ensemble.attempts", "ensemble.ledger_records", "io.checkpoints_written",
    "solver.retries", "solver.rollbacks",
)
