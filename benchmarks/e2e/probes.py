"""Layer probes: per-layer numbers taken after the traced march.

Each timing is the median of ``CALLS`` direct calls of a layer's public
function on the workload's own arrays (the final state of the traced
run); counts are read from the program's own counters
(``SweepCounters``, ``HaloCounters``, ``RecoveryCounters``, the ledger)
and must repeat exactly.  Probes of a layer a workload does not exercise
are not run and read 0 — the interaction table predicts exactly that.

Every probe writes only below the child's private work directory.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from metrics import PER_LAYER

WENO_ORDER = 5
#: Triad array size.  The VM reports a 260 MiB L3, so a clean DRAM
#: figure needs 3 x 1040 MiB arrays — 24 s of page faults here, more
#: than a whole benchmark run may take; at 128 MiB the figure is
#: cache-assisted and read ~10 % high (measured 10.2 vs 9.1 GB/s).
TRIAD_MIB = 128.0
#: Grid edge of the throw-away tuning probe (ISSUE 12 asked for 64;
#: a cold tune takes 14.6 s there and 6 s here).
TUNE_EDGE = 32


class Sampler:
    """Collects medians of repeated timed calls and their sample counts."""

    def __init__(self, calls: int) -> None:
        self.calls = calls
        self.values: dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
        self.samples: dict[str, int] = {}

    def set(self, name: str, value: float, samples: int = 1) -> None:
        if name not in self.values:
            raise KeyError(f"{name} is not a declared per-layer metric")
        self.values[name] = float(value)
        self.samples[name] = samples

    def seconds(self, fn, *, calls: int | None = None) -> float:
        """Median wall of ``calls`` timed calls after one warm-up call."""
        fn()
        walls = []
        for _ in range(calls or self.calls):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)


def _span_seconds(spans: list[dict], name: str, **attrs) -> list[float]:
    return [s["end"] - s["start"] for s in spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())]


# ----------------------------------------------------------------------
def kernel_probes(s: Sampler, case, bcs, q: np.ndarray) -> None:
    """weno / riemann / state / bc / timestepping / fields direct calls.

    Runs through the buffers of a fresh default (staged, strided)
    ``Simulation`` of the same case, the way ``RHS._accumulate_direction``
    calls the kernels, so fused, multi-process and batched workloads are
    probed on identical terms.
    """
    from repro.bc import fill_axis_ghosts, pad_axis, pad_with_ghosts
    from repro.fields.transpose import (
        sweep_perm,
        transpose_loop,
        untranspose_loop,
    )
    from repro.riemann.hllc import hllc_flux
    from repro.solver import RHSConfig, Simulation
    from repro.state.conversions import cons_to_prim
    from repro.timestepping.cfl import cfl_dt
    from repro.timestepping.ssp_rk import ssp_rk_step
    from repro.weno import halo_width, reconstruct_faces

    layout, mixture, grid = case.layout, case.mixture, case.grid
    cells, n = grid.num_cells, s.calls
    ng = halo_width(WENO_ORDER)
    ws = Simulation(case, bcs, config=RHSConfig()).rhs.workspace
    prim = cons_to_prim(layout, mixture, q)

    s.set("state.cons_to_prim_ns_per_cell", s.seconds(
        lambda: cons_to_prim(layout, mixture, q, out=ws.prim))
        / cells * 1e9, n)
    s.set("bc.pad_ns_per_cell",
          s.seconds(lambda: pad_with_ghosts(prim, ng)) / cells * 1e9, n)
    s.set("timestepping.cfl_dt_ms",
          s.seconds(lambda: cfl_dt(layout, mixture, prim, grid, 0.5)) * 1e3, n)
    zero = np.zeros_like(q)
    s.set("timestepping.rk_combine_ms", s.seconds(
        lambda: ssp_rk_step(lambda q_k, out=None, prim=None: zero,
                            q, 1e-9, 3, workspace=ws)) * 1e3, n)

    hllc_ns = []
    for d, axis_name in enumerate("xyz"[:grid.ndim]):
        lo, hi = bcs.per_axis[d]
        padded = pad_axis(prim, d, ng, out=ws.padded[d])
        fill_axis_ghosts(padded, layout, d, ng, lo, hi)
        faces = (ws.face_l[d], ws.face_r[d])
        s.set(f"weno.reconstruct_ns_per_cell.{axis_name}", s.seconds(
            lambda: reconstruct_faces(padded, d + 1, WENO_ORDER, out=faces,
                                      scratch=ws.weno_scratch[d]))
            / cells * 1e9, n)
        n_faces = faces[0].size // layout.nvars
        hllc_ns.append(s.seconds(
            lambda: hllc_flux(layout, mixture, faces[0], faces[1], d,
                              out=ws.flux[d], out_u=ws.u_face[d],
                              scratch=ws.riemann_scratch[d]))
            / n_faces * 1e9)
    s.set("riemann.hllc_ns_per_face", statistics.mean(hllc_ns),
          n * len(hllc_ns))

    # x is the most strided direction: gather it axis-last and back.
    perm = sweep_perm(prim.ndim, 1)
    gathered = transpose_loop(prim, perm)
    back = np.empty_like(prim)
    wall = (s.seconds(lambda: transpose_loop(prim, perm, out=gathered))
            + s.seconds(lambda: untranspose_loop(gathered, perm, out=back)))
    s.set("fields.transpose_gbps", 4 * prim.nbytes / wall / 1e9, 2 * n)


def io_probes(s: Sampler, job: dict, q: np.ndarray, tmp: Path) -> None:
    from repro.io.binary import verify_snapshot, write_snapshot
    from repro.io.case_files import load_case, load_ensemble_spec
    from repro.io.checkpoint import CheckpointManager

    loader = load_case if job["kind"] == "run" else load_ensemble_spec
    s.set("io.load_case_ms",
          s.seconds(lambda: loader(job["input"])) * 1e3, s.calls)
    manager = CheckpointManager(tmp / "probe_ckpt", keep=3)
    steps = iter(range(10 ** 6))
    s.set("io.checkpoint_ms", s.seconds(
        lambda: manager.save(q, step=next(steps), time=0.0)) * 1e3, s.calls)
    newest = manager.checkpoints()[-1]
    s.set("io.checkpoint_mb", newest.stat().st_size / 1e6)
    snap = tmp / "probe_snapshot.bin"
    wall = s.seconds(lambda: write_snapshot(snap, q, step=0, time=0.0))
    s.set("io.snapshot_mb_per_s", snap.stat().st_size / 1e6 / wall, s.calls)
    s.set("io.verify_ms",
          s.seconds(lambda: verify_snapshot(snap)) * 1e3, s.calls)


def hardware_probes(s: Sampler, sim, quick: bool) -> None:
    """Triad bandwidth in this run, and the WENO passes' computed
    traffic (passes x three face-block streams, ignoring cache hits) per
    measured RHS evaluation as a fraction of it."""
    from repro.hardware import stream_triad_gbps

    triad = stream_triad_gbps(n_mib=16.0 if quick else TRIAD_MIB, repeats=3)
    s.set("hardware.stream_triad_gbps", triad, 3)
    rhs_s = s.values["solver.rhs_eval_ms"] / 1e3
    if rhs_s > 0.0:
        spatial = sim.grid.shape
        face_block = (sim.layout.nvars * 8
                      * max(sim.grid.num_cells // n * (n + 1) for n in spatial))
        traffic = s.values["weno.passes_per_rhs"] * 3 * face_block
        s.set("hardware.rhs_bw_frac", traffic / rhs_s / 1e9 / triad)


def tuning_probes(s: Sampler, bcs, tmp: Path) -> None:
    """Cold tune + cache hit on a small copy of the 2D case, against a
    throw-away cache (tuning stays off in every workload)."""
    import random

    from repro.solver import Simulation
    from workloads import shock_bubble_2d

    case, _ = shock_bubble_2d(TUNE_EDGE, random.Random(0))
    cache = tmp / "probe_tuning.json"
    t0 = time.perf_counter()
    cold = Simulation(case, bcs, tuning="auto", tuning_cache=cache)
    s.set("tuning.cold_tune_s", time.perf_counter() - t0)
    s.set("tuning.timing_runs", cold.tuner.timing_runs)
    s.set("tuning.cache_hit_ms", s.seconds(
        lambda: Simulation(case, bcs, tuning="auto", tuning_cache=cache),
        calls=3) * 1e3, 3)


# ----------------------------------------------------------------------
def solver_probes(s: Sampler, sim, spans: list[dict], out: dict) -> None:
    """Counts and span-derived numbers of an in-process or cluster run."""
    counters = out["counters"]
    evals = 3 * len(out["step_walls"])
    s.set("solver.construct_s", _span_seconds(spans, "solver.construct")[0])
    s.set("solver.workspace_mb", sim.rhs.workspace.nbytes / 1e6)
    s.set("solver.retries", counters["recovery"]["retries"])
    s.set("solver.rollbacks", counters["recovery"]["rollbacks"])
    sweep = counters["sweep"]
    s.set("weno.passes_per_rhs", sweep["weno_passes"] / evals)
    s.set("acc.fused_launches_per_rhs", sweep["fused_launches"] / evals)
    s.set("acc.fused_passes_saved_per_rhs",
          sweep["fused_passes_saved"] / evals)
    s.set("fields.bytes_transposed_per_rhs",
          sweep["bytes_transposed"] / evals)
    s.set("fields.transposes_per_rhs", sweep["transposes"] / evals)
    laps = counters["laps"]
    total = sum(laps.values())
    for metric, lap in (("weno.lap_share", "weno"),
                        ("riemann.lap_share", "riemann"),
                        ("bc.lap_share", "packing"),
                        ("acc.fused_lap_share", "fused")):
        if total > 0.0:
            s.set(metric, laps.get(lap, 0.0) / total)
    rhs_walls = _span_seconds(spans, "solver.rhs")
    if rhs_walls:
        rhs_ms = statistics.median(rhs_walls) * 1e3
        step_ms = statistics.median(_span_seconds(spans, "step")) * 1e3
        s.set("solver.rhs_eval_ms", rhs_ms, len(rhs_walls))
        s.set("solver.step_overhead_frac", 1.0 - 3.0 * rhs_ms / step_ms,
              len(rhs_walls))


def guard_probe(s: Sampler, sim, q: np.ndarray) -> None:
    """The step guard's own work, called directly: rollback snapshot,
    post-step ``cons_to_prim`` and ``check_state``.  (Differencing a
    guarded and an unguarded ``Simulation.step`` would need ~20 extra
    1.3 s steps to resolve ~1 % of one.)"""
    from repro.solver import check_state
    from repro.state.conversions import cons_to_prim

    ws = sim.rhs.workspace

    def guard():
        np.copyto(ws.rollback, q)
        prim = cons_to_prim(sim.layout, sim.mixture, q, out=ws.prim)
        return check_state(sim.layout, sim.mixture, q, prim=prim)

    s.set("solver.guard_ms_per_step", s.seconds(guard) * 1e3, s.calls)


def fusion_probe(s: Sampler, sim) -> None:
    """Generate + compile the run's fused kernels with a cleared cache."""
    from repro.acc.fusion import FusedKernelSpec, fused_kernel
    from repro.acc.fusion.cache import KERNEL_CACHE

    ndim = sim.grid.ndim
    specs = [FusedKernelSpec(
        kind="strided" if d == ndim - 1 else "transposed", pack=True,
        ndim=ndim, d=d, order=WENO_ORDER, weno_variant="chained",
        riemann_solver="hllc", riemann_variant="reference",
        dtype="float64", backend=sim.rhs.fusion_backend, batch=False)
        for d in range(ndim)]

    def compile_all():
        KERNEL_CACHE.clear()
        for spec in specs:
            fused_kernel(spec)

    s.set("acc.fused_compile_s", s.seconds(compile_all), s.calls)


def cluster_probes(s: Sampler, sim, case, bcs, out: dict) -> None:
    from repro.solver import RHSConfig, Simulation

    halo = out["counters"]["halo"]
    s.set("cluster.halo_messages", halo["messages"])
    s.set("cluster.halo_mb", halo["bytes_exchanged"] / 1e6)
    s.set("cluster.reductions", halo["reductions"])
    s.set("cluster.halo_waits", halo["waits"])
    s.set("cluster.halo_wait_ms", halo["wait_ns"] / 1e6)
    s.set("io.checkpoints_written",
          len(list(Path(sim.checkpoint_dir).glob("rank*.bin"))))
    idle = Simulation(case, bcs, config=RHSConfig(), ranks=sim.ranks)
    s.set("cluster.spawn_join_s",
          s.seconds(lambda: idle.run(n_steps=0), calls=3), 3)
    serial = Simulation(case, bcs, config=RHSConfig())
    serial.run(n_steps=max(4, s.calls))
    one = statistics.median(r.wall_seconds for r in serial.history[1:])
    two = statistics.median(out["step_walls"][1:])
    s.set("cluster.strong_eff_2r", one / (sim.ranks * two),
          len(serial.history) - 1)


def ensemble_probes(s: Sampler, ctx: dict, spans: list[dict], out: dict,
                    tmp: Path) -> None:
    from repro.ensemble import (
        BatchSpec,
        BatchSupervisor,
        EnsembleRunner,
        JobLedger,
    )

    svc, jobs, bcs = ctx["svc"], ctx["jobs"], ctx["bcs"]
    counters = out["counters"]
    s.set("solver.construct_s", _span_seconds(spans, "solver.construct")[0])
    s.set("ensemble.batches", counters["batches"])
    s.set("ensemble.jobs_done", len(ctx["done"]))
    s.set("ensemble.attempts", counters["attempts"])
    s.set("ensemble.ledger_records", counters["ledger_records"])
    s.set("io.checkpoints_written", sum(
        sp["attrs"]["checkpoints_written"] for sp in spans
        if sp["name"] == "ensemble.batch"))
    ledger = JobLedger(tmp / "probe.ledger")
    s.set("ensemble.ledger_append_ms", s.seconds(
        lambda: ledger.append({"kind": "event", "event": "probe"})) * 1e3,
        s.calls)
    idle = BatchSpec(cases=[jobs[0].case], t_ends=[0.0], names=["probe"],
                     bcs=bcs, engine=dict(svc.engine))
    supervisor = BatchSupervisor()
    s.set("ensemble.fork_ms",
          s.seconds(lambda: supervisor.run(idle)) * 1e3, s.calls)
    for edge in sorted({j.case.grid.shape[0] for j in jobs}):
        walls = _span_seconds(spans, "ensemble.batch", edge=edge)
        s.set(f"ensemble.batch_wall_s.g{edge}", statistics.median(walls),
              len(walls))
        group = [j for j in jobs if j.case.grid.shape[0] == edge][:8]
        grind = {}
        for width in (8, 1):
            report = EnsembleRunner(group, bcs, batch_width=width).run()
            work = sum(j.case.grid.num_cells * j.case.layout.nvars * 3
                       * r.steps for j, r in zip(group, report.results))
            grind[width] = report.total_wall_seconds / work
        s.set(f"ensemble.batched_over_seq.g{edge}", grind[8] / grind[1],
              len(group))


# ----------------------------------------------------------------------
def run(job: dict, ctx: dict, spans: list[dict],
        out: dict) -> tuple[dict, dict]:
    """All probes of one traced run -> (metric values, sample counts)."""
    quick = job["quick"]
    s = Sampler(calls=3 if quick else 10)
    tmp = Path("probes")
    tmp.mkdir(exist_ok=True)
    name = job["workload"]
    if job["kind"] == "run":
        sim, case, bcs = ctx["sim"], ctx["case"], ctx["bcs"]
        q = np.array(sim.q)  # probes may clobber the driver's buffers
        solver_probes(s, sim, spans, out)
        if sim.ranks > 1:
            cluster_probes(s, sim, case, bcs, out)
        else:
            s.set("io.checkpoints_written",
                  out["counters"]["recovery"]["checkpoints_written"])
            hardware_probes(s, sim, quick)
        if sim.retry is not None:
            guard_probe(s, sim, q)
        if sim.fusion != "off":
            fusion_probe(s, sim)
        if name == "march2d-256" and not quick:  # a cold tune takes 6 s
            tuning_probes(s, bcs, tmp)
    else:
        case, bcs = ctx["jobs"][0].case, ctx["bcs"]
        q = np.array(ctx["done"][0].result.q)
        ensemble_probes(s, ctx, spans, out, tmp)
    kernel_probes(s, case, bcs, q)
    io_probes(s, job, q, tmp)
    return s.values, s.samples
