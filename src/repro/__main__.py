"""Command-line interface: run cases, inspect devices, post-process.

Usage::

    python -m repro run case.json --t-end 0.2 [--cfl 0.5] [--weno 5]
           [--riemann hllc] [--snapshot out.bin] [--silo out.npz]
    python -m repro devices
    python -m repro postprocess snapshot.bin case.json out.npz
"""

from __future__ import annotations

import argparse
import sys

from repro.bc import BoundarySet
from repro.solver import RHSConfig, Simulation


def _threads(args: argparse.Namespace, solver_options: dict) -> int | None:
    """``--threads``, else the case file's, else None (a planned gang)."""
    if args.threads is not None:
        return args.threads
    return solver_options.get("threads")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.io.case_files import load_case, load_solver_options

    case = load_case(args.case)
    ndim = case.grid.ndim
    bcs = {
        "periodic": BoundarySet.all_periodic,
        "reflective": BoundarySet.all_reflective,
        "extrapolation": BoundarySet.all_extrapolation,
    }[args.bc](ndim)
    # CLI flags override the case file's "solver" section.
    solver_options = load_solver_options(args.case)
    threads = _threads(args, solver_options)
    ranks = solver_options.get("ranks", 1)
    if args.ranks is not None:
        ranks = args.ranks
    cluster: dict = {
        key: solver_options[key]
        for key in ("cluster_timeout", "max_restarts")
        if key in solver_options}
    if args.cluster_timeout is not None:
        cluster["cluster_timeout"] = args.cluster_timeout
    if args.max_restarts is not None:
        cluster["max_restarts"] = args.max_restarts
    layout = solver_options.get("sweep_layout", "strided")
    if args.layout is not None:
        layout = args.layout
    fusion = solver_options.get("fusion", "off")
    if args.fusion is not None:
        fusion = args.fusion
    backend = solver_options.get("backend")
    if args.backend is not None:
        backend = args.backend
    precision = solver_options.get("precision", "float64")
    if args.precision is not None:
        precision = args.precision
    resilience: dict = {
        key: solver_options[key]
        for key in ("checkpoint_every", "checkpoint_keep", "checkpoint_dir",
                    "validate_every", "retry")
        if key in solver_options}
    if args.checkpoint_every is not None:
        resilience["checkpoint_every"] = args.checkpoint_every
    if args.checkpoint_dir is not None:
        resilience["checkpoint_dir"] = args.checkpoint_dir
    if args.checkpoint_keep is not None:
        resilience["checkpoint_keep"] = args.checkpoint_keep
    if args.validate_every is not None:
        resilience["validate_every"] = args.validate_every
    if args.retries is not None:
        from repro.solver import RetryPolicy

        resilience["retry"] = RetryPolicy(max_retries=args.retries)
    tuning = solver_options.get("tuning", "off")
    if args.tune:
        tuning = "auto"
    tuning_cache = solver_options.get("tuning_cache")
    if args.tuning_cache is not None:
        tuning_cache = args.tuning_cache
    sim = Simulation(case, bcs,
                     config=RHSConfig(weno_order=args.weno,
                                      riemann_solver=args.riemann,
                                      geometry=args.geometry),
                     cfl=args.cfl, threads=threads, ranks=ranks,
                     sweep_layout=layout, fusion=fusion,
                     backend=backend, precision=precision,
                     tuning=tuning, tuning_cache=tuning_cache,
                     **cluster, **resilience)
    print(f"running {case.grid.num_cells} cells, {case.mixture.ncomp} fluids, "
          f"WENO{args.weno} + {args.riemann.upper()}"
          + f", gang {sim.gang_why}"
          + (f", {ranks} ranks" if ranks > 1 else "")
          + (f", {layout} sweeps" if layout != "strided" else "")
          + (f", fusion {sim.fusion}" if sim.fusion != "off" else "")
          + (f", backend {sim.backend.name}"
             if sim.backend.name != "numpy" else "")
          + (", float32" if precision == "float32" else ""))
    if sim.tuning_plan is not None:
        print(sim.tuning_plan.summary())
    callback = None
    if args.series:
        from repro.io.series import SeriesWriter

        writer = SeriesWriter(args.series, interval=args.series_interval)
        writer.write(sim.q, step=0, time=0.0)
        callback = writer.callback
    with sim:  # reaps the gang workers after the march
        if args.steps is not None:
            sim.run(n_steps=args.steps, callback=callback)
        else:
            sim.run(t_end=args.t_end, callback=callback)
    if args.series:
        print(f"wrote {len(writer.entries)} series snapshots to {args.series}")
    sim.validate_state()
    if sim.history:
        print(f"done: {sim.step_count} steps to t = {sim.time:.6g}; "
              f"grind {sim.grind_time_ns():.1f} ns/cell/PDE/RHS (host)")
        shares = ", ".join(f"{k}={100 * v:.0f}%"
                           for k, v in sorted(sim.kernel_breakdown().items()))
        if shares:  # kernel laps live in the workers on multi-process runs
            print(f"kernel shares: {shares}")
        if sim.rhs.sweep_counters.transposed_sweeps:
            print(sim.rhs.sweep_counters.summary())
        if sim.halo_counters is not None:
            print(sim.halo_counters.summary())
    else:
        print(f"done: horizon t_end already reached; no steps taken "
              f"(t = {sim.time:.6g})")
    if sim.recovery.any():
        print(sim.recovery.summary())

    if args.snapshot:
        from repro.io.binary import write_snapshot

        nbytes = write_snapshot(args.snapshot, sim.q, step=sim.step_count,
                                time=sim.time)
        print(f"wrote snapshot {args.snapshot} ({nbytes} bytes)")
        if args.silo:
            from repro.io.silo import export_silo

            export_silo(args.snapshot, args.silo, case.grid, case.mixture)
            print(f"wrote visualization database {args.silo}")
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    from repro.ensemble import EnsembleRunner
    from repro.io.case_files import load_ensemble_spec

    jobs, batch_width, solver_options, service = load_ensemble_spec(args.spec)
    if args.batch_width is not None:
        batch_width = args.batch_width
    # CLI flags override the spec's "solver" section, as in `run`.
    threads = _threads(args, solver_options)
    layout = solver_options.get("sweep_layout", "strided")
    if args.layout is not None:
        layout = args.layout
    fusion = solver_options.get("fusion", "off")
    if args.fusion is not None:
        fusion = args.fusion
    backend = solver_options.get("backend")
    if args.backend is not None:
        backend = args.backend
    tuning = solver_options.get("tuning", "off")
    if args.tune:
        tuning = "auto"
    tuning_cache = solver_options.get("tuning_cache")
    if args.tuning_cache is not None:
        tuning_cache = args.tuning_cache
    ndim = jobs[0].case.grid.ndim
    bcs = {
        "periodic": BoundarySet.all_periodic,
        "reflective": BoundarySet.all_reflective,
        "extrapolation": BoundarySet.all_extrapolation,
    }[args.bc](ndim)
    # CLI service flags override (or create) the spec's service section.
    if args.ledger is not None:
        service["ledger"] = args.ledger
    if args.checkpoint_dir is not None:
        service["checkpoint_dir"] = args.checkpoint_dir
    if args.results_dir is not None:
        service["results_dir"] = args.results_dir
    if args.max_attempts is not None:
        service["max_attempts"] = args.max_attempts
    if args.deadline is not None:
        service["deadline_seconds"] = args.deadline
    if args.checkpoint_every is not None:
        service["checkpoint_every"] = args.checkpoint_every
    if args.no_supervise:
        service["supervise"] = False
    if service and "ledger" not in service:
        print("ensemble: durable-service flags need --ledger "
              "(or a spec 'service' section)", file=sys.stderr)
        return 2
    config = RHSConfig(weno_order=args.weno, riemann_solver=args.riemann,
                       geometry=args.geometry)
    engine = dict(cfl=args.cfl, threads=threads, sweep_layout=layout,
                  fusion=fusion, backend=backend,
                  tuning=tuning, tuning_cache=tuning_cache)
    if service:
        from repro.ensemble import EnsembleService

        svc = EnsembleService(jobs, bcs, batch_width=batch_width,
                              config=config, **engine, **service)
        print(f"ensemble service: {len(jobs)} jobs, width <= {batch_width}, "
              f"ledger {svc.ledger.path}"
              + (" (resuming)" if svc.ledger.exists() else ""))
        report = svc.run()
        print(report.summary())
        return 0 if all(j.status == "done" for j in report.jobs) else 1
    runner = EnsembleRunner(jobs, bcs, batch_width=batch_width,
                            config=config, **engine)
    plan = runner.plan_batches()
    print(f"ensemble: {len(jobs)} jobs in {len(plan)} batch(es), "
          f"width <= {batch_width}, WENO{args.weno} + {args.riemann.upper()}"
          + (f", {threads} threads" if threads is not None else "")
          + (f", {layout} sweeps" if layout != "strided" else "")
          + (f", fusion {fusion}" if fusion != "off" else "")
          + (f", backend {backend}"
             if backend not in (None, "numpy") else ""))
    report = runner.run()
    print(report.summary())
    print(f"total batch wall {report.total_wall_seconds:.3f} s")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.io.case_files import load_case, load_solver_options
    from repro.tuning import resolve_cache_path

    case = load_case(args.case)
    ndim = case.grid.ndim
    bcs = {
        "periodic": BoundarySet.all_periodic,
        "reflective": BoundarySet.all_reflective,
        "extrapolation": BoundarySet.all_extrapolation,
    }[args.bc](ndim)
    solver_options = load_solver_options(args.case)
    threads = _threads(args, solver_options)
    layout = solver_options.get("sweep_layout", "strided")
    if args.layout is not None:
        layout = args.layout
    tuning_cache = solver_options.get("tuning_cache")
    if args.tuning_cache is not None:
        tuning_cache = args.tuning_cache
    sim = Simulation(case, bcs,
                     config=RHSConfig(weno_order=args.weno,
                                      riemann_solver=args.riemann,
                                      geometry=args.geometry),
                     threads=threads, sweep_layout=layout,
                     tuning="auto", tuning_cache=tuning_cache)
    plan = sim.tuning_plan
    print(f"tuned {case.grid.num_cells} cells, WENO{args.weno} + "
          f"{args.riemann.upper()}: {sim.tuner.timing_runs} timing runs")
    print(plan.summary())
    print(f"cached in {resolve_cache_path(tuning_cache)}")
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    """MFC's pre_process stage: case file -> initial-condition snapshot."""
    from repro.io.binary import write_snapshot
    from repro.io.case_files import load_case

    case = load_case(args.case)
    q = case.initial_conservative()
    nbytes = write_snapshot(args.out, q, step=0, time=0.0)
    print(f"wrote initial condition {args.out}: {case.grid.num_cells} cells, "
          f"{case.layout.nvars} variables, {nbytes} bytes")
    return 0


def _cmd_devices(_args: argparse.Namespace) -> int:
    from repro.hardware import DEVICES, ridge_intensity

    print(f"{'key':<12} {'name':<18} {'kind':<5} {'FP64 GF/s':>10} "
          f"{'BW GB/s':>8} {'L2 MiB':>7} {'ridge F/B':>10}")
    for key, dev in DEVICES.items():
        print(f"{key:<12} {dev.name:<18} {dev.kind:<5} "
              f"{dev.roofline_peak_gflops:>10.0f} {dev.mem_bw_gbps:>8.0f} "
              f"{dev.l2_mib:>7.0f} {ridge_intensity(dev):>10.2f}")
    return 0


def _cmd_postprocess(args: argparse.Namespace) -> int:
    from repro.io.case_files import load_case
    from repro.io.silo import export_silo

    case = load_case(args.case)
    db = export_silo(args.snapshot, args.out, case.grid, case.mixture)
    fields = sorted(k for k in db if not k.startswith("coord") and k not in ("step", "time"))
    print(f"wrote {args.out}: step {int(db['step'])}, t = {float(db['time']):.6g}, "
          f"fields: {', '.join(fields)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a JSON case file")
    run.add_argument("case")
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--steps", type=int, default=None)
    run.add_argument("--cfl", type=float, default=0.5)
    run.add_argument("--weno", type=int, default=5, choices=(1, 3, 5))
    run.add_argument("--riemann", default="hllc",
                     choices=("hllc", "hll", "rusanov"))
    run.add_argument("--geometry", default="cartesian",
                     choices=("cartesian", "axisymmetric"))
    run.add_argument("--bc", default="extrapolation",
                     choices=("periodic", "reflective", "extrapolation"))
    run.add_argument("--threads", type=int, default=None,
                     help="gang width of the tiled RHS, forked workers "
                          "included (default: case file's "
                          "solver.threads, else planned from cores x tiles)")
    run.add_argument("--ranks", type=int, default=None,
                     help="processes for a multi-process block-decomposed "
                          "run with shared-memory halo exchange "
                          "(default: case file's solver.ranks, else 1)")
    run.add_argument("--cluster-timeout", type=float, default=None,
                     help="halo-wait / no-progress deadline in seconds for "
                          "multi-process runs; raise it when one step can "
                          "legitimately take longer (default: case file's "
                          "solver.cluster_timeout, else 30)")
    run.add_argument("--max-restarts", type=int, default=None,
                     help="rank-failure restarts a multi-process run may "
                          "attempt from the newest common checkpoint "
                          "(default: case file's solver.max_restarts, else 1)")
    run.add_argument("--fusion", default=None,
                     choices=("off", "on", "auto"),
                     help="sweep kernel fusion: off, on (one cached "
                          "per-tile kernel per sweep; see docs/fusion.md), "
                          "or auto (default: case file's solver.fusion, "
                          "else off)")
    run.add_argument("--layout", default=None,
                     choices=("strided", "transposed", "auto"),
                     help="sweep memory layout: strided, transposed "
                          "(axis-contiguous y/z sweeps), or auto "
                          "(default: case file's solver.layout, else strided)")
    run.add_argument("--backend", default=None,
                     choices=("numpy", "checked", "torch", "cupy"),
                     help="execution backend for the kernels (see "
                          "docs/backends.md; torch/cupy need the package "
                          "installed; default: case file's solver.backend, "
                          "else numpy)")
    run.add_argument("--precision", default=None,
                     choices=("float64", "float32"),
                     help="state precision; float32 halves memory traffic "
                          "but is a validated-tolerance mode, not bitwise "
                          "(default: case file's solver.precision, "
                          "else float64)")
    run.add_argument("--checkpoint-every", type=int, default=None,
                     help="write a rotating durable checkpoint every N steps "
                          "(default: case file's solver.checkpoint_every)")
    run.add_argument("--checkpoint-dir", default=None,
                     help="directory for rotating checkpoints "
                          "(default: case file's solver.checkpoint_dir)")
    run.add_argument("--checkpoint-keep", type=int, default=None,
                     help="how many rotating checkpoints to retain (default 3)")
    run.add_argument("--validate-every", type=int, default=None,
                     help="extra full state validation every N steps of run "
                          "(default: case file's solver.validate_every, else off)")
    run.add_argument("--retries", type=int, default=None,
                     help="enable the guarded step with rollback-retry and "
                          "this many retries per step (plus scheme escalation)")
    run.add_argument("--tune", action="store_true",
                     help="empirically autotune kernel variants for this "
                          "case/host before running (cached; see docs/tuning.md)")
    run.add_argument("--tuning-cache", default=None,
                     help="tuning-cache file (default: $REPRO_TUNING_CACHE, "
                          "else .repro_tuning/cache.json)")
    run.add_argument("--snapshot", default=None, help="write a binary snapshot")
    run.add_argument("--silo", default=None,
                     help="also write a .npz visualization database")
    run.add_argument("--series", default=None,
                     help="directory for interval snapshots (with manifest)")
    run.add_argument("--series-interval", type=int, default=100,
                     help="steps between series snapshots (default 100)")
    run.set_defaults(func=_cmd_run)

    ens = sub.add_parser("ensemble",
                         help="march many same-shape cases through stacked "
                              "batched drivers (see docs/ensemble.md)")
    ens.add_argument("spec", help="JSON ensemble spec (jobs + batch_width)")
    ens.add_argument("--batch-width", type=int, default=None,
                     help="max cases per stacked batch (default: spec's "
                          "batch_width, else 8)")
    ens.add_argument("--cfl", type=float, default=0.5)
    ens.add_argument("--weno", type=int, default=5, choices=(1, 3, 5))
    ens.add_argument("--riemann", default="hllc",
                     choices=("hllc", "hll", "rusanov"))
    ens.add_argument("--geometry", default="cartesian",
                     choices=("cartesian", "axisymmetric"))
    ens.add_argument("--bc", default="extrapolation",
                     choices=("periodic", "reflective", "extrapolation"))
    ens.add_argument("--threads", type=int, default=None,
                     help="gang width of the stacked RHS (default: planned)")
    ens.add_argument("--layout", default=None,
                     choices=("strided", "transposed", "auto"))
    ens.add_argument("--fusion", default=None,
                     choices=("off", "on", "auto"))
    ens.add_argument("--backend", default=None,
                     choices=("numpy", "checked", "torch", "cupy"),
                     help="execution backend for the stacked march "
                          "(default: spec's solver.backend, else numpy)")
    ens.add_argument("--tune", action="store_true",
                     help="autotune the stacked RHS per batch signature "
                          "(cached; later same-shape batches replay the plan)")
    ens.add_argument("--tuning-cache", default=None)
    ens.add_argument("--ledger", default=None,
                     help="write-ahead ledger path: run as a durable, "
                          "crash-tolerant job service (resumes if the "
                          "ledger exists; see docs/ensemble.md)")
    ens.add_argument("--checkpoint-dir", default=None,
                     help="per-job restart checkpoints (default: "
                          "'checkpoints' beside the ledger)")
    ens.add_argument("--results-dir", default=None,
                     help="final result snapshots (default: 'results' "
                          "beside the ledger)")
    ens.add_argument("--max-attempts", type=int, default=None,
                     help="failures per job before quarantine (default 3)")
    ens.add_argument("--deadline", type=float, default=None,
                     help="no-progress deadline per batch attempt, "
                          "seconds (default 60)")
    ens.add_argument("--checkpoint-every", type=int, default=None,
                     help="stacked steps between per-job checkpoints "
                          "(default 5)")
    ens.add_argument("--no-supervise", action="store_true",
                     help="run batches in-process instead of supervised "
                          "children (debugging; no SIGKILL protection)")
    ens.set_defaults(func=_cmd_ensemble)

    tune = sub.add_parser("tune",
                          help="benchmark kernel variants for a case on this "
                               "host and cache the winning plan")
    tune.add_argument("case")
    tune.add_argument("--weno", type=int, default=5, choices=(1, 3, 5))
    tune.add_argument("--riemann", default="hllc",
                      choices=("hllc", "hll", "rusanov"))
    tune.add_argument("--geometry", default="cartesian",
                      choices=("cartesian", "axisymmetric"))
    tune.add_argument("--bc", default="extrapolation",
                      choices=("periodic", "reflective", "extrapolation"))
    tune.add_argument("--threads", type=int, default=None,
                      help="baseline worker-thread count fed to the tuner "
                           "(default: the case file's, else planned)")
    tune.add_argument("--layout", default=None,
                      choices=("strided", "transposed", "auto"),
                      help="baseline sweep layout fed to the tuner")
    tune.add_argument("--tuning-cache", default=None,
                      help="tuning-cache file (default: $REPRO_TUNING_CACHE, "
                           "else .repro_tuning/cache.json)")
    tune.set_defaults(func=_cmd_tune)

    pre = sub.add_parser("preprocess",
                         help="generate the initial-condition snapshot "
                              "(MFC's pre_process stage)")
    pre.add_argument("case")
    pre.add_argument("out")
    pre.set_defaults(func=_cmd_preprocess)

    dev = sub.add_parser("devices", help="list the simulated device catalog")
    dev.set_defaults(func=_cmd_devices)

    post = sub.add_parser("postprocess",
                          help="convert a snapshot to a visualization database")
    post.add_argument("snapshot")
    post.add_argument("case")
    post.add_argument("out")
    post.set_defaults(func=_cmd_postprocess)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and (args.t_end is None) == (args.steps is None):
        parser.error("run: give exactly one of --t-end or --steps")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
