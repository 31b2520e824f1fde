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
from repro.common import ReproError
from repro.io.binary import write_snapshot
from repro.io.case_files import (
    load_case,
    load_ensemble_spec,
    load_solver_options,
)
from repro.solver import RHSConfig, Simulation
from repro.solver.options import add_cli_flags, fold

#: ``ensemble`` flags of the campaign service: (flag, ``"service"`` key,
#: ``add_argument`` extras).  Like the knob flags, one given on the
#: command line overrides (or creates) the spec's entry.
SERVICE_FLAGS = (
    ("--ledger", "ledger", dict(
        help="write-ahead ledger path: make the campaign durable and "
             "crash-tolerant (resumes if the ledger exists; without one "
             "the campaign writes no file; see docs/ensemble.md)")),
    ("--checkpoint-dir", "checkpoint_dir", dict(
        help="per-job restart checkpoints (default: 'checkpoints' beside "
             "the ledger; needs a ledger)")),
    ("--results-dir", "results_dir", dict(
        help="final result snapshots (default: 'results' beside the "
             "ledger; needs a ledger)")),
    ("--max-attempts", "max_attempts", dict(
        type=int, help="failures per job before quarantine (default 3)")),
    ("--deadline", "deadline_seconds", dict(
        type=float, help="no-progress deadline per batch attempt, seconds "
                         "(default 60)")),
    ("--checkpoint-every", "checkpoint_every", dict(
        type=int, help="stacked steps between per-job checkpoints "
                       "(default 5; needs a ledger)")),
    ("--no-supervise", "supervise", dict(
        action="store_const", const=False,
        help="run batches in-process instead of supervised children "
             "(debugging; no SIGKILL protection)")),
)


def _numerics(args: argparse.Namespace, ndim: int):
    """``(bcs, config)`` of the numerics flags every marching command takes."""
    bcs = getattr(BoundarySet, f"all_{args.bc}")(ndim)
    return bcs, RHSConfig(weno_order=args.weno, riemann_solver=args.riemann,
                          geometry=args.geometry)


def _cmd_run(args: argparse.Namespace) -> int:
    case = load_case(args.case)
    bcs, config = _numerics(args, case.grid.ndim)
    options = fold(None, load_solver_options(args.case)).overridden_by(args)
    sim = Simulation(case, bcs, config=config, options=options)
    print(f"running {case.grid.num_cells} cells, {case.mixture.ncomp} fluids, "
          f"WENO{args.weno} + {args.riemann.upper()}"
          + f", gang {sim.gang_why}"
          + (f", {sim.ranks} ranks" if sim.ranks > 1 else "")
          + (f", fusion {sim.fusion}" if sim.fusion != "off" else "")
          + (f", backend {sim.backend.name}"
             if sim.backend.name != "numpy" else "")
          + (", float32" if sim.precision == "float32" else ""))
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
        sweep = sim.rhs.sweep_counters
        print(f"faces evaluated: {sweep.faces_evaluated} of {sweep.faces} "
              f"({100 * sweep.evaluated_fraction:.1f}%; the rest had "
              f"bitwise-uniform stencils)")
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
        nbytes = write_snapshot(args.snapshot, sim.q, step=sim.step_count,
                                time=sim.time)
        print(f"wrote snapshot {args.snapshot} ({nbytes} bytes)")
        if args.silo:
            from repro.io.silo import export_silo

            export_silo(args.snapshot, args.silo, case.grid, case.mixture)
            print(f"wrote visualization database {args.silo}")
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    # Deferred: only this command pays for the ensemble/cluster imports.
    from repro.ensemble import EnsembleService, plan_job_batches

    jobs, batch_width, knobs, service = load_ensemble_spec(args.spec)
    if args.batch_width is not None:
        batch_width = args.batch_width
    options = fold(None, knobs).overridden_by(args)
    bcs, config = _numerics(args, jobs[0].case.grid.ndim)
    service.update((key, getattr(args, key)) for _flag, key, _cli
                   in SERVICE_FLAGS if getattr(args, key) is not None)
    svc = EnsembleService(jobs, bcs, batch_width=batch_width,
                          config=config, options=options, **service)
    batches = len(plan_job_batches(jobs, config, batch_width))
    print(f"ensemble service: {len(jobs)} jobs in {batches} batch(es), "
          f"width <= {batch_width}, WENO{args.weno} + {args.riemann.upper()}"
          + (f", {options.threads} threads"
             if options.threads is not None else "")
          + (f", fusion {options.fusion}" if options.fusion != "off" else "")
          + (f", backend {options.backend}"
             if options.backend not in (None, "numpy") else "")
          + (f", ledger {svc.ledger.path}"
             + (" (resuming)" if svc.ledger.exists() else "")
             if svc.ledger is not None else ""))
    report = svc.run()
    print(report.summary())
    return 0 if all(j.status == "done" for j in report.jobs) else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tuning.cache import resolve_cache_path

    case = load_case(args.case)
    bcs, config = _numerics(args, case.grid.ndim)
    # The case file's other run knobs do not apply to a tuning session.
    options = fold(None, load_solver_options(args.case)).only("tune") \
        .overridden_by(args)
    sim = Simulation(case, bcs, config=config, options=options, tuning="auto")
    print(f"tuned {case.grid.num_cells} cells, WENO{args.weno} + "
          f"{args.riemann.upper()}: {sim.tuner.timing_runs} timing runs")
    print(sim.tuning_plan.summary())
    print(f"cached in {resolve_cache_path(options.tuning_cache)}")
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    """MFC's pre_process stage: case file -> initial-condition snapshot."""
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
    from repro.io.silo import export_silo

    case = load_case(args.case)
    db = export_silo(args.snapshot, args.out, case.grid, case.mixture)
    fields = sorted(k for k in db if not k.startswith("coord") and k not in ("step", "time"))
    print(f"wrote {args.out}: step {int(db['step'])}, t = {float(db['time']):.6g}, "
          f"fields: {', '.join(fields)}")
    return 0


def _add_numerics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--weno", type=int, default=5, choices=(1, 3, 5))
    parser.add_argument("--riemann", default="hllc",
                        choices=("hllc", "hll", "rusanov"))
    parser.add_argument("--geometry", default="cartesian",
                        choices=("cartesian", "axisymmetric"))
    parser.add_argument("--bc", default="extrapolation",
                        choices=("periodic", "reflective", "extrapolation"))


def build_parser() -> argparse.ArgumentParser:
    """The CLI; every sub-command's knob flags are generated from the
    one field table (:func:`repro.solver.options.add_cli_flags`)."""
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a JSON case file")
    run.add_argument("case")
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--steps", type=int, default=None)
    _add_numerics_flags(run)
    add_cli_flags(run, "run")
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
    _add_numerics_flags(ens)
    add_cli_flags(ens, "ensemble")
    for flag, key, cli in SERVICE_FLAGS:
        ens.add_argument(flag, dest=key, default=None, **cli)
    ens.set_defaults(func=_cmd_ensemble)

    tune = sub.add_parser("tune",
                          help="benchmark kernel variants for a case on this "
                               "host and cache the winning plan")
    tune.add_argument("case")
    _add_numerics_flags(tune)
    add_cli_flags(tune, "tune")
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
    try:
        return args.func(args)
    except ReproError as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
