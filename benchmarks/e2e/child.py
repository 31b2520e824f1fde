"""The measured program: one fresh process per benchmark repeat.

Does what ``python -m repro run case.json --steps N --snapshot final.bin``
or ``python -m repro ensemble spec.json`` does — load the generated JSON,
build the driver from its ``solver``/``service`` section with the CLI's
defaults (WENO5 + HLLC, CFL 0.5, extrapolation BCs), march, validate,
write the outputs — and stamps the boundaries the end-to-end metrics are
defined on.  It runs in its private work directory (``cwd``), reads
``job.json`` there and leaves ``result.json`` beside it.

With ``--trace`` the same code runs with the span recorder on: the march
is taken one ``run(n_steps=1)`` at a time (the same loop ``run`` executes)
behind a delegating proxy around ``sim.rhs``, and the layer probes run
afterwards on the final state.  End-to-end numbers never come from a
traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from spans import Recorder

#: CLI defaults of ``python -m repro run|ensemble``.
CFL = 0.5


def _sha(*arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TracedRHS:
    """Delegating proxy around ``sim.rhs``: one ``solver.rhs`` span per
    evaluation, with kernel-family children synthesised from the
    ``Stopwatch`` lap deltas of that call (laid end to end from the span
    start; their sum is the kernels' busy time, the rest is self time)."""

    def __init__(self, inner, stopwatch, rec: Recorder) -> None:
        self.inner = inner
        self._stopwatch = stopwatch
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __call__(self, q, **kwargs):
        rec = self._rec
        before = dict(self._stopwatch.laps)
        with rec.span("solver.rhs"):
            sid = rec.current
            out = self.inner(q, **kwargs)
        cursor = rec.spans[sid]["start"]
        for name, total in self._stopwatch.laps.items():
            delta = total - before.get(name, 0.0)
            if delta > 0.0:
                rec.add(f"kernel.{name}", cursor, cursor + delta, sid,
                        synth=True)
                cursor += delta
        return out


def _march_traced(sim, n_steps: int, rec: Recorder) -> None:
    if sim.ranks > 1:
        # The cluster owns the whole march; rank 0's step walls come back
        # in the history and are laid out backwards from the join.
        with rec.span("cluster.run"):
            sid = rec.current
            sim.run(n_steps=n_steps)
        cursor = rec.spans[sid]["end"]
        for record in reversed(sim.history):
            rec.add("step", cursor - record.wall_seconds, cursor, sid,
                    index=record.step - 1, synth=True)
            cursor -= record.wall_seconds
        return
    real_rhs = sim.rhs
    sim.rhs = TracedRHS(real_rhs, sim.stopwatch, rec)
    if sim.checkpoint_every:
        rec.wrap_method(sim.checkpoint_manager, "save", "io.checkpoint")
    try:
        for i in range(n_steps):
            with rec.span("step", index=i) as attrs:
                sim.run(n_steps=1)
                attrs["retries"] = sim.history[-1].retries
    finally:
        sim.rhs = real_rhs


def run_case(job: dict, rec: Recorder, out: dict) -> dict:
    """The ``python -m repro run`` path; returns the probe context."""
    with rec.span("setup"):
        with rec.span("import"):
            from repro.backend import to_host_array
            from repro.bc import BoundarySet
            from repro.common import ReproError
            from repro.io.binary import write_snapshot
            from repro.io.case_files import load_case, load_solver_options
            from repro.solver import RHSConfig, Simulation
        with rec.span("io.load_case"):
            case = load_case(job["input"])
            options = load_solver_options(job["input"])
        with rec.span("solver.construct"):
            bcs = BoundarySet.all_extrapolation(case.grid.ndim)
            sim = Simulation(case, bcs, config=RHSConfig(), cfl=CFL,
                             **options)
    n_steps = job["n_steps"]
    out["run_entry"] = time.monotonic()
    try:
        with rec.span("march"):
            if rec.enabled:
                _march_traced(sim, n_steps, rec)
            else:
                sim.run(n_steps=n_steps)
    except ReproError as err:
        out["error"] = f"{type(err).__name__}: {err}"
    out["run_done"] = time.monotonic()
    with rec.span("finish"):
        try:
            sim.validate_state()
            out["valid"] = True
        except ReproError as err:
            out["valid"] = False
            out.setdefault("error", f"{type(err).__name__}: {err}")
        with rec.span("io.snapshot"):
            write_snapshot(job["snapshot"], sim.q, step=sim.step_count,
                           time=sim.time)
    checks = [out.pop("valid")]
    if sim.halo_counters is not None and "error" not in out:
        # The comm model must reconcile exactly: one halo message per
        # neighbour side and RK stage, one dt reduction per step.
        from repro.cluster import BlockDecomposition

        decomp = BlockDecomposition.balanced(
            case.grid.shape, sim.ranks, periodic=(False,) * case.grid.ndim)
        checks.append(sim.halo_counters.messages
                      == decomp.total_messages() * 3 * n_steps)
    out.update(
        units_failed=n_steps - len(sim.history),
        work=case.grid.num_cells * case.layout.nvars * 3 * len(sim.history),
        step_walls=[r.wall_seconds for r in sim.history],
        state_sha=_sha(to_host_array(sim.q)),
        validations=len(checks), validations_failed=checks.count(False),
        counters={
            "sweep": sim.rhs.sweep_counters.as_dict(),
            "recovery": sim.recovery.as_dict(),
            "halo": (sim.halo_counters.as_dict()
                     if sim.halo_counters is not None else None),
            "laps": dict(sim.stopwatch.laps),
        })
    return {"sim": sim, "case": case, "bcs": bcs}


def run_campaign(job: dict, rec: Recorder, out: dict) -> dict:
    """The ``python -m repro ensemble`` durable-service path."""
    with rec.span("setup"):
        with rec.span("import"):
            from repro.bc import BoundarySet
            from repro.common import ReproError
            from repro.ensemble import EnsembleService
            from repro.io.case_files import load_ensemble_spec
            from repro.solver import RHSConfig, check_state
        with rec.span("io.load_case"):
            jobs, batch_width, options, service = load_ensemble_spec(
                job["input"])
        with rec.span("solver.construct"):
            bcs = BoundarySet.all_extrapolation(jobs[0].case.grid.ndim)
            svc = EnsembleService(jobs, bcs, batch_width=batch_width,
                                  config=RHSConfig(), cfl=CFL,
                                  **options, **service)

    def describe_batch(args, outcome):
        spec = args[0]
        telemetry = outcome.get("telemetry", {})
        return {"edge": spec.cases[0].grid.shape[0],
                "width": len(spec.cases), "ok": bool(outcome.get("ok")),
                "checkpoints_written": telemetry.get("checkpoints_written", 0)}

    rec.wrap_method(svc.supervisor, "run", "ensemble.batch", describe_batch)
    rec.wrap_method(svc.ledger, "append", "ensemble.ledger_append")
    out["run_entry"] = time.monotonic()
    report = None
    try:
        with rec.span("march"), rec.span("ensemble.service_run"):
            report = svc.run()
    except ReproError as err:
        out["error"] = f"{type(err).__name__}: {err}"
    out["run_done"] = time.monotonic()
    outcomes = report.jobs if report is not None else []
    done = [j for j in outcomes if j.status == "done" and j.result is not None]
    with rec.span("finish"):
        invalid = sum(
            check_state(jobs[j.index].case.layout,
                        jobs[j.index].case.mixture, j.result.q) is not None
            for j in done)
    out.update(
        units_failed=len(jobs) - len(done),
        work=sum(jobs[j.index].case.grid.num_cells
                 * jobs[j.index].case.layout.nvars * 3 * j.result.steps
                 for j in done),
        job_steps={j.name: j.result.steps for j in done},
        result_files={j.name: f"results/{j.job_id}.bin" for j in done},
        state_sha=_sha(*(j.result.q for j in done)),
        validations=len(done), validations_failed=invalid,
        counters={
            "batches": report.executed_batches if report else 0,
            "attempts": sum(j.attempts for j in outcomes),
            "ledger_records": len(svc.ledger.replay().records),
        })
    return {"svc": svc, "jobs": jobs, "bcs": bcs, "done": done}


def main() -> int:
    main_at = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=main_at,
                        help="parent's time.monotonic() just before spawn")
    args = parser.parse_args()
    with open("job.json") as fh:
        job = json.load(fh)
    rec = Recorder(f"{job['workload']}-s{job['seed']}-p{os.getpid()}",
                   enabled=args.trace)
    out: dict = {"workload": job["workload"], "seed": job["seed"],
                 "traced": args.trace}
    runner = run_case if job["kind"] == "run" else run_campaign
    with rec.span("run"):
        if rec.enabled:
            # The root starts at the parent's spawn stamp so interpreter
            # start-up is a visible child, not a gap.
            rec.spans[0]["start"] = args.spawned_at
            rec.add("interpreter", args.spawned_at, main_at, 0, synth=True)
        ctx = runner(job, rec, out)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(usage_self, usage_kids) / 1024.0
    if rec.enabled:
        out["spans"] = rec.spans
        if "error" not in out:
            import probes

            out["probes"], out["probe_samples"] = probes.run(
                job, ctx, rec.spans, out)
    with open("result.json", "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
