"""Runs the measured child in isolation and turns its stamps into metrics.

One *run* = one fresh ``child.py`` process in a private work directory
under ``benchmarks/e2e/.work/`` (inputs copied in, checkpoints / ledger /
results / tuning cache written there, everything removed afterwards),
in its own session so stray descendants can be found and stopped, with
BLAS/OMP pools pinned to one thread.  ``/dev/shm`` segments and live
descendants are counted around every run; a leak is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

#: A child (or reference) process that runs longer than this is killed
#: and counted as failed; the slowest full-size child takes ~30 s.
CHILD_TIMEOUT = 150.0
MIN_REPEATS = 3
#: multiprocessing's shared-memory and semaphore names in /dev/shm.
_SHM_PREFIXES = ("psm_", "sem.mp-")


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        REPRO_TUNING_CACHE=str(work / "tuning" / "cache.json"),
        REPRO_BANDWIDTH_CACHE=str(work / "tuning" / "bandwidth.json"))
    return env


def _shm_entries() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm")
                if n.startswith(_SHM_PREFIXES)}
    except OSError:
        return set()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _stop_group(pgid: int, *, grace: float = 0.0) -> bool:
    """Stop whatever is left of a child's session; True if it had to.

    ``grace`` lets helpers that exit on their own once the leader is gone
    (multiprocessing's resource tracker reads EOF and quits) do so.
    """
    deadline = time.monotonic() + grace
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            break
        time.sleep(0.005)
    else:
        return False
    os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)
    return True


def _sha_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Checks:
    """Operations attempted and failed so far, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int = 0, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.record(1, 0 if ok else 1, note)


@dataclass
class Run:
    """One child process: its result and the parent-side stamps."""

    spawned: float
    exited: float
    result: dict | None
    #: sha256 of every snapshot file the child left, by relative path.
    files: dict[str, str] = field(default_factory=dict)

    @property
    def end_to_end(self) -> dict[str, float]:
        r = self.result
        return {
            "setup_s": r["run_entry"] - self.spawned,
            "time_to_solution_s": self.exited - self.spawned,
            "grind_ns": self.march_s / r["work"] * 1e9,
            "peak_rss_mb": r["peak_rss_mb"],
        }

    @property
    def march_s(self) -> float:
        return self.result["run_done"] - self.result["run_entry"]


def _stage(inputs: Path, prefix: str) -> Path:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    for item in inputs.iterdir():
        shutil.copy(item, work)
    return work


def _start(script: str, work: Path, *args: str) -> subprocess.Popen:
    """Start ``script`` in ``work`` as the leader of its own session."""
    with (work / "stderr.log").open("wb") as err:
        return subprocess.Popen(
            [sys.executable, str(HERE / script), *args], cwd=work,
            env=child_env(work), stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True)


def _finish(proc: subprocess.Popen,
            work: Path) -> tuple[int | None, float, bool, str]:
    """Wait (bounded) -> (exit code or None on timeout, the leader's exit
    stamp, whether live descendants had to be stopped, tail of stderr)."""
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    exited = time.monotonic()
    leaked = _stop_group(proc.pid, grace=2.0 if code is not None else 0.0)
    proc.wait()
    log = (work / "stderr.log").read_text(errors="replace")[-2000:]
    return code, exited, leaked and code is not None, log


def run_child(inputs: Path, checks: Checks, *, trace: bool = False,
              n_steps: int | None = None) -> Run:
    """Run ``child.py`` once on a private copy of ``inputs``; every
    operation it attempted or failed is recorded in ``checks``."""
    from repro.common import CheckpointError
    from repro.io.binary import verify_snapshot

    work = _stage(inputs, "run-")
    try:
        job = json.loads((work / "job.json").read_text())
        if n_steps is not None:
            job["n_steps"] = n_steps
            (work / "job.json").write_text(json.dumps(job))
        shm_before = _shm_entries()
        spawned = time.monotonic()
        proc = _start("child.py", work, "--spawned-at", repr(spawned),
                      *(["--trace"] if trace else []))
        code, exited, leaked_procs, log = _finish(proc, work)
        leaked_shm = sorted(_shm_entries() - shm_before)
        for name in leaked_shm:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
        checks.check(not leaked_procs, "child left live descendant processes")
        checks.check(not leaked_shm, f"leaked /dev/shm entries: {leaked_shm}")

        result_path = work / "result.json"
        result = (json.loads(result_path.read_text())
                  if code == 0 and result_path.exists() else None)
        units = job["n_steps"] if job["kind"] == "run" else len(job["jobs"])
        if result is None:
            checks.record(units, units,
                          f"child exited {code} without a result:\n{log}")
        else:
            lost = result["units_failed"] or int("error" in result)
            checks.record(units, lost, f"march failed: {result.get('error')}")
            checks.record(result["validations"], result["validations_failed"],
                          "final state failed validate_state/check_state, or "
                          "halo messages != decomp.total_messages() x stages "
                          "x steps")
        run = Run(spawned, exited, result)
        for path in sorted(work.rglob("*.bin")):
            if path.parent.name == "probes":
                continue
            rel = str(path.relative_to(work))
            try:
                verify_snapshot(path)
            except (CheckpointError, OSError) as err:
                checks.check(False, f"{rel} failed verify_snapshot: {err}")
            else:
                checks.check(True, "")
                run.files[rel] = _sha_file(path)
        return run
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_repeats(runs: list[Run], checks: Checks) -> None:
    """Every run of one generated input must end in the same bits."""
    shas = {r.result["state_sha"] for r in runs if r.result is not None}
    checks.check(len(shas) == 1 and all(r.result for r in runs),
                 "final-state sha256 differs between repeats")


class Reference:
    """The reference-engine oracles (see oracles.py), untimed.

    Runs before anything is timed: the reference process and — for the
    single-run workloads — the workload's own engine on the same short
    prefix, side by side.  That prefix child doubles as the warm-up run
    (the first child after an idle spell reads ~7 % slow on this VM).
    ``verify`` then compares snapshot files byte for byte; the campaign's
    sampled jobs are taken from a measured run's result files.
    """

    def __init__(self, inputs: Path, checks: Checks) -> None:
        from oracles import reference_name

        self.checks = checks
        self.job = json.loads((inputs / "job.json").read_text())
        self.expected: dict[str, str | None] = {}
        self.actual: dict[str, str | None] = {}
        ref_dir = _stage(inputs, "ref-")
        try:
            ref = _start("oracles.py", ref_dir)
            if self.job["kind"] == "run":
                prefix = run_child(inputs, checks,
                                   n_steps=self.job["oracle_steps"])
                self.actual["prefix"] = prefix.files.get(self.job["snapshot"])
            code, _exited, _leaked, log = _finish(ref, ref_dir)
            checks.check(code == 0, f"reference run exited {code}:\n{log}")
            for name in self.job.get("oracle_jobs", ["prefix"]):
                path = ref_dir / reference_name(name)
                self.expected[name] = (_sha_file(path) if path.exists()
                                       else None)
        finally:
            shutil.rmtree(ref_dir, ignore_errors=True)

    def verify(self, runs: list[Run]) -> None:
        good = [r for r in runs if r.result is not None]
        if self.job["kind"] == "ensemble" and good:
            files = good[-1].result["result_files"]
            self.actual = {name: good[-1].files.get(files.get(name))
                           for name in self.expected}
        for name, sha in self.expected.items():
            self.checks.check(
                sha is not None and self.actual.get(name) == sha,
                f"{self.job['workload']}: {name} differs bitwise from the "
                f"reference engine")


# ----------------------------------------------------------------------
def make_inputs(name: str, seed: int, quick: bool) -> Path:
    import workloads

    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"inputs-{name}-", dir=WORK))
    workloads.generate(name, seed, inputs, quick=quick)
    return inputs


def measure(name: str, seed: int, seconds: float, *,
            quick: bool = False) -> dict:
    """Oracles + untraced repeats of one workload -> end-to-end samples.

    Children repeat until the next one would overrun ``seconds`` (at
    least ``MIN_REPEATS``; exactly one in quick mode).
    """
    inputs = make_inputs(name, seed, quick)
    try:
        checks = Checks()
        reference = Reference(inputs, checks)
        runs: list[Run] = []
        began = time.monotonic()
        while True:
            runs.append(run_child(inputs, checks))
            elapsed = time.monotonic() - began
            if quick or (len(runs) >= MIN_REPEATS
                         and elapsed + elapsed / len(runs) > seconds):
                break
        check_repeats(runs, checks)
        reference.verify(runs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    good = [r for r in runs if r.result is not None]
    samples: dict[str, list[float]] = {}
    for run in good:
        for metric, value in run.end_to_end.items():
            samples.setdefault(metric, []).append(value)
    return {"workload": name, "seed": seed, "repeats": len(runs),
            "samples": samples,
            "step_walls": [r.result.get("step_walls", []) for r in good],
            "march_s": [r.march_s for r in good],
            "attempted": checks.attempted, "failed": checks.failed,
            "notes": checks.notes}


def _step_stats(pools: list[list[float]]) -> dict[str, float]:
    """First-step excess and steady-step percentiles from untraced runs."""
    pools = [p for p in pools if len(p) >= 3]
    if not pools:
        return {}
    steady = [w for p in pools for w in p[1:]]
    return {
        "solver.first_step_excess_s": statistics.median(
            p[0] - statistics.median(p[1:]) for p in pools),
        "solver.step_ms_p50": statistics.median(steady) * 1e3,
        "solver.step_ms_p90": statistics.quantiles(steady, n=10)[-1] * 1e3,
    }


def trace(name: str, seed: int, *, quick: bool = False,
          measured: dict | None = None) -> dict:
    """One untraced + one traced run -> per-layer metrics + trace file.

    Standalone (driver mode) the oracles run first, as in ``measure``; in
    suite mode ``measured`` (the result of ``measure`` just before) adds
    its untraced repeats to the step and march samples, and the oracles
    are not repeated.
    """
    from metrics import PER_LAYER
    from spans import self_times

    inputs = make_inputs(name, seed, quick)
    try:
        checks = Checks()
        reference = Reference(inputs, checks) if measured is None else None
        plain = run_child(inputs, checks)
        traced = run_child(inputs, checks, trace=True)
        check_repeats([plain, traced], checks)
        if reference is not None:
            reference.verify([plain, traced])
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    values = {m.name: 0.0 for m in PER_LAYER}
    samples: dict[str, int] = {}
    trace_file = None
    if plain.result is None or "probes" not in (traced.result or {}):
        checks.check(False, "traced run produced no probes")
    else:
        values.update(traced.result["probes"])
        samples.update(traced.result["probe_samples"])
        earlier = measured or {"step_walls": [], "march_s": []}
        pools = earlier["step_walls"] + [plain.result.get("step_walls", [])]
        stats = _step_stats(pools)
        values.update(stats)
        samples.update(dict.fromkeys(stats, sum(len(p) - 1 for p in pools)))
        untraced = earlier["march_s"] + [plain.march_s]
        values["profiling.trace_overhead_frac"] = (
            traced.march_s / statistics.median(untraced) - 1.0)
        samples["profiling.trace_overhead_frac"] = len(untraced)
        spans = traced.result["spans"]
        root = spans[0]
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
        wall = root["end"] - root["start"]
        checks.check(abs(top - wall) <= 0.02 * wall,
                     f"top-level spans sum to {top:.3f} s of a {wall:.3f} s run")
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"trace_{name}.json"
        trace_file.write_text(json.dumps({
            "workload": name, "seed": seed, "run": root["run"],
            "wall_s": wall, "top_level_s": top,
            "counters": traced.result["counters"],
            "self_times": self_times(spans), "spans": spans}))
        trace_file = str(trace_file.relative_to(ROOT))
    return {"workload": name, "seed": seed, "metrics": values,
            "samples": samples, "trace_file": trace_file,
            "attempted": checks.attempted, "failed": checks.failed,
            "notes": checks.notes}
