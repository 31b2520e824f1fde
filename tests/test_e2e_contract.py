"""The frozen benchmark harness's contract with ``src/``, in-process.

``benchmarks/e2e/{child,oracles,probes}.py`` may not change, so a
refactor that breaks a signature, attribute or call convention they use
must fail tier-1 in seconds rather than the benchmark after the PR.
These tests import the three harness modules and drive their own
functions — the traced march (``sim.rhs = proxy``), every layer probe
and the byte-for-byte oracle comparison — on miniature copies of the
four workloads.
"""

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.io.case_files import case_to_dict, save_case

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    import child
    import oracles
    import probes
    import spans
    import workloads

    yield SimpleNamespace(child=child, oracles=oracles, probes=probes,
                          Recorder=spans.Recorder, workloads=workloads)
    for name in ("child", "oracles", "probes", "spans", "workloads",
                 "metrics"):
        sys.modules.pop(name, None)


def _write_run(h, directory: Path, name: str, edge: int, n_steps: int) -> dict:
    """A miniature of workload ``name``: same builder, same solver section."""
    wl = h.workloads.WORKLOADS[name]
    build = (h.workloads.droplet_3d if len(wl.shape) == 3
             else h.workloads.shock_bubble_2d)
    case, geometries = build(edge, random.Random(0))
    spec = case_to_dict(case, geometries=geometries)
    if wl.solver:
        spec["solver"] = dict(wl.solver)
    directory.mkdir()
    save_case(directory / "case.json", spec)
    job = dict(workload=name, seed=0, kind="run", quick=True,
               input="case.json", snapshot="final.bin", n_steps=n_steps,
               oracle_steps=n_steps, cells=case.grid.num_cells,
               nvars=case.layout.nvars)
    (directory / "job.json").write_text(json.dumps(job))
    return job


def _write_campaign(h, directory: Path, *groups: tuple[int, int]) -> dict:
    """A miniature ``campaign-svc``: ``(edge, count)`` jobs per group,
    batches of two."""
    rng = random.Random(0)
    jobs = []
    for edge, count in groups:
        for i in range(count):
            case, geometries = h.workloads.shock_bubble_2d(edge, rng)
            jobs.append({"name": f"g{edge}-{i:02d}",
                         "t_end": (2 + i) * 0.5 / edge / 3.2,
                         "case": case_to_dict(case, geometries=geometries)})
    spec = {"batch_width": 2, "jobs": jobs,
            "service": {"ledger": "campaign.ledger",
                        "checkpoint_dir": "checkpoints",
                        "results_dir": "results", "checkpoint_every": 2}}
    directory.mkdir()
    (directory / "spec.json").write_text(json.dumps(spec))
    job = dict(workload="campaign-svc", seed=0, kind="ensemble", quick=True,
               input="spec.json", oracle_jobs=[jobs[0]["name"],
                                               jobs[-1]["name"]])
    (directory / "job.json").write_text(json.dumps(job))
    return job


def _traced(h, job: dict, runner) -> tuple[dict, dict]:
    """What ``child.py --trace`` does: traced march, then every probe."""
    rec = h.Recorder("contract", enabled=True)
    out: dict = {}
    with rec.span("run"):
        ctx = runner(job, rec, out)
    assert "error" not in out, out.get("error")
    assert out["units_failed"] == 0 and out["validations_failed"] == 0
    out["spans"] = rec.spans
    values, _samples = h.probes.run(job, ctx, rec.spans, out)
    return out, values


@pytest.mark.parametrize("name,edge", [
    ("march2d-256", 16), ("prod3d-48", 8), ("ranks2-192", 16)])
def test_run_workload_traced_probed_and_matches_its_oracle(
        harness, tmp_path, monkeypatch, name, edge):
    h = harness
    job = _write_run(h, tmp_path / "traced", name, edge, n_steps=2)
    monkeypatch.chdir(tmp_path / "traced")
    out, values = _traced(h, job, h.child.run_case)
    assert len(out["step_walls"]) == 2
    assert values["solver.workspace_mb"] > 0.0
    assert values["weno.passes_per_rhs"] > 0.0
    if name == "prod3d-48":
        assert values["acc.fused_launches_per_rhs"] > 0.0
        assert values["io.checkpoints_written"] == 1
        assert values["solver.guard_ms_per_step"] > 0.0
    if name == "ranks2-192":
        assert values["cluster.reductions"] == 2 * 2  # steps x ranks
        assert values["cluster.halo_messages"] > 0

    # The oracle pair, as harness.py runs it: the reference engine and
    # the workload's own (untraced) engine on the same prefix.
    for side in ("ref", "own"):
        _write_run(h, tmp_path / side, name, edge, n_steps=2)
    monkeypatch.chdir(tmp_path / "ref")
    assert h.oracles.main() == 0
    monkeypatch.chdir(tmp_path / "own")
    own: dict = {}
    h.child.run_case(job, h.Recorder("own", enabled=False), own)
    assert "error" not in own
    reference = tmp_path / "ref" / h.oracles.reference_name("prefix")
    assert (tmp_path / "own" / "final.bin").read_bytes() \
        == reference.read_bytes()


def test_campaign_workload_traced_probed_and_matches_its_oracle(
        harness, tmp_path, monkeypatch):
    h = harness
    # The per-edge metric names are declared for the workload's grids.
    job = _write_campaign(h, tmp_path / "svc", (32, 3))
    monkeypatch.chdir(tmp_path / "svc")
    out, values = _traced(h, job, h.child.run_campaign)
    assert values["ensemble.jobs_done"] == 3
    assert values["ensemble.fork_ms"] > 0.0
    assert values["ensemble.batched_over_seq.g32"] > 0.0
    assert h.oracles.main() == 0
    for name in job["oracle_jobs"]:
        result = tmp_path / "svc" / out["result_files"][name]
        assert result.read_bytes() == (
            tmp_path / "svc" / h.oracles.reference_name(name)).read_bytes()


def test_side_by_side_batches_each_end_in_one_traced_run_call(
        harness, tmp_path, monkeypatch):
    """Three batches over two edges on the host's slots: however the
    children overlap, the harness's ``supervisor.run`` proxy sees every
    batch exactly once, with its outcome."""
    from repro.acc.gang import usable_cores
    from repro.ensemble import BatchSupervisor

    h = harness
    job = _write_campaign(h, tmp_path / "svc", (64, 2), (32, 3))
    monkeypatch.chdir(tmp_path / "svc")
    telemetry = []
    run = BatchSupervisor.run

    def spy(self, spec):  # beneath the harness's instance-level proxy
        outcome = run(self, spec)
        # The durable campaign's batches, not the fork probe's or the
        # batching probe's in-memory ones (no checkpoint directory).
        if spec.checkpoint_dir is not None:
            telemetry.append(outcome["telemetry"])
        return outcome

    monkeypatch.setattr(BatchSupervisor, "run", spy)
    out, values = _traced(h, job, h.child.run_campaign)
    assert values["ensemble.jobs_done"] == 5
    assert values["ensemble.batches"] == len(telemetry) == 3
    batches = [s for s in out["spans"] if s["name"] == "ensemble.batch"]
    assert sorted(s["attrs"]["edge"] for s in batches) == [32, 32, 64]
    assert values["io.checkpoints_written"] == sum(
        t["checkpoints_written"] for t in telemetry) > 0
    for edge in (32, 64):
        assert values[f"ensemble.batch_wall_s.g{edge}"] >= 0.0
    if usable_cores() >= 2:
        lives = [(t["started"], t["finished"]) for t in telemetry]
        assert any(max(a[0], b[0]) < min(a[1], b[1])
                   for i, a in enumerate(lives) for b in lives[i + 1:])
    assert h.oracles.main() == 0
    for name in job["oracle_jobs"]:
        result = tmp_path / "svc" / out["result_files"][name]
        assert result.read_bytes() == (
            tmp_path / "svc" / h.oracles.reference_name(name)).read_bytes()


def test_tuning_probe_call_sequence(harness, tmp_path, monkeypatch):
    h = harness
    monkeypatch.setattr(h.probes, "TUNE_EDGE", 12)  # 32 is a 6 s cold tune
    monkeypatch.chdir(tmp_path)
    from repro.bc import BoundarySet

    s = h.probes.Sampler(calls=3)
    h.probes.tuning_probes(s, BoundarySet.all_extrapolation(2), tmp_path)
    assert s.values["tuning.timing_runs"] > 0
    assert s.values["tuning.cache_hit_ms"] > 0.0
