"""The empirical autotuner: plans, cache, keys, and end-to-end wiring.

Acceptance invariants pinned here:

* a second :class:`Simulation` with the same case signature on the same
  host performs **zero** timing runs (the plan comes from the cache),
* a corrupt cache file falls back to re-tuning without raising,
* cache writes are atomic (temp + rename; no stray temp files),
* a tuned end-to-end run is **bitwise identical** to the untuned run,
* the cache key reacts to the case, the host fingerprint, and the
  registry version,
* the plan round-trips case files, CLI flags, and the profiler report.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.bc import BoundarySet
from repro.common import ConfigurationError
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.hardware.devices import get_device
from repro.io.case_files import solver_options_from_dict
from repro.profiling.profiler import Profile
from repro.solver import Case, Patch, RHSConfig, Simulation, box, sphere
from repro.tuning import (
    Autotuner,
    CACHE_ENV_VAR,
    CACHE_FORMAT_VERSION,
    REGISTRY_VERSION,
    TuningCache,
    TuningPlan,
    candidate_plans,
    case_signature,
    heuristic_plan,
    host_fingerprint,
    plan_cache_key,
    resolve_cache_path,
)

AIR = StiffenedGas(1.4, 0.0, "air")
WATER = StiffenedGas(4.4, 6000.0, "water")
MIX = Mixture((AIR, WATER))


def bubble_sim(n=10, **kwargs):
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, MIX)
    case.add(Patch(box([0, 0], [1, 1]), alpha_rho=(0.5, 0.5),
                   velocity=(0.3, -0.1), pressure=1.0, alpha=(0.5,)))
    case.add(Patch(sphere([0.5, 0.5], 0.2), alpha_rho=(1.0, 1.0),
                   velocity=(0.0, 0.0), pressure=2.0, alpha=(0.5,)))
    return Simulation(case, BoundarySet.all_periodic(2), cfl=0.4, **kwargs)


# ----------------------------------------------------------------------
class TestTuningPlan:
    def test_round_trips_as_dict(self):
        plan = TuningPlan(weno_variant="stacked", riemann_variant="fused",
                          sweep_layout="transposed", threads=2, tiles=3,
                          source="tuned", measured_ns=1.5e6, modeled_ns=3e6)
        assert TuningPlan.from_dict(plan.as_dict()) == plan
        assert plan.speedup_vs_modeled() == pytest.approx(2.0)

    def test_untimed_plans_have_no_speedup(self):
        assert heuristic_plan().speedup_vs_modeled() is None
        assert "measured" not in heuristic_plan().summary()

    def test_summary_names_the_choices(self):
        line = TuningPlan(weno_variant="stacked", source="tuned",
                          measured_ns=2e6, modeled_ns=4e6).summary()
        assert "weno=stacked" in line
        assert "tuning (tuned)" in line
        assert "2.00x vs modeled heuristic" in line

    @pytest.mark.parametrize("bad", [
        {"weno_variant": "unrolled"},
        {"riemann_variant": "split"},
        {"sweep_layout": "coalesced"},
        {"threads": 0},
        {"threads": True},
        {"tiles": 0},
        {"source": "guessed"},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            TuningPlan(**bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            TuningPlan.from_dict({"weno": "stacked"})
        with pytest.raises(ConfigurationError):
            TuningPlan.from_dict("stacked")


# ----------------------------------------------------------------------
class TestCacheKey:
    def _sim_parts(self, n=10, order=5):
        sim = bubble_sim(n)
        return (case_signature(sim.layout, sim.rhs.grid,
                               RHSConfig(weno_order=order)),
                host_fingerprint())

    def test_key_is_deterministic(self):
        sig, fp = self._sim_parts()
        assert plan_cache_key(sig, fp) == plan_cache_key(dict(sig), dict(fp))

    def test_key_reacts_to_case_and_host(self):
        sig, fp = self._sim_parts()
        base = plan_cache_key(sig, fp)
        assert plan_cache_key({**sig, "weno_order": 3}, fp) != base
        assert plan_cache_key({**sig, "grid": [64, 64]}, fp) != base
        assert plan_cache_key(sig, {**fp, "numpy": "0.0.0"}) != base
        assert plan_cache_key(
            sig, host_fingerprint(get_device("mi250x"))) != base

    def test_key_reacts_to_registry_version(self, monkeypatch):
        sig, fp = self._sim_parts()
        base = plan_cache_key(sig, fp)
        monkeypatch.setattr("repro.tuning.plan.REGISTRY_VERSION",
                            REGISTRY_VERSION + "-stale")
        assert plan_cache_key(sig, fp) != base

    def test_batched_signature_never_reuses_single_case_plans(self):
        # The ensemble batch width enters the signature, so a stacked
        # plan can neither reuse nor poison a single-case cache entry —
        # and every width keys separately.
        sim = bubble_sim(10)
        config = RHSConfig()
        single = case_signature(sim.layout, sim.rhs.grid, config)
        assert "batch" not in single  # pre-ensemble keys are unchanged
        fp = host_fingerprint()
        keys = {plan_cache_key(single, fp)}
        for width in (1, 4, 8):
            batched = case_signature(sim.layout, sim.rhs.grid, config,
                                     batch=width)
            assert batched["batch"] == width
            keys.add(plan_cache_key(batched, fp))
        assert len(keys) == 4  # single-case + one per width, all distinct


# ----------------------------------------------------------------------
class TestCandidatePlans:
    def test_first_candidate_is_the_model_heuristic(self):
        plans = candidate_plans(ndim=2, cpu_count=4, threads=2,
                                sweep_layout="auto")
        assert plans[0] == {"weno_variant": "chained",
                            "riemann_variant": "reference",
                            "sweep_layout": "auto", "threads": 2,
                            "tiles": None, "fusion": "off",
                            "backend": "numpy"}

    def test_cross_product_covers_the_registry(self):
        plans = candidate_plans(ndim=2, cpu_count=4)
        assert any(p["weno_variant"] == "stacked" for p in plans)
        assert any(p["riemann_variant"] == "fused" for p in plans)
        assert any(p["sweep_layout"] == "transposed" for p in plans)
        # The gang width is not an axis: every candidate carries the
        # caller's value (None = planned by the candidate's own RHS).
        assert {p["threads"] for p in plans} == {None}
        assert {p["threads"] for p in candidate_plans(
            ndim=2, cpu_count=4, threads=3)} == {3}
        assert any(p["tiles"] is not None for p in plans)
        # Deduplicated: no candidate is measured twice.
        assert len(plans) == len({json.dumps(p, sort_keys=True)
                                  for p in plans})

    def test_1d_has_no_transposed_candidates(self):
        plans = candidate_plans(ndim=1, cpu_count=2)
        assert all(p["sweep_layout"] != "transposed" for p in plans)

    def test_fused_and_staged_candidates_share_tile_counts(self):
        # Staged and fused sweeps run on the same tile arenas under the
        # same verified slab heuristic, so neither gets a private list
        # of explicit counts: serial candidates carry the heuristic
        # only, a gang adds one and two slabs per member (of the
        # explicit width, else of the widest plannable one).
        for cpus, threads, members in ((1, None, 1), (4, None, 4),
                                       (4, 1, 1), (2, 3, 3)):
            plans = candidate_plans(ndim=2, cpu_count=cpus, threads=threads)
            counts = {fusion: {p["tiles"] for p in plans
                               if p["fusion"] == fusion}
                      for fusion in ("off", "on")}
            assert counts["off"] == counts["on"] == (
                {None} if members == 1 else {None, members, 2 * members})


# ----------------------------------------------------------------------
class TestTuningCache:
    def test_store_lookup_round_trip(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        plan = TuningPlan(weno_variant="stacked", source="tuned",
                          measured_ns=1e6, modeled_ns=2e6)
        cache.store("k1", plan)
        assert cache.lookup("k1") == plan
        assert cache.lookup("k2") is None
        assert (cache.hits, cache.misses, cache.corrupt_events) == (1, 1, 0)

    def test_writes_are_atomic_and_versioned(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        cache.store("k1", heuristic_plan())
        cache.store("k2", heuristic_plan())
        # No stray temp files survive a successful store (the flock
        # sibling guarding concurrent merges is expected).
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cache.json", "cache.json.lock"]
        data = json.loads((tmp_path / "cache.json").read_text())
        assert data["version"] == CACHE_FORMAT_VERSION
        assert data["registry"] == REGISTRY_VERSION
        assert set(data["entries"]) == {"k1", "k2"}

    @pytest.mark.parametrize("garbage", [
        "{not json",
        json.dumps({"version": 999, "registry": REGISTRY_VERSION,
                    "entries": {}}),
        json.dumps({"version": CACHE_FORMAT_VERSION, "registry": -1,
                    "entries": {}}),
        json.dumps([1, 2, 3]),
    ])
    def test_corrupt_file_is_a_miss_not_an_error(self, tmp_path, garbage):
        path = tmp_path / "cache.json"
        path.write_text(garbage)
        cache = TuningCache(path)
        assert cache.lookup("k1") is None
        assert cache.corrupt_events >= 1
        # And storing over the wreckage heals the file.
        cache.store("k1", heuristic_plan())
        assert TuningCache(path).lookup("k1") == heuristic_plan()

    def test_pre_fusion_cache_is_stale(self, tmp_path):
        # Caches written before the fusion axis existed carried the
        # literal registry version 1; the derived version must reject
        # them so a winner tuned over the smaller space is never
        # replayed.
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "version": CACHE_FORMAT_VERSION, "registry": 1,
            "entries": {"k1": dataclasses.asdict(heuristic_plan())}}))
        cache = TuningCache(path)
        assert REGISTRY_VERSION != 1
        assert cache.lookup("k1") is None
        assert cache.corrupt_events == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "version": CACHE_FORMAT_VERSION, "registry": REGISTRY_VERSION,
            "entries": {"k1": {"weno_variant": "unrolled"}}}))
        cache = TuningCache(path)
        assert cache.lookup("k1") is None
        assert cache.corrupt_events == 1

    def test_clear_removes_the_file(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        cache.store("k1", heuristic_plan())
        cache.clear()
        assert not cache.path.exists()
        cache.clear()  # idempotent

    def test_resolution_order(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert resolve_cache_path("x.json") == __import__("pathlib").Path("x.json")
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env.json"))
        assert resolve_cache_path() == tmp_path / "env.json"
        assert resolve_cache_path(tmp_path / "arg.json") == tmp_path / "arg.json"


# ----------------------------------------------------------------------
class TestAutotunerEndToEnd:
    def test_second_simulation_hits_cache_with_zero_timing_runs(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        sim1 = bubble_sim(tuning="auto", tuning_cache=cache_path)
        assert sim1.tuning_plan.source == "tuned"
        assert sim1.tuner.timing_runs > 0
        assert cache_path.exists()

        sim2 = bubble_sim(tuning="auto", tuning_cache=cache_path)
        assert sim2.tuner.timing_runs == 0  # the acceptance criterion
        assert sim2.tuning_plan.source == "cache"
        assert sim2.tuning_plan.weno_variant == sim1.tuning_plan.weno_variant
        assert sim2.tuner.cache.hits == 1

    def test_tuned_run_is_bitwise_identical_to_untuned(self, tmp_path):
        baseline = bubble_sim()
        baseline.run(n_steps=3)
        tuned = bubble_sim(tuning="auto", tuning_cache=tmp_path / "c.json")
        tuned.run(n_steps=3)
        assert tuned.q.tobytes() == baseline.q.tobytes()
        assert tuned.time == baseline.time

    def test_corrupt_cache_retunes_without_error(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        sim = bubble_sim(tuning="auto", tuning_cache=cache_path)
        assert sim.tuning_plan.source == "tuned"
        assert sim.tuner.cache.corrupt_events >= 1
        # The re-tune healed the file: next construction is a cache hit.
        assert bubble_sim(tuning="auto",
                          tuning_cache=cache_path).tuner.timing_runs == 0

    def test_winner_has_measured_and_modeled_times(self, tmp_path):
        sim = bubble_sim(tuning="auto", tuning_cache=tmp_path / "c.json")
        plan = sim.tuning_plan
        assert plan.measured_ns > 0
        assert plan.modeled_ns > 0
        # The winner is never slower than the measured heuristic default.
        assert plan.measured_ns <= plan.modeled_ns

    def test_plan_configures_the_rhs(self, tmp_path):
        sim = bubble_sim(tuning="auto", tuning_cache=tmp_path / "c.json")
        plan = sim.tuning_plan
        assert sim.rhs.weno_variant == plan.weno_variant
        assert sim.rhs.riemann_variant == plan.riemann_variant
        assert sim.sweep_layout == plan.sweep_layout
        assert sim.threads == plan.threads

    def test_precision_is_part_of_the_tuners_key(self, tmp_path):
        # Drift fixed: a float32 tune measured float64 arrays and was
        # cached under (and later served to) the float64 signature.
        cache_path = tmp_path / "cache.json"
        single = bubble_sim(precision="float32", tuning="auto",
                            tuning_cache=cache_path)
        assert single.tuner.timing_runs > 0
        double = bubble_sim(tuning="auto", tuning_cache=cache_path)
        assert double.tuning_plan.source == "tuned"
        assert double.tuner.timing_runs > 0
        assert len(TuningCache(cache_path)._load_entries()) == 2
        again = bubble_sim(precision="float32", tuning="auto",
                           tuning_cache=cache_path)
        assert again.tuner.timing_runs == 0

    def test_ensemble_and_single_case_adopt_the_same_plan_fields(self):
        from repro.ensemble import EnsembleSimulation

        plan = {"weno_variant": "stacked", "riemann_variant": "fused",
                "sweep_layout": "transposed", "fusion": "auto", "tiles": 2,
                "threads": 1, "backend": "checked"}
        sim = bubble_sim(tuning=plan, backend="numpy")
        with EnsembleSimulation([sim.case, sim.case], sim.bcs,
                                tuning=plan, backend="numpy") as ens:
            for driver in (sim, ens):
                assert driver.tuning_plan.source == "manual"
                assert (driver.sweep_layout, driver.fusion, driver.threads,
                        driver.backend.name) == \
                    ("transposed", "auto", 1, "checked")
                assert (driver.rhs.weno_variant, driver.rhs.riemann_variant,
                        driver.rhs.tiles, driver.rhs.backend.name) == \
                    ("stacked", "fused", 2, "checked")

    def test_manual_plan_dict(self):
        sim = bubble_sim(tuning={"weno_variant": "stacked",
                                 "riemann_variant": "fused"})
        assert sim.tuning_plan.source == "manual"
        assert sim.rhs.weno_variant == "stacked"
        assert sim.tuner is None

    def test_tuning_off_and_invalid(self):
        assert bubble_sim(tuning="off").tuning_plan is None
        with pytest.raises(ConfigurationError):
            bubble_sim(tuning="always")

    def test_direct_autotuner_without_cache(self):
        sim = bubble_sim()
        tuner = Autotuner(repeats=1, warmup=0)
        plan = tuner.plan_for(sim.layout, MIX, sim.rhs.grid, sim.rhs.bcs,
                              sim.rhs.config, sim.q)
        assert plan.source == "tuned"
        assert tuner.timing_runs > 0


# ----------------------------------------------------------------------
class TestPlumbing:
    def test_case_file_tuning_options(self):
        opts = solver_options_from_dict({"solver": {"tuning": "auto"}})
        assert opts["tuning"] == "auto"
        opts = solver_options_from_dict(
            {"solver": {"tuning": {"weno_variant": "stacked"},
                        "tuning_cache": "plans.json"}})
        assert opts["tuning"] == TuningPlan(weno_variant="stacked",
                                            source="manual")
        assert opts["tuning_cache"] == "plans.json"

    @pytest.mark.parametrize("solver", [
        {"tuning": "always"},
        {"tuning": 7},
        {"tuning": {"weno_variant": "unrolled"}},
        {"tuning_cache": ""},
        {"tuning_cache": 3},
    ])
    def test_case_file_rejects_bad_tuning(self, solver):
        with pytest.raises(ConfigurationError):
            solver_options_from_dict({"solver": solver})

    def test_cli_tune_then_run_hits_cache(self, tmp_path, capsys):
        from repro.__main__ import main

        case = {
            "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [10, 10]},
            "fluids": [{"gamma": 1.4}, {"gamma": 4.4, "pi_inf": 6000.0}],
            "patches": [
                {"geometry": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
                 "alpha_rho": [0.5, 0.5], "velocity": [0.3, -0.1],
                 "pressure": 1.0, "alpha": [0.5]},
            ],
        }
        case_path = tmp_path / "case.json"
        case_path.write_text(json.dumps(case))
        cache_path = tmp_path / "cache.json"

        assert main(["tune", str(case_path),
                     "--tuning-cache", str(cache_path)]) == 0
        out = capsys.readouterr().out
        assert "timing runs" in out
        assert "tuning (tuned)" in out

        assert main(["run", str(case_path), "--steps", "2", "--tune",
                     "--tuning-cache", str(cache_path)]) == 0
        out = capsys.readouterr().out
        assert "tuning (cache)" in out

    def test_profiler_report_surfaces_tiling_and_tuning(self):
        profile = Profile(device_name="host")
        profile.tiling = {
            "directions": [
                {"d": 0, "kind": "transposed", "slab_axis": 1, "tiles": 2,
                 "fused": False},
                {"d": 1, "kind": "strided", "slab_axis": 0, "tiles": 4,
                 "fused": True}],
            "source": "override", "gang": "1: explicit"}
        profile.tuning = TuningPlan(weno_variant="stacked", source="tuned",
                                    measured_ns=1e6, modeled_ns=2e6)
        report = profile.report()
        assert ("tiling (override): d0: 2 transposed tiles, "
                "d1: 4 strided fused tiles; gang 1: explicit") in report
        assert "tuning (tuned): weno=stacked" in report


class TestCacheConcurrency:
    """Regression for the read-modify-write race: two processes storing
    disjoint keys into one cache file must lose none of them.  The
    merge now happens under an exclusive flock on a sibling lock file,
    so a concurrent writer's entries survive the other's rewrite."""

    N_KEYS = 20

    @staticmethod
    def _hammer(path, prefix, n):
        import os

        from repro.tuning import TuningCache, TuningPlan

        cache = TuningCache(path)
        for i in range(n):
            cache.store(f"{prefix}{i}", TuningPlan(source="tuned",
                                                   measured_ns=float(i)))
        os._exit(0)

    def test_two_process_store_stress(self, tmp_path):
        import multiprocessing

        path = tmp_path / "cache.json"
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=self._hammer,
                             args=(path, prefix, self.N_KEYS))
                 for prefix in ("a", "b")]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        survivor = TuningCache(path)
        missing = [f"{prefix}{i}" for prefix in ("a", "b")
                   for i in range(self.N_KEYS)
                   if survivor.lookup(f"{prefix}{i}") is None]
        assert missing == [], f"lost {len(missing)} entries: {missing[:6]}"

    def test_lock_file_does_not_shadow_the_cache(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        cache.store("k", heuristic_plan())
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "cache.json" in names
        # The lock is a sibling; the cache itself is never flocked
        # (os.replace would swap the locked inode out from under us).
        assert names in (["cache.json"], ["cache.json", "cache.json.lock"])
