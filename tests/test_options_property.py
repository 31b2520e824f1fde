"""One options object: keywords, case files and CLI flags agree.

:class:`repro.solver.options.SolverOptions` is the only place a run-time
knob is declared and validated.  The property test feeds one drawn set
of settings through the three front doors and requires equal objects;
the literal lists below are HEAD's flag and key sets before the table
existed — the "no new knob, none lost" gate.
"""

import argparse
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import build_parser
from repro.common import ConfigurationError
from repro.io.case_files import SERVICE_KEYS
from repro.solver.options import (
    KNOBS,
    REFUSALS,
    SolverOptions,
    fold,
    section_keys,
    spelling,
)
from repro.solver.resilience import RetryPolicy

RUN_FLAGS = [
    "--backend", "--bc", "--cfl", "--checkpoint-dir", "--checkpoint-every",
    "--checkpoint-keep", "--cluster-timeout", "--fusion", "--geometry",
    "--layout", "--max-restarts", "--precision", "--ranks", "--retries",
    "--riemann", "--series", "--series-interval", "--silo", "--snapshot",
    "--steps", "--t-end", "--threads", "--tune", "--tuning-cache",
    "--validate-every", "--weno"]
ENSEMBLE_FLAGS = [
    "--backend", "--batch-width", "--bc", "--cfl", "--checkpoint-dir",
    "--checkpoint-every", "--deadline", "--fusion", "--geometry", "--layout",
    "--ledger", "--max-attempts", "--no-supervise", "--results-dir",
    "--riemann", "--threads", "--tune", "--tuning-cache", "--weno"]
TUNE_FLAGS = ["--bc", "--geometry", "--layout", "--riemann", "--threads",
              "--tuning-cache", "--weno"]
RUN_KEYS = [
    "backend", "checkpoint_dir", "checkpoint_every", "checkpoint_keep",
    "cluster_timeout", "fusion", "layout", "max_restarts", "precision",
    "ranks", "retry", "threads", "tuning", "tuning_cache", "validate_every"]
ENSEMBLE_KEYS = ["backend", "fusion", "layout", "threads", "tuning",
                 "tuning_cache"]
SERVICE = [
    "checkpoint_dir", "checkpoint_every", "checkpoint_keep", "deadline_seconds",
    "degrade_after", "ledger", "max_attempts", "min_batch_width", "results_dir",
    "retry_base_seconds", "supervise", "wall_limit_seconds"]
FIELDS = (
    "cfl rk_order fixed_dt check_every use_workspace threads ranks "
    "cluster_timeout max_restarts tile_device sweep_layout fusion retry "
    "validate_every checkpoint_every checkpoint_dir checkpoint_keep tuning "
    "tuning_cache backend precision").split()


def _flags(command: str) -> list[str]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(s for a in sub.choices[command]._actions
                  for s in a.option_strings
                  if s.startswith("--") and s != "--help")


def test_no_knob_added_none_lost():
    assert [f.name for f in KNOBS] == FIELDS
    assert _flags("run") == RUN_FLAGS
    assert _flags("ensemble") == ENSEMBLE_FLAGS
    assert _flags("tune") == TUNE_FLAGS
    assert sorted(section_keys("run")) == RUN_KEYS == sorted(SETTINGS)
    assert sorted(section_keys("ensemble")) == ENSEMBLE_KEYS
    assert sorted(SERVICE_KEYS) == SERVICE


def test_defaults_are_heads():
    o = SolverOptions()
    assert (o.cfl, o.rk_order, o.fixed_dt, o.check_every, o.use_workspace,
            o.threads, o.ranks, o.cluster_timeout, o.max_restarts,
            o.tile_device, o.sweep_layout, o.fusion, o.retry,
            o.validate_every, o.checkpoint_every, o.checkpoint_dir,
            o.checkpoint_keep, o.tuning, o.tuning_cache, o.backend,
            o.precision) == (
        0.5, 3, None, 10, True, None, 1, 30.0, 1, None, "strided", "off",
        None, 0, 0, None, 3, "off", None, None, "float64")


#: One drawable setting per ``run`` knob: JSON value -> CLI arguments.
SETTINGS = {
    "threads": (st.integers(1, 4), lambda v: ["--threads", str(v)]),
    "ranks": (st.integers(1, 3), lambda v: ["--ranks", str(v)]),
    "cluster_timeout": (st.integers(1, 90),
                        lambda v: ["--cluster-timeout", str(v)]),
    "max_restarts": (st.integers(0, 3), lambda v: ["--max-restarts", str(v)]),
    "layout": (st.sampled_from(["strided", "transposed", "auto"]),
               lambda v: ["--layout", v]),
    "fusion": (st.sampled_from(["off", "on", "auto"]),
               lambda v: ["--fusion", v]),
    "backend": (st.sampled_from(["numpy", "checked"]),
                lambda v: ["--backend", v]),
    "precision": (st.sampled_from(["float64", "float32"]),
                  lambda v: ["--precision", v]),
    "checkpoint_every": (st.integers(0, 9),
                         lambda v: ["--checkpoint-every", str(v)]),
    "checkpoint_keep": (st.integers(1, 5),
                        lambda v: ["--checkpoint-keep", str(v)]),
    "checkpoint_dir": (st.sampled_from(["ckpt", "out/ckpt"]),
                       lambda v: ["--checkpoint-dir", v]),
    "validate_every": (st.integers(0, 9),
                       lambda v: ["--validate-every", str(v)]),
    # --retries N is N retries of the default policy.
    "retry": (st.integers(0, 6).map(lambda n: {
        "max_retries": n, "same_dt_retries": min(1, n)}),
        lambda v: ["--retries", str(v["max_retries"])]),
    "tuning": (st.just("auto"), lambda v: ["--tune"]),
    "tuning_cache": (st.sampled_from(["cache.json"]),
                     lambda v: ["--tuning-cache", v]),
}


@st.composite
def sections(draw):
    keys = draw(st.sets(st.sampled_from(sorted(SETTINGS))))
    return {key: draw(SETTINGS[key][0]) for key in sorted(keys)}


@given(section=sections(), cfl=st.sampled_from([0.25, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_keywords_case_file_and_cli_agree(section, cfl):
    by_key = section_keys("run")
    keywords = SolverOptions(
        cfl=cfl, **{by_key[key].name: value for key, value in section.items()})
    from_file = fold(SolverOptions.from_mapping(section), {"cfl": cfl})
    argv = ["run", "case.json", "--steps", "1", "--cfl", str(cfl)]
    for key, value in section.items():
        argv += SETTINGS[key][1](value)
    from_cli = SolverOptions().overridden_by(build_parser().parse_args(argv))
    assert keywords == from_file == from_cli
    # ... and a flag given beats the file's value, knob by knob.
    in_file = SolverOptions.from_mapping({"threads": 4, "fusion": "auto"})
    merged = in_file.overridden_by(build_parser().parse_args(argv))
    for f in KNOBS:
        given = f.name == "cfl" or spelling(f)[0] in section
        assert getattr(merged, f.name) == getattr(
            from_cli if given else in_file, f.name)


@pytest.mark.parametrize("key,bad", [
    ("threads", 0), ("threads", True), ("threads", 2.0), ("ranks", 0),
    ("ranks", "2"), ("cluster_timeout", 0), ("cluster_timeout", "30"),
    ("max_restarts", -1), ("layout", "diagonal"), ("fusion", "maybe"),
    ("backend", "tpu"), ("precision", "float16"), ("checkpoint_every", -1),
    ("checkpoint_keep", 0), ("checkpoint_dir", ""), ("validate_every", 1.5),
    ("retry", 3), ("tuning", "sometimes"), ("tuning_cache", 7),
])
def test_out_of_range_section_values_name_the_key(key, bad):
    with pytest.raises(ConfigurationError, match=key):
        SolverOptions.from_mapping({key: bad})


def test_unknown_keys_are_named():
    with pytest.raises(ConfigurationError, match="bogus"):
        SolverOptions.from_mapping({"bogus": 1})
    # A run-only knob is unknown to the batched engine's section.
    with pytest.raises(ConfigurationError, match="ranks"):
        SolverOptions.from_mapping({"ranks": 2}, command="ensemble")
    with pytest.raises(ConfigurationError, match="mapping"):
        SolverOptions.from_mapping(["threads"])
    with pytest.raises(TypeError, match="bogus"):
        fold(None, {"bogus": 1})


@pytest.mark.parametrize("name,bad", [
    ("cfl", 0.0), ("cfl", 1.5), ("cfl", "0.5"), ("rk_order", 4),
    ("check_every", -1), ("use_workspace", 1.5), ("threads", 0),
    ("ranks", 0), ("cluster_timeout", -1.0), ("max_restarts", -1),
    ("sweep_layout", "diagonal"), ("fusion", "maybe"), ("retry", 3),
    ("validate_every", -1), ("checkpoint_every", -1), ("checkpoint_keep", 0),
    ("tuning", "sometimes"), ("backend", "tpu"), ("precision", "float16"),
])
def test_out_of_range_keywords_name_the_field(name, bad):
    with pytest.raises(ConfigurationError, match=name):
        SolverOptions(**{name: bad})


def test_drivers_fold_loose_knobs_into_the_options():
    from tests.test_procs import bubble_case
    from repro.bc import BoundarySet
    from repro.solver import Simulation

    base = SolverOptions(cfl=0.4, fusion="on", check_every=0)
    with Simulation(bubble_case((12, 12)), BoundarySet.all_periodic(2),
                    options=base, threads=1, retry={"max_retries": 2}) as sim:
        assert (sim.cfl, sim.fusion, sim.check_every, sim.threads) == \
            (0.4, "on", 0, 1)
        assert sim.retry == RetryPolicy(max_retries=2)
        assert sim.options.retry is sim.retry
        sim.fixed_dt = 1e-4  # knob writes go through the frozen options
        assert sim.options.fixed_dt == 1e-4
        assert sim.step().dt == 1e-4


def test_design_md_lists_every_knob():
    """DESIGN.md "Options: one table" is rendered from the field table."""
    text = (Path(__file__).resolve().parents[1] / "DESIGN.md").read_text()
    section = text[text.index("## Options: one table"):]
    section = section[:section.index("\n## ", 1)]
    for f in KNOBS:
        assert design_row(f) in section, \
            f"DESIGN.md lacks the row of {f.name}:\n{design_row(f)}"
    for _refused, reason in REFUSALS:
        assert f"- {reason}\n" in section


def design_row(f) -> str:
    """One knob's row of the DESIGN.md table (the rendering the doc uses)."""
    key, flag = spelling(f)
    on = f.metadata["on"]
    return (f"| `{f.name}` | {f'`{key}`' if key and on else '—'} "
            f"| {f'`{flag}`' if on else '—'} | {', '.join(on) or '—'} "
            f"| `{f.default!r}` | {f.metadata['help']} |")
