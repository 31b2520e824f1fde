"""The NumPy distance transform behind smeared patches, against SciPy.

``repro.solver.case.distance_to_background`` replaced two
``scipy.ndimage.distance_transform_edt`` calls; SciPy is a *test*
dependency only and stays here as the oracle.  Equality is byte for
byte: the initial fields of every smeared case must not move by an ulp.
Only the two oracle classes skip without SciPy; the import-structure
guards below them (cold start, reachability, lazy exports) need none.
"""

import ast
import importlib
import inspect
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.solver.case as case_module
from repro.eos import Mixture, StiffenedGas
from repro.grid import CylindricalGrid, StructuredGrid
from repro.io.case_files import case_to_dict, load_case, load_ensemble_spec
from repro.solver import Case, Patch, box, sphere
from repro.solver.case import distance_to_background

try:
    from scipy import ndimage
except ImportError:
    ndimage = None
#: Only the oracle classes need SciPy; every other guard here runs without it.
needs_scipy = pytest.mark.skipif(ndimage is None,
                                 reason="scipy.ndimage (the oracle) is not installed")

ROOT = Path(__file__).resolve().parents[1]
E2E = str(ROOT / "benchmarks" / "e2e")

#: The smeared cases of the four benchmark workloads: builder, edge.
BENCH_CASES = [("shock_bubble_2d", 32), ("shock_bubble_2d", 64),
               ("shock_bubble_2d", 192), ("shock_bubble_2d", 256),
               ("droplet_3d", 48)]
EXAMPLE_CASES = sorted((ROOT / "examples" / "cases").glob("*.json"))


def assert_same_bytes(ours: np.ndarray, oracle: np.ndarray) -> None:
    assert ours.dtype == oracle.dtype and ours.shape == oracle.shape
    assert ours.tobytes() == oracle.tobytes()


def scipy_smear_weight(mask, coords, smear):
    """The ``_smear_weight`` this repo shipped up to PR 18, verbatim."""
    inside = ndimage.distance_transform_edt(mask)
    outside = ndimage.distance_transform_edt(~mask)
    spacing = np.mean([float(np.mean(np.diff(np.unique(c)))) if np.unique(c).size > 1 else 1.0
                       for c in coords])
    signed = (inside - outside) * spacing
    return 0.5 * (1.0 + np.tanh(signed / max(smear, 1e-300)))


@pytest.fixture(scope="module")
def bench_case():
    """``bench_case(builder, n)``: the benchmark generator's own case."""
    sys.path.insert(0, E2E)
    try:
        import workloads
    finally:
        sys.path.remove(E2E)
    yield lambda builder, n: getattr(workloads, builder)(n, random.Random(7))[0]
    sys.modules.pop("workloads", None)


def example_cases(path: Path) -> list[Case]:
    if "jobs" in json.loads(path.read_text()):
        return [job.case for job in load_ensemble_spec(path)[0]]
    return [load_case(path)]


@needs_scipy
class TestAgainstSciPy:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=3,
                                             min_side=1, max_side=24)))
    def test_random_masks_bit_equal(self, mask):
        assume(not mask.all())  # no background: defined below, not SciPy's
        assert_same_bytes(distance_to_background(mask),
                          ndimage.distance_transform_edt(mask))

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(1, 24), st.integers(1, 24), st.integers(1, 24)),
           st.sampled_from([0.02, 0.5, 0.98]), st.integers(0, 2**32 - 1))
    def test_sparse_and_dense_masks_bit_equal(self, shape, density, seed):
        mask = np.random.default_rng(seed).random(shape) < density
        assume(not mask.all())
        assert_same_bytes(distance_to_background(mask),
                          ndimage.distance_transform_edt(mask))

    @pytest.mark.parametrize("builder, n", BENCH_CASES)
    def test_benchmark_masks_and_complements(self, builder, n, bench_case):
        case = bench_case(builder, n)
        mask = case.patches[-1].region(*case.grid.meshgrid())
        for m in (mask, ~mask):
            assert_same_bytes(distance_to_background(m),
                              ndimage.distance_transform_edt(m))


@needs_scipy
class TestInitialStateUnchanged:
    """``Case.initial_conservative()`` equals the old SciPy path's."""

    def check(self, case: Case, monkeypatch) -> None:
        ours = case.initial_conservative()
        monkeypatch.setattr(case_module, "_smear_weight", scipy_smear_weight)
        assert_same_bytes(ours, case.initial_conservative())

    @pytest.mark.parametrize("builder, n", BENCH_CASES)
    def test_benchmark_cases(self, builder, n, bench_case, monkeypatch):
        self.check(bench_case(builder, n), monkeypatch)

    @pytest.mark.parametrize("path", EXAMPLE_CASES, ids=lambda p: p.name)
    def test_example_cases(self, path, monkeypatch):
        for case in example_cases(path):
            self.check(case, monkeypatch)


def two_fluid_case(shape, region, smear) -> Case:
    grid = StructuredGrid.uniform(((0.0, 1.0),) * len(shape), shape)
    fluids = (StiffenedGas(1.4, 0.0, "air"), StiffenedGas(1.667, 0.0, "helium"))
    nd = len(shape)
    case = Case(grid, Mixture(fluids))
    case.add(Patch(box([0.0] * nd, [1.0] * nd), (1.0, 0.0002), (0.0,) * nd,
                   1.0, (0.999,)))
    case.add(Patch(region, (0.001, 0.1819), (0.0,) * nd, 1.0, (0.001,),
                   smear=smear))
    return case


class TestOneSidedMasks:
    """A smeared patch whose mask has no boundary in the domain blends
    with weight exactly 1 (whole grid) or 0 (empty): ``smear=0``'s field,
    not SciPy's distance to a phantom cell at index -1."""

    def test_distance_saturates(self):
        full = np.ones((3, 4), dtype=bool)
        assert np.isposinf(distance_to_background(full)).all()
        assert not distance_to_background(~full).any()

    @pytest.mark.parametrize("shape", [(12,), (3, 4), (4, 3, 5)])
    def test_weights_are_exact(self, shape):
        coords = StructuredGrid.uniform(((0.0, 1.0),) * len(shape),
                                        shape).meshgrid()
        full = np.ones(shape, dtype=bool)
        whole = case_module._smear_weight(full, coords, 0.05)
        empty = case_module._smear_weight(~full, coords, 0.05)
        assert whole.shape == shape and (whole == 1.0).all()
        assert empty.shape == shape and (empty == 0.0).all()

    def test_patch_missing_the_grid_changes_nothing(self):
        miss = sphere([5.0, 5.0], 0.1)
        assert_same_bytes(
            two_fluid_case((6, 8), miss, 0.05).initial_conservative(),
            two_fluid_case((6, 8), miss, 0.0).initial_conservative())

    def test_patch_covering_the_grid_is_uniform(self):
        cover = sphere([0.5, 0.5], 9.0)
        smeared = two_fluid_case((6, 8), cover, 0.05).initial_primitive()
        sharp = two_fluid_case((6, 8), cover, 0.0).initial_primitive()
        # weight == 1 exactly; prim + 1*(values - prim) rounds once more.
        np.testing.assert_allclose(smeared, sharp, rtol=0.0, atol=4e-16)
        assert (smeared == smeared[(slice(None),) + (slice(0, 1),) * 2]).all()


class TestMeanSpacing:
    """The smear spacing, from each axis's 1-D coordinate line, equals
    the ``np.unique``-over-the-whole-field formula it replaced bit for
    bit (and never imports ``numpy.ma``)."""

    @staticmethod
    def unique_spacing(coords):
        return np.mean([float(np.mean(np.diff(np.unique(c))))
                        if np.unique(c).size > 1 else 1.0 for c in coords])

    @pytest.mark.parametrize("grid", [
        StructuredGrid.uniform(((0.0, 1.0),), (17,)),
        StructuredGrid.uniform(((0.0, 1.0), (-2.0, 3.0)), (12, 7)),
        StructuredGrid.uniform(((0.0, 4e-3),) * 3, (9, 6, 5)),
        StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (1, 8)),
        StructuredGrid.stretched(((0.0, 1.0), (0.0, 2.0)), (24, 31),
                                 focus=(0.3, 1.7), strength=3.0),
        StructuredGrid.stretched(((-1.0, 1.0),) * 3, (10, 12, 14),
                                 focus=(0.0, 0.5, -0.5)),
        # Axisymmetric (x, r) and the (z, r) plane of a cylindrical grid.
        StructuredGrid.uniform(((0.0, 2.0), (0.05, 1.0)), (20, 13)),
        CylindricalGrid(StructuredGrid.stretched(
            ((0.0, 1.0), (0.01, 0.5)), (16, 11), focus=(0.5, 0.01)), 8).zr,
    ], ids=["1d", "2d", "3d", "one-cell-axis", "tanh-2d", "tanh-3d",
            "axisymmetric", "cylindrical-zr"])
    def test_bitwise_equal_to_unique(self, grid):
        coords = grid.meshgrid()
        ours = np.mean([case_module._mean_spacing(c, d)
                        for d, c in enumerate(coords)])
        assert ours.tobytes() == self.unique_spacing(coords).tobytes()


#: One case file per entry path, written by :func:`cold_inputs`.
COLD_RUN = r"""
import json, sys
mode, path = sys.argv[1:]
if mode == "ensemble":
    from repro.bc import BoundarySet
    from repro.ensemble import EnsembleService
    from repro.io.case_files import load_ensemble_spec
    from repro.solver import RHSConfig
    jobs, width, options, service = load_ensemble_spec(path)
    svc = EnsembleService(jobs, BoundarySet.all_extrapolation(2),
                          batch_width=width, config=RHSConfig(),
                          **options, **service)
    assert all(job.status == "done" for job in svc.run().jobs)
elif mode in ("cli", "ensemble-cli"):
    import runpy
    sys.argv = (["repro", "run", path, "--steps", "2", "--snapshot", "q.bin"]
                if mode == "cli" else ["repro", "ensemble", path])
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as stop:
        assert not stop.code, stop.code
else:
    from repro.bc import BoundarySet
    from repro.io.binary import write_snapshot
    from repro.io.case_files import load_case, load_solver_options
    from repro.solver import RHSConfig, Simulation
    case = load_case(path)
    with Simulation(case, BoundarySet.all_extrapolation(case.grid.ndim),
                    config=RHSConfig(), **load_solver_options(path)) as sim:
        sim.run(n_steps=2)
        sim.validate_state()
        write_snapshot("q.bin", sim.q, step=sim.step_count, time=sim.time)
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""

#: ``repro`` modules each entry path may load (measured: plain 58,
#: fused 61, ranks=2 64, ensemble 66; 85, 85, 88 and 92 before the
#: package exports went lazy; the ledger-less ``python -m repro
#: ensemble``, which runs on the service, 63).
COLD_CAPS = {"plain": 60, "fused": 62, "ranks2": 64, "ensemble": 66,
             "ensemble-cli": 63}

#: Modules deleted with the execution variants no workload ran; a run
#: that loads one again has regrown a variant.
DELETED_VARIANTS = ("repro.weno.stacked", "repro.riemann.fused",
                    "repro.backend.torch_adapter")

#: Modules deleted because no command, example or paper artifact
#: reached them (``TestReachability``): the ``!$acc`` text parsers, the
#: Fypp preprocessor, the kernel bench, the modeled run, the report
#: writers, rank placement and the per-rank file writers.
DELETED_MODELS = ("repro.acc.parser", "repro.acc.data_parser",
                  "repro.acc.fypp", "repro.profiling.kernelbench",
                  "repro.profiling.modeled", "repro.profiling.reports",
                  "repro.cluster.placement", "repro.io.parallel")

#: Never loaded by a run: the analytic models, the roofline chart, the
#: tuner, its cache and registry, the post-processor, series I/O,
#: unselected Riemann solvers, inviscid-run extras, the deleted
#: variants and models, the SciPy oracle and what ``np.unique`` / the
#: registry hash used to pull in.
NEVER_LOADED = (
    "repro.hardware.costmodel", "repro.hardware.roofline",
    "repro.hardware.transfer", "repro.hardware.workloads",
    "repro.hardware.cache", "repro.profiling.profiler",
    "repro.profiling.roofline_plot", "repro.io.silo", "repro.io.series",
    "repro.tuning.autotune", "repro.tuning.cache", "repro.tuning.registry",
    "repro.riemann.hll", "repro.riemann.rusanov",
    "repro.solver.diagnostics", "repro.solver.viscous",
    *DELETED_VARIANTS, *DELETED_MODELS, "scipy", "numpy.ma", "hashlib",
)


def _case_spec(shape, **solver) -> dict:
    nd = len(shape)
    case = two_fluid_case(shape, sphere([0.4] * nd, 0.2), 0.05)
    spec = case_to_dict(case, geometries=[
        {"kind": "box", "lo": [0.0] * nd, "hi": [1.0] * nd},
        {"kind": "sphere", "center": [0.4] * nd, "radius": 0.2}])
    if solver:
        spec["solver"] = solver
    return spec


@pytest.fixture(scope="module")
def cold_inputs(tmp_path_factory):
    """Input file of each entry path: a plain 2D run, the production 3D
    one (fused, transposed, guarded, checkpointed), two ranks, a
    supervised durable campaign, and ``python -m repro ensemble`` on a
    campaign without a ledger."""
    root = tmp_path_factory.mktemp("cold")
    specs = {
        "plain": _case_spec((24, 24)),
        "fused": _case_spec((12, 12, 12), layout="transposed", fusion="on",
                            retry={"max_retries": 4}, validate_every=2,
                            checkpoint_every=2, checkpoint_dir="ckpt"),
        "ranks2": _case_spec((32, 32), ranks=2, checkpoint_every=2,
                             checkpoint_dir="ckpt"),
        "ensemble": {
            "batch_width": 2,
            "jobs": [{"name": f"j{i}", "t_end": 0.004,
                      "case": _case_spec((16, 16))} for i in range(3)],
            "service": {"ledger": "campaign.ledger",
                        "checkpoint_dir": "ckpt", "results_dir": "results",
                        "checkpoint_every": 2}},
        "ensemble-cli": {
            "batch_width": 2,
            "jobs": [{"name": f"j{i}", "t_end": 0.004,
                      "case": _case_spec((16, 16))} for i in range(3)]},
    }
    paths = {}
    for name, spec in specs.items():
        paths[name] = root / name / "input.json"
        paths[name].parent.mkdir()
        paths[name].write_text(json.dumps(spec))
    return paths


def cold_modules(mode: str, path: Path) -> set[str]:
    """Every module a fresh interpreter holds after the path ran."""
    done = subprocess.run(
        [sys.executable, "-c", COLD_RUN, mode, str(path)],
        capture_output=True, text=True, timeout=180, cwd=path.parent,
        env={"PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.strip().splitlines()[-1]))


def repro_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "repro"}


class TestColdStart:
    """A run imports what it runs: a budget per entry path."""

    @pytest.mark.parametrize("path", sorted(COLD_CAPS))
    def test_entry_path_budget(self, path, cold_inputs):
        campaign = path.startswith("ensemble")
        loaded = cold_modules(path if campaign else "run", cold_inputs[path])
        never = set(NEVER_LOADED)
        if campaign:
            # The service names jobs and batches by content hash.
            never.discard("hashlib")
        if path != "ranks2":
            never.add("repro.cluster")
        if path != "fused":
            never |= {"repro.acc.fusion.codegen", "repro.acc.fusion.cache"}
        assert sorted(never & loaded) == []
        assert len(repro_modules(loaded)) <= COLD_CAPS[path]

    def test_cli_run_loads_the_library_path(self, cold_inputs):
        cli = repro_modules(cold_modules("cli", cold_inputs["plain"]))
        library = repro_modules(cold_modules("run", cold_inputs["plain"]))
        assert cli == library

    def test_plain_run_imports_neither_scipy_nor_the_cluster_stack(
            self, cold_inputs):
        loaded = cold_modules("run", cold_inputs["plain"])
        assert sorted(m for m in loaded if m.split(".")[0] == "scipy"
                      or m.startswith("repro.cluster")
                      or m in DELETED_VARIANTS) == []

    def test_no_scipy_import_under_src(self):
        pattern = re.compile(r"^\s*(from|import)\s+scipy\b", re.MULTILINE)
        offenders = [str(p) for p in (ROOT / "src").rglob("*.py")
                     if pattern.search(p.read_text())]
        assert offenders == []


#: What a user runs: the ``python -m repro`` commands (``repro.__main__``
#: below), the examples, the benchmark scripts and paper artifacts, and
#: the end-to-end harness.
ENTRY_FILES = (*sorted((ROOT / "examples").glob("*.py")),
               *sorted((ROOT / "benchmarks").glob("*.py")),
               *sorted((ROOT / "benchmarks" / "e2e").glob("*.py")))

#: Modules a run reaches by a name no import statement spells, and why.
DECLARED_ROOTS = {
    "repro.riemann.hll": "--riemann hll resolves hll_flux by name",
    "repro.riemann.rusanov": "--riemann rusanov resolves rusanov_flux by name",
}


def src_modules() -> dict[str, Path]:
    """Every module under ``src/`` by dotted name (a package by its
    ``__init__.py``)."""
    modules = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def lazy_map(package: str) -> dict[str, str]:
    """A package's ``lazy_exports`` table (name -> submodule), read from
    its ``__getattr__`` closure so computed tables resolve too."""
    getter = getattr(importlib.import_module(package), "__getattr__", None)
    return {} if getter is None else dict(
        inspect.getclosurevars(getter).nonlocals["exports"])


def imported_names(path: Path, modules) -> set[str]:
    """Dotted names the file's absolute imports may load, lazy package
    exports resolved to their submodules (no file imports relatively or
    with ``*``; such an import would leave its module unreached)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            exports = lazy_map(node.module) if node.module in modules else {}
            names.add(node.module)
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                if alias.name in exports:
                    names.add(f"{node.module}.{exports[alias.name]}")
    return names


def reachable(roots) -> set[str]:
    """Static import closure of the entry files and ``roots``; importing
    ``a.b.c`` runs ``a`` and ``a.b`` too."""
    modules = src_modules()
    todo = [*ENTRY_FILES, *(modules[name] for name in roots)]
    seen = set(roots)
    while todo:
        for name in imported_names(todo.pop(), modules):
            parts = name.split(".")
            for i in range(1, len(parts) + 1):
                parent = ".".join(parts[:i])
                if parent in modules and parent not in seen:
                    seen.add(parent)
                    todo.append(modules[parent])
    return seen


class TestReachability:
    """Every ``src/`` module is reached from something a user runs: code
    only its own tests import is deleted, not kept."""

    def test_every_src_module_is_reached(self):
        reached = reachable(("repro.__main__", *DECLARED_ROOTS))
        unreached = sorted(set(src_modules()) - reached)
        assert not unreached, f"only tests import {unreached}"

    def test_each_declared_root_is_needed(self):
        reached = reachable(("repro.__main__",))
        assert sorted(set(DECLARED_ROOTS) & reached) == []
        assert set(DECLARED_ROOTS) <= set(src_modules())


class TestLazyClusterExports:
    def test_named_imports_resolve(self):
        from repro.cluster import (BlockDecomposition, ProcessCluster,
                                   ClusterResult, validate_periodicity)
        assert BlockDecomposition.__module__ == "repro.cluster.decomposition"
        assert validate_periodicity.__module__ == "repro.cluster.halo"
        assert ProcessCluster.__module__ == "repro.cluster.procs"
        assert ClusterResult.__module__ == "repro.cluster.procs"

    @pytest.mark.parametrize("package", [
        "repro.cluster", "repro.acc", "repro.profiling", "repro.hardware",
        "repro.io", "repro.tuning", "repro.riemann", "repro.grid",
        "repro.fields", "repro.solver", "repro.acc.fusion", "repro.backend"])
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is not None
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
