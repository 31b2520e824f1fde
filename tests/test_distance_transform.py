"""The NumPy distance transform behind smeared patches, against SciPy.

``repro.solver.case.distance_to_background`` replaced two
``scipy.ndimage.distance_transform_edt`` calls; SciPy is a *test*
dependency only and stays here as the oracle.  Equality is byte for
byte: the initial fields of every smeared case must not move by an ulp.
"""

import importlib
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
from repro.grid import StructuredGrid
from repro.io.case_files import load_case, load_ensemble_spec
from repro.solver import Case, Patch, box, sphere
from repro.solver.case import distance_to_background

ndimage = pytest.importorskip("scipy.ndimage")

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


COLD_START = """
import re, sys
from repro.bc import BoundarySet
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, Simulation, box, sphere

grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (16, 16))
case = Case(grid, Mixture((StiffenedGas(1.4, 0.0), StiffenedGas(1.667, 0.0))))
case.add(Patch(box([0, 0], [1, 1]), (1.0, 0.0002), (0.0, 0.0), 1.0, (0.999,)))
case.add(Patch(sphere([0.4, 0.5], 0.2), (0.001, 0.1819), (0.0, 0.0), 1.0,
               (0.001,), smear=0.05))
with Simulation(case, BoundarySet.all_extrapolation(2)) as sim:
    sim.run(n_steps=1)
    assert sim.step_count == 1
print(sorted(m for m in sys.modules
             if re.match(r"scipy|repro\\.cluster\\.procs|repro\\.weno\\.stacked"
                         r"|repro\\.riemann\\.fused|repro\\.backend\\.torch_adapter",
                         m)))
print(sum(m.split(".")[0] == "repro" for m in sys.modules))
"""

#: ``repro`` modules a plain run may load (85 measured).
MAX_REPRO_MODULES = 86


class TestColdStart:
    def test_plain_run_imports_neither_scipy_nor_the_cluster_stack(self):
        done = subprocess.run(
            [sys.executable, "-c", COLD_START], capture_output=True,
            text=True, timeout=120, env={"PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 0, done.stderr
        absent, loaded = done.stdout.split("\n")[:2]
        assert absent == "[]"
        assert int(loaded) <= MAX_REPRO_MODULES

    def test_no_scipy_import_under_src(self):
        pattern = re.compile(r"^\s*(from|import)\s+scipy\b", re.MULTILINE)
        offenders = [str(p) for p in (ROOT / "src").rglob("*.py")
                     if pattern.search(p.read_text())]
        assert offenders == []


class TestLazyClusterExports:
    def test_named_imports_resolve(self):
        from repro.cluster import (BlockDecomposition, HaloExchanger,
                                   ProcessCluster, RankSolver)
        assert BlockDecomposition.__module__ == "repro.cluster.decomposition"
        assert HaloExchanger.__module__ == "repro.cluster.halo"
        assert ProcessCluster.__module__ == "repro.cluster.procs"
        assert RankSolver.__module__ == "repro.cluster.ranksolver"

    @pytest.mark.parametrize("package", ["repro.cluster", "repro.acc",
                                         "repro.profiling"])
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is not None
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
