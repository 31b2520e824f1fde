"""Tests for the directive-graph kernel fusion compiler.

The load-bearing invariant: a fused RHS — the pad → WENO → Riemann →
divergence chain of every sweep compiled into one per-tile kernel —
is **bit-for-bit identical** to the reference staged RHS, for every
WENO order, Riemann solver, sweep layout, thread count, and uneven
tile split (property-tested below).  Everything else is machinery in
service of that: the stage-graph legality pass, the spec-keyed kernel
cache (exactly-once compile, thread-safe), the backend selector, and
the knob plumbing through RHS / Simulation / case files.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acc.fusion import (
    FUSED_KINDS,
    FUSION_BACKENDS,
    FUSION_MODES,
    FusedKernelCache,
    FusedKernelSpec,
    FusionError,
    StageNode,
    available_backends,
    backend_available,
    generate_source,
    kernel_signature,
    plan_fusion,
    select_backend,
    sweep_stage_graph,
    validate_fusion,
)
from repro.acc.fusion.backends import BACKEND_ENV_VAR
from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, sphere

AIR = StiffenedGas(1.4, 0.0, "air")
WATER = StiffenedGas(6.12, 3.43e8, "water")
MIX = Mixture((AIR, AIR))


def bubble_case(shape, mixture=MIX):
    ndim = len(shape)
    grid = StructuredGrid.uniform(tuple((0.0, 1.0) for _ in shape), shape)
    case = Case(grid, mixture)
    case.add(Patch(box([0.0] * ndim, [1.0] * ndim), (0.5, 0.5),
                   (0.3,) + (-0.1,) * (ndim - 1), 1.0, (0.5,)))
    case.add(Patch(sphere([0.4] * ndim, 0.25), (1.0, 1.0),
                   (0.0,) * ndim, 2.0, (0.5,)))
    return case


def rhs_pair(shape, *, fusion_kwargs=None, **kwargs):
    """(fused, reference) RHS instances over the same case."""
    case = bubble_case(shape)
    bcs = BoundarySet.all_extrapolation(len(shape))
    common = dict(use_workspace=True, **kwargs)
    fused = RHS(case.layout, MIX, case.grid, bcs,
                RHSConfig(weno_order=common.pop("weno_order", 5),
                          riemann_solver=common.pop("riemann_solver", "hllc")),
                fusion="on", **(fusion_kwargs or {}), **common)
    kwargs2 = dict(kwargs)
    ref = RHS(case.layout, MIX, case.grid, bcs,
              RHSConfig(weno_order=kwargs2.pop("weno_order", 5),
                        riemann_solver=kwargs2.pop("riemann_solver", "hllc")),
              fusion="off", use_workspace=True, **kwargs2)
    return case, fused, ref


def rhs_eval(rhs, q):
    out = rhs(q)
    result = out.tobytes()
    rhs.close()
    return result


# ----------------------------------------------------------------------
# The bitwise contract
# ----------------------------------------------------------------------
class TestBitwiseIdentity:
    @pytest.mark.parametrize("shape", [(37,), (17, 13), (9, 8, 7)])
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_fused_matches_reference(self, shape, order):
        case, fused, ref = rhs_pair(shape, weno_order=order)
        q = case.initial_conservative()
        assert rhs_eval(fused, q) == rhs_eval(ref, q)

    @pytest.mark.parametrize("solver", ["hllc", "hll", "rusanov"])
    def test_every_riemann_solver(self, solver):
        case, fused, ref = rhs_pair((14, 11), riemann_solver=solver)
        q = case.initial_conservative()
        assert rhs_eval(fused, q) == rhs_eval(ref, q)

    @pytest.mark.parametrize("layout", ["strided", "transposed", "auto"])
    def test_every_sweep_layout(self, layout):
        case, fused, ref = rhs_pair((16, 12), sweep_layout=layout)
        q = case.initial_conservative()
        assert rhs_eval(fused, q) == rhs_eval(ref, q)

    @pytest.mark.parametrize("wv,rv", [("stacked", "reference"),
                                       ("chained", "fused"),
                                       ("stacked", "fused")])
    def test_kernel_variants(self, wv, rv):
        case, fused, ref = rhs_pair((15, 10), weno_variant=wv,
                                    riemann_variant=rv)
        q = case.initial_conservative()
        assert rhs_eval(fused, q) == rhs_eval(ref, q)

    @given(n=st.integers(8, 24), m=st.integers(8, 24),
           order=st.sampled_from([1, 3, 5]),
           tiles=st.one_of(st.none(), st.integers(1, 7)),
           threads=st.sampled_from([1, 3]))
    @settings(max_examples=20, deadline=None)
    def test_property_uneven_tiles_and_threads(self, n, m, order, tiles,
                                               threads):
        # Uneven splits: tiles need not divide the slab extent, and a
        # gang must not reorder any accumulation.
        case, fused, ref = rhs_pair(
            (n, m), weno_order=order,
            fusion_kwargs={"tiles": tiles}, threads=threads)
        q = case.initial_conservative()
        assert rhs_eval(fused, q) == rhs_eval(ref, q)

    def test_auto_fuses_only_with_workspace(self):
        case = bubble_case((12, 10))
        bcs = BoundarySet.all_extrapolation(2)
        on = RHS(case.layout, MIX, case.grid, bcs, RHSConfig(),
                 use_workspace=True, fusion="auto")
        off = RHS(case.layout, MIX, case.grid, bcs, RHSConfig(),
                  use_workspace=False, fusion="auto")
        assert all(p["fused"] for p in on.tile_plan()["directions"])
        assert not any(p["fused"] for p in off.tile_plan()["directions"])
        q = case.initial_conservative()
        assert rhs_eval(on, q) == rhs_eval(off, q)

    def test_fused_march_matches_reference(self):
        q_bytes = []
        for fusion in ("on", "off"):
            sim = Simulation(bubble_case((18, 14)),
                             BoundarySet.all_extrapolation(2),
                             check_every=0, fusion=fusion)
            sim.run(n_steps=3)
            q_bytes.append(sim.q.tobytes())
        assert q_bytes[0] == q_bytes[1]

    def test_counters_and_plan_surface_fusion(self):
        case, fused, _ = rhs_pair((18, 14))
        q = case.initial_conservative()
        fused(q)
        sc = fused.sweep_counters
        assert sc.fused_launches > 0
        assert sc.fused_passes_saved > 0
        plan = fused.tile_plan()
        assert plan["fusion"] == "on"
        assert plan["fusion_backend"] == fused.fusion_backend
        assert [(p["d"], p["fused"]) for p in plan["directions"]] == [
            (0, True), (1, True)]


# ----------------------------------------------------------------------
# Stage graph + legality
# ----------------------------------------------------------------------
class TestStageGraph:
    def test_sweep_graph_shape(self):
        stages = sweep_stage_graph(ndim=2, nvars=6, spatial=(16, 12), d=0,
                                   order=5)
        assert [s.name for s in stages] == [
            "pack", "weno", "limit", "riemann", "divergence"]
        region = plan_fusion(stages, d=0, ndim=2)
        assert region.slab_axis == 1
        assert region.passes_saved_per_tile("chained", 5) > 0

    def test_pack_false_drops_the_pack_stage(self):
        stages = sweep_stage_graph(ndim=2, nvars=6, spatial=(16, 12), d=1,
                                   order=3, pack=False)
        assert stages[0].name == "weno"
        assert plan_fusion(stages, d=1, ndim=2).slab_axis == 0

    def test_1d_has_no_slab_axis(self):
        stages = sweep_stage_graph(ndim=1, nvars=5, spatial=(32,), d=0,
                                   order=5)
        assert plan_fusion(stages, d=0, ndim=1).slab_axis is None

    def test_read_before_write_is_illegal(self):
        stages = sweep_stage_graph(ndim=2, nvars=6, spatial=(16, 12), d=0,
                                   order=5)
        bad = StageNode(name="early", nest=stages[0].nest,
                        reads=frozenset({"flux"}), writes=frozenset(),
                        halo=())
        with pytest.raises(FusionError):
            plan_fusion([bad] + list(stages), d=0, ndim=2)

    def test_cross_slab_halo_blocks_fusion(self):
        stages = sweep_stage_graph(ndim=2, nvars=6, spatial=(16, 12), d=0,
                                   order=5)
        wide = StageNode(name="blur", nest=stages[0].nest,
                        reads=frozenset({"prim"}),
                        writes=frozenset({"blurred"}),
                        halo=((0, 2), (1, 2)))
        with pytest.raises(FusionError):
            plan_fusion(list(stages) + [wide], d=0, ndim=2)


# ----------------------------------------------------------------------
# Codegen + kernel cache
# ----------------------------------------------------------------------
def spec_for(**kw):
    base = dict(kind="strided", pack=True, ndim=2, d=0, order=5,
                weno_variant="chained", riemann_solver="hllc",
                riemann_variant="reference", dtype="float64")
    base.update(kw)
    return FusedKernelSpec(**base)


class TestKernelCache:
    def test_hit_on_same_signature(self):
        cache = FusedKernelCache()
        a = cache.get(spec_for())
        b = cache.get(spec_for())
        assert a is b
        assert cache.stats() == {"hits": 1, "misses": 1, "kernels": 1}

    def test_miss_on_dtype_or_order_change(self):
        cache = FusedKernelCache()
        cache.get(spec_for())
        cache.get(spec_for(dtype="float32"))
        cache.get(spec_for(order=3))
        assert cache.stats()["misses"] == 3

    def test_tile_shape_not_in_the_key(self):
        # The source is shape-generic: two grids of different size (or
        # tile splits) share one kernel, so the spec carries no extents.
        assert not any(f in FusedKernelSpec.__dataclass_fields__
                       for f in ("shape", "tile", "extent"))

    def test_source_is_inspectable(self):
        cache = FusedKernelCache()
        src = cache.source(spec_for())
        assert "def fused_sweep(" in src
        assert "hllc" in src

    def test_transposed_requires_pack(self):
        with pytest.raises(ConfigurationError):
            spec_for(kind="transposed", pack=False)
        with pytest.raises(ConfigurationError):
            spec_for(kind="sideways")

    @pytest.mark.parametrize("kind", FUSED_KINDS)
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_source_compiles_for_every_kind(self, kind, order):
        spec = spec_for(kind=kind, order=order,
                        d=1 if kind == "transposed" else 0)
        source = generate_source(spec)
        compile(source, "<test>", "exec")
        assert f"def fused_sweep({', '.join(kernel_signature(spec))})" in source


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class TestBackends:
    def test_numpy_is_always_available(self):
        assert backend_available("numpy")
        assert available_backends()[0] == "numpy"
        assert select_backend("numpy") == "numpy"

    def test_default_and_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert select_backend(None) == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert select_backend(None) == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            select_backend("fortran")

    def test_unavailable_backend_rejected(self, monkeypatch):
        missing = [b for b in FUSION_BACKENDS if not backend_available(b)]
        for name in missing:
            with pytest.raises(ConfigurationError):
                select_backend(name)

    @pytest.mark.parametrize("backend", ["numexpr", "numba"])
    def test_optional_backend_source_is_valid(self, backend):
        # The optional backends need not be installed to keep their
        # generated source honest: it must at least be valid Python.
        source = generate_source(spec_for(backend=backend))
        compile(source, "<test>", "exec")
        if backend == "numexpr":
            assert "ne.evaluate(" in source

    @pytest.mark.parametrize("backend",
                             [b for b in ("numexpr", "numba")
                              if backend_available(b)])
    def test_optional_backend_is_bitwise(self, backend, monkeypatch):
        # Runs only where the optional dependency is installed (the
        # optional-deps CI leg); the pure-NumPy leg skips it.
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        case, fused, ref = rhs_pair((14, 11))
        assert fused.fusion_backend == backend
        q = case.initial_conservative()
        assert rhs_eval(fused, q) == rhs_eval(ref, q)


# ----------------------------------------------------------------------
# Knob plumbing
# ----------------------------------------------------------------------
class TestKnob:
    def test_modes(self):
        assert set(FUSION_MODES) == {"off", "on", "auto"}
        for mode in FUSION_MODES:
            assert validate_fusion(mode) == mode
        with pytest.raises(ConfigurationError):
            validate_fusion("maybe")

    def test_on_requires_workspace(self):
        case = bubble_case((12, 10))
        with pytest.raises(ConfigurationError):
            RHS(case.layout, MIX, case.grid,
                BoundarySet.all_extrapolation(2), RHSConfig(),
                use_workspace=False, fusion="on")

    def test_simulation_validates_fusion(self):
        with pytest.raises(ConfigurationError):
            Simulation(bubble_case((12, 10)),
                       BoundarySet.all_extrapolation(2), fusion="sometimes")

    def test_case_file_option(self):
        from repro.io.case_files import solver_options_from_dict

        opts = solver_options_from_dict({"solver": {"fusion": "auto"}})
        assert opts == {"fusion": "auto"}
        with pytest.raises(ConfigurationError):
            solver_options_from_dict({"solver": {"fusion": "yes"}})


# ----------------------------------------------------------------------
# Distributed: fused ranks + overlapped dt reduction
# ----------------------------------------------------------------------
class TestDistributedFusion:
    def test_two_rank_fused_march_is_bitwise(self, tmp_path):
        from repro.bc import BC
        from repro.cluster import BlockDecomposition, ProcessCluster

        case = bubble_case((20, 14))
        bcs = BoundarySet.all_extrapolation(2)
        sim = Simulation(case, bcs, check_every=0)
        sim.run(n_steps=3)
        decomp = BlockDecomposition.balanced(case.grid.shape, 2,
                                             periodic=(False, False))
        pc = ProcessCluster(case.grid, case.layout, MIX, bcs, decomp,
                            RHSConfig(), fusion="on", cluster_timeout=60.0)
        result = pc.run(case.initial_conservative(), n_steps=3)
        assert result.q.tobytes() == sim.q.tobytes()
        assert result.sweep.fused_launches > 0
        # Every CFL reduction was overlapped with stage-one compute.
        assert result.halo.reductions == 2 * 3
        assert result.halo.reductions_overlapped == result.halo.reductions
