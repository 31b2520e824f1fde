"""Kernel-variant bitwise identity (the autotuner's registry contract).

The empirical autotuner (``repro.tuning``) is only allowed to swap
kernel implementations because every registered variant is **bitwise
identical** to the reference: the stacked-stencil WENO batches the
candidate evaluations but performs the same arithmetic in the same
order, and the fused HLLC only caches subexpressions (it never
re-associates).  These tests pin that contract at the kernel level
(including the tiled span path and workspace scratch), end-to-end
through the RHS across orders × solvers × layouts × thread counts, and
through a whole tuned simulation; plus the reduced ufunc-pass
accounting the stacked variant exists to deliver.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BoundarySet
from repro.common import ConfigurationError, DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.riemann import (
    RIEMANN_VARIANTS,
    hllc_flux,
    resolve_riemann_flux,
    validate_riemann_variant,
)
from repro.riemann.common import RiemannScratch
from repro.riemann.fused import hllc_flux_fused
from repro.solver import RHS, RHSConfig
from repro.state import StateLayout, prim_to_cons
from repro.weno import (
    WENO_VARIANTS,
    allocate_weno_scratch,
    halo_width,
    reconstruct_faces,
    reconstruct_faces_span,
    validate_weno_variant,
    weno_passes_per_side,
)
from repro.weno.stacked import WENO_PASSES_PER_SIDE

AIR = StiffenedGas(1.4, 0.0, "air")
WATER = StiffenedGas(4.4, 6000.0, "water")
MIX = Mixture((AIR, WATER))


def random_prim(rng, layout, shape):
    prim = np.empty((layout.nvars, *shape), dtype=DTYPE)
    prim[layout.partial_densities] = rng.uniform(0.1, 2.0,
                                                 (layout.ncomp, *shape))
    prim[layout.velocity] = rng.uniform(-1.0, 1.0, (layout.ndim, *shape))
    prim[layout.pressure] = rng.uniform(0.5, 3.0, shape)
    prim[layout.advected] = rng.uniform(0.05, 0.95, (layout.ncomp - 1, *shape))
    return prim


def random_q(shape, seed=0):
    layout = StateLayout(ncomp=2, ndim=len(shape))
    rng = np.random.default_rng(seed)
    return prim_to_cons(layout, MIX, random_prim(rng, layout, shape))


def make_rhs(shape, *, order=5, solver="hllc", threads=1,
             sweep_layout="strided", weno_variant="chained",
             riemann_variant="reference", tiles=None):
    grid = StructuredGrid.uniform(tuple((0.0, 1.0) for _ in shape), shape)
    layout = StateLayout(ncomp=2, ndim=len(shape))
    return RHS(layout, MIX, grid, BoundarySet.all_periodic(len(shape)),
               RHSConfig(weno_order=order, riemann_solver=solver),
               threads=threads, sweep_layout=sweep_layout,
               weno_variant=weno_variant, riemann_variant=riemann_variant,
               tiles=tiles)


# ----------------------------------------------------------------------
class TestStackedWeno:
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_bitwise_matches_chained(self, order):
        rng = np.random.default_rng(7 * order)
        ng = halo_width(order)
        v = rng.uniform(-2.0, 2.0, (6, 11, 19 + 2 * ng)).astype(DTYPE)
        ref_l, ref_r = reconstruct_faces(v, 2, order)
        face = (6, 11, 20)
        out = (np.empty(face, DTYPE), np.empty(face, DTYPE))
        scratch = allocate_weno_scratch("stacked", order, face, DTYPE)
        got_l, got_r = reconstruct_faces(v, 2, order, out=out,
                                         scratch=scratch, variant="stacked")
        np.testing.assert_array_equal(got_l, ref_l)
        np.testing.assert_array_equal(got_r, ref_r)

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_span_tiles_compose_bitwise(self, order, axis):
        # Concurrent-tile entry point: spans partitioning the faces must
        # reproduce the one-shot chained reconstruction face for face.
        rng = np.random.default_rng(order + axis)
        ng = halo_width(order)
        shape = [6, 9, 13]
        shape[axis] += 2 * ng
        v = rng.uniform(-2.0, 2.0, shape).astype(DTYPE)
        ref_l, ref_r = reconstruct_faces(v, axis, order)
        out = (np.empty(ref_l.shape, DTYPE), np.empty(ref_r.shape, DTYPE))
        # Scratch is shaped with the reconstruction axis last, as the
        # workspace allocates it.
        face_last = np.moveaxis(ref_l, axis, -1).shape
        scratch = allocate_weno_scratch("stacked", order, face_last, DTYPE)
        n_faces = ref_l.shape[axis]
        split = n_faces // 2 + 1
        for lo, hi in ((0, split), (split, n_faces)):
            reconstruct_faces_span(v, axis, order, lo, hi, out=out,
                                   scratch=scratch, variant="stacked")
        np.testing.assert_array_equal(out[0], ref_l)
        np.testing.assert_array_equal(out[1], ref_r)

    def test_pass_counts_strictly_fewer(self):
        # The stacked variant's whole reason to exist: fewer face-sized
        # ufunc passes per reconstruction side at every nontrivial order.
        for order in (3, 5):
            assert (weno_passes_per_side("stacked", order)
                    < weno_passes_per_side("chained", order))
        assert weno_passes_per_side("stacked", 1) == \
            weno_passes_per_side("chained", 1)
        assert set(WENO_PASSES_PER_SIDE) == {
            (v, o) for v in WENO_VARIANTS for o in (1, 3, 5)}

    def test_validate_rejects_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            validate_weno_variant("unrolled")
        with pytest.raises(ConfigurationError):
            allocate_weno_scratch("unrolled", 5, (6, 4, 10), DTYPE)


# ----------------------------------------------------------------------
class TestFusedHLLC:
    @settings(max_examples=20, deadline=None)
    @given(ndim=st.integers(1, 3), nf=st.integers(2, 12),
           direction=st.integers(0, 2), seed=st.integers(0, 2**31 - 1))
    def test_bitwise_matches_reference(self, ndim, nf, direction, seed):
        direction %= ndim
        layout = StateLayout(ncomp=2, ndim=ndim)
        rng = np.random.default_rng(seed)
        prim_l = random_prim(rng, layout, (nf,))
        prim_r = random_prim(rng, layout, (nf,))
        ref, ref_u = hllc_flux(layout, MIX, prim_l, prim_r, direction)
        got, got_u = hllc_flux_fused(layout, MIX, prim_l, prim_r, direction)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got_u, ref_u)

    def test_bitwise_with_workspace_buffers(self):
        layout = StateLayout(ncomp=2, ndim=2)
        rng = np.random.default_rng(99)
        prim_l = random_prim(rng, layout, (5, 8))
        prim_r = random_prim(rng, layout, (5, 8))
        ref, ref_u = hllc_flux(layout, MIX, prim_l, prim_r, 1)
        out = np.empty_like(ref)
        out_u = np.empty_like(ref_u)
        scratch = RiemannScratch(ref.shape, DTYPE)
        got, got_u = hllc_flux_fused(layout, MIX, prim_l, prim_r, 1,
                                     out=out, out_u=out_u, scratch=scratch)
        assert got is out and got_u is out_u
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got_u, ref_u)

    def test_resolve_falls_back_for_unfused_solvers(self):
        assert resolve_riemann_flux("hllc", "fused") is hllc_flux_fused
        for solver in ("hll", "rusanov"):
            assert (resolve_riemann_flux(solver, "fused")
                    is resolve_riemann_flux(solver, "reference"))

    def test_validate_rejects_unknown_variant(self):
        assert set(RIEMANN_VARIANTS) == {"reference", "fused"}
        with pytest.raises(ConfigurationError):
            validate_riemann_variant("split")
        with pytest.raises(ConfigurationError):
            resolve_riemann_flux("hllc", "split")


# ----------------------------------------------------------------------
class TestRHSVariantIdentity:
    @settings(max_examples=16, deadline=None)
    @given(order=st.sampled_from([1, 3, 5]),
           solver=st.sampled_from(["hllc", "hll", "rusanov"]),
           weno_variant=st.sampled_from(WENO_VARIANTS),
           riemann_variant=st.sampled_from(RIEMANN_VARIANTS),
           sweep_layout=st.sampled_from(["strided", "transposed"]),
           threads=st.sampled_from([1, 3]),
           nx=st.integers(7, 16), ny=st.integers(7, 16),
           seed=st.integers(0, 2**31 - 1))
    def test_2d_bitwise_matches_reference(self, order, solver, weno_variant,
                                          riemann_variant, sweep_layout,
                                          threads, nx, ny, seed):
        q = random_q((nx, ny), seed)
        base = make_rhs((nx, ny), order=order, solver=solver)(q)
        rhs = make_rhs((nx, ny), order=order, solver=solver,
                       weno_variant=weno_variant,
                       riemann_variant=riemann_variant,
                       sweep_layout=sweep_layout, threads=threads)
        try:
            np.testing.assert_array_equal(rhs(q), base)
        finally:
            rhs.close()

    def test_1d_and_3d_bitwise(self):
        for shape in ((31,), (8, 7, 9)):
            q = random_q(shape, seed=3)
            base = make_rhs(shape)(q)
            rhs = make_rhs(shape, weno_variant="stacked",
                           riemann_variant="fused")
            np.testing.assert_array_equal(rhs(q), base)

    def test_rejects_unknown_variants_and_tiles(self):
        with pytest.raises(ConfigurationError):
            make_rhs((9, 9), weno_variant="unrolled")
        with pytest.raises(ConfigurationError):
            make_rhs((9, 9), riemann_variant="split")
        with pytest.raises(ConfigurationError):
            make_rhs((9, 9), tiles=0)

    def test_explicit_tiles_override_is_bitwise_and_reported(self):
        q = random_q((12, 11), seed=5)
        base = make_rhs((12, 11))(q)
        rhs = make_rhs((12, 11), threads=2, tiles=3)
        try:
            np.testing.assert_array_equal(rhs(q), base)
            plan = rhs.tile_plan()
        finally:
            rhs.close()
        assert plan["source"] == "override"
        assert [p["tiles"] for p in plan["directions"]] == [3, 3]

    def test_weno_pass_counter_drops_with_stacked(self):
        q = random_q((14, 13), seed=8)
        counts = {}
        for variant in WENO_VARIANTS:
            rhs = make_rhs((14, 13), order=5, weno_variant=variant)
            rhs(q)
            counts[variant] = rhs.sweep_counters.weno_passes
        # 2 directions x 2 sides x passes-per-side, per evaluation.
        assert counts["chained"] == 4 * weno_passes_per_side("chained", 5)
        assert counts["stacked"] == 4 * weno_passes_per_side("stacked", 5)
        assert counts["stacked"] < counts["chained"]
