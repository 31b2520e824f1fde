"""RHS bitwise identity across the axes the autotuner may choose.

The empirical autotuner (``repro.tuning``) may pick any sweep layout and
gang width because each one is **bitwise identical** to the serial
strided evaluation: layouts only move data and the gang only splits it.
This pins that contract end-to-end through the RHS across orders ×
solvers × layouts × thread counts on random 2D extents.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BoundarySet
from repro.common import DTYPE
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.solver import RHS, RHSConfig
from repro.state import StateLayout, prim_to_cons

AIR = StiffenedGas(1.4, 0.0, "air")
WATER = StiffenedGas(4.4, 6000.0, "water")
MIX = Mixture((AIR, WATER))


def random_q(shape, seed=0):
    layout = StateLayout(ncomp=2, ndim=len(shape))
    rng = np.random.default_rng(seed)
    prim = np.empty((layout.nvars, *shape), dtype=DTYPE)
    prim[layout.partial_densities] = rng.uniform(0.1, 2.0,
                                                 (layout.ncomp, *shape))
    prim[layout.velocity] = rng.uniform(-1.0, 1.0, (layout.ndim, *shape))
    prim[layout.pressure] = rng.uniform(0.5, 3.0, shape)
    prim[layout.advected] = rng.uniform(0.05, 0.95, (layout.ncomp - 1, *shape))
    return prim_to_cons(layout, MIX, prim)


def make_rhs(shape, *, order=5, solver="hllc", threads=1,
             sweep_layout="strided"):
    grid = StructuredGrid.uniform(tuple((0.0, 1.0) for _ in shape), shape)
    layout = StateLayout(ncomp=2, ndim=len(shape))
    return RHS(layout, MIX, grid, BoundarySet.all_periodic(len(shape)),
               RHSConfig(weno_order=order, riemann_solver=solver),
               threads=threads, sweep_layout=sweep_layout)


# ----------------------------------------------------------------------
class TestRHSVariantIdentity:
    @settings(max_examples=16, deadline=None)
    @given(order=st.sampled_from([1, 3, 5]),
           solver=st.sampled_from(["hllc", "hll", "rusanov"]),
           sweep_layout=st.sampled_from(["strided", "transposed"]),
           threads=st.sampled_from([1, 3]),
           nx=st.integers(7, 16), ny=st.integers(7, 16),
           seed=st.integers(0, 2**31 - 1))
    def test_2d_bitwise_matches_reference(self, order, solver, sweep_layout,
                                          threads, nx, ny, seed):
        q = random_q((nx, ny), seed)
        with make_rhs((nx, ny), order=order, solver=solver) as base_rhs:
            base = base_rhs(q).copy()
        rhs = make_rhs((nx, ny), order=order, solver=solver,
                       sweep_layout=sweep_layout, threads=threads)
        try:
            np.testing.assert_array_equal(rhs(q), base)
        finally:
            rhs.close()
