"""Active spans: a staged tile evaluates only the faces whose stencils
are not bitwise uniform, and the result is still the oracle's, bit for bit.

Every draw is a piecewise-constant field — planted uniform boxes, zero
velocities of either sign (a lone ``-0.0`` among ``+0.0`` is a step the
bitwise compare must see), and optionally a NaN or an infinity in one
cell or in a box reaching the end of the block — swept by every staged mode the skip runs
in (tiles, a gang, a batched stack, a two-rank team's bulk sweeps along
its undecomposed axes) and
compared with the allocating ``use_workspace=False`` reference, which
never skips.  See DESIGN.md "Active spans" for why this is exact.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bc import BC, BoundarySet
from repro.solver import RHS, RHSConfig
from repro.state import prim_to_cons
from tests.test_tiles import (
    MIX,
    SHAPES,
    bubble_case,
    make_rhs,
    random_q,
    rank_team,
    team_rhs,
)

BOUNDARIES = {
    "extrapolation": BoundarySet.all_extrapolation,
    "periodic": BoundarySet.all_periodic,
    "reflective": BoundarySet.all_reflective,
    # Periodic first axis, walls elsewhere.
    "mixed": lambda ndim: BoundarySet(
        ((BC.PERIODIC, BC.PERIODIC),)
        + ((BC.REFLECTIVE, BC.EXTRAPOLATION),) * (ndim - 1)),
}


def piecewise_prim(rng, layout, shape, nonfinite):
    """A background state with two planted boxes of other states."""
    ndim = len(shape)

    def state():
        s = np.empty(layout.nvars)
        s[layout.partial_densities] = rng.uniform(0.1, 2.0, layout.ncomp)
        # Zero velocities of both signs next to ordinary ones.
        s[layout.velocity] = rng.choice([0.0, -0.0, 0.3, -0.7], ndim)
        s[layout.pressure] = rng.uniform(0.5, 3.0)
        s[layout.advected] = rng.uniform(0.05, 0.95, layout.ncomp - 1)
        return s

    value, where = nonfinite or (None, None)
    prim = np.empty((layout.nvars, *shape))
    prim[...] = state().reshape((-1,) + (1,) * ndim)
    for k in range(2):
        lo = [int(rng.integers(0, n)) for n in shape]
        s = state()
        if where == "end" and k:
            # A non-finite box reaching the far end of every axis: a
            # uniform run the span would leave out if it were finite.
            s[int(rng.integers(0, layout.nvars))] = value
            box = tuple(slice(a, None) for a in lo)
        else:
            box = tuple(slice(a, int(rng.integers(a + 1, n + 1)))
                        for a, n in zip(lo, shape))
        prim[(slice(None), *box)] = s.reshape((-1,) + (1,) * ndim)
    cell = tuple(int(rng.integers(0, n)) for n in shape)
    vel = prim[layout.velocity.start]
    if vel[cell] == 0.0:  # flip the sign of one zero
        vel[cell] = -vel[cell]
    if where == "cell":
        prim[(int(rng.integers(0, layout.nvars)), *cell)] = value
    return prim


def draw_q(rng, layout, shape, nonfinite, batch=None):
    if batch is None:
        with np.errstate(invalid="ignore"):  # inf * 0 in a momentum
            return prim_to_cons(layout, MIX, piecewise_prim(
                rng, layout, shape, nonfinite))
    return np.stack([draw_q(rng, layout, shape, nonfinite)
                     for _ in range(batch)], axis=1)


def reference(shape, order, solver, bcs, q, batch):
    oracle = RHS(bubble_case(shape).layout, MIX, bubble_case(shape).grid,
                 bcs, RHSConfig(weno_order=order, riemann_solver=solver),
                 use_workspace=False)
    with np.errstate(all="ignore"):
        out = (oracle(q) if batch is None else np.stack(
            [oracle(q[:, b]) for b in range(batch)], axis=1))
    return out, oracle.limited_faces


class TestActiveSpansBitwise:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), order=st.sampled_from([1, 3, 5]),
           solver=st.sampled_from(["hllc", "hll", "rusanov"]),
           ndim=st.sampled_from([1, 2, 3]),
           boundary=st.sampled_from(sorted(BOUNDARIES)),
           ranks=st.booleans(), gang=st.sampled_from([1, 2]),
           batch=st.sampled_from([None, 2]),
           tiles=st.sampled_from([1, 2, 3]),
           nonfinite=st.one_of(st.none(), st.tuples(
               st.sampled_from([np.nan, np.inf, -np.inf]),
               st.sampled_from(["cell", "end"]))))
    @example(seed=1, order=5, solver="hllc", ndim=2, boundary="extrapolation",
             ranks=False, gang=2, batch=None, tiles=3, nonfinite=None)
    @example(seed=2, order=5, solver="hllc", ndim=2, boundary="extrapolation",
             ranks=False, gang=1, batch=None, tiles=1,
             nonfinite=(np.inf, "end"))
    @example(seed=3, order=3, solver="hll", ndim=3, boundary="reflective",
             ranks=True, gang=1, batch=None, tiles=2,
             nonfinite=(np.nan, "cell"))
    def test_every_staged_mode_matches_the_reference(
            self, seed, order, solver, ndim, boundary, ranks, gang, batch,
            tiles, nonfinite):
        rng = np.random.default_rng(seed)
        shape = SHAPES[ndim]
        layout = bubble_case(shape).layout
        bcs = BOUNDARIES[boundary](ndim)
        config = RHSConfig(weno_order=order, riemann_solver=solver)
        batch = None if ranks else batch
        q = draw_q(rng, layout, shape, nonfinite, batch)
        expect, limited = reference(shape, order, solver, bcs, q, batch)

        with np.errstate(all="ignore"):
            if ranks:
                # Two ranks along the first axis: it sweeps split, and
                # the other axes sweep in bulk, where the hook-filled
                # block's tiles skip.
                arena, team = rank_team(bubble_case(shape), bcs,
                                        (2,) + (1,) * (ndim - 1),
                                        tiles=tiles, config=config)
                out = team_rhs(arena, team, q)
                got = sum(r.limited_faces for r in team)
                counters = [r.sweep_counters for r in team]
                # The ranks share the faces on their cut.
                assert got >= limited
            else:
                rhs = RHS(layout, MIX, bubble_case(shape).grid, bcs, config,
                          tiles=tiles, threads=gang, batch=batch)
                with rhs:
                    out = rhs(q)
                assert rhs.limited_faces == limited
                counters = [rhs.sweep_counters]
        assert out.tobytes() == expect.tobytes()
        for c in counters:
            assert 0 <= c.faces_evaluated <= c.faces


class TestUniformField:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_uniform_field_evaluates_no_face(self, ndim, threads):
        shape = SHAPES[ndim]
        rng = np.random.default_rng(ndim)
        layout = bubble_case(shape).layout
        prim = piecewise_prim(rng, layout, (1,) * ndim, None)
        q = prim_to_cons(layout, MIX, np.broadcast_to(
            prim, (layout.nvars, *shape)).copy())
        bcs = BoundarySet.all_extrapolation(ndim)
        with make_rhs(shape, tiles=2, threads=threads) as rhs:
            out = rhs(q)
        sc = rhs.sweep_counters
        assert sc.faces > 0 and sc.faces_evaluated == 0
        assert rhs.tile_plan()["faces_evaluated"] == 0.0
        assert out.tobytes() == reference(shape, 5, "hllc", bcs, q,
                                          None)[0].tobytes()
        assert not out.any()

    def test_active_tiles_stay_whole_and_count_every_face(self):
        # A field with no uniform stencil evaluates every face, and its
        # tiles skip the search from then on; a uniform one after that
        # still evaluates them all (computing more faces is exact).
        shape = SHAPES[2]
        rng = np.random.default_rng(7)
        rhs = make_rhs(shape, tiles=3)
        layout = rhs.layout
        rhs(random_q(rng, layout, shape))
        sc = rhs.sweep_counters
        assert sc.faces_evaluated == sc.faces
        flat = draw_q(rng, layout, (1, 1), None)
        flat = np.broadcast_to(flat, (layout.nvars, *shape)).copy()
        out = rhs(flat)
        assert sc.faces_evaluated == sc.faces
        assert not out.any()
