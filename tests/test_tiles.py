"""Tests for the cache-blocked default: every sweep runs on tile arenas.

Serial sweeps cut slab tiles like every other mode, and the tile arena
is the only pipeline scratch.  Tiles only move data, so any tile count —
uneven last tile included — in any layout, staged or fused, batched or
not, on a forked gang of any width or on the caller alone, must
reproduce the allocating ``use_workspace=False`` oracle bit for bit with
the same limiter and sweep counters.  What the change buys
is asserted too: the workspace stays within a declared multiple of the
field, a steady-state step allocates nothing large, and the whole-field
per-direction buffers survive only as lazily allocated oracle buffers
(the contract ``benchmarks/e2e/probes.py`` relies on).
"""

import gc
import itertools
import mmap
import os
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bc import BoundarySet, fill_axis_ghosts, pad_axis
from repro.cluster import BlockDecomposition, SharedMemoryTransport, ShmArena
from repro.common import DTYPE, ConfigurationError
from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.profiling import measure_call_allocations, measure_step_allocations
from repro.riemann.common import RiemannScratch
from repro.riemann.hllc import hllc_flux
from repro.solver import Case, Patch, RHS, RHSConfig, Simulation, box, sphere
from repro.state import StateLayout, prim_to_cons
from repro.state.conversions import cons_to_prim
from repro.weno import halo_width, reconstruct_faces, weno_passes_per_side

AIR = StiffenedGas(1.4, 0.0, "air")
WATER = StiffenedGas(4.4, 6000.0, "water")
MIX = Mixture((AIR, WATER))

#: Extents no tile count in {2, 3, 5} divides, one per dimensionality.
SHAPES = {1: (23,), 2: (13, 11), 3: (7, 11, 7)}


def random_q(rng, layout, shape):
    """A random but physical conservative field (any leading batch)."""
    prim = np.empty((layout.nvars, *shape), dtype=DTYPE)
    prim[layout.partial_densities] = rng.uniform(0.1, 2.0,
                                                 (layout.ncomp, *shape))
    prim[layout.velocity] = rng.uniform(-1.0, 1.0, (layout.ndim, *shape))
    prim[layout.pressure] = rng.uniform(0.5, 3.0, shape)
    prim[layout.advected] = rng.uniform(0.05, 0.95,
                                        (layout.ncomp - 1, *shape))
    return prim_to_cons(layout, MIX, prim)


def make_rhs(shape, order=5, solver="hllc", **kwargs):
    grid = StructuredGrid.uniform(tuple((0.0, 1.0) for _ in shape), shape)
    return RHS(StateLayout(ncomp=2, ndim=len(shape)), MIX, grid,
               BoundarySet.all_extrapolation(len(shape)),
               RHSConfig(weno_order=order, riemann_solver=solver), **kwargs)


def bubble_case(shape):
    ndim = len(shape)
    case = Case(StructuredGrid.uniform(((0.0, 1.0),) * ndim, shape), MIX)
    case.add(Patch(box([0.0] * ndim, [1.0] * ndim), (0.5, 0.5),
                   (0.3,) + (-0.1,) * (ndim - 1), 1.0, (0.5,)))
    case.add(Patch(sphere([0.4] * ndim, 0.25), (1.0, 1.0),
                   (0.0,) * ndim, 2.0, (0.5,)))
    return case


# ----------------------------------------------------------------------
class TestSerialTilesBitwise:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), order=st.sampled_from([1, 3, 5]),
           solver=st.sampled_from(["hllc", "hll", "rusanov"]),
           ndim=st.sampled_from([1, 2, 3]),
           layout=st.sampled_from(["strided", "transposed"]),
           fusion=st.sampled_from(["off", "on"]),
           batch=st.sampled_from([None, 3]),
           tiles=st.sampled_from([1, 2, 3, 5, "extent"]),
           gang=st.sampled_from([1, 2, 3]))
    @example(seed=1, order=5, solver="hllc", ndim=2, layout="strided",
             fusion="off", batch=None, tiles=5,
             gang=1)  # the serial default path, uneven
    @example(seed=2, order=5, solver="hllc", ndim=3, layout="transposed",
             fusion="on", batch=None, tiles="extent",
             gang=3)  # one-row tiles, 4/4/3
    @example(seed=3, order=3, solver="hll", ndim=2, layout="transposed",
             fusion="off", batch=3, tiles=2,
             gang=3)  # batch axis is the slab axis; a member with no tile
    @example(seed=4, order=5, solver="rusanov", ndim=2, layout="strided",
             fusion="on", batch=None, tiles=5,
             gang=2)  # shares of 3 and 2 tiles
    def test_every_tiling_matches_the_oracle(self, seed, order, solver, ndim,
                                             layout, fusion, batch, tiles,
                                             gang):
        shape = SHAPES[ndim]
        spatial = shape if batch is None else (batch, *shape)
        if tiles == "extent":
            tiles = max(spatial)
        oracle = make_rhs(shape, order, solver, use_workspace=False)
        mode = dict(sweep_layout=layout, fusion=fusion, batch=batch)
        tiled = make_rhs(shape, order, solver, tiles=tiles, threads=gang,
                         **mode)
        whole = make_rhs(shape, order, solver, tiles=1, threads=1, **mode)
        q = random_q(np.random.default_rng(seed), oracle.layout, spatial)

        with tiled:
            out = tiled(q)
        if batch is None:
            expect = oracle(q)
        else:
            expect = np.stack([oracle(q[:, b]) for b in range(batch)], axis=1)
        assert out.tobytes() == expect.tobytes()
        assert whole(q).tobytes() == expect.tobytes()
        assert tiled.limited_faces == oracle.limited_faces
        assert whole.limited_faces == oracle.limited_faces

        # Tile counts clamp to each direction's slab extent; 1D has no
        # perpendicular axis and runs one tile.
        nb = 0 if batch is None else 1
        plans = tiled.tile_plan()["directions"]
        for p in plans:
            extent = (1 if p["slab_axis"] is None
                      else spatial[p["slab_axis"]])
            assert p["tiles"] == min(tiles, extent)
            assert p["slab_axis"] == (None if len(spatial) == 1 else
                                      (1 if p["d"] == 0 else 0))
        assert [p["d"] for p in plans] == list(range(nb, len(spatial)))

        # The byte and pass tallies are nominal (field-sized), so tiling
        # leaves them alone; only the fused launch count follows it.
        got, ref = (r.sweep_counters.as_dict() for r in (tiled, whole))
        launches = sum(p["tiles"] for p in plans if p["fused"])
        assert got.pop("fused_launches") == launches
        assert ref.pop("fused_launches") == sum(p["fused"] for p in plans)
        per_tile = got.pop("fused_passes_saved"), ref.pop("fused_passes_saved")
        assert got == ref
        if launches:
            assert per_tile[0] * sum(p["fused"] for p in plans) \
                == per_tile[1] * launches
        if batch is None:
            # The oracle sweeps whole standard-order fields; the tiles
            # gather the trailing direction: the same passes and face
            # bytes, tallied as gathered where the tiles gathered.
            want = oracle.sweep_counters
            assert got["weno_passes"] == want.weno_passes
            assert (got["bytes_reconstructed_strided"]
                    + got["bytes_reconstructed_contiguous"]
                    == want.bytes_reconstructed_strided
                    + want.bytes_reconstructed_contiguous)
            assert got["transposed_sweeps"] == sum(
                p["kind"] == "gathered" for p in plans)

    def test_default_plans_tiles_where_the_cache_asks_for_them(self):
        # Serial unfused sweeps were pinned to one tile; now the L2
        # heuristic plans them like any other mode: a small grid fits
        # one tile, a larger one is cut against the default host's
        # per-core cache share, and a 40 MB L2 holds it whole.
        small = make_rhs((24, 20))
        assert [p["tiles"] for p in small.tile_plan()["directions"]] == [1, 1]
        cut = make_rhs((96, 96))
        assert [p["tiles"] for p in cut.tile_plan()["directions"]] == [2, 2]
        assert cut.tile_plan()["source"] == "heuristic"
        from repro.hardware.devices import get_device
        from repro.solver.sweep import SweepEngine

        roomy = SweepEngine(cut.layout, MIX, cut.bcs, cut.config, (96, 96),
                            counters=None, device=get_device("a100"))
        assert [p.tiles for p in roomy.plans.values()] == [1, 1]
        q = random_q(np.random.default_rng(5), cut.layout, (96, 96))
        assert cut(q).tobytes() == make_rhs((96, 96), tiles=1)(q).tobytes()

    def test_tile_floor_bounds_dispatch(self):
        from repro.hardware import suggest_tile_count
        from repro.hardware.devices import get_device

        kwargs = dict(bytes_per_slice=1 << 20, device=get_device("mi250x"))
        free = suggest_tile_count(64, 1, **kwargs)
        floored = suggest_tile_count(64, 1, min_rows=8, **kwargs)
        assert free > floored
        assert -(-64 // floored) >= 8
        # The floor never drops below one tile per worker.
        assert suggest_tile_count(64, 16, min_rows=8, **kwargs) == 16

    def test_explicit_tiles_override_is_bitwise_and_reported(self):
        rhs = make_rhs((12, 11), threads=2, tiles=3)
        q = random_q(np.random.default_rng(5), rhs.layout, (12, 11))
        base = make_rhs((12, 11))(q)
        try:
            np.testing.assert_array_equal(rhs(q), base)
            plan = rhs.tile_plan()
        finally:
            rhs.close()
        assert plan["source"] == "override"
        assert [p["tiles"] for p in plan["directions"]] == [3, 3]

    def test_rejects_unknown_inputs(self):
        for bad in ({"tiles": 0}, {"sweep_layout": "auto"},
                    {"backend": "torch"}):
            with pytest.raises(ConfigurationError):
                make_rhs((9, 9), **bad)

    def test_weno_pass_counter_counts_both_sides(self):
        rhs = make_rhs((14, 13))
        rhs(random_q(np.random.default_rng(8), rhs.layout, (14, 13)))
        # 2 directions x 2 sides x passes-per-side, per evaluation.
        assert rhs.sweep_counters.weno_passes == 4 * weno_passes_per_side(5)


# ----------------------------------------------------------------------
def rank_team(case, bcs, rank_grid, **kwargs):
    """In-process team over ``rank_grid``: one arena and, per rank, the
    serial ``RHS`` over its block grid with its own
    ``SharedMemoryTransport`` as the other ghost source (``kwargs`` go
    to every rank's RHS)."""
    from repro.bc import BC

    periodic = tuple(lo is BC.PERIODIC for lo, _ in bcs.per_axis)
    config = kwargs.pop("config", RHSConfig())
    decomp = BlockDecomposition(case.grid.shape, tuple(rank_grid), periodic)
    arena = ShmArena(decomp, case.layout.nvars, halo_width(config.weno_order))
    ranks = [RHS(case.layout, case.mixture, decomp.block_grid(case.grid, r),
                 bcs, config,
                 transport=SharedMemoryTransport(arena, r, timeout=5.0),
                 **kwargs)
             for r in range(decomp.nranks)]
    return arena, ranks


def team_call(arena, ranks):
    """Every rank's ``dq/dt`` of its arena block (its workspace's
    ``dqdt``), one thread per rank: a rank posts its strips, then waits
    on its neighbours'.  Each thread runs in a copy of the caller's
    context, so an ``np.errstate`` around the call holds in it too."""
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    def call(rank):
        return rank(arena.block(rank.transport.rank),
                    out=rank.workspace.dqdt)

    with ThreadPoolExecutor(len(ranks)) as pool:
        calls = [pool.submit(contextvars.copy_context().run, call, rank)
                 for rank in ranks]
        return [c.result() for c in calls]


def team_rhs(arena, ranks, q):
    """The gathered ``dq/dt`` of one team evaluation of ``q``: a rank's
    tendency replaces its block once every rank is done."""
    arena.scatter(q)
    for rank, dqdt in zip(ranks, team_call(arena, ranks)):
        arena.block(rank.transport.rank)[...] = dqdt
    return arena.gather()


class TestRankLocalTiles:
    """A rank tile is a serial tile with another ghost source: it packs
    its own rows of ``prim``, fills walls from the BCs and the other
    sides from the neighbours' posted strips, and skips uniform faces."""

    @pytest.mark.parametrize("layout,fusion,periodic", [
        ("strided", "off", True),      # self-exchange: ghosts from strips
        ("strided", "off", False),     # walls only: ghosts from the BCs
        ("transposed", "off", True),
        ("strided", "on", False),      # tiles fuse (pack=False)
        ("strided", "on", True),
    ])
    @pytest.mark.parametrize("shape,tiles", [((21, 16), 3), ((9, 8, 7), 8)])
    def test_tiled_rank_equals_tiled_rhs(self, layout, fusion, periodic,
                                         shape, tiles):
        ndim = len(shape)
        case = bubble_case(shape)
        bcs = (BoundarySet.all_periodic(ndim) if periodic
               else BoundarySet.all_extrapolation(ndim))
        _, (rank,) = rank_team(case, bcs, (1,) * ndim, tiles=tiles,
                               fusion=fusion)
        rhs = RHS(case.layout, MIX, case.grid, bcs, RHSConfig(),
                  sweep_layout=layout, fusion=fusion, tiles=tiles)
        q = case.initial_conservative()
        assert rank(q).tobytes() == rhs(q).tobytes()
        assert rank.limited_faces == rhs.limited_faces
        # Faces evaluated included: a rank skips what the RHS skips.
        assert (rank.sweep_counters.as_dict()
                == rhs.sweep_counters.as_dict())
        # No sweep touches a block-sized buffer.
        ws = rank.workspace
        assert not any(getattr(ws, name).made for name in (
            "padded", "face_l", "face_r", "flux", "u_face", "weno_scratch",
            "riemann_scratch"))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), order=st.sampled_from([1, 3, 5]),
           ndim=st.sampled_from([1, 2, 3]), axis=st.integers(0, 2),
           extra=st.integers(0, 5), periodic=st.booleans(),
           layout=st.sampled_from(["strided", "transposed"]),
           fusion=st.sampled_from(["off", "on"]),
           tiles=st.sampled_from([1, 2, 3]))
    @example(seed=4, order=5, ndim=2, axis=0, extra=1, periodic=False,
             layout="strided", fusion="off", tiles=2)  # blocks of 2 ng + 1, 2 ng
    @example(seed=5, order=3, ndim=3, axis=1, extra=0, periodic=True,
             layout="transposed", fusion="off", tiles=3)  # blocks of ng
    def test_two_rank_teams_match_the_serial_rhs(self, seed, order, ndim,
                                                 axis, extra, periodic,
                                                 layout, fusion, tiles):
        """Two ranks along any axis, blocks from ``ng`` cells (every
        face reads a ghost) through ``2 ng`` and up: the gathered
        tendency is the serial one (of either layout), every rank makes
        the serial RHS's WENO passes, and no rank evaluates a face more
        than once."""
        axis %= ndim
        ng = halo_width(order)
        shape = list(SHAPES[ndim])
        shape[axis] = 2 * ng + extra * (ng + 1) // 2
        case = bubble_case(tuple(shape))
        bcs = (BoundarySet.all_periodic(ndim) if periodic
               else BoundarySet.all_extrapolation(ndim))
        config = RHSConfig(weno_order=order)
        q = random_q(np.random.default_rng(seed), case.layout, tuple(shape))
        rank_grid = [1] * ndim
        rank_grid[axis] = 2
        serial = RHS(case.layout, MIX, case.grid, bcs, config,
                     sweep_layout=layout, fusion=fusion)
        expect = serial(q).tobytes()
        arena, ranks = rank_team(case, bcs, rank_grid, tiles=tiles,
                                 config=config, fusion=fusion)
        assert team_rhs(arena, ranks, q).tobytes() == expect
        for rank in ranks:
            counters = rank.sweep_counters
            assert counters.weno_passes == serial.sweep_counters.weno_passes
            assert counters.faces_evaluated <= counters.faces
            assert not rank.workspace.padded.made
        # Both ranks reconstruct the faces they share.
        assert sum(r.limited_faces for r in ranks) >= serial.limited_faces


# ----------------------------------------------------------------------
class StrideGate:
    """Spy on the WENO and Riemann kernel entries of the engines sharing
    a process: every array operand of a call must walk memory in the
    same axis order and live in the calling process's arena pool (of one
    of the engines' workspaces).  Forked gang workers inherit the spies;
    a failed check comes back as the launch's exception, and the call
    tallies live in shared memory, one row per process of a gang of 2."""

    KINDS = ("weno", "riemann")

    def __init__(self, monkeypatch, engines, workspaces, nsp):
        import repro.weno.reconstruct as weno

        self.workspaces, self.nsp = workspaces, nsp
        self.pid = os.getpid()
        self._tally = np.frombuffer(mmap.mmap(-1, 32),
                                    dtype=np.int64).reshape(2, 2)
        faces_into, riemann = weno._faces_into, engines[0].riemann

        def spy_weno(vlast, start, count, order, out, scratch, *a, **k):
            self.check("weno", vlast, out, *scratch)
            return faces_into(vlast, start, count, order, out, scratch,
                              *a, **k)

        def spy_riemann(layout, mixture, vl, vr, direction, *, out, out_u,
                        scratch):
            assert isinstance(scratch, RiemannScratch)
            self.check("riemann", vl, vr, out, out_u,
                       *(getattr(scratch, n) for n in scratch.__slots__))
            return riemann(layout, mixture, vl, vr, direction, out=out,
                           out_u=out_u, scratch=scratch)

        monkeypatch.setattr(weno, "_faces_into", spy_weno)
        for engine in engines:
            engine.riemann = spy_riemann
            if engine._ctx is not None:  # bound only when a sweep fuses
                engine._ctx.riemann = spy_riemann

    @property
    def calls(self):
        return dict(zip(self.KINDS, self._tally.sum(axis=0).tolist()))

    def check(self, kind, *arrays):
        pools = [ws._pool for ws in self.workspaces if ws._pool is not None]
        # Every operand ends with the tile's spatial axes; an axis some
        # operand has one element along has no stride to speak of.
        live = [k for k in range(-self.nsp, 0)
                if all(a.shape[k] > 1 for a in arrays)]
        orders = {tuple(np.argsort([a.strides[k] for k in live],
                                   kind="stable")) for a in arrays}
        assert len(orders) == 1, [(a.shape, a.strides) for a in arrays]
        assert any(all(np.may_share_memory(a, pool) for a in arrays)
                   for pool in pools)
        self._tally[int(os.getpid() != self.pid), self.KINDS.index(kind)] += 1


class TestStrideOrderGate:
    """The arena's layout rule, observed at the kernels: in every mode
    no WENO or Riemann pass mixes two memory orders or touches a field-
    or block-sized buffer."""

    SHAPES = {1: (23,), 2: (13, 11), 3: (13, 7, 8)}

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["serial", "threaded", "batched"])
    def test_rhs_modes(self, monkeypatch, mode, ndim):
        shape = self.SHAPES[ndim]
        kwargs = {"serial": {"threads": 1}, "threaded": {"threads": 2},
                  "batched": {"batch": 3}}[mode]
        spatial = (3, *shape) if mode == "batched" else shape
        for layout, fusion in itertools.product(("strided", "transposed"),
                                                ("off", "on")):
            rhs = make_rhs(shape, tiles=2, sweep_layout=layout,
                           fusion=fusion, **kwargs)
            gate = StrideGate(monkeypatch, [rhs._engine], [rhs.workspace],
                              len(spatial))
            rhs(random_q(np.random.default_rng(ndim), rhs.layout, spatial))
            rhs.close()
            monkeypatch.undo()
            tiles = sum(p["tiles"] for p in rhs.tile_plan()["directions"])
            assert gate.calls["riemann"] == tiles
            assert gate.calls["weno"] == (0 if fusion == "on" else 2 * tiles)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("exchange", [True, False])
    def test_rank_local_modes(self, monkeypatch, exchange, ndim):
        """Ghosts from the neighbours' strips (two periodic ranks) and
        from the BCs only (one rank between walls)."""
        shape = self.SHAPES[ndim]
        case = bubble_case(shape)
        bcs = (BoundarySet.all_periodic(ndim) if exchange
               else BoundarySet.all_extrapolation(ndim))
        rank_grid = ((2,) if exchange else (1,)) + (1,) * (ndim - 1)
        q = case.initial_conservative()
        for fusion in ("off", "on"):
            arena, ranks = rank_team(case, bcs, rank_grid, tiles=2,
                                     fusion=fusion)
            gate = StrideGate(monkeypatch, [rank._engine for rank in ranks],
                              [rank.workspace for rank in ranks], ndim)
            team_rhs(arena, ranks, q)
            monkeypatch.undo()
            assert gate.calls["riemann"] > 0
            messages = sum(r.transport.counters.messages for r in ranks)
            assert messages == ranks[0].transport.decomp.total_messages()
            assert bool(messages) == exchange


# ----------------------------------------------------------------------
class TestOracleBufferContract:
    """``benchmarks/e2e/probes.py`` runs whole-field kernels through
    seven per-direction buffers of a default ``Simulation``'s workspace;
    they must keep their names, shapes and laziness."""

    NAMES = ("padded", "face_l", "face_r", "flux", "u_face", "weno_scratch",
             "riemann_scratch")

    def test_probe_call_sequence_runs_and_matches(self):
        case, bcs = bubble_case((14, 12)), BoundarySet.all_extrapolation(2)
        sim = Simulation(case, bcs, config=RHSConfig())
        ws = sim.rhs.workspace
        sim.step()
        # No sweep touched them, and nbytes does not count them yet.
        assert not any(getattr(ws, name).made for name in self.NAMES)
        before = ws.nbytes

        layout, ng = case.layout, halo_width(5)
        prim = cons_to_prim(layout, MIX, sim.q)
        for d in range(2):
            lo, hi = bcs.per_axis[d]
            padded = pad_axis(prim, d, ng, out=ws.padded[d])
            fill_axis_ghosts(padded, layout, d, ng, lo, hi)
            faces = (ws.face_l[d], ws.face_r[d])
            reconstruct_faces(padded, d + 1, 5, out=faces,
                              scratch=ws.weno_scratch[d])
            flux, u_face = hllc_flux(layout, MIX, faces[0], faces[1], d,
                                     out=ws.flux[d], out_u=ws.u_face[d],
                                     scratch=ws.riemann_scratch[d])
            v_l, v_r = reconstruct_faces(padded, d + 1, 5)
            ref_flux, ref_u = hllc_flux(layout, MIX, v_l, v_r, d)
            assert flux is ws.flux[d] and u_face is ws.u_face[d]
            assert flux.tobytes() == ref_flux.tobytes()
            assert u_face.tobytes() == ref_u.tobytes()
            face = list(sim.q.shape)
            face[d + 1] += 1
            assert ws.padded[d].shape[d + 1] == sim.q.shape[d + 1] + 2 * ng
            assert list(ws.face_l[d].shape) == face == list(ws.flux[d].shape)
            assert list(ws.u_face[d].shape) == face[1:]
        # First access allocated; the same object comes back after.
        assert ws.padded[0] is ws.padded[0]
        assert ws.nbytes > before + 20 * sim.q.nbytes
        assert ws.nbytes == sum(a.nbytes for a in ws._all_arrays())
        # ... and the run carries on bit-identically with them around.
        ref = Simulation(case, bcs, config=RHSConfig(), use_workspace=False)
        ref.step(), ref.step(), sim.step()
        assert sim.q.tobytes() == ref.q.tobytes()


# ----------------------------------------------------------------------
class TestResourceGates:
    #: Declared budget: workspace bytes per field byte.  Five field
    #: buffers (prim, dqdt, the RK stage and result, rollback) + divu are
    #: 5.1-5.2x; the rest is one L2-sized arena pool per worker, shared
    #: by the directions and the step's elementwise tile scratch.  47x
    #: before tile arenas, 9.2x / 8.0x with four RK buffers; 7.24x at
    #: 256^2 and 6.01-6.06x at 48^3 measured (EXPERIMENTS.md).
    BUDGET = 7.5
    #: Steady-step transient bytes per field byte, in every mode: only
    #: tile-sized masks and reductions are left (1.7-1.9 fields while
    #: the step's conversions, CFL rate and combinations ran whole-field;
    #: 0.02-0.07 measured).
    TRANSIENT = 0.25
    #: Peak resident growth of a 128^2, 4-step run past ``import repro``,
    #: in fields: workspace, gang mapping, case construction and heap
    #: slack.  12.9 (serial) / 13.9 (gang) measured; 16.8 before.
    RSS_GROWTH = 15.0

    @pytest.mark.parametrize("shape,kwargs", [
        ((256, 256), {}),
        ((48, 48, 48), {}),
        ((48, 48, 48), {"sweep_layout": "transposed", "fusion": "on"}),
    ])
    def test_workspace_bytes_per_field_byte(self, shape, kwargs):
        rhs = make_rhs(shape, **kwargs)
        q = random_q(np.random.default_rng(0), rhs.layout, shape)
        rhs(q)
        ws = rhs.workspace
        rhs.close()
        assert all(p["tiles"] > 1 for p in rhs.tile_plan()["directions"])
        # Every direction's arena is carved from the one process pool.
        assert 1 <= len(ws._arenas) <= len(shape) and ws._pool is not None
        assert ws.nbytes / q.nbytes <= self.BUDGET
        # No whole-block per-direction buffer came to life.
        assert not any(getattr(ws, name).made
                       for name in TestOracleBufferContract.NAMES)

    @pytest.mark.parametrize("mode", ["serial", "gang", "guarded",
                                      "rank-local"])
    @pytest.mark.parametrize("shape", [(256, 256), (48, 48, 48)])
    def test_steady_step_transient(self, shape, mode):
        """Gang members carve their own scratch; this is the parent."""
        from repro.solver import RetryPolicy
        from repro.solver.options import SolverOptions
        from repro.timestepping import time_step

        case, ndim = bubble_case(shape), len(shape)
        bcs = BoundarySet.all_extrapolation(ndim)
        if mode == "rank-local":
            _, (rank,) = rank_team(case, bcs, (1,) * ndim)
            q = case.initial_conservative()

            def step():
                q[...] = time_step(rank, q, layout=case.layout, mixture=MIX,
                                   widths=rank.grid.width_fields(),
                                   options=SolverOptions(cfl=0.4),
                                   workspace=rank.workspace)[0]
        else:
            sim = Simulation(case, bcs, cfl=0.4, **{
                "serial": {"threads": 1}, "gang": {"threads": 2},
                "guarded": {"retry": RetryPolicy()}}[mode])
            step, q = sim.step, sim.q
        stats = measure_call_allocations(step, warmup=1, repeats=2)
        if mode != "rank-local":
            sim.close()
        assert stats.min_transient_bytes <= self.TRANSIENT * q.nbytes

    def test_batched_step_transient(self):
        from repro.ensemble import EnsembleSimulation

        cases = [bubble_case((32, 32)) for _ in range(8)]
        with EnsembleSimulation(cases, BoundarySet.all_extrapolation(2),
                                cfl=0.4) as ens:
            stats = measure_call_allocations(ens.step, warmup=2, repeats=2)
            # NumPy's ufunc iterator buffers the strided WENO stencil
            # views through getbufsize()-element buffers of its own, two
            # per call at most: a constant, not a field (a third of this
            # small 8 x 32^2 field, 0.04 of a 256^2 one).
            numpy_buffers = 2 * np.getbufsize() * ens.q.itemsize
            assert stats.min_transient_bytes <= (
                self.TRANSIENT * ens.q.nbytes + numpy_buffers)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads /proc")
    def test_peak_rss_growth_of_a_small_run(self):
        script = textwrap.dedent("""
            def status(key):
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) * 1024 for line in fh
                                if line.startswith(key + ":"))
            from repro.bc import BoundarySet
            from repro.eos import Mixture, StiffenedGas
            from repro.grid import StructuredGrid
            from repro.solver import Case, Patch, Simulation, box, sphere
            base = status("VmRSS")
            case = Case(StructuredGrid.uniform(((0.0, 1.0),) * 2, (128, 128)),
                        Mixture((StiffenedGas(1.4), StiffenedGas(4.4, 6000.0))))
            case.add(Patch(box([0, 0], [1, 1]), (0.5, 0.5), (0.3, -0.1),
                           1.0, (0.5,)))
            case.add(Patch(sphere([0.4, 0.4], 0.25), (1.0, 1.0), (0.0, 0.0),
                           2.0, (0.5,)))
            with Simulation(case, BoundarySet.all_periodic(2), cfl=0.4,
                            threads=2) as sim:
                sim.run(n_steps=4)
                print((status("VmHWM") - base) / sim.q.nbytes)
        """)
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), "..", "src"))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert float(out.stdout) <= self.RSS_GROWTH

    def test_serial_tiled_step_allocates_nothing_large(self):
        sim = Simulation(bubble_case((24, 24)), BoundarySet.all_periodic(2),
                         cfl=0.4, tuning={"tiles": 5})
        assert [p["tiles"] for p in sim.rhs.tile_plan()["directions"]] == [5, 5]
        field_bytes = sim.q.nbytes
        stats = measure_step_allocations(sim, warmup=3, repeats=3)
        assert stats.min_transient_bytes < 4 * field_bytes
        assert stats.net_bytes < field_bytes

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_arena_count_bounded_by_threads_times_directions(self, threads):
        sim = Simulation(bubble_case((26, 22)), BoundarySet.all_periodic(2),
                         cfl=0.4, tuning={"tiles": 4, "threads": threads,
                                          "sweep_layout": "transposed"})
        for _ in range(3):
            sim.step()
        ws = sim.rhs.workspace
        # Per process, whatever the gang width: one arena per direction
        # on the one pool (workers carve their own after the fork).
        assert len(ws._arenas) == 2 and ws._pool is not None
        after = ws.nbytes
        sim.step()
        sim.close()
        assert ws.nbytes == after  # steady: no arena is rebuilt

    @pytest.mark.parametrize("kwargs", [
        {}, {"fusion": "on"}, {"threads": 2}, {"batch": 3},
        {"sweep_layout": "transposed"}])
    def test_dropped_rhs_frees_its_workspace_without_the_collector(
            self, kwargs):
        """An ensemble rebuilds its RHS at every retirement; were the old
        workspace (or its arena pool) in a reference cycle, when it dies
        would be the cyclic collector's call and peak memory would differ
        from run to run (``campaign-svc`` ``peak_rss_mb`` did, by 12 MB)."""
        shape = (13, 11)
        rhs = make_rhs(shape, **kwargs)
        batch = (kwargs["batch"],) if "batch" in kwargs else ()
        q = random_q(np.random.default_rng(0), rhs.layout, batch + shape)
        gc.collect()
        gc.disable()
        try:
            rhs(q)
            ws = rhs.workspace
            _ = ws.padded[0], ws.weno_scratch[1], ws.riemann_scratch[0]
            dead = [weakref.ref(ws), weakref.ref(rhs),
                    *(weakref.ref(a) for a in ws._arenas.values())]
            rhs.close()
            del rhs, ws, _
            assert [r() for r in dead] == [None] * len(dead)
        finally:
            gc.enable()
