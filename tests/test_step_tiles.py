"""The step's elementwise work as tile bodies: bitwise the whole-field oracles.

``cons_to_prim``, ``wave_rate``, the Shu-Osher combine, the Riemann
solvers and the positivity limiter run tile by tile with their
temporaries carved from scratch pools.  The oracles below are their
whole-field, allocating spellings (every temporary a fresh NumPy
expression), so every partition of the rows — uneven, single-row, or
along the slab axis a folded gang launch cuts — every layout and both
precisions must reproduce them bit for bit.  Then the fold itself: the
launches per step stay one per direction per stage, and a NaN anywhere
stops the step with the NaN named.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import BoundarySet
from repro.common import NumericsError
from repro.common.scratch import Scratch
from repro.ensemble import EnsembleSimulation
from repro.eos import Mixture, StiffenedGas
from repro.riemann import resolve_riemann_flux
from repro.riemann.common import RiemannScratch
from repro.solver import RetryPolicy, Simulation, SolverWorkspace
from repro.solver.positivity import PRESSURE_MARGIN, limit_face_states
from repro.state import StateLayout
from repro.state.conversions import (
    ALPHA_FLOOR,
    cons_to_prim,
    cons_to_prim_tile,
    prim_to_cons,
)
from repro.timestepping import SSP_SCHEMES, wave_rate
from repro.timestepping.cfl import max_rate, tile_of, wave_rate_tile
from repro.timestepping.ssp_rk import shu_osher_combine
from tests.test_tiles import bubble_case

FLUIDS = (StiffenedGas(1.4, 0.0, "air"), StiffenedGas(4.4, 6000.0, "water"),
          StiffenedGas(1.667, 0.0, "helium"))


# ----------------------------------------------------------------------
# Whole-field oracles
# ----------------------------------------------------------------------
def _gamma_pi(mix, alphas):
    Gm = mix._Gammas[0] * alphas[0]
    Pm = mix._Pis[0] * alphas[0]
    for i in range(1, mix.ncomp):
        Gm += mix._Gammas[i] * alphas[i]
        Pm += mix._Pis[i] * alphas[i]
    return Gm, Pm


def _sound_speed(mix, alphas, rho, p):
    Gm, Pm = _gamma_pi(mix, alphas)
    gamma_m = 1.0 + 1.0 / Gm
    pi_m = Pm / (Gm + 1.0)
    return np.sqrt(np.maximum(gamma_m * (p + pi_m), 0.0) / rho)


def _speed_squared(vel):
    out = vel[0] * vel[0]
    for d in range(1, vel.shape[0]):
        out = out + vel[d] * vel[d]
    return out


def oracle_alphas(lay, advected):
    alphas = np.empty((lay.ncomp,) + advected.shape[1:], dtype=advected.dtype)
    if lay.n_advected:
        np.clip(advected, ALPHA_FLOOR, 1.0 - ALPHA_FLOOR, out=alphas[:-1])
        alphas[-1] = 1.0 - alphas[:-1].sum(axis=0)
        np.clip(alphas[-1], ALPHA_FLOOR, 1.0, out=alphas[-1])
    else:
        alphas[0] = 1.0
    return alphas


def oracle_cons_to_prim(lay, mix, q):
    prim = np.empty_like(q)
    rho = q[lay.partial_densities].sum(axis=0)
    prim[lay.partial_densities] = q[lay.partial_densities]
    vel = q[lay.momentum] * (1.0 / rho)
    prim[lay.velocity] = vel
    alphas = oracle_alphas(lay, q[lay.advected])
    rho_e = q[lay.energy] - 0.5 * rho * _speed_squared(vel)
    Gm, Pm = _gamma_pi(mix, alphas)
    prim[lay.pressure] = (rho_e - Pm) / Gm
    prim[lay.advected] = alphas[:lay.n_advected]
    return prim


def oracle_prim_to_cons(lay, mix, prim):
    q = np.empty_like(prim)
    q[lay.partial_densities] = prim[lay.partial_densities]
    rho = prim[lay.partial_densities].sum(axis=0)
    vel = prim[lay.velocity]
    q[lay.momentum] = rho * vel
    Gm, Pm = _gamma_pi(mix, oracle_alphas(lay, prim[lay.advected]))
    q[lay.energy] = (Gm * prim[lay.pressure] + Pm
                     + 0.5 * rho * _speed_squared(vel))
    q[lay.advected] = prim[lay.advected]
    return q


def oracle_wave_rate(lay, mix, prim, widths):
    rho = prim[lay.partial_densities].sum(axis=0)
    c = _sound_speed(mix, oracle_alphas(lay, prim[lay.advected]), rho,
                     prim[lay.pressure])
    stacked = prim.ndim == lay.ndim + 2
    rate = np.zeros(prim.shape[1], dtype=prim.dtype) if stacked else 0.0
    for d, w in enumerate(widths):
        w = np.asarray(w, dtype=prim.dtype)
        ratio = (np.abs(prim[lay.momentum_component(d)]) + c) / w
        if stacked:
            rate = np.maximum(rate, ratio.max(axis=tuple(
                range(1, 1 + lay.ndim))))
        else:
            rate = max(rate, float(ratio.max()))
    return rate


class Faces:
    """One side's decomposition, spelled with fresh temporaries."""

    def __init__(self, lay, mix, prim, d):
        self.prim, self.rho = prim, prim[lay.partial_densities].sum(axis=0)
        self.p, self.un = prim[lay.pressure], prim[lay.momentum_component(d)]
        self.c = _sound_speed(mix, oracle_alphas(lay, prim[lay.advected]),
                              self.rho, self.p)
        self.cons = oracle_prim_to_cons(lay, mix, prim)
        flux = np.empty_like(self.cons)
        flux[lay.partial_densities] = self.cons[lay.partial_densities] * self.un
        flux[lay.momentum] = self.cons[lay.momentum] * self.un
        flux[lay.momentum_component(d)] += self.p
        flux[lay.energy] = (self.cons[lay.energy] + self.p) * self.un
        flux[lay.advected] = prim[lay.advected] * self.un
        self.flux = flux


def _advect(lay, flux, prim_l, prim_r, u_face):
    if lay.n_advected:
        flux[lay.advected] = np.where(u_face >= 0.0, prim_l[lay.advected],
                                      prim_r[lay.advected]) * u_face


def _star(lay, K, s_k, s_star, d):
    factor = (s_k - K.un) / (s_k - s_star)
    q = np.empty_like(K.cons)
    q[lay.partial_densities] = K.cons[lay.partial_densities] * factor
    rho_star = K.rho * factor
    q[lay.momentum] = K.cons[lay.momentum] * factor
    q[lay.momentum_component(d)] = rho_star * s_star
    e_k = K.cons[lay.energy] / K.rho
    q[lay.energy] = rho_star * (
        e_k + (s_star - K.un) * (s_star + K.p / (K.rho * (s_k - K.un))))
    q[lay.advected] = K.cons[lay.advected] * factor
    return K.flux + s_k * (q - K.cons)


def oracle_riemann(solver, lay, mix, prim_l, prim_r, d):
    """``(flux, u_face)`` of the HLLC / HLL / Rusanov fluxes."""
    L, R = Faces(lay, mix, prim_l, d), Faces(lay, mix, prim_r, d)
    if solver == "rusanov":
        s_max = np.maximum(np.abs(L.un) + L.c, np.abs(R.un) + R.c)
        flux = 0.5 * (L.flux + R.flux) - 0.5 * s_max * (R.cons - L.cons)
        u_face = 0.5 * (L.un + R.un)
    else:
        s_l = np.minimum(L.un - L.c, R.un - R.c)
        s_r = np.maximum(L.un + L.c, R.un + R.c)
    if solver == "hll":
        den = s_r - s_l
        tiny = np.finfo(den.dtype).tiny
        middle = (s_r * L.flux - s_l * R.flux + s_l * s_r * (R.cons - L.cons)
                  ) / np.where(np.abs(den) < tiny, 1.0, den)
        middle = np.where(np.abs(den) < tiny, L.flux, middle)
        flux = np.where(s_l >= 0.0, L.flux,
                        np.where(s_r <= 0.0, R.flux, middle))
        u_face = np.where(s_l >= 0.0, L.un, np.where(
            s_r <= 0.0, R.un, 0.5 * (L.un + R.un)))
    if solver == "hllc":
        num = (R.p - L.p + L.rho * L.un * (s_l - L.un)
               - R.rho * R.un * (s_r - R.un))
        den = L.rho * (s_l - L.un) - R.rho * (s_r - R.un)
        tiny = np.finfo(den.dtype).tiny
        s_star = num / np.where(np.abs(den) < tiny, tiny, den)
        s_star = np.where(np.abs(den) < tiny, 0.5 * (L.un + R.un), s_star)
        star_l, star_r = (_star(lay, L, s_l, s_star, d),
                          _star(lay, R, s_r, s_star, d))
        flux = np.where(s_l >= 0.0, L.flux, R.flux)
        flux = np.where((s_l < 0.0) & (s_star >= 0.0), star_l, flux)
        flux = np.where((s_star < 0.0) & (s_r >= 0.0), star_r, flux)
        u_face = np.where(s_l >= 0.0, L.un,
                          np.where(s_r <= 0.0, R.un, s_star))
    _advect(lay, flux, prim_l, prim_r, u_face)
    return flux, u_face


def oracle_unphysical(lay, mix, prim):
    bad = (prim[lay.partial_densities] <= 0.0).any(axis=0)
    Gm, Pm = _gamma_pi(mix, oracle_alphas(lay, prim[lay.advected]))
    pi_m = Pm / (Gm + 1.0)
    bad |= prim[lay.pressure] <= -pi_m + PRESSURE_MARGIN * (pi_m + 1.0)
    return bad | ~np.isfinite(prim).all(axis=0)


# ----------------------------------------------------------------------
# Draws
# ----------------------------------------------------------------------
@st.composite
def fields(draw, *, batched=None):
    """``(layout, mixture, prim, dtype)``: a random physical primitive
    field, 1-3D, 1-3 components, maybe batch-stacked, float64/32."""
    ndim, ncomp = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lay = StateLayout(ncomp, ndim)
    mix = Mixture(FLUIDS[:ncomp])
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=ndim,
                                max_size=ndim)))
    if batched if batched is not None else draw(st.booleans()):
        shape = (draw(st.integers(1, 4)),) + shape
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    prim = np.empty((lay.nvars, *shape))
    prim[lay.partial_densities] = rng.uniform(0.1, 2.0, (ncomp, *shape))
    prim[lay.velocity] = rng.uniform(-1.0, 1.0, (ndim, *shape))
    prim[lay.pressure] = rng.uniform(0.5, 3.0, shape)
    prim[lay.advected] = rng.uniform(0.05, 0.95, (ncomp - 1, *shape))
    return lay, mix, prim.astype(dtype), dtype


@st.composite
def spans(draw, extent):
    """A random partition of ``range(extent)``: uneven, single-row spans
    included."""
    cuts = sorted(draw(st.sets(st.integers(1, extent - 1),
                               max_size=extent - 1)) if extent > 1 else [])
    edges = [0, *cuts, extent]
    return list(zip(edges[:-1], edges[1:]))


class Shape:
    """The grid stand-in a workspace needs: its spatial shape."""

    def __init__(self, shape):
        self.shape = shape


def tiles_for(lay, field, rows, pool):
    """A workspace over ``field``'s shape cut into ``rows``, its tile
    scratch pool ``pool`` elements long (0: every tile outgrows it)."""
    batched = field.ndim == lay.ndim + 2
    ws = SolverWorkspace(lay, Shape(field.shape[1 + batched:]), 1,
                         dtype=field.dtype, rows=rows,
                         batch=field.shape[1] if batched else None)
    ws._pool = np.empty(pool, dtype=field.dtype) if pool else None
    return ws


def widths_for(lay, prim, rng):
    shape = prim.shape[-lay.ndim:]
    out = []
    for d in range(lay.ndim):
        w = np.ones(lay.ndim, dtype=int)
        w[d] = shape[d]
        out.append(rng.uniform(0.5, 2.0, tuple(w)))
    return out


# ----------------------------------------------------------------------
class TestTileBodies:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), fields(), st.sampled_from([0, 64, 100000]))
    def test_cons_to_prim_any_row_tiling(self, data, field, pool):
        lay, mix, prim, _ = field
        q = oracle_prim_to_cons(lay, mix, prim)
        rows = data.draw(spans(q.shape[1]))
        ref = oracle_cons_to_prim(lay, mix, q)
        ws = tiles_for(lay, q, rows, pool)
        got = cons_to_prim(lay, mix, q, out=ws.prim, tiles=ws)
        assert got is ws.prim and got.tobytes() == ref.tobytes()
        # The default (no workspace) and allocating spellings agree too.
        assert cons_to_prim(lay, mix, q).tobytes() == ref.tobytes()
        assert prim_to_cons(lay, mix, prim).tobytes() == q.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.data(), fields(batched=False))
    def test_cons_to_prim_on_fold_slabs(self, data, field):
        """A folded launch converts slabs of its first sweep's slab axis
        — array axis 2 in 2D/3D — through strided views."""
        lay, mix, prim, _ = field
        q = oracle_prim_to_cons(lay, mix, prim)
        axis = 2 if lay.ndim > 1 else 1
        out = np.full_like(q, np.nan)
        for lo, hi in data.draw(spans(q.shape[axis])):
            idx = (slice(None),) * axis + (slice(lo, hi),)
            cons_to_prim_tile(lay, mix, q[idx], out[idx],
                              Scratch(None, xp=np, dtype=q.dtype))
        assert out.tobytes() == oracle_cons_to_prim(lay, mix, q).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data(), fields(), st.sampled_from([0, 100000]))
    def test_wave_rate_any_tiling(self, data, field, pool):
        lay, mix, prim, _ = field
        rng = np.random.default_rng(0)
        widths = widths_for(lay, prim, rng)
        ref = oracle_wave_rate(lay, mix, prim, widths)
        ws = tiles_for(lay, prim, data.draw(spans(prim.shape[1])), pool)
        got = wave_rate(lay, mix, prim, widths, tiles=ws)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        if prim.ndim == lay.ndim + 1 and lay.ndim > 1:
            # The fold's merge over slabs of another axis.
            rate = 0.0
            for lo, hi in data.draw(spans(prim.shape[2])):
                idx = (slice(None), slice(None), slice(lo, hi))
                rate = max_rate(rate, wave_rate_tile(
                    lay, mix, prim[idx], [tile_of(w, idx[1:]) for w in widths],
                    Scratch(None, xp=np, dtype=prim.dtype)))
            assert rate == ref

    @settings(max_examples=60, deadline=None)
    @given(st.data(), fields(), st.sampled_from(["apart", "q_k", "q_n"]),
           st.sampled_from(SSP_SCHEMES[3]))
    def test_combine_any_tiling(self, data, field, alias, abc):
        lay, mix, prim, dtype = field
        rng = np.random.default_rng(1)
        q_n, q_k, L = (rng.standard_normal(prim.shape).astype(dtype)
                       for _ in range(3))
        a, b, c = abc
        if prim.ndim == lay.ndim + 2 and dtype == np.float64:
            # A batch's per-case dt field (batches march in float64).
            dt = rng.uniform(1e-4, 1e-2, (prim.shape[1],) + (1,) * lay.ndim)
        else:
            dt = float(rng.uniform(1e-4, 1e-2))
        ref = a * q_n + b * q_k + (c * dt) * L
        out = {"apart": np.empty_like(q_n), "q_k": q_k, "q_n": q_n}[alias]
        ws = tiles_for(lay, q_n, data.draw(spans(q_n.shape[1])), 100000)
        shu_osher_combine(q_n, q_k, L, out, a, b, c * dt, tiles=ws)
        assert out.tobytes() == ref.tobytes()


class TestRiemannAndLimiter:
    @settings(max_examples=40, deadline=None)
    @given(fields(), st.sampled_from(["hllc", "hll", "rusanov"]),
           st.sampled_from(["reference", "fused"]), st.booleans())
    def test_solvers_match_the_oracle(self, field, solver, variant, spare):
        """Face states stand in for ``prim`` (any array is a face block);
        with a spare block the per-face temporaries are carved from it."""
        lay, mix, prim_l, dtype = field
        rng = np.random.default_rng(2)
        prim_r = prim_l[:, ...].copy()
        prim_r[lay.velocity] = rng.uniform(-1.0, 1.0,
                                           prim_r[lay.velocity].shape)
        prim_r[lay.pressure] *= 1.5
        d = lay.ndim - 1
        ref = oracle_riemann(solver, lay, mix, prim_l, prim_r, d)
        flux_fn = resolve_riemann_flux(solver, variant)
        got = flux_fn(lay, mix, prim_l, prim_r, d)
        scr = RiemannScratch(prim_l.shape, dtype=dtype)
        if spare:
            scr.spare = np.empty((64, *prim_l.shape[1:]), dtype=dtype)
        out = (np.empty_like(prim_l), np.empty_like(prim_l[0]))
        via = flux_fn(lay, mix, prim_l, prim_r, d, out=out[0], out_u=out[1],
                      scratch=scr)
        for pair in (got, via):
            assert [a.tobytes() for a in pair] == [a.tobytes() for a in ref]

    @settings(max_examples=30, deadline=None)
    @given(fields(batched=False), st.integers(0, 2**31 - 1))
    def test_limiter_matches_the_oracle(self, field, seed):
        lay, mix, prim, dtype = field
        rng = np.random.default_rng(seed)
        v_l, v_r = prim.copy(), prim.copy()
        for v in (v_l, v_r):  # a few unphysical faces
            v[lay.pressure][rng.random(v[lay.pressure].shape) < 0.2] = -5.0
        padded = np.concatenate([prim, prim], axis=1)
        refs = [v.copy() for v in (v_l, v_r)]
        count = 0
        for v, off in zip(refs, (0, 1)):
            bad = oracle_unphysical(lay, mix, v)
            v[:, bad] = padded[:, off:off + v.shape[1]][:, bad]
            count += int(bad.sum())
        scr = RiemannScratch(prim.shape, dtype=dtype)
        scr.spare = np.empty((32, *prim.shape[1:]), dtype=dtype)
        assert limit_face_states(lay, mix, padded, v_l, v_r, 0, 1,
                                 scratch=scr) == count
        assert [v.tobytes() for v in (v_l, v_r)] == [
            v.tobytes() for v in refs]


# ----------------------------------------------------------------------
class TestFoldedStep:
    @pytest.mark.parametrize("shape,launches", [((26, 22), 6),
                                                ((12, 9, 8), 9)])
    @pytest.mark.parametrize("kwargs", [{}, {"retry": RetryPolicy()},
                                        {"fixed_dt": 1e-4}])
    def test_one_launch_per_direction_and_stage(self, shape, launches,
                                                kwargs):
        """Conversion, CFL rate, zeroing, the nonconservative term and the
        combination ride in the sweeps' own launches: none is added."""
        bcs = BoundarySet.all_periodic(len(shape))
        ref = Simulation(bubble_case(shape), bcs, threads=1, **kwargs)
        with Simulation(bubble_case(shape), bcs,
                        tuning={"tiles": 4, "threads": 2}, **kwargs) as sim:
            gang = sim.rhs.executor
            for _ in range(3):
                before = gang.launches
                sim.step()
                ref.step()
                assert gang.launches - before == launches
            assert sim.q.tobytes() == ref.q.tobytes()
            assert sim.time == ref.time
            # The step's output is the shared result buffer: the next
            # step's input, reachable by every member without a copy.
            assert sim.q is sim.rhs.workspace.rk_result

    @pytest.mark.parametrize("mode", ["serial", "gang", "ranks=2"])
    def test_nan_cell_raises_at_the_first_step(self, mode):
        bcs = BoundarySet.all_periodic(2)
        kwargs = {"serial": {"threads": 1},
                  "gang": {"tuning": {"tiles": 4, "threads": 2}},
                  "ranks=2": {"ranks": 2}}[mode]
        with Simulation(bubble_case((26, 22)), bcs, **kwargs) as sim:
            sim.q[sim.layout.energy, 20, 7] = np.nan  # one cell, one tile
            with pytest.raises(NumericsError, match="wave rate nan"):
                sim.run(n_steps=3)
            assert sim.step_count == 0

    def test_nan_cell_in_a_stacked_case_names_it(self):
        cases = [bubble_case((16, 12)) for _ in range(3)]
        with EnsembleSimulation(cases, BoundarySet.all_periodic(2)) as ens:
            ens.q[ens.layout.energy, 1, 3, 5] = np.nan
            with pytest.raises(NumericsError, match="nan for ensemble case 1"):
                ens.step()
            assert ens.step_count == 0

    @settings(max_examples=20, deadline=None)
    @given(fields(batched=False), st.integers(0, 2**31 - 1))
    def test_a_nan_anywhere_makes_the_rate_nan(self, field, seed):
        lay, mix, prim, _ = field
        rng = np.random.default_rng(seed)
        cell = tuple(int(rng.integers(n)) for n in prim.shape[1:])
        prim[(int(rng.integers(lay.nvars)), *cell)] = np.nan
        widths = widths_for(lay, prim, rng)
        rows = [(i, i + 1) for i in range(prim.shape[1])]
        rate = wave_rate(lay, mix, prim, widths,
                         tiles=tiles_for(lay, prim, rows, 0))
        assert rate != rate
