"""Rusanov (local Lax-Friedrichs) flux — the simplest, most dissipative baseline."""

from __future__ import annotations

import numpy as np

from repro.backend import array_namespace
from repro.eos.mixture import Mixture
from repro.riemann.common import (
    advect_volume_fractions,
    decompose_sides,
    solve_buffers,
)
from repro.state.layout import StateLayout


def rusanov_flux(layout: StateLayout, mixture: Mixture,
                 prim_l: np.ndarray, prim_r: np.ndarray, direction: int,
                 *, out: np.ndarray | None = None,
                 out_u: np.ndarray | None = None,
                 scratch=None):
    """Rusanov flux and interface velocity; same interface as :func:`hllc_flux`."""
    new, _, _, dissipation = solve_buffers(prim_l, scratch)
    L, R = decompose_sides(layout, mixture, prim_l, prim_r, direction,
                           scratch, new)

    xp = array_namespace(L.un, R.un)
    s_max, a = new(L.un.shape), new(L.un.shape)
    xp.maximum(xp.add(xp.abs(L.un, out=s_max), L.c, out=s_max),
               xp.add(xp.abs(R.un, out=a), R.c, out=a), out=s_max)
    # 0.5 * s_max * (R.cons - L.cons)
    xp.subtract(R.cons, L.cons, out=dissipation)
    xp.multiply(xp.multiply(0.5, s_max, out=s_max), dissipation,
                out=dissipation)
    flux = xp.empty_like(L.flux) if out is None else out
    xp.add(L.flux, R.flux, out=flux)
    xp.multiply(flux, 0.5, out=flux)
    xp.subtract(flux, dissipation, out=flux)
    u_face = xp.empty_like(s_max) if out_u is None else out_u
    xp.add(L.un, R.un, out=u_face)
    xp.multiply(u_face, 0.5, out=u_face)
    advect_volume_fractions(layout, flux, prim_l, prim_r, u_face)
    return flux, u_face
