"""HLL approximate Riemann solver (two-wave baseline).

More dissipative than HLLC at contact discontinuities — which is exactly
where a diffuse-interface multiphase solver lives — so it serves as the
"why HLLC" baseline in tests and ablation benches.
"""

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


def hll_flux(layout: StateLayout, mixture: Mixture,
             prim_l: np.ndarray, prim_r: np.ndarray, direction: int,
             *, out: np.ndarray | None = None,
             out_u: np.ndarray | None = None,
             scratch=None):
    """HLL flux and interface velocity; same interface as :func:`hllc_flux`."""
    new, _, _, work = solve_buffers(prim_l, scratch)
    L, R = decompose_sides(layout, mixture, prim_l, prim_r, direction,
                           scratch, new)

    xp = array_namespace(L.un, R.un)
    shape = L.un.shape
    s_l, s_r, a = new(shape), new(shape), new(shape)
    xp.minimum(xp.subtract(L.un, L.c, out=s_l),
               xp.subtract(R.un, R.c, out=a), out=s_l)
    xp.maximum(xp.add(L.un, L.c, out=s_r), xp.add(R.un, R.c, out=a),
               out=s_r)

    # Single-state middle flux ``(s_r*F_L - s_l*F_R + s_l*s_r*(q_R - q_L))
    # / den`` in ``flux``; guard s_r == s_l (identical silent states).
    den = xp.subtract(s_r, s_l, out=new(shape))
    tiny = xp.finfo(den.dtype).tiny
    small = xp.abs(den, out=a) < tiny
    xp.copyto(den, 1.0, where=small)
    flux = middle = xp.empty_like(L.flux) if out is None else out
    xp.multiply(s_r, L.flux, out=middle)
    xp.subtract(middle, xp.multiply(s_l, R.flux, out=work), out=middle)
    xp.subtract(R.cons, L.cons, out=work)
    xp.add(middle, xp.multiply(xp.multiply(s_l, s_r, out=a), work, out=work),
           out=middle)
    xp.true_divide(middle, den, out=middle)
    xp.copyto(middle, L.flux, where=small)
    xp.copyto(flux, R.flux, where=s_r <= 0.0)
    xp.copyto(flux, L.flux, where=s_l >= 0.0)

    # HLL has no contact wave; use the Roe-like average bounded by the fan.
    u_face = xp.empty_like(s_l) if out_u is None else out_u
    xp.multiply(0.5, xp.add(L.un, R.un, out=u_face), out=u_face)
    xp.copyto(u_face, R.un, where=s_r <= 0.0)
    xp.copyto(u_face, L.un, where=s_l >= 0.0)
    advect_volume_fractions(layout, flux, prim_l, prim_r, u_face)
    return flux, u_face
