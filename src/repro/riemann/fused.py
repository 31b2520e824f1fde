"""Wave-speed-fused HLLC variant (kernel registry entry ``"fused"``).

Bitwise identical to :func:`repro.riemann.hllc.hllc_flux` — every output
element is produced by the same scalar operation sequence on the same
operands — but with the repeated subexpressions of the reference kernel
computed once and reused:

* ``s_l - L.un`` / ``s_r - R.un`` each appear four times in the
  reference (contact-speed numerator, denominator, star compression
  factor, star energy term); here each is one subtraction.
* ``abs(den)`` and the ``s_l >= 0`` mask are evaluated once instead of
  twice.

Caching a subexpression never changes its bits — only re-association
would, and the groupings below mirror the reference's left-to-right
evaluation exactly (``a + b*c - d*e`` is ``((a + (b*c)) - (d*e))``).
This is the host analog of the paper's fused wave-speed kernels: fewer
memory sweeps over face-sized temporaries, same arithmetic.
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


def hllc_flux_fused(layout: StateLayout, mixture: Mixture,
                    prim_l: np.ndarray, prim_r: np.ndarray, direction: int,
                    *, out: np.ndarray | None = None,
                    out_u: np.ndarray | None = None,
                    scratch=None):
    """Fused-subexpression HLLC; same interface as ``hllc_flux``."""
    xp = array_namespace(prim_l, prim_r)
    new, star_l, star_r, q_star = solve_buffers(prim_l, scratch)
    L, R = decompose_sides(layout, mixture, prim_l, prim_r, direction,
                           scratch, new)
    shape = L.un.shape
    s_l, s_r, s_star = new(shape), new(shape), new(shape)
    # Cached signal-speed differences (reference computes each 4x).
    dl, dr = new(shape), new(shape)
    with new.frame():
        a, b = new(shape), new(shape)
        # Davis wave-speed estimates.
        xp.minimum(xp.subtract(L.un, L.c, out=s_l),
                   xp.subtract(R.un, R.c, out=a), out=s_l)
        xp.maximum(xp.add(L.un, L.c, out=s_r), xp.add(R.un, R.c, out=a),
                   out=s_r)
        xp.subtract(s_l, L.un, out=dl)
        xp.subtract(s_r, R.un, out=dr)

        # Contact speed; grouping mirrors the reference's left-to-right
        # ``R.p - L.p + L.rho*L.un*dl - R.rho*R.un*dr`` exactly.
        num = xp.subtract(R.p, L.p, out=new(shape))
        xp.add(num, xp.multiply(xp.multiply(L.rho, L.un, out=a), dl, out=a),
               out=num)
        xp.subtract(num, xp.multiply(xp.multiply(R.rho, R.un, out=a), dr,
                                     out=a), out=num)
        den = xp.subtract(xp.multiply(L.rho, dl, out=a),
                          xp.multiply(R.rho, dr, out=b), out=a)
        tiny = xp.finfo(den.dtype).tiny
        small = xp.abs(den, out=b) < tiny
        xp.copyto(den, tiny, where=small)  # the guarded denominator
        xp.true_divide(num, den, out=s_star)
        xp.copyto(s_star, xp.multiply(0.5, xp.add(L.un, R.un, out=a), out=a),
                  where=small)

    _star_flux_fused(layout, L, s_l, s_star, dl, direction, star_l, q_star,
                     new, xp)
    _star_flux_fused(layout, R, s_r, s_star, dr, direction, star_r, q_star,
                     new, xp)
    ge_l = s_l >= 0.0
    in_star_l = (s_l < 0.0) & (s_star >= 0.0)
    in_star_r = (s_star < 0.0) & (s_r >= 0.0)
    flux = xp.empty_like(L.flux) if out is None else out
    xp.copyto(flux, R.flux)
    xp.copyto(flux, L.flux, where=ge_l)
    xp.copyto(flux, star_l, where=in_star_l)
    xp.copyto(flux, star_r, where=in_star_r)

    u_face = xp.empty_like(s_star) if out_u is None else out_u
    xp.copyto(u_face, s_star)
    xp.copyto(u_face, R.un, where=s_r <= 0.0)
    xp.copyto(u_face, L.un, where=ge_l)
    advect_volume_fractions(layout, flux, prim_l, prim_r, u_face)
    return flux, u_face


def _star_flux_fused(layout: StateLayout, K, s_k, s_star, dk,
                     direction: int, out, q_star, new, xp=np):
    """``F_K + S_K (q*_K - q_K)`` with the cached ``dk = s_k - K.un``."""
    shape = K.un.shape
    with new.frame():
        factor, rho_star, a, b = (new(shape) for _ in range(4))
        xp.true_divide(dk, xp.subtract(s_k, s_star, out=a), out=factor)
        xp.multiply(K.cons[layout.partial_densities], factor,
                    out=q_star[layout.partial_densities])
        xp.multiply(K.rho, factor, out=rho_star)

        xp.multiply(K.cons[layout.momentum], factor,
                    out=q_star[layout.momentum])
        xp.multiply(rho_star, s_star,
                    out=q_star[layout.momentum_component(direction)])

        e_k = xp.true_divide(K.cons[layout.energy], K.rho, out=a)
        xp.add(s_star, xp.true_divide(K.p, xp.multiply(K.rho, dk, out=b),
                                      out=b), out=b)
        energy = xp.subtract(s_star, K.un, out=q_star[layout.energy])
        xp.add(e_k, xp.multiply(energy, b, out=energy), out=energy)
        xp.multiply(rho_star, energy, out=energy)

        xp.multiply(K.cons[layout.advected], factor,
                    out=q_star[layout.advected])
    xp.subtract(q_star, K.cons, out=q_star)
    xp.multiply(q_star, s_k, out=q_star)
    xp.add(K.flux, q_star, out=out)
    return out
