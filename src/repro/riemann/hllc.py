"""HLLC approximate Riemann solver (Toro), adapted to the five-equation model.

This is MFC's production flux and — with WENO — one of the two kernels
the paper's roofline and breakdown figures track.  Wave-speed estimates
are the Davis bounds; the contact speed and star states follow Toro's
restoration of the contact wave, with every "density-like" conserved
variable (partial densities and advected volume fractions) scaled by the
same star-region compression factor.
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


def hllc_flux(layout: StateLayout, mixture: Mixture,
              prim_l: np.ndarray, prim_r: np.ndarray, direction: int,
              *, out: np.ndarray | None = None,
              out_u: np.ndarray | None = None,
              scratch=None):
    """HLLC flux and interface velocity for batched face states.

    Parameters
    ----------
    prim_l, prim_r:
        Primitive states just left/right of each face, shape ``(nvars, ...)``.
    direction:
        Face-normal dimension index.
    out, out_u:
        Optional preallocated destinations for the flux and interface
        velocity (workspace buffers); results are bitwise identical to
        the allocating path.
    scratch:
        Optional :class:`~repro.riemann.common.RiemannScratch` whose
        buffers absorb the field-sized temporaries (decomposed
        conservative states, physical fluxes, star fluxes) and whose
        spare block, when it has one, the per-face ones (wave speeds,
        sound speeds, EOS intermediates).  Without it they are
        allocated; the ufuncs are the same either way.

    Returns
    -------
    (flux, u_face):
        ``flux`` has the shape of the inputs; ``u_face`` the shape of one
        variable.  ``u_face`` is the x/t = 0 sample of the interface
        velocity (``S*`` inside the star region), which the RHS uses for
        the nonconservative volume-fraction source.
    """
    xp = array_namespace(prim_l, prim_r)
    new, star_l, star_r, q_star = solve_buffers(prim_l, scratch)
    L, R = decompose_sides(layout, mixture, prim_l, prim_r, direction,
                           scratch, new)
    shape = L.un.shape
    s_l, s_r, s_star = new(shape), new(shape), new(shape)
    with new.frame():
        a, b = new(shape), new(shape)
        # Davis wave-speed estimates.
        xp.minimum(xp.subtract(L.un, L.c, out=s_l),
                   xp.subtract(R.un, R.c, out=a), out=s_l)
        xp.maximum(xp.add(L.un, L.c, out=s_r), xp.add(R.un, R.c, out=a),
                   out=s_r)

        # Contact speed, ``R.p - L.p + L.rho*L.un*(s_l - L.un) -
        # R.rho*R.un*(s_r - R.un)`` over ``L.rho*(s_l - L.un) -
        # R.rho*(s_r - R.un)``.  The denominator vanishes only for
        # identical states with zero normal-velocity jump, where any
        # finite S* gives the same flux; guard it to avoid 0/0.
        num = xp.subtract(R.p, L.p, out=new(shape))
        xp.multiply(xp.multiply(L.rho, L.un, out=a),
                    xp.subtract(s_l, L.un, out=b), out=a)
        xp.add(num, a, out=num)
        xp.multiply(xp.multiply(R.rho, R.un, out=a),
                    xp.subtract(s_r, R.un, out=b), out=a)
        xp.subtract(num, a, out=num)
        den = xp.multiply(L.rho, xp.subtract(s_l, L.un, out=a), out=a)
        xp.subtract(den, xp.multiply(R.rho, xp.subtract(s_r, R.un, out=b),
                                     out=b), out=den)
        tiny = xp.finfo(den.dtype).tiny
        small = xp.abs(den, out=b) < tiny
        xp.copyto(den, tiny, where=small)  # the guarded denominator
        xp.true_divide(num, den, out=s_star)
        xp.copyto(s_star, xp.multiply(0.5, xp.add(L.un, R.un, out=a), out=a),
                  where=small)

    _star_flux(layout, L, s_l, s_star, direction, star_l, q_star, new, xp)
    _star_flux(layout, R, s_r, s_star, direction, star_r, q_star, new, xp)
    in_star_l = (s_l < 0.0) & (s_star >= 0.0)
    in_star_r = (s_star < 0.0) & (s_r >= 0.0)
    # The selection of ``where(s_l >= 0, F_L, F_R)``, then the star
    # fluxes inside the fan, element for element.
    flux = xp.empty_like(L.flux) if out is None else out
    xp.copyto(flux, R.flux)
    xp.copyto(flux, L.flux, where=s_l >= 0.0)
    xp.copyto(flux, star_l, where=in_star_l)
    xp.copyto(flux, star_r, where=in_star_r)

    u_face = xp.empty_like(s_star) if out_u is None else out_u
    xp.copyto(u_face, s_star)
    xp.copyto(u_face, R.un, where=s_r <= 0.0)
    xp.copyto(u_face, L.un, where=s_l >= 0.0)
    advect_volume_fractions(layout, flux, prim_l, prim_r, u_face)
    return flux, u_face


def _star_flux(layout: StateLayout, K, s_k, s_star, direction: int, out,
               q_star, new, xp=np):
    """``F_K + S_K (q*_K - q_K)`` for one side of the fan, into ``out``."""
    shape = K.un.shape
    with new.frame():
        factor, rho_star, a, b = (new(shape) for _ in range(4))
        xp.true_divide(xp.subtract(s_k, K.un, out=factor),
                       xp.subtract(s_k, s_star, out=a), out=factor)
        xp.multiply(K.cons[layout.partial_densities], factor,
                    out=q_star[layout.partial_densities])
        xp.multiply(K.rho, factor, out=rho_star)

        # Tangential momentum advects unchanged velocity; normal carries S*.
        xp.multiply(K.cons[layout.momentum], factor,
                    out=q_star[layout.momentum])
        xp.multiply(rho_star, s_star,
                    out=q_star[layout.momentum_component(direction)])

        # rho* (e + (S* - u)(S* + p / (rho (S - u)))), e = E / rho.
        e_k = xp.true_divide(K.cons[layout.energy], K.rho, out=a)
        xp.multiply(K.rho, xp.subtract(s_k, K.un, out=b), out=b)
        xp.add(s_star, xp.true_divide(K.p, b, out=b), out=b)
        energy = xp.subtract(s_star, K.un, out=q_star[layout.energy])
        xp.add(e_k, xp.multiply(energy, b, out=energy), out=energy)
        xp.multiply(rho_star, energy, out=energy)

        xp.multiply(K.cons[layout.advected], factor,
                    out=q_star[layout.advected])
    xp.subtract(q_star, K.cons, out=q_star)
    xp.multiply(q_star, s_k, out=q_star)
    xp.add(K.flux, q_star, out=out)
    return out
