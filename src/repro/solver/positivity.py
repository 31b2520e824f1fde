"""Positivity-preserving fallback for reconstructed face states.

High-order WENO reconstruction of primitives can overshoot near extreme
interfaces (a water-air face has a ~1000:1 density jump), producing
negative partial densities or pressures below the mixture's
:math:`-\\pi_{\\infty,m}` — states the EOS cannot evaluate.  Production
multiphase solvers (MFC included) guard against this by locally
reverting to first-order (donor-cell) face values wherever the
high-order state is unphysical; the scheme loses an order at those few
faces and keeps its stability everywhere else.
"""

from __future__ import annotations

import numpy as np

from repro.backend import array_namespace
from repro.common.scratch import fresh
from repro.eos.mixture import Mixture
from repro.state.conversions import full_alphas
from repro.state.layout import StateLayout

#: Safety margin: a face pressure must exceed -pi_m by this fraction of
#: the mixture stiffness (plus a tiny absolute floor for ideal gases).
PRESSURE_MARGIN = 1e-6


def pressure_floor(layout: StateLayout, mixture: Mixture, prim, new=None):
    """The lowest admissible pressure :math:`-\\pi_m + \\epsilon(\\pi_m + 1)`
    of each state in ``prim`` (temporaries from ``new(shape)``)."""
    xp = array_namespace(prim)
    new = fresh(prim) if new is None else new
    alphas = full_alphas(layout, prim[layout.advected],
                         out=new((layout.ncomp,) + prim.shape[1:]))
    Gm, Pm = mixture.gamma_pi(alphas, new=new)
    pi_m = xp.true_divide(Pm, xp.add(Gm, 1.0, out=Gm), out=Pm)
    margin = xp.multiply(PRESSURE_MARGIN, xp.add(pi_m, 1.0, out=Gm), out=Gm)
    return xp.add(xp.negative(pi_m, out=pi_m), margin, out=pi_m)


def _unphysical(layout: StateLayout, mixture: Mixture, prim: np.ndarray,
                new) -> np.ndarray:
    """Boolean mask (per face) where the state cannot be evaluated."""
    xp = array_namespace(prim)
    bad = (prim[layout.partial_densities] <= 0.0).any(axis=0)
    with new.frame():
        bad |= prim[layout.pressure] <= pressure_floor(layout, mixture, prim,
                                                       new)
    bad |= ~xp.isfinite(prim).all(axis=0)
    return bad


def limit_face_states(layout: StateLayout, mixture: Mixture, padded: np.ndarray,
                      v_l: np.ndarray, v_r: np.ndarray, axis: int, ng: int,
                      scratch=None) -> int:
    """Replace unphysical face states with donor-cell values, in place.

    ``padded`` is the per-axis ghost-padded primitive field the
    reconstruction ran on; ``v_l``/``v_r`` are its left/right face
    states along spatial ``axis`` (variable axis 0).  Returns the number
    of face states that were limited (for diagnostics).  ``scratch``, a
    :class:`~repro.riemann.common.RiemannScratch`, lends its spare block
    to the per-face temporaries.
    """
    new = fresh(v_l) if scratch is None else scratch.new()
    ax = axis + 1
    nf = v_l.shape[ax]

    def faces(arr, start):
        idx = [slice(None)] * arr.ndim
        idx[ax] = slice(start, start + nf)
        return arr[tuple(idx)]

    limited = 0
    for v, offset in ((v_l, ng - 1), (v_r, ng)):
        bad = _unphysical(layout, mixture, v, new)
        if bool(bad.any()):
            donor = faces(padded, offset)
            v[:, bad] = donor[:, bad]
            limited += int(bad.sum())
    return limited
