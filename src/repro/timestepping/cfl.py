"""CFL-based time-step selection."""

from __future__ import annotations

import numpy as np

from repro.backend import array_namespace
from repro.common import NumericsError
from repro.eos.mixture import Mixture
from repro.grid.cartesian import StructuredGrid
from repro.state.conversions import full_alphas
from repro.state.layout import StateLayout


def wave_rate(layout: StateLayout, mixture: Mixture, prim: np.ndarray,
              widths) -> float | np.ndarray:
    """Largest :math:`(|u_d| + c)/\\Delta x_d` over all cells and directions.

    The one spelling of the quantity whose reciprocal bounds the stable
    explicit step.  ``widths`` are the per-direction cell-width arrays,
    broadcastable against one case's fields — a whole grid's
    ``width_fields()`` or a rank's slices of them (floating max
    decomposes exactly, so the max over ranks of the block rates is
    bitwise the whole-domain rate).

    A batch-stacked field ``(nvars, B, *grid)`` yields the length-``B``
    vector of per-case rates from one reduction pass per direction; each
    entry is bitwise the scalar rate of that case alone (the speed
    arithmetic is elementwise per case, and a floating max is exact
    under any grouping of comparisons).
    """
    xp = array_namespace(prim)
    rho = prim[layout.partial_densities].sum(axis=0)
    alphas = full_alphas(layout, prim[layout.advected])
    c = mixture.sound_speed(alphas, rho, prim[layout.pressure])
    stacked = prim.ndim == layout.ndim + 2
    grid_axes = tuple(range(1, 1 + layout.ndim))
    rate = xp.zeros(prim.shape[1], dtype=prim.dtype) if stacked else 0.0
    for d, w in enumerate(widths):
        # Widths live on the host; asarray is the sanctioned H2D entry
        # (identity for NumPy, so bitwise neutral).
        w = xp.asarray(w, dtype=prim.dtype)
        ratio = (xp.abs(prim[layout.momentum_component(d)]) + c) / w
        if stacked:
            xp.maximum(rate, xp.max(ratio, axis=grid_axes), out=rate)
        else:
            rate = max(rate, float(ratio.max()))
    return rate


def rate_to_dt(cfl: float, rate):
    """``cfl / rate`` after the validity check (scalar or per-case vector).

    An invalid entry of a rate vector raises :class:`NumericsError`
    naming the offending case index.
    """
    if isinstance(rate, float):
        if not np.isfinite(rate) or rate <= 0.0:
            raise NumericsError(f"invalid maximum wave rate {rate}")
        return cfl / rate
    xp = array_namespace(rate)
    bad = ~xp.isfinite(rate) | (rate <= 0.0)
    if bool(bad.any()):
        i = int(xp.argmax(bad))
        raise NumericsError(
            f"invalid maximum wave rate {float(xp.asarray(rate)[i])} "
            f"for ensemble case {i}")
    return cfl / rate


def cfl_dt(layout: StateLayout, mixture: Mixture, prim: np.ndarray,
           grid: StructuredGrid, cfl: float):
    """Stable time step ``cfl / max_d (|u_d| + c)/dx_d``.

    A batch-stacked ``prim`` gives the per-case dt vector, each entry
    bitwise the scalar dt of that case alone.
    """
    if not 0.0 < cfl <= 1.0:
        raise NumericsError(f"CFL number must be in (0, 1], got {cfl}")
    return rate_to_dt(cfl, wave_rate(layout, mixture, prim,
                                     grid.width_fields()))
