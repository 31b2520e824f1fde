"""CFL-based time-step selection."""

from __future__ import annotations

import numpy as np

from repro.backend import array_namespace
from repro.common import NumericsError
from repro.eos.mixture import Mixture
from repro.grid.cartesian import StructuredGrid
from repro.state.conversions import full_alphas, row_tiles
from repro.state.layout import StateLayout


def tile_of(arr, idx):
    """``arr``'s part of a tile: ``idx`` (one index per leading axis)
    applied to the axes where ``arr`` is not broadcast (extent > 1).

    Cell widths ``(nx, 1)`` and per-case dt fields ``(B, 1, 1)`` are
    sliced this way alongside the fields they broadcast against.
    """
    if not getattr(arr, "ndim", 0):
        return arr
    return arr[tuple(s if n > 1 else slice(None)
                     for s, n in zip(idx, arr.shape))]


def max_rate(a, b):
    """``max(a, b)`` of two wave rates, NaN if either is NaN.

    Python's ``max`` keeps its first argument when the second is NaN, so
    a NaN tile (or rank) would vanish from the reduction; a floating max
    is otherwise exact under any grouping, so finite rates are bitwise
    unchanged.  Per-case rate vectors merge with ``maximum``.
    """
    if getattr(a, "ndim", 0) or getattr(b, "ndim", 0):
        return array_namespace(a, b).maximum(a, b)
    return a if (a != a or a >= b) else b


def wave_rate(layout: StateLayout, mixture: Mixture, prim: np.ndarray,
              widths, *, tiles=None) -> float | np.ndarray:
    """Largest :math:`(|u_d| + c)/\\Delta x_d` over all cells and directions.

    The one spelling of the quantity whose reciprocal bounds the stable
    explicit step.  ``widths`` are the per-direction cell-width arrays,
    broadcastable against one case's fields — a whole grid's
    ``width_fields()`` or a rank's slices of them (floating max
    decomposes exactly, so the max over ranks of the block rates is
    bitwise the whole-domain rate).  The rate is reduced tile by tile
    over :func:`~repro.state.conversions.row_tiles` (``tiles`` as
    there); a NaN anywhere makes the rate NaN.

    A batch-stacked field ``(nvars, B, *grid)`` yields the length-``B``
    vector of per-case rates; each entry is bitwise the scalar rate of
    that case alone (the speed arithmetic is elementwise per case, and a
    floating max is exact under any grouping of comparisons).
    """
    stacked = prim.ndim == layout.ndim + 2
    rate = array_namespace(prim).zeros(prim.shape[1], dtype=prim.dtype) \
        if stacked else 0.0
    for rows, new in row_tiles(prim, tiles):
        part = wave_rate_tile(layout, mixture, prim[:, rows], [
            w if stacked else tile_of(w, (rows,)) for w in widths], new)
        if stacked:
            rate[rows] = part  # each case lies in one row tile
        else:
            rate = max_rate(rate, part)
    return rate


def wave_rate_tile(layout: StateLayout, mixture: Mixture, prim, widths, new):
    """:func:`wave_rate` of one tile (``widths`` already cut to it): a
    float, or the per-case vector of the tile's cases when stacked."""
    xp = array_namespace(prim)
    shape = prim.shape[1:]
    rho = xp.sum(prim[layout.partial_densities], axis=0, out=new(shape))
    alphas = full_alphas(layout, prim[layout.advected],
                         out=new((layout.ncomp,) + shape))
    c = mixture.sound_speed(alphas, rho, prim[layout.pressure], new=new)
    stacked = prim.ndim == layout.ndim + 2
    grid_axes = tuple(range(1, 1 + layout.ndim))
    rate = xp.zeros(shape[0], dtype=prim.dtype) if stacked else 0.0
    ratio = rho  # free once the sound speed is known
    for d, w in enumerate(widths):
        # Widths live on the host; asarray is the sanctioned H2D entry
        # (identity for NumPy, so bitwise neutral).
        w = xp.asarray(w, dtype=prim.dtype)
        xp.abs(prim[layout.momentum_component(d)], out=ratio)
        xp.true_divide(xp.add(ratio, c, out=ratio), w, out=ratio)
        if stacked:
            xp.maximum(rate, xp.max(ratio, axis=grid_axes), out=rate)
        else:
            rate = max_rate(rate, float(xp.max(ratio)))
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
