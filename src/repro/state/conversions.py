"""Vectorized conservative <-> primitive conversions.

Both directions are exact inverses up to round-off (covered by
hypothesis round-trip tests).  Volume fractions are clipped to
``[ALPHA_FLOOR, 1 - ALPHA_FLOOR]`` on the conservative->primitive path,
matching the small positivity floor MFC applies to keep the mixture EOS
evaluable in near-pure regions.

``cons_to_prim`` is elementwise, so it runs as a *tile body* over row
spans of the field (:func:`row_tiles`) with tile-sized scratch — never a
field-sized temporary.  A gang-folded step calls the body
(:func:`cons_to_prim_tile`) directly on its own slab rows.
"""

from __future__ import annotations

import math

import numpy as np

from repro.acc.gang import tile_spans
from repro.backend import array_namespace
from repro.common import PositivityError
from repro.common.scratch import fresh
from repro.eos.mixture import Mixture
from repro.state.layout import StateLayout

#: Floor applied to each advected volume fraction.
ALPHA_FLOOR = 1e-12

#: Cells per row tile when no workspace supplies the spans: small enough
#: that a tile's scratch stays cache-resident, large enough that a ufunc
#: pass is not dispatch-bound.
ROW_TILE_CELLS = 8192


def row_tiles(field, tiles=None):
    """``(rows, new)`` per row tile of ``field``: a ``slice`` of array
    axis 1 and the tile's scratch allocator ``new(shape)``.

    ``tiles`` is the :class:`~repro.solver.workspace.SolverWorkspace` the
    field belongs to: its ``rows`` are the sweep engine's own spans and
    its ``scratch()`` hands out blocks of the calling process's arena
    pool.  Without one (or for a field on another array namespace) the
    rows are cut to about :data:`ROW_TILE_CELLS` cells and each tile
    allocates its own scratch.  Every caller's work is elementwise, so
    any partition of the rows gives bitwise the same result.
    """
    if tiles is not None and tiles.xp is array_namespace(field):
        for lo, hi in tiles.rows:
            yield slice(lo, hi), tiles.scratch()
        return
    for lo, hi in row_spans(field.shape):
        yield slice(lo, hi), fresh(field)


def row_spans(shape) -> list[tuple[int, int]]:
    """Default row tiles of a ``(nvars, n, ...)`` field: spans of ``n``
    of about :data:`ROW_TILE_CELLS` cells each."""
    cells = math.prod(shape[1:])
    return tile_spans(shape[1], max(1, cells // ROW_TILE_CELLS))


def _speed_squared(vel: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``|u|^2`` accumulated in fixed component order into ``out``.

    An explicit loop (not einsum) so the floating-point grouping is
    independent of the array extent; this keeps block-decomposed runs
    bitwise identical to serial ones (see Mixture.gamma_pi).
    """
    xp = array_namespace(vel)
    xp.multiply(vel[0], vel[0], out=out)
    for d in range(1, vel.shape[0]):
        xp.add(out, xp.multiply(vel[d], vel[d], out=tmp), out=out)
    return out


def full_alphas(layout: StateLayout, advected: np.ndarray, *,
                out: np.ndarray | None = None) -> np.ndarray:
    """Expand the ``ncomp - 1`` advected fractions into all ``ncomp`` fractions.

    ``advected`` has shape ``(ncomp-1, ...)``; the result (``out``, else
    a new array) has shape ``(ncomp, ...)`` with the last component
    closing the sum to one.
    """
    xp = array_namespace(advected)
    alphas = out if out is not None else xp.empty(
        (layout.ncomp,) + advected.shape[1:], dtype=advected.dtype)
    if layout.n_advected:
        xp.clip(advected, ALPHA_FLOOR, 1.0 - ALPHA_FLOOR, out=alphas[:-1])
        last = xp.sum(alphas[:-1], axis=0, out=alphas[-1])
        xp.subtract(1.0, last, out=last)
        xp.clip(last, ALPHA_FLOOR, 1.0, out=last)
    else:
        alphas[0] = 1.0
    return alphas


def cons_to_prim(layout: StateLayout, mixture: Mixture, q: np.ndarray,
                 *, check: bool = False, out: np.ndarray | None = None,
                 tiles=None) -> np.ndarray:
    """Convert a conservative field ``q`` of shape ``(nvars, ...)`` to primitives.

    Parameters
    ----------
    check:
        When true, raise :class:`PositivityError` on non-positive density
        or on ``p + pi_inf_m <= 0``; hot paths leave this off and rely on
        the driver's periodic state checks.
    out:
        Optional preallocated destination (the workspace primitive
        buffer); results are bitwise identical either way.
    tiles:
        The workspace whose row spans and tile scratch the loop uses
        (see :func:`row_tiles`).
    """
    xp = array_namespace(q)
    prim = xp.empty_like(q) if out is None else out
    for rows, new in row_tiles(q, tiles):
        cons_to_prim_tile(layout, mixture, q[:, rows], prim[:, rows], new,
                          check=check)
    return prim


def cons_to_prim_tile(layout: StateLayout, mixture: Mixture, q, prim, new,
                      *, check: bool = False) -> None:
    """The conversion of one tile: ``q`` and ``prim`` are the same cells
    of both fields, ``new(shape)`` the tile's scratch allocator."""
    xp = array_namespace(q)
    shape = q.shape[1:]
    rho = xp.sum(q[layout.partial_densities], axis=0, out=new(shape))
    if check and not bool((rho > 0.0).all()):
        raise PositivityError("non-positive mixture density in cons_to_prim")

    xp.copyto(prim[layout.partial_densities], q[layout.partial_densities])
    inv_rho = xp.true_divide(1.0, rho, out=new(shape))
    vel = xp.multiply(q[layout.momentum], inv_rho, out=prim[layout.velocity])

    alphas = full_alphas(layout, q[layout.advected],
                         out=new((layout.ncomp,) + shape))
    kinetic = _speed_squared(vel, new(shape), tmp=inv_rho)
    xp.multiply(xp.multiply(0.5, rho, out=rho), kinetic, out=kinetic)
    rho_e = xp.subtract(q[layout.energy], kinetic, out=kinetic)
    p = mixture.pressure(alphas, rho_e, out=prim[layout.pressure], new=new)
    xp.copyto(prim[layout.advected], alphas[: layout.n_advected])

    if check:
        Gm, Pm = mixture.gamma_pi(alphas)
        pi_m = Pm / (Gm + 1.0)
        if not bool((p + pi_m > 0.0).all()):
            raise PositivityError("pressure below -pi_inf of the mixture")


def prim_to_cons(layout: StateLayout, mixture: Mixture, prim: np.ndarray,
                 *, out: np.ndarray | None = None, new=None) -> np.ndarray:
    """Convert a primitive field of shape ``(nvars, ...)`` to conservatives
    (temporaries from ``new(shape)``, by default fresh arrays)."""
    xp = array_namespace(prim)
    new = fresh(prim) if new is None else new
    shape = prim.shape[1:]
    q = xp.empty_like(prim) if out is None else out
    xp.copyto(q[layout.partial_densities], prim[layout.partial_densities])
    rho = xp.sum(prim[layout.partial_densities], axis=0, out=new(shape))

    vel = prim[layout.velocity]
    xp.multiply(rho, vel, out=q[layout.momentum])

    alphas = full_alphas(layout, prim[layout.advected],
                         out=new((layout.ncomp,) + shape))
    rho_e = mixture.internal_energy(alphas, prim[layout.pressure], new=new)
    kinetic = _speed_squared(vel, new(shape), new(shape))
    xp.multiply(xp.multiply(0.5, rho, out=rho), kinetic, out=kinetic)
    xp.add(rho_e, kinetic, out=q[layout.energy])
    xp.copyto(q[layout.advected], prim[layout.advected])
    return q
