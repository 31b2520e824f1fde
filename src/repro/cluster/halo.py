"""Halo pieces shared by the ranks' transport (paper §III-A).

MFC's halo protocol packs each rank's boundary strips, exchanges them
with the face neighbour, and unpacks them into the ghost layer.  The one
transport, :class:`~repro.cluster.procs.SharedMemoryTransport`, packs
:func:`boundary_strip` straight into a shared mailbox and unpacks it
into :func:`ghost_strip`; :func:`fill_wall_ghosts` applies the physical
BCs on the sides of a block that touch the global domain edge, and
:func:`validate_periodicity` rejects a boundary set the decomposition
cannot wrap.  The transport's :class:`~repro.profiling.counters.
HaloCounters` tally every strip it moves, which is what
:meth:`~repro.cluster.decomposition.BlockDecomposition.total_messages`
and :meth:`~repro.cluster.decomposition.BlockDecomposition.
total_halo_bytes` reconcile against.
"""

from __future__ import annotations

import numpy as np

from repro.bc.boundary import BC, BoundarySet, fill_axis_ghosts
from repro.cluster.decomposition import BlockDecomposition
from repro.common import ConfigurationError
from repro.state.layout import StateLayout


def validate_periodicity(decomp: BlockDecomposition, bcs: BoundarySet) -> None:
    """Reject boundary sets whose periodicity disagrees with the decomposition.

    Both sides of every axis are inspected: a malformed set with
    ``PERIODIC`` on one side only is an error naming the axis, not a
    silent pass (the exchange would fill one ghost layer from a wrap
    and the other from a wall).
    """
    for axis in range(decomp.ndim):
        lo, hi = bcs.per_axis[axis]
        per_lo = lo is BC.PERIODIC
        per_hi = hi is BC.PERIODIC
        if per_lo != per_hi:
            raise ConfigurationError(
                f"axis {axis}: PERIODIC boundary on one side only "
                f"(lo={lo.name}, hi={hi.name}) — periodic axes must be "
                f"periodic on both sides")
        if per_lo != decomp.periodic[axis]:
            raise ConfigurationError(
                f"axis {axis}: BoundarySet periodicity must match the "
                f"decomposition's periodic flags")


def fill_wall_ghosts(padded: np.ndarray, layout: StateLayout, bcs: BoundarySet,
                     decomp: BlockDecomposition, rank: int, axis: int,
                     ng: int) -> None:
    """Apply physical BCs on ``rank``'s global-wall side(s) of ``axis``.

    Sides facing an interior (or periodic-wrap) neighbour are left for
    the halo transport to fill; a rank in the middle of a decomposed
    axis gets no wall fill at all.
    """
    lo_bc, hi_bc = bcs.per_axis[axis]
    coords = decomp.rank_coords(rank)
    at_lo = coords[axis] == 0 and not decomp.periodic[axis]
    at_hi = (coords[axis] == decomp.rank_grid[axis] - 1
             and not decomp.periodic[axis])
    if at_lo or at_hi:
        _fill_wall(padded, layout, axis, ng,
                   lo_bc if at_lo else None, hi_bc if at_hi else None)


def boundary_strip(field: np.ndarray, axis: int, ng: int, side: int) -> np.ndarray:
    """View of the outgoing boundary region of an *unpadded* block.

    ``side=-1`` is the low-interior strip (destined for the low
    neighbour's high ghosts), ``side=+1`` the high-interior strip.
    """
    n = field.shape[axis + 1]
    idx = [slice(None)] * field.ndim
    idx[axis + 1] = slice(0, ng) if side == -1 else slice(n - ng, n)
    return field[tuple(idx)]


def ghost_strip(padded: np.ndarray, axis: int, ng: int, side: int) -> np.ndarray:
    """View of the ghost layer of a *padded* block on ``side``."""
    n = padded.shape[axis + 1] - 2 * ng
    idx = [slice(None)] * padded.ndim
    idx[axis + 1] = slice(0, ng) if side == -1 else slice(n + ng, n + 2 * ng)
    return padded[tuple(idx)]


def _fill_wall(padded: np.ndarray, layout: StateLayout, axis: int, ng: int,
               lo: BC | None, hi: BC | None) -> None:
    """Apply physical BCs on the wall side(s) only, leaving halo-filled
    ghosts untouched on the other side."""
    if lo is not None and hi is not None:
        fill_axis_ghosts(padded, layout, axis, ng, lo, hi)
        return
    # One-sided: fill both with a scratch pass, then restore the halo side.
    n = padded.shape[axis + 1] - 2 * ng
    idx = [slice(None)] * padded.ndim
    if lo is None:
        idx[axis + 1] = slice(0, ng)
    else:
        idx[axis + 1] = slice(n + ng, n + 2 * ng)
    keep = padded[tuple(idx)].copy()
    fill_axis_ghosts(padded, layout, axis, ng,
                     lo if lo is not None else BC.EXTRAPOLATION,
                     hi if hi is not None else BC.EXTRAPOLATION)
    padded[tuple(idx)] = keep
