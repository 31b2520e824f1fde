"""Halo pieces shared by the ranks' transport (paper §III-A).

MFC's halo protocol packs each rank's boundary strips, exchanges them
with the face neighbour, and unpacks them into the ghost layer.  The one
transport, :class:`~repro.cluster.procs.SharedMemoryTransport`, packs
:func:`boundary_strip` straight into a shared mailbox, and each sweep
tile copies its rows of the neighbour's strip into its ghost layer (the
rows :func:`ghost_strip` names on a whole padded block); the sides of a
block that touch the global domain edge take the physical BCs.
:func:`validate_periodicity` rejects a boundary set the decomposition
cannot wrap, and :func:`validate_block_extents` a block too narrow to
post its strips.  The transport's :class:`~repro.profiling.counters.
HaloCounters` tally every strip it moves, which is what
:meth:`~repro.cluster.decomposition.BlockDecomposition.total_messages`
and :meth:`~repro.cluster.decomposition.BlockDecomposition.
total_halo_bytes` reconcile against.
"""

from __future__ import annotations

import numpy as np

from repro.bc.boundary import BC, BoundarySet
from repro.cluster.decomposition import BlockDecomposition
from repro.common import ConfigurationError


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


def validate_block_extents(decomp: BlockDecomposition, ng: int) -> None:
    """Reject a block narrower than ``ng`` cells along an axis it
    exchanges on: the strip it posts is its ``ng`` cells nearest the
    neighbour."""
    for rank in range(decomp.nranks):
        for axis, extent in enumerate(decomp.local_cells(rank)):
            if extent < ng and decomp.neighbor_sides(rank, axis):
                raise ConfigurationError(
                    f"rank {rank}: its block has {extent} cells along axis "
                    f"{axis}, fewer than the ghost width ng = {ng} a halo "
                    f"strip holds; use fewer ranks along that axis")


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
