"""Functional halo exchange over in-process ranks (paper §III-A).

This is a *real* implementation of MFC's halo protocol, executed over
simulated ranks living in one process:

1. each rank packs its boundary region into a contiguous 1D buffer
   ("for compatibility with MPI subroutines"),
2. buffers are exchanged with the face neighbour (the in-process
   stand-in for ``MPI_Sendrecv``),
3. the received buffer is unpacked into the ghost layer.

Because packing, exchange, and unpacking are explicit, byte volumes are
exact — the analytic :class:`~repro.cluster.mpi_sim.CommModel` prices
the same buffers this module actually moves — and tests can assert that
a decomposed run reproduces the single-block run bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.bc.boundary import BC, BoundarySet, fill_axis_ghosts, pad_axis
from repro.cluster.decomposition import BlockDecomposition
from repro.common import DTYPE, ConfigurationError
from repro.profiling.counters import HaloCounters
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


def pack_face(padded: np.ndarray, axis: int, ng: int, side: int) -> np.ndarray:
    """Pack the outgoing boundary region into a 1D buffer.

    ``side=-1`` packs the low-interior region (destined for the low
    neighbour's high ghosts), ``side=+1`` the high-interior region.
    """
    n = padded.shape[axis + 1] - 2 * ng
    idx = [slice(None)] * padded.ndim
    idx[axis + 1] = slice(ng, 2 * ng) if side == -1 else slice(n, n + ng)
    return np.ascontiguousarray(padded[tuple(idx)]).ravel()


def unpack_face(padded: np.ndarray, axis: int, ng: int, side: int,
                buffer: np.ndarray) -> None:
    """Unpack a received 1D buffer into the ghost layer on ``side``."""
    n = padded.shape[axis + 1] - 2 * ng
    idx = [slice(None)] * padded.ndim
    idx[axis + 1] = slice(0, ng) if side == -1 else slice(n + ng, n + 2 * ng)
    target = padded[tuple(idx)]
    if buffer.size != target.size:
        raise ConfigurationError(
            f"halo buffer has {buffer.size} elements, ghost region needs {target.size}")
    target[...] = buffer.reshape(target.shape)


class HaloExchanger:
    """Splits a global field into rank blocks and fills their ghosts.

    The per-axis padded arrays it produces are exactly what
    :class:`repro.solver.rhs.RHS` consumes per sweep direction, so a
    distributed RHS differs from the serial one only in where ghost
    values come from.
    """

    def __init__(self, decomp: BlockDecomposition, layout: StateLayout,
                 bcs: BoundarySet, ng: int):
        if decomp.ndim != layout.ndim:
            raise ConfigurationError("decomposition/layout dimensionality mismatch")
        validate_periodicity(decomp, bcs)
        self.decomp = decomp
        self.layout = layout
        self.bcs = bcs
        self.ng = ng
        self.counters = HaloCounters()
        # Preallocated per-(rank, axis, side) mailboxes for the
        # post/fill protocol: one boundary-strip-shaped buffer per
        # neighboured side, reused every exchange.  Neighbours along an
        # axis share their other-axis extents, so a rank's outgoing
        # strip always matches the receiver's ghost region.
        self._mailbox: dict[tuple[int, int, int], np.ndarray] = {}
        for r in range(decomp.nranks):
            local = decomp.local_cells(r)
            for axis in range(decomp.ndim):
                for side in (-1, 1):
                    if decomp.neighbor(r, axis, side) is None:
                        continue
                    shape = [layout.nvars, *local]
                    shape[axis + 1] = ng
                    self._mailbox[(r, axis, side)] = np.empty(shape, dtype=DTYPE)

    # Legacy counter aliases (tests and benchmarks read these).
    @property
    def bytes_exchanged(self) -> int:
        return self.counters.bytes_exchanged

    @property
    def messages(self) -> int:
        return self.counters.messages

    # -- mailbox protocol ----------------------------------------------------
    def post(self, rank: int, axis: int, field: np.ndarray) -> None:
        """Pack ``rank``'s boundary strips along ``axis`` into its mailboxes.

        ``field`` is the rank's *unpadded* block.  In-process posting is
        a single strided copy into the preallocated mailbox — the
        stand-in for packing straight into a shared-memory segment.
        """
        ng = self.ng
        for side in (-1, 1):
            box = self._mailbox.get((rank, axis, side))
            if box is None:
                continue
            box[...] = boundary_strip(field, axis, ng, side)
            self.counters.posts += 1

    def fill(self, rank: int, axis: int, padded: np.ndarray) -> None:
        """Fill ``rank``'s interior-face ghosts along ``axis`` from the
        neighbours' posted mailboxes (the ``MPI_Sendrecv`` completion)."""
        ng = self.ng
        for side in (-1, 1):
            nb = self.decomp.neighbor(rank, axis, side)
            if nb is None:
                continue
            box = self._mailbox[(nb, axis, -side)]
            ghost_strip(padded, axis, ng, side)[...] = box
            self.counters.messages += 1
            self.counters.bytes_exchanged += box.nbytes

    # -- field scatter/gather ------------------------------------------------
    def split(self, global_field: np.ndarray) -> list[np.ndarray]:
        """Per-rank interior blocks of a global ``(nvars, ...)`` field."""
        return [np.ascontiguousarray(global_field[(slice(None), *self.decomp.local_slices(r))])
                for r in range(self.decomp.nranks)]

    def gather(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Reassemble the global field from rank blocks."""
        nvars = blocks[0].shape[0]
        out = np.empty((nvars, *self.decomp.global_cells), dtype=blocks[0].dtype)
        for r, block in enumerate(blocks):
            out[(slice(None), *self.decomp.local_slices(r))] = block
        return out

    # -- the exchange itself ------------------------------------------------
    def padded_axis(self, blocks: list[np.ndarray], axis: int) -> list[np.ndarray]:
        """Pad every block along ``axis`` and fill ghosts: halo exchange at
        interior faces, physical BCs at global walls."""
        ng = self.ng
        padded = [pad_axis(b, axis, ng) for b in blocks]

        # Interior faces: pack -> sendrecv -> unpack, per side.
        for r in range(self.decomp.nranks):
            for side in (-1, 1):
                nb = self.decomp.neighbor(r, axis, side)
                if nb is None:
                    continue
                # The neighbour's facing boundary region fills our ghosts.
                buf = pack_face(padded[nb], axis, ng, -side)
                unpack_face(padded[r], axis, ng, side, buf)
                self.counters.bytes_exchanged += buf.nbytes
                self.counters.messages += 1

        # Global walls: physical boundary conditions.
        lo_bc, hi_bc = self.bcs.per_axis[axis]
        for r in range(self.decomp.nranks):
            coords = self.decomp.rank_coords(r)
            at_lo = coords[axis] == 0 and not self.decomp.periodic[axis]
            at_hi = (coords[axis] == self.decomp.rank_grid[axis] - 1
                     and not self.decomp.periodic[axis])
            if at_lo or at_hi:
                _fill_wall(padded[r], self.layout, axis, ng,
                           lo_bc if at_lo else None, hi_bc if at_hi else None)
        return padded


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
