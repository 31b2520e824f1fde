"""3D block domain decomposition (paper §III-A).

MFC decomposes the domain into near-cubic 3D blocks rather than slabs
(1D splits) or pencils (2D splits) because blocks minimise the
surface-to-volume ratio of each rank's subdomain, and therefore the
halo traffic per unit of compute.  :func:`factor3d` produces the most
cubic factorisation of a rank count; :class:`BlockDecomposition` maps
ranks to blocks, assigns neighbours, and computes exactly the
communication surface the scaling models charge for: its
:meth:`~BlockDecomposition.total_messages` and
:meth:`~BlockDecomposition.total_halo_bytes` equal what the ranks'
shared-memory transport tallies in its ``HaloCounters`` per RHS
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from repro.common import ConfigurationError


def factor3d(nranks: int, *, ndim: int = 3) -> tuple[int, ...]:
    """Most-cubic factorisation of ``nranks`` into ``ndim`` factors.

    Greedy prime assignment: each prime factor (largest first) goes to
    the currently smallest axis, which provably keeps the axis lengths
    within one prime factor of each other.
    """
    if nranks < 1:
        raise ConfigurationError(f"nranks must be >= 1, got {nranks}")
    if ndim not in (1, 2, 3):
        raise ConfigurationError(f"ndim must be 1-3, got {ndim}")
    primes = _prime_factors(nranks)
    dims = [1] * ndim
    for p in sorted(primes, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims, reverse=True))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class BlockDecomposition:
    """A rank grid over a global cell grid.

    Parameters
    ----------
    global_cells:
        Global cell counts per axis.
    rank_grid:
        Ranks per axis; must divide into roughly equal blocks.
    periodic:
        Per-axis periodicity (affects who counts as a neighbour).
    predicted:
        ``(rank_grid, busiest block's faces)`` :meth:`balanced` weighed.
    """

    global_cells: tuple[int, ...]
    rank_grid: tuple[int, ...]
    periodic: tuple[bool, ...] = (False, False, False)
    predicted: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        nd = len(self.global_cells)
        if not 1 <= nd <= 3 or len(self.rank_grid) != nd:
            raise ConfigurationError("global_cells and rank_grid must match, 1-3D")
        if len(self.periodic) < nd:
            raise ConfigurationError("periodic flags must cover every axis")
        for axis, (cells, ranks) in enumerate(zip(self.global_cells, self.rank_grid)):
            if ranks < 1 or cells < ranks:
                raise ConfigurationError(
                    f"axis {axis}: cannot split {cells} cells across {ranks} ranks")

    # -- sizes -------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.global_cells)

    @property
    def nranks(self) -> int:
        return int(np.prod(self.rank_grid))

    @classmethod
    def balanced(cls, global_cells: tuple[int, ...], nranks: int,
                 periodic: tuple[bool, ...] | None = None, *, state=None,
                 ng: int = 3) -> "BlockDecomposition":
        """Decompose with the most cubic rank grid for ``nranks``; given
        a ``state`` (ghost width ``ng``), with its axis permutation of
        equal halo traffic whose busiest block has the fewest
        :meth:`predicted_faces` (a tie keeps this grid)."""
        nd = len(global_cells)
        grid = factor3d(nranks, ndim=nd)
        # Assign larger rank-axis counts to larger cell axes.
        order = np.argsort(np.argsort([-c for c in global_cells]))
        grid_sorted = sorted(grid, reverse=True)
        rank_grid = tuple(grid_sorted[order[i]] for i in range(nd))
        default = cls(global_cells, rank_grid, periodic or tuple([False] * nd))
        if state is None:
            return default
        from repro.cluster.halo import validate_block_extents

        traffic = lambda d: (d.total_messages(), d.total_halo_bytes(ng, 1))
        weighed = []
        for perm in dict.fromkeys(permutations(rank_grid)):  # default first
            try:
                decomp = cls(global_cells, perm, default.periodic)
                validate_block_extents(decomp, ng)
            except ConfigurationError:
                continue  # a block too narrow along an axis it splits
            if traffic(decomp) == traffic(default):
                weighed.append((perm, max(decomp.predicted_faces(state, ng))))
        weighed.sort(key=lambda pair: pair[1])  # stable: a tie keeps default
        return cls(global_cells, weighed[0][0] if weighed else rank_grid,
                   default.periodic, tuple(weighed))

    @classmethod
    def slabs(cls, global_cells: tuple[int, ...], nranks: int) -> "BlockDecomposition":
        """1D split along the largest axis (the baseline blocks beat)."""
        nd = len(global_cells)
        grid = [1] * nd
        grid[int(np.argmax(global_cells))] = nranks
        return cls(global_cells, tuple(grid), tuple([False] * nd))

    @classmethod
    def pencils(cls, global_cells: tuple[int, ...], nranks: int) -> "BlockDecomposition":
        """2D split over the two largest axes."""
        nd = len(global_cells)
        if nd < 2:
            raise ConfigurationError("pencils need at least 2 dimensions")
        two = factor3d(nranks, ndim=2)
        axes = np.argsort(global_cells)[::-1][:2]
        grid = [1] * nd
        grid[axes[0]], grid[axes[1]] = two[0], two[1]
        return cls(global_cells, tuple(grid), tuple([False] * nd))

    # -- per-rank geometry ----------------------------------------------------
    def rank_coords(self, rank: int) -> tuple[int, ...]:
        """Cartesian coordinates of ``rank`` in the rank grid (row-major)."""
        if not 0 <= rank < self.nranks:
            raise ConfigurationError(f"rank {rank} out of range [0, {self.nranks})")
        coords = []
        rem = rank
        for extent in reversed(self.rank_grid):
            coords.append(rem % extent)
            rem //= extent
        return tuple(reversed(coords))

    def coords_rank(self, coords: tuple[int, ...]) -> int:
        rank = 0
        for c, extent in zip(coords, self.rank_grid):
            if not 0 <= c < extent:
                raise ConfigurationError(f"coords {coords} outside rank grid")
            rank = rank * extent + c
        return rank

    def local_cells(self, rank: int) -> tuple[int, ...]:
        """Cell counts of this rank's block (remainder spread to low ranks)."""
        coords = self.rank_coords(rank)
        out = []
        for c, cells, ranks in zip(coords, self.global_cells, self.rank_grid):
            base, rem = divmod(cells, ranks)
            out.append(base + (1 if c < rem else 0))
        return tuple(out)

    def local_slices(self, rank: int) -> tuple[slice, ...]:
        """Global index ranges owned by ``rank``."""
        coords = self.rank_coords(rank)
        out = []
        for c, cells, ranks in zip(coords, self.global_cells, self.rank_grid):
            base, rem = divmod(cells, ranks)
            start = c * base + min(c, rem)
            size = base + (1 if c < rem else 0)
            out.append(slice(start, start + size))
        return tuple(out)

    def block_grid(self, grid, rank: int):
        """``rank``'s block of the global ``grid``: the faces bounding
        its cells, so its widths and centres are bitwise the slices of
        the global ones."""
        return type(grid)(tuple(f[s.start:s.stop + 1] for f, s in
                                zip(grid.faces, self.local_slices(rank))))

    def predicted_faces(self, state: np.ndarray, ng: int) -> tuple[int, ...]:
        """Per rank, the faces an RHS evaluation is predicted to run on
        ``state``: over axes, the block's :func:`~repro.solver.sweep.
        step_span` as one tile, times its cross-section."""
        from repro.solver.sweep import step_span

        out = []
        for rank in range(self.nranks):
            slices, local = self.local_slices(rank), self.local_cells(rank)
            faces = 0
            for axis, (s, n) in enumerate(zip(slices, self.global_cells)):
                rows = np.arange(s.start - ng, s.stop + ng)
                rows = rows % n if self.periodic[axis] else rows.clip(0, n - 1)
                pad = state[(slice(None), *slices[:axis], rows,
                             *slices[axis + 1:])]
                f0, f1 = step_span(pad.reshape(
                    -1, rows.size, math.prod(local[axis + 1:])), ng)
                faces += (f1 - f0) * math.prod(local) // local[axis]
            out.append(faces)
        return tuple(out)

    def neighbor(self, rank: int, axis: int, side: int) -> int | None:
        """Neighbouring rank across ``axis`` (side -1 or +1), or None at a wall."""
        if side not in (-1, 1):
            raise ConfigurationError("side must be -1 or +1")
        coords = list(self.rank_coords(rank))
        coords[axis] += side
        extent = self.rank_grid[axis]
        if 0 <= coords[axis] < extent:
            return self.coords_rank(tuple(coords))
        if self.periodic[axis]:
            coords[axis] %= extent
            return self.coords_rank(tuple(coords))
        return None

    # -- communication volume --------------------------------------------------
    def neighbor_sides(self, rank: int, axis: int) -> int:
        """Number of halo messages ``rank`` receives along ``axis`` (0-2).

        A periodic axis with a single rank still exchanges with itself
        on both sides (the wrap copy is a real message in MPI terms), so
        this is simply the count of non-``None`` neighbours.
        """
        return sum(1 for side in (-1, 1)
                   if self.neighbor(rank, axis, side) is not None)

    def max_neighbors_per_axis(self) -> tuple[int, ...]:
        """Worst-rank neighbour count per axis.

        This is what the analytic comm model must charge instead of a
        flat two messages per axis: an undecomposed non-periodic axis
        (``rank_grid[axis] == 1``) sends nothing, a two-rank
        non-periodic axis sends one message per rank, and anything
        periodic or deeper sends two.
        """
        out = []
        for axis in range(self.ndim):
            ranks = self.rank_grid[axis]
            if self.periodic[axis] or ranks > 2:
                out.append(2)
            elif ranks == 2:
                out.append(1)
            else:
                out.append(0)
        return tuple(out)

    def total_messages(self) -> int:
        """Halo messages per full exchange, summed over ranks and axes.

        The ranks' :class:`~repro.cluster.procs.SharedMemoryTransport`
        counters (``HaloCounters.messages``, merged over ranks) grow by
        exactly this per RHS evaluation (tests assert it), which is what
        keeps the analytic model and the transport reconciled.
        """
        return sum(self.neighbor_sides(r, axis)
                   for r in range(self.nranks)
                   for axis in range(self.ndim))

    def total_halo_bytes(self, ng: int, nvars: int, itemsize: int = 8) -> int:
        """Bytes moved per full exchange, summed over ranks and axes."""
        return sum(self.halo_cells(r, ng)
                   for r in range(self.nranks)) * nvars * itemsize

    def halo_cells(self, rank: int, ng: int) -> int:
        """Cells exchanged per halo pass (both sides, all axes with neighbours)."""
        local = self.local_cells(rank)
        total = 0
        for axis in range(self.ndim):
            face = int(np.prod(local)) // local[axis]
            for side in (-1, 1):
                if self.neighbor(rank, axis, side) is not None:
                    total += ng * face
        return total

    def surface_to_volume(self, rank: int, ng: int = 1) -> float:
        """Halo cells per interior cell — the metric blocks minimise."""
        local = self.local_cells(rank)
        return self.halo_cells(rank, ng) / float(np.prod(local))

    def max_halo_bytes(self, ng: int, nvars: int, itemsize: int = 8) -> int:
        """Worst-rank halo bytes per exchange (sizing the comm model).

        Computed analytically for the largest possible block with
        neighbours on every non-wall side, so it is a tight upper bound
        without scanning millions of ranks.
        """
        largest = []
        for cells, ranks in zip(self.global_cells, self.rank_grid):
            base, rem = divmod(cells, ranks)
            largest.append(base + (1 if rem else 0))
        total = 0
        sides = self.max_neighbors_per_axis()
        for axis in range(self.ndim):
            face = int(np.prod(largest)) // largest[axis]
            total += sides[axis] * ng * face
        return total * nvars * itemsize
