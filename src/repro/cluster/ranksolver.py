"""One rank's solver over its block of the decomposition (paper §III-A).

A :class:`RankSolver` runs the serial workspace RHS pipeline on one
rank's local block: the same :class:`~repro.solver.sweep.SweepEngine`
slab body the serial :class:`~repro.solver.rhs.RHS` runs, given a
ghost-fill hook (wall BCs + a halo *transport*) in place of the physical
boundary fill and a face-span split in place of whole-range faces.  It
owns a full :class:`~repro.solver.workspace.SolverWorkspace` sized for
the block, so a steady-state RHS evaluation performs no new large-array
allocations (the distributed analog of the serial ``out=`` paths).

The transport is duck-typed with two methods:

* ``post(rank, axis, field)`` — pack the rank's boundary strips along
  ``axis`` into the neighbours' mailboxes (in-process arrays for
  :class:`~repro.cluster.halo.HaloExchanger`, shared-memory segments
  for :class:`~repro.cluster.procs.SharedMemoryTransport`);
* ``fill(rank, axis, padded)`` — complete the sendrecv by unpacking the
  neighbours' posted strips into the rank's ghost layers.

Communication hiding
--------------------
The RHS is split into :meth:`rhs_begin` (convert to primitives, post
*every* axis's boundary strips) and :meth:`rhs_finish` (sweep the
directions).  Because the exchange is dimension-split — each sweep pads
along its own axis only, no corner dependencies — all packs can be
posted up front, and each sweep first reconstructs the faces whose WENO
stencils touch no ghost cell, only then waits for the neighbours'
strips, and finishes with the ``ng`` boundary faces on each end.  The
interior compute runs while the ghosts land: the paper's
interior/boundary overlap, host-side.  Span-composed reconstruction is
bitwise identical to the bulk call (the kernels are elementwise over
faces), so overlap never changes a result bit.
"""

from __future__ import annotations

import numpy as np

from repro.bc.boundary import BoundarySet
from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.halo import fill_wall_ghosts
from repro.common import ConfigurationError
from repro.eos.mixture import Mixture
from repro.grid.cartesian import StructuredGrid
from repro.profiling.counters import SweepCounters
from repro.solver.rhs import RHSConfig, nonconservative_tile
from repro.solver.sweep import SweepEngine, validate_fusion
from repro.solver.workspace import SolverWorkspace
from repro.state.conversions import cons_to_prim, row_tiles
from repro.state.layout import StateLayout


class _BlockShape:
    """Minimal grid stand-in for :class:`SolverWorkspace` (shape only)."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = shape


class RankSolver:
    """The five-equation RHS/RK pipeline of one decomposed rank.

    Parameters
    ----------
    decomp / rank:
        The block decomposition and this rank's index in it.
    layout / mixture / bcs / config:
        The same numerics objects the serial solver takes; the boundary
        set holds the *global* physical BCs (walls are applied only on
        the sides of this block that touch the global domain edge).
    grid:
        The *global* structured grid; the rank slices its own cell
        widths from it so a decomposed divergence is bitwise identical
        to the serial one.
    transport:
        Halo transport (see module docstring).
    sweep_layout / fusion:
        The knobs of the same name (DESIGN.md "Options: one table").
        Rank-specific: with fusion on, a strided *bulk* sweep — a
        direction whose face span is not split for overlap — runs as one
        generated kernel from WENO on (the ghost hook packs); split and
        transposed directions run staged.  Bitwise identical either way.
    overlap:
        Compute interior faces while ghost strips land (default).
        ``False`` waits for the exchange up front — same results,
        no hiding; kept as a toggle for A/B timing.
    """

    def __init__(self, decomp: BlockDecomposition, rank: int,
                 layout: StateLayout, mixture: Mixture, bcs: BoundarySet,
                 config: RHSConfig, grid: StructuredGrid, transport, *,
                 sweep_layout: str = "strided", overlap: bool = True,
                 fusion: str = "off") -> None:
        if config.geometry != "cartesian":
            raise ConfigurationError(
                "distributed runs support cartesian geometry only")
        if config.viscosity is not None:
            raise ConfigurationError(
                "distributed runs do not support viscous terms yet")
        validate_fusion(fusion)
        self.decomp = decomp
        self.rank = rank
        self.layout = layout
        self.mixture = mixture
        self.bcs = bcs
        self.config = config
        self.transport = transport
        self.overlap = overlap
        self.fusion = fusion
        self.local = decomp.local_cells(rank)
        self.limited_faces = 0
        self.sweep_counters = SweepCounters()
        self._engine = SweepEngine(
            layout, mixture, bcs, config, self.local,
            counters=self.sweep_counters, sweep_layout=sweep_layout,
            fused=fusion != "off", ghosts=self._fill_ghosts)
        self.fusion_backend = self._engine.fusion_backend
        ng = self._engine.ng
        self.ws = SolverWorkspace(layout, _BlockShape(self.local), ng,
                                  weno_order=config.weno_order,
                                  rows=self._engine.rows)
        # Overlap needs a strided sweep with a non-empty ghost-free
        # interior span and an actual exchange to hide; other
        # directions sweep in bulk after the fill.
        self._split = [
            overlap and d not in self._engine.transposed_axes
            and self.local[d] >= 2 * ng and decomp.neighbor_sides(rank, d) > 0
            for d in range(layout.ndim)]
        # Per-axis cell widths sliced from the global grid, broadcast
        # shaped — the same values the serial divergence divides by.
        # They also serve the block's CFL rate (timestepping.wave_rate).
        slices = decomp.local_slices(rank)
        self.widths: list[np.ndarray] = []
        for d in range(layout.ndim):
            w = grid.widths(d)[slices[d]]
            newshape = [1] * layout.ndim
            newshape[d] = w.size
            self.widths.append(w.reshape(newshape))

    # -- the split RHS -------------------------------------------------------
    def rhs_begin(self, q: np.ndarray, *, prim: np.ndarray | None = None
                  ) -> np.ndarray:
        """Convert to primitives (tile by tile) and post every axis's
        boundary strips."""
        if prim is None:
            prim = cons_to_prim(self.layout, self.mixture, q, out=self.ws.prim,
                                tiles=self.ws)
        for d in range(self.layout.ndim):
            self.transport.post(self.rank, d, prim)
        return prim

    def rhs_finish(self, prim: np.ndarray, *,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Sweep all directions and assemble ``dq/dt`` for the block."""
        ws, lay = self.ws, self.layout
        dqdt = ws.dqdt if out is None else out
        dqdt.fill(0.0)
        divu = ws.divu
        divu.fill(0.0)
        for d in range(lay.ndim):
            self.limited_faces += self._engine.sweep(
                ws, prim, d, self.widths[d], dqdt, divu,
                split=self._split[d])
        for rows, new in row_tiles(dqdt, ws):
            nonconservative_tile(lay, prim[:, rows], divu[rows],
                                 dqdt[:, rows], new)
        return dqdt

    def rhs(self, q: np.ndarray, *, out: np.ndarray | None = None,
            prim: np.ndarray | None = None) -> np.ndarray:
        """One-shot RHS with the :func:`ssp_rk_step` workspace signature."""
        prim = self.rhs_begin(q, prim=prim)
        return self.rhs_finish(prim, out=out)

    def _fill_ghosts(self, d: int, padded: np.ndarray) -> None:
        """The engine's ghost hook: wall BCs, then the neighbours' strips."""
        fill_wall_ghosts(padded, self.layout, self.bcs, self.decomp,
                         self.rank, d, self._engine.ng)
        self.transport.fill(self.rank, d, padded)
