"""Distributed (multi-rank, in-process) version of the solver.

Runs the same numerics as :class:`repro.solver.simulation.Simulation`
over a :class:`~repro.cluster.decomposition.BlockDecomposition`, with
ghost values at interior faces supplied by the functional halo exchange
instead of physical BCs.  A decomposed run reproduces the single-block
run bit for bit (tests assert this), which is the correctness property
that makes the paper's weak/strong-scaling numbers meaningful.

Each rank is a :class:`~repro.cluster.ranksolver.RankSolver` owning a
full :class:`~repro.solver.workspace.SolverWorkspace` for its block, so
steady-state RHS evaluations allocate nothing — the distributed analog
of the serial ``out=`` paths (and what the multi-process executor in
:mod:`repro.cluster.procs` runs one-per-process).  The in-process
driver is bulk-synchronous: within every RK stage all ranks post their
boundary strips (:meth:`RankSolver.rhs_begin`) before any rank fills
ghosts and sweeps (:meth:`RankSolver.rhs_finish`), the single-process
stand-in for the shared-memory mailbox ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bc.boundary import BoundarySet
from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.halo import HaloExchanger
from repro.cluster.ranksolver import RankSolver
from repro.common import ConfigurationError
from repro.eos.mixture import Mixture
from repro.grid.cartesian import StructuredGrid
from repro.solver.rhs import RHSConfig
from repro.state.layout import StateLayout
from repro.timestepping.ssp_rk import (
    rk_stages,
    shu_osher_combine,
    stage_buffer,
)
from repro.weno import halo_width


@dataclass
class DistributedSolver:
    """Block-decomposed five-equation solver over simulated ranks."""

    grid: StructuredGrid
    layout: StateLayout
    mixture: Mixture
    bcs: BoundarySet
    decomp: BlockDecomposition
    config: RHSConfig = field(default_factory=RHSConfig)
    #: Sweep layout per rank — same knob (and bitwise-identity
    #: guarantee) as the serial solver's ``sweep_layout``.
    sweep_layout: str = "strided"
    #: Compute ghost-free interior faces before filling ghosts (the
    #: communication-hiding schedule the multi-process executor relies
    #: on).  Results are bitwise identical either way.
    overlap: bool = True

    def __post_init__(self) -> None:
        if self.decomp.global_cells != self.grid.shape:
            raise ConfigurationError(
                f"decomposition covers {self.decomp.global_cells}, "
                f"grid has {self.grid.shape}")
        self._ng = halo_width(self.config.weno_order)
        self.halo = HaloExchanger(self.decomp, self.layout, self.bcs, self._ng)
        self.ranks = [
            RankSolver(self.decomp, r, self.layout, self.mixture, self.bcs,
                       self.config, self.grid, self.halo,
                       sweep_layout=self.sweep_layout, overlap=self.overlap)
            for r in range(self.decomp.nranks)
        ]

    # ------------------------------------------------------------------
    def rhs_blocks(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Per-rank ``dq/dt``, with halo exchange before each sweep.

        Returns each rank's workspace ``dqdt`` buffer (reused by the
        next call — copy if it must survive).  Steady state allocates
        no new large arrays.
        """
        prims = [rank.rhs_begin(q) for rank, q in zip(self.ranks, blocks)]
        return [rank.rhs_finish(prim)
                for rank, prim in zip(self.ranks, prims)]

    def step_blocks(self, blocks: list[np.ndarray], dt: float,
                    rk_order: int = 3) -> list[np.ndarray]:
        """One SSP-RK step of every rank's block (bulk-synchronous).

        Returns each rank's stage buffer (the blocks are never written);
        the stage combinations are :func:`~repro.timestepping.ssp_rk.
        shu_osher_combine` over each rank's row tiles, the same call the
        serial stepper makes, so a decomposed step is bitwise the serial
        one.
        """
        stages = rk_stages(rk_order)
        q_n = blocks
        q_k = blocks
        for a, b, c in stages:
            rhs = self.rhs_blocks(q_k)
            q_k = [shu_osher_combine(qn, qk, L,
                                     stage_buffer(rank.ws, qn),
                                     a, b, c * dt, tiles=rank.ws)
                   for rank, qn, qk, L in zip(self.ranks, q_n, q_k, rhs)]
        return q_k

    # ------------------------------------------------------------------
    def run(self, q_global: np.ndarray, *, dt: float, n_steps: int,
            rk_order: int = 3) -> np.ndarray:
        """March a global field for ``n_steps`` and gather the result."""
        blocks = self.halo.split(q_global)
        for _ in range(n_steps):
            stepped = self.step_blocks(blocks, dt, rk_order)
            for block, result in zip(blocks, stepped):
                block[...] = result
        return self.halo.gather(blocks)
