"""Discrete-event timeline of a distributed time step.

The closed-form :class:`~repro.cluster.scaling.ScalingDriver` prices a
step as compute + comm of one representative rank.  This module builds
the *full dependency timeline* instead: every rank's compute, buffer
pack, (optional) D2H staging, wire transfer, H2D staging, and unpack
events, with each receive gated on its partner's send.  That exposes
what the closed form cannot:

* **load imbalance** — remainder cells make some blocks larger; their
  neighbours idle at the exchange,
* **imbalance propagation** — a slow rank delays its neighbours, whose
  delay spreads one hop per exchange phase,
* **per-rank idle fractions and a critical path**, renderable as a
  Gantt-style trace.

The model is bulk-synchronous per sweep dimension, matching MFC's
dimension-by-dimension ``MPI_Sendrecv`` ladder (§III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.mpi_sim import NetworkModel
from repro.cluster.topology import MachineSpec
from repro.common import ConfigurationError
from repro.hardware.costmodel import CostModel
from repro.hardware.workloads import ProblemShape, rhs_workloads
from repro.weno import halo_width


@dataclass(frozen=True)
class Event:
    """One timeline entry of one rank."""

    rank: int
    kind: str          # "compute" | "pack" | "stage" | "wire" | "unpack" | "idle"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StepTimeline:
    """The simulated timeline of one RHS evaluation (or whole step)."""

    events: list[Event] = field(default_factory=list)
    finish: float = 0.0
    nranks: int = 0

    def rank_events(self, rank: int) -> list[Event]:
        return [e for e in self.events if e.rank == rank]

    def busy_seconds(self, rank: int) -> float:
        return sum(e.duration for e in self.rank_events(rank)
                   if e.kind != "idle")

    def idle_fraction(self, rank: int) -> float:
        busy = self.busy_seconds(rank)
        return 1.0 - busy / self.finish if self.finish > 0 else 0.0

    def max_idle_fraction(self) -> float:
        return max(self.idle_fraction(r) for r in range(self.nranks))

    def gantt(self, *, width: int = 72, max_ranks: int = 12) -> str:
        """ASCII Gantt chart of the timeline (c/p/s/w/u per event kind)."""
        glyph = {"compute": "c", "pack": "p", "stage": "s", "wire": "w",
                 "unpack": "u", "idle": "."}
        lines = [f"step timeline: {self.finish * 1e3:.3f} ms, {self.nranks} ranks"]
        scale = width / self.finish if self.finish > 0 else 0.0
        for r in range(min(self.nranks, max_ranks)):
            row = ["."] * width
            for e in self.rank_events(r):
                a = min(int(e.start * scale), width - 1)
                b = max(min(int(e.end * scale), width), a + 1)
                for i in range(a, b):
                    row[i] = glyph[e.kind]
            lines.append(f"r{r:03d} |{''.join(row)}|")
        if self.nranks > max_ranks:
            lines.append(f"... ({self.nranks - max_ranks} more ranks)")
        return "\n".join(lines)


class EventSimulator:
    """Simulates per-rank timelines for one machine + decomposition."""

    def __init__(self, machine: MachineSpec, decomp: BlockDecomposition,
                 *, gpu_aware: bool = True, nvars: int = 7,
                 weno_order: int = 5, compute_noise: float = 0.0,
                 seed: int = 0, use_intra_node_links: bool = False):
        if decomp.ndim != 3:
            raise ConfigurationError("the event simulator models 3D runs")
        self.machine = machine
        self.decomp = decomp
        self.gpu_aware = gpu_aware
        self.nvars = nvars
        #: Refinement beyond the closed-form model: messages between
        #: devices on the same node use the NVLink/xGMI link instead of
        #: the NIC.  Ranks pack onto nodes contiguously.
        self.use_intra_node_links = use_intra_node_links
        self._ng = halo_width(weno_order)
        self._cost = CostModel(machine.device, machine.compiler)
        self._net = NetworkModel.of(machine)
        #: Multiplicative per-rank compute jitter (OS noise, clock spread).
        rng = np.random.default_rng(seed)
        self._noise = 1.0 + compute_noise * rng.standard_normal(decomp.nranks)
        self._noise = np.maximum(self._noise, 0.5)

    # ------------------------------------------------------------------
    def _compute_seconds(self, rank: int) -> float:
        local = self.decomp.local_cells(rank)
        cells = int(np.prod(local))
        shape = ProblemShape(cells=cells, nvars=self.nvars)
        return self._cost.suite_time(rhs_workloads(shape)) * float(self._noise[rank])

    def _face_bytes(self, rank: int, axis: int) -> float:
        local = self.decomp.local_cells(rank)
        face = int(np.prod(local)) // local[axis]
        return float(self._ng * face * self.nvars * 8)

    def _pack_seconds(self, nbytes: float) -> float:
        bw = self.machine.device.mem_bw_gbps * 1e9
        eta = self._cost.efficiency("pack")
        return 2.0 * nbytes / (bw * eta)  # gather + scatter traffic

    def _stage_seconds(self, nbytes: float) -> float:
        return self.machine.staging_link.time(nbytes)

    def _node_of(self, rank: int) -> int:
        return rank // self.machine.devices_per_node

    def _wire_seconds(self, r: int, partner: int | None, nbytes: float,
                      nnodes: int) -> float:
        """Message time, taking the intra-node fast path when enabled."""
        if (self.use_intra_node_links and partner is not None
                and self._node_of(r) == self._node_of(partner)):
            return self.machine.intra_node_link.time(nbytes)
        return self._net.message_time(nbytes, nnodes=nnodes)

    # ------------------------------------------------------------------
    def simulate_rhs(self) -> StepTimeline:
        """One RHS evaluation: compute, then the 3-phase halo ladder."""
        n = self.decomp.nranks
        tl = StepTimeline(nranks=n)
        t = np.zeros(n)
        nnodes = max(1, n // self.machine.devices_per_node)

        # Compute phase.
        for r in range(n):
            dt = self._compute_seconds(r)
            tl.events.append(Event(r, "compute", t[r], t[r] + dt))
            t[r] += dt

        # Per-dimension exchange ladder: pack once, then two shift phases
        # (send low / recv high, then send high / recv low).  A rank's
        # ``MPI_Sendrecv`` completes when it, the sender of its incoming
        # message, and the receiver of its outgoing message have all
        # reached the phase — a one-hop rendezvous with no chains, which
        # is how the shift pattern behaves in practice.
        for axis in range(3):
            cur = t.copy()
            for r in range(n):
                nbytes = self._face_bytes(r, axis)
                pack_dt = self._pack_seconds(nbytes)
                tl.events.append(Event(r, "pack", cur[r], cur[r] + pack_dt))
                cur[r] += pack_dt
                if not self.gpu_aware:
                    stage_dt = self._stage_seconds(nbytes)
                    tl.events.append(Event(r, "stage", cur[r], cur[r] + stage_dt))
                    cur[r] += stage_dt

            for send_side in (-1, 1):
                starts = cur.copy()
                next_cur = cur.copy()
                for r in range(n):
                    to = self.decomp.neighbor(r, axis, send_side)
                    frm = self.decomp.neighbor(r, axis, -send_side)
                    if to is None and frm is None:
                        continue
                    start = starts[r]
                    for partner in (to, frm):
                        if partner is not None:
                            start = max(start, starts[partner])
                    if start > starts[r]:
                        tl.events.append(Event(r, "idle", starts[r], start))
                    nbytes = self._face_bytes(r, axis)
                    wire_dt = self._wire_seconds(r, frm if frm is not None else to,
                                                 nbytes, nnodes)
                    done = start + wire_dt
                    tl.events.append(Event(r, "wire", start, done))
                    if frm is not None:  # something arrived to unpack
                        if not self.gpu_aware:
                            stage_dt = self._stage_seconds(nbytes)
                            tl.events.append(Event(r, "stage", done,
                                                   done + stage_dt))
                            done += stage_dt
                        unpack_dt = self._pack_seconds(nbytes) * 0.5
                        tl.events.append(Event(r, "unpack", done,
                                               done + unpack_dt))
                        done += unpack_dt
                    next_cur[r] = done
                cur = next_cur
            t = cur

        tl.finish = float(t.max())
        return tl

    def simulate_step(self, *, rhs_evals: int = 3) -> StepTimeline:
        """A full SSP-RK step: RHS timelines back to back."""
        total = StepTimeline(nranks=self.decomp.nranks)
        offset = 0.0
        for _ in range(rhs_evals):
            tl = self.simulate_rhs()
            for e in tl.events:
                total.events.append(Event(e.rank, e.kind, e.start + offset,
                                          e.end + offset))
            offset += tl.finish
        total.finish = offset
        return total
