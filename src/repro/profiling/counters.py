"""Hardware-style counters: modeled per-kernel metrics and measured
per-sweep data-movement accounting.

:func:`kernel_counters` derives, for each kernel workload on a device,
the counters a GPU profiler would report: DRAM read/write traffic,
achieved bandwidth and its fraction of peak, FP64 throughput, L2
hit/miss estimates (from the mechanistic cache model for packing
kernels, from the roofline-implied reuse for compute kernels), and
occupancy of the launch configuration.

:class:`SweepCounters` is the *measured* counterpart for the layout
engine's host execution: it tallies how many direction sweeps ran with
strided vs. contiguous inner loops and how many bytes were physically
permuted between layouts — making the coalescing win observable, not
just timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common import ConfigurationError

if TYPE_CHECKING:
    from repro.hardware.costmodel import KernelWorkload
    from repro.hardware.devices import DeviceSpec

#: Assumed read share of a kernel's DRAM traffic (reads dominate in the
#: reconstruction/flux kernels; packing is symmetric).
READ_FRACTION = {"weno": 0.75, "riemann": 0.65, "pack": 0.5, "other": 0.6}

#: L2 transaction size used for miss-count estimates.
L2_LINE_BYTES = 128


@dataclass(frozen=True)
class KernelCounters:
    """One kernel's modeled counter set."""

    name: str
    kernel_class: str
    seconds: float
    dram_read_bytes: float
    dram_write_bytes: float
    achieved_bw_gbps: float
    bw_fraction_of_peak: float
    fp64_gflops: float
    fp64_fraction_of_peak: float
    l2_requests: float
    l2_miss_ratio: float
    occupancy: float

    @property
    def l2_misses(self) -> float:
        return self.l2_requests * self.l2_miss_ratio

    def as_row(self) -> str:
        return (f"{self.name:<24} {self.seconds * 1e6:>9.1f} "
                f"{self.dram_read_bytes / 1e6:>9.1f} "
                f"{self.dram_write_bytes / 1e6:>9.1f} "
                f"{self.achieved_bw_gbps:>8.0f} ({100 * self.bw_fraction_of_peak:>4.1f}%) "
                f"{self.fp64_gflops:>8.0f} ({100 * self.fp64_fraction_of_peak:>4.1f}%) "
                f"{100 * self.l2_miss_ratio:>6.1f}% {100 * self.occupancy:>5.0f}%")


def kernel_counters(device: DeviceSpec, work: KernelWorkload,
                    compiler: str = "nvhpc") -> KernelCounters:
    """Derive the modeled counter set of one kernel on one device."""
    # The models load here, not with the measured counters a run records.
    from repro.hardware.cache import transpose_miss_ratio
    from repro.hardware.costmodel import CostModel, GPU_SATURATION_THREADS
    from repro.hardware.roofline import ridge_intensity

    cost = CostModel(device, compiler)
    seconds = cost.kernel_time(work)
    if seconds <= 0.0:
        raise ConfigurationError("kernel time must be positive")

    read_frac = READ_FRACTION.get(work.kernel_class, 0.6)
    dram_read = work.bytes * read_frac
    dram_write = work.bytes * (1.0 - read_frac)
    bw = work.bytes / seconds / 1e9
    flops = work.flops / seconds / 1e9 if work.flops else 0.0

    # L2: every DRAM byte came through L2 as a miss; hits add the reuse
    # traffic.  For packing, the mechanistic cache model supplies the
    # miss ratio; for compute kernels, reuse ~ AI relative to the ridge.
    if work.kernel_class == "pack":
        miss_ratio = transpose_miss_ratio(device)
    else:
        reuse = min(work.intensity / ridge_intensity(device), 8.0)
        miss_ratio = 1.0 / (1.0 + reuse)
    l2_requests = (work.bytes / L2_LINE_BYTES) / max(miss_ratio, 1e-6)

    occupancy = (min(1.0, work.threads / GPU_SATURATION_THREADS)
                 if device.kind == "gpu" else 1.0)

    return KernelCounters(
        name=work.name,
        kernel_class=work.kernel_class,
        seconds=seconds,
        dram_read_bytes=dram_read,
        dram_write_bytes=dram_write,
        achieved_bw_gbps=bw,
        bw_fraction_of_peak=bw / device.mem_bw_gbps,
        fp64_gflops=flops,
        fp64_fraction_of_peak=flops / device.roofline_peak_gflops,
        l2_requests=l2_requests,
        l2_miss_ratio=miss_ratio,
        occupancy=occupancy,
    )


@dataclass
class SweepCounters:
    """Measured data-movement accounting of the sweep engine.

    One instance lives on each :class:`~repro.solver.rhs.RHS` and is
    bumped once per direction sweep (not per tile: under the gang
    backend the parent's copy is the record, the workers' are private).

    Attributes
    ----------
    strided_sweeps / transposed_sweeps:
        Direction sweeps that reconstruct across the rows of a
        standard-order tile (every direction but the trailing one) vs.
        sweeps whose tile was gathered into reconstruction-axis-first
        order (the trailing direction; see
        :func:`~repro.solver.workspace.tile_axes`).  A single-case 1D
        sweep, reconstructing along its only spatial axis, is neither.
    bytes_reconstructed_strided / bytes_reconstructed_contiguous:
        Face-state bytes (both sides) reconstructed along an outer axis
        of the tile (both kinds of sweep above) vs. along its innermost
        axis (a 1D sweep, or the allocating reference path's trailing
        direction).
    transposes:
        Physical layout permutations performed: one gather per
        gathered sweep (its divergence accumulates back through a view).
    bytes_transposed:
        Bytes those permutations moved (each counted once, by the size
        of the permuted array).
    weno_passes:
        Whole-array ufunc passes the reconstruction kernels made over
        face-sized operands (both sides).  Fused sweeps tally the *same*
        nominal pass count as their unfused twins (the fused kernel
        performs the identical ufunc sequence, only on tile-sized
        operands), so BENCH_rhs.json pass counts stay comparable across
        modes; the fusion win is carried by the two fields below.
    fused_launches:
        Fused per-tile kernel invocations (one per tile per direction
        sweep) made by the :mod:`repro.acc.fusion` engine.
    fused_passes_saved:
        Field-sized intermediate passes those launches avoided
        materialising: for each fused launch, the pipeline stages
        between the first and last fused stage would each have written a
        field-sized intermediate in the unfused engine but stayed in
        L2-tile-sized scratch instead.
    faces / faces_evaluated:
        Cell faces (per variable) the sweeps cover — nominal, the whole
        face range of every sweep — and the ones whose WENO, limiter
        and Riemann kernels actually ran: a staged tile leaves out the
        faces its active span excludes
        (:func:`~repro.solver.sweep.active_faces`), summed over gang
        members and ranks; fused tiles and the reference path evaluate
        all of theirs.
    """

    strided_sweeps: int = 0
    transposed_sweeps: int = 0
    bytes_reconstructed_strided: int = 0
    bytes_reconstructed_contiguous: int = 0
    transposes: int = 0
    bytes_transposed: int = 0
    weno_passes: int = 0
    fused_launches: int = 0
    fused_passes_saved: int = 0
    faces: int = 0
    faces_evaluated: int = 0

    def record_strided(self, face_bytes: int, *, contiguous: bool = False,
                       weno_passes: int = 0, faces: int = 0) -> None:
        """Count one sweep that ran in the standard layout.

        ``contiguous=True`` marks a sweep whose reconstruction axis is
        the trailing array axis (a 1D tile, or the reference path's
        trailing direction).  ``faces`` is the sweep's nominal face
        count, evaluated until :meth:`record_skipped` says otherwise.
        """
        if contiguous:
            self.bytes_reconstructed_contiguous += face_bytes
        else:
            self.strided_sweeps += 1
            self.bytes_reconstructed_strided += face_bytes
        self.weno_passes += weno_passes
        self.faces += faces
        self.faces_evaluated += faces

    def record_transposed(self, face_bytes: int, transposed_bytes: int, *,
                          weno_passes: int = 0, faces: int = 0) -> None:
        """Count one sweep whose tiles were gathered (one transpose)."""
        self.transposed_sweeps += 1
        self.bytes_reconstructed_strided += face_bytes
        self.transposes += 1
        self.bytes_transposed += transposed_bytes
        self.weno_passes += weno_passes
        self.faces += faces
        self.faces_evaluated += faces

    def record_skipped(self, faces: int) -> None:
        """Take faces a sweep's tiles left out off the evaluated count."""
        self.faces_evaluated -= faces

    @property
    def evaluated_fraction(self) -> float | None:
        """``faces_evaluated / faces``; None before any sweep."""
        return self.faces_evaluated / self.faces if self.faces else None

    def merge(self, other: "SweepCounters") -> None:
        self.strided_sweeps += other.strided_sweeps
        self.transposed_sweeps += other.transposed_sweeps
        self.bytes_reconstructed_strided += other.bytes_reconstructed_strided
        self.bytes_reconstructed_contiguous += other.bytes_reconstructed_contiguous
        self.transposes += other.transposes
        self.bytes_transposed += other.bytes_transposed
        self.weno_passes += other.weno_passes
        self.fused_launches += other.fused_launches
        self.fused_passes_saved += other.fused_passes_saved
        self.faces += other.faces
        self.faces_evaluated += other.faces_evaluated

    def record_fused(self, launches: int, passes_saved: int) -> None:
        """Count one direction sweep's fused per-tile kernel launches.

        Called *in addition to* :meth:`record_strided` /
        :meth:`record_transposed` (which keep the layout and nominal
        pass accounting comparable across variants): ``launches`` is the
        tile count of the sweep, ``passes_saved`` the field-sized
        intermediate passes fusion kept tile-resident.
        """
        self.fused_launches += launches
        self.fused_passes_saved += passes_saved

    def as_dict(self) -> dict:
        """Plain dict for JSON benchmark records."""
        return {
            "strided_sweeps": self.strided_sweeps,
            "transposed_sweeps": self.transposed_sweeps,
            "bytes_reconstructed_strided": self.bytes_reconstructed_strided,
            "bytes_reconstructed_contiguous": self.bytes_reconstructed_contiguous,
            "transposes": self.transposes,
            "bytes_transposed": self.bytes_transposed,
            "weno_passes": self.weno_passes,
            "fused_launches": self.fused_launches,
            "fused_passes_saved": self.fused_passes_saved,
            "faces": self.faces,
            "faces_evaluated": self.faces_evaluated,
        }

    def summary(self) -> str:
        """One-line human summary (printed by the CLI and reports)."""
        return (f"sweeps: {self.transposed_sweeps} transposed, "
                f"{self.strided_sweeps} strided; "
                f"{self.bytes_transposed / 1e6:.1f} MB gathered via "
                f"{self.transposes} transposes; reconstructed "
                f"{self.bytes_reconstructed_contiguous / 1e6:.1f} MB "
                f"contiguous / "
                f"{self.bytes_reconstructed_strided / 1e6:.1f} MB strided; "
                f"{self.weno_passes} WENO ufunc passes; "
                f"{self.fused_launches} fused launches "
                f"({self.fused_passes_saved} field passes kept tile-resident)")


@dataclass
class HaloCounters:
    """Measured communication accounting of the halo-exchange transport.

    One instance lives on each rank's
    :class:`~repro.cluster.procs.SharedMemoryTransport`; multi-process
    runs merge the per-rank instances into one cluster-wide tally, the
    comm-side counterpart of :class:`SweepCounters`.

    Attributes
    ----------
    messages:
        Halo buffers received and unpacked into ghost layers (the
        shared-memory analog of one ``MPI_Sendrecv`` completion).
    bytes_exchanged:
        Payload bytes those messages carried.
    posts:
        Boundary regions packed and posted to a neighbour's mailbox.
    waits:
        Spins on a peer: a receive that found the neighbour's mailbox
        not yet posted, a post whose previous strip was not yet
        acknowledged, or a reduction slot not yet written (zero for
        the halo when every rank posts before any rank fills, as an
        in-process team does).
    wait_ns:
        Nanoseconds spent in those spins: time a rank sat idle on a
        peer.  Every strip is posted before the first sweep, so on one
        host this is load imbalance between the ranks, not hidden or
        un-hidden wire latency.
    reductions:
        Cluster-wide dt min-reductions performed (one per CFL step).
    reductions_overlapped:
        The subset of those reductions whose completion was overlapped
        with the first RK stage's RHS (``reduce_max_begin`` before it,
        ``reduce_max_finish`` after it) instead of blocking the step up
        front — the one communication the rank step overlaps.
    """

    messages: int = 0
    bytes_exchanged: int = 0
    posts: int = 0
    waits: int = 0
    wait_ns: int = 0
    reductions: int = 0
    reductions_overlapped: int = 0

    def merge(self, other: "HaloCounters") -> None:
        self.messages += other.messages
        self.bytes_exchanged += other.bytes_exchanged
        self.posts += other.posts
        self.waits += other.waits
        self.wait_ns += other.wait_ns
        self.reductions += other.reductions
        self.reductions_overlapped += other.reductions_overlapped

    def as_dict(self) -> dict:
        """Plain dict for JSON benchmark records."""
        return {
            "messages": self.messages,
            "bytes_exchanged": self.bytes_exchanged,
            "posts": self.posts,
            "waits": self.waits,
            "wait_ns": self.wait_ns,
            "reductions": self.reductions,
            "reductions_overlapped": self.reductions_overlapped,
        }

    def summary(self) -> str:
        """One-line human summary (printed by the CLI and reports)."""
        return (f"halo: {self.messages} messages, "
                f"{self.bytes_exchanged / 1e6:.1f} MB exchanged, "
                f"{self.posts} posts; {self.waits} waits "
                f"({self.wait_ns / 1e6:.1f} ms waiting); "
                f"{self.reductions} reductions "
                f"({self.reductions_overlapped} overlapped)")


def counters_report(device: DeviceSpec, works: list[KernelWorkload],
                    compiler: str = "nvhpc") -> str:
    """The full metrics table for a kernel suite."""
    lines = [
        f"modeled counters on {device.name} ({compiler})",
        f"{'kernel':<24} {'time us':>9} {'rd MB':>9} {'wr MB':>9} "
        f"{'BW GB/s (pk)':>15} {'GF/s (pk)':>15} {'L2miss':>7} {'occ':>6}",
    ]
    for w in works:
        lines.append(kernel_counters(device, w, compiler).as_row())
    return "\n".join(lines)
