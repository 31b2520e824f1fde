"""Device catalog: every GPU and CPU the paper benchmarks.

Numbers are vendor-published specifications (peak FP64 throughput, HBM /
DRAM bandwidth, L2 capacity).  Where the paper quotes a spec explicitly
(§V: "NVIDIA A100, H100, and GH200 have memory bandwidths of 2 TB/s,
3.35 TB/s, and 4 TB/s and L2 cache sizes of 40 MB, 50 MB, and 50 MB";
"the 8 MB L2 cache of the MI250X"; "low memory bandwidth of 900 GB/s"
for V100) we use the paper's value.

For the MI250X, ``peak_fp64_matrix_gflops`` is the matrix/packed-FMA
peak (47.9 TF per GCD); the paper's observation that the MI250X's
memory-to-compute-bound transition sits at 3.4x the arithmetic
intensity of a V100 is reproduced by using the matrix peak for the
roofline ridge (47.9/1.6 = 29.9 F/B vs V100's 7.8/0.9 = 8.7 F/B, ratio
3.45).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ConfigurationError


@dataclass(frozen=True)
class DeviceSpec:
    """Published hardware characteristics of one compute die.

    For multi-die packages (MI250X), the spec describes a single GCD —
    the scheduling unit the paper counts ("65536 MI250X GCDs").
    """

    name: str
    vendor: str
    kind: str                      # "gpu" | "cpu"
    peak_fp64_gflops: float        # vector/SIMD FP64 peak, GFLOP/s
    mem_bw_gbps: float             # DRAM/HBM bandwidth, GB/s
    l2_mib: float                  # last-level (GPU L2 / CPU L3) capacity, MiB
    peak_fp64_matrix_gflops: float | None = None  # matrix-engine peak if any
    cores: int | None = None       # CPU core count (for per-core normalisation)
    kernel_launch_us: float = 5.0  # kernel launch latency, microseconds

    def __post_init__(self) -> None:
        if self.kind not in ("gpu", "cpu"):
            raise ConfigurationError(f"kind must be gpu or cpu, got {self.kind!r}")
        if min(self.peak_fp64_gflops, self.mem_bw_gbps, self.l2_mib) <= 0:
            raise ConfigurationError(f"{self.name}: specs must be positive")

    @property
    def roofline_peak_gflops(self) -> float:
        """Peak used for the roofline ceiling (matrix engine when present)."""
        return self.peak_fp64_matrix_gflops or self.peak_fp64_gflops

    @property
    def ridge_flops_per_byte(self) -> float:
        """Arithmetic intensity of the memory/compute-bound transition."""
        return self.roofline_peak_gflops / self.mem_bw_gbps

    @property
    def l2_bytes(self) -> float:
        return self.l2_mib * 1024.0 * 1024.0


GPUS: dict[str, DeviceSpec] = {
    # OLCF Summit's V100 (SXM2): 7.8 TF FP64, paper quotes 900 GB/s.
    "v100": DeviceSpec("NV V100", "nvidia", "gpu", 7_800.0, 900.0, 6.0),
    # A100 PCIe (paper's compute-breakdown device): 9.7 TF, 2 TB/s, 40 MB L2.
    "a100": DeviceSpec("NV A100 PCIe", "nvidia", "gpu", 9_700.0, 2_000.0, 40.0),
    # H100 SXM: 34 TF vector / 67 TF tensor FP64, 3.35 TB/s, 50 MB L2.
    "h100": DeviceSpec("NV H100 SXM", "nvidia", "gpu", 34_000.0, 3_350.0, 50.0,
                       peak_fp64_matrix_gflops=67_000.0),
    # GH200's Hopper die with HBM3e: 4 TB/s per the paper.
    "gh200": DeviceSpec("NV GH200", "nvidia", "gpu", 34_000.0, 4_000.0, 50.0,
                        peak_fp64_matrix_gflops=67_000.0),
    # One MI250X GCD: 23.95 TF vector / 47.9 TF matrix, 1.6 TB/s, 8 MB L2.
    "mi250x": DeviceSpec("AMD MI250X GCD", "amd", "gpu", 23_950.0, 1_600.0, 8.0,
                         peak_fp64_matrix_gflops=47_900.0),
}

CPUS: dict[str, DeviceSpec] = {
    # AMD EPYC 9564 "Genoa" (paper's fastest CPU): 64 cores, Zen 4
    # AVX-512 at 16 DP FLOP/cycle/core, ~3.1 GHz sustained; 12ch DDR5-4800.
    "epyc9564": DeviceSpec("AMD EPYC 9564", "amd", "cpu", 3_170.0, 460.0, 256.0,
                           cores=64, kernel_launch_us=0.0),
    # Intel Xeon Max 9468 "Sapphire Rapids HBM": 48 cores, 2 AVX-512 FMA
    # ports (32 DP/cycle), ~2.1 GHz AVX base; 64 GB HBM2e.
    "xeonmax9468": DeviceSpec("Intel Xeon Max 9468", "intel", "cpu", 3_225.0, 1_000.0, 105.0,
                              cores=48, kernel_launch_us=0.0),
    # NVIDIA Grace: 72 Neoverse V2 cores, 4x128-bit SVE2 (16 DP/cycle),
    # ~3.1 GHz; LPDDR5X ~500 GB/s usable.
    "grace": DeviceSpec("NVIDIA Grace", "nvidia", "cpu", 3_570.0, 500.0, 114.0,
                        cores=72, kernel_launch_us=0.0),
    # IBM Power10 (dual-chip module as deployed): older, slower per §IV-D.
    "power10": DeviceSpec("IBM Power10", "ibm", "cpu", 1_600.0, 409.0, 120.0,
                          cores=30, kernel_launch_us=0.0),
}

DEVICES: dict[str, DeviceSpec] = {**GPUS, **CPUS}

#: Catalog entry standing in for "the machine this process runs on"
#: when a heuristic needs cache/bandwidth numbers but the caller named
#: no device: a mainstream many-core server CPU.
DEFAULT_HOST_KEY = "epyc9564"


def default_host_device() -> DeviceSpec:
    """The catalog's generic host stand-in (see :data:`DEFAULT_HOST_KEY`).

    Heuristics that are "informed by the device catalog" — the sweep
    engine's tile sizing, the tuner's host fingerprint — fall back to
    this spec when the caller passed no device.
    """
    return DEVICES[DEFAULT_HOST_KEY]


def get_device(key: str) -> DeviceSpec:
    """Look up a device by its short key (e.g. ``"mi250x"``)."""
    try:
        return DEVICES[key.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown device {key!r}; available: {sorted(DEVICES)}") from None


# ----------------------------------------------------------------------
# Measured host bandwidth (STREAM-triad probe)
# ----------------------------------------------------------------------
#
# Roofline predictions for *this* machine are only as good as the
# bandwidth number fed into them, and the catalog's generic host
# stand-in can be off by an integer factor on a laptop or a shared CI
# runner.  The probe below measures sustained triad bandwidth
# (a = b + s*c: two streamed reads, one streamed write — the classic
# STREAM kernel), the way the paper validates its §V cost model against
# measured kernel times.

def stream_triad_gbps(*, n_mib: float = 64.0, repeats: int = 5) -> float:
    """Sustained host bandwidth in GB/s from a STREAM-triad sweep.

    Each timed pass streams ``a = b + 0.5 * c`` over three ``n_mib``-MiB
    float64 arrays and is charged 24 bytes per element (two reads plus
    one write, STREAM's counting convention).  Returns the best of
    ``repeats`` passes — bandwidth is a ceiling, so the minimum time is
    the measurement and everything slower is interference.
    """
    import time as _time

    import numpy as np

    n = max(1, int(n_mib * 1024 * 1024 / 8))
    b = np.full(n, 1.5)
    c = np.full(n, 2.5)
    a = np.empty(n)
    np.add(b, 0.5 * c, out=a)  # untimed warmup (faults the pages in)
    best = None
    for _ in range(max(1, repeats)):
        t0 = _time.perf_counter()
        np.multiply(c, 0.5, out=a)
        np.add(b, a, out=a)
        elapsed = _time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    # The two-ufunc spelling streams c,a(w),b,a(r),a(w) = 40 B/elem of
    # true traffic but is charged STREAM's 24 B/elem triad convention,
    # making the figure conservative (never flatters the roofline).
    return 24.0 * n / best / 1e9
