"""Analytic hardware models: device catalog, roofline, kernel cost model.

The paper's performance narrative is a roofline story: which kernels are
memory- vs compute-bound on which device, and how L2 capacity and HBM
bandwidth shape array-packing cost.  This package encodes the published
specs of every device the paper measures and prices kernels with a
roofline-plus-derating cost model whose derating factors are calibrated
to the paper's own quoted speedups (each factor's provenance is
documented where it is defined).
"""

from repro.common.lazy import lazy_exports

#: Every export and the submodule it lives in, imported on first access:
#: a run needs the device catalog and the tile heuristic (which it
#: imports as leaves), never the cost, roofline, transfer or cache models.
_EXPORTS = {
    "CPUS": "devices", "DEFAULT_HOST_KEY": "devices", "DEVICES": "devices",
    "GPUS": "devices", "DeviceSpec": "devices",
    "default_host_device": "devices", "get_device": "devices",
    "stream_triad_gbps": "devices",
    "RooflinePoint": "roofline", "attainable_gflops": "roofline",
    "ridge_intensity": "roofline",
    "CostModel": "costmodel", "KernelWorkload": "costmodel",
    "TransferModel": "transfer",
    "ProblemShape": "workloads", "rhs_workloads": "workloads",
    "step_workloads": "workloads",
    "SetAssociativeCache": "cache", "transpose_miss_ratio": "cache",
    "L2_OCCUPANCY": "tiling", "suggest_tile_count": "tiling",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
