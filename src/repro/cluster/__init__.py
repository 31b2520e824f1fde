"""Distributed-run substrate: decomposition, simulated MPI, halo exchange,
I/O model, machine topologies, and the scaling experiment drivers."""

from repro.common.lazy import lazy_exports
from repro.cluster.decomposition import BlockDecomposition, factor3d

#: Every other export and the submodule it lives in, imported on first
#: access: ``repro.io`` needs only the decomposition, and a plain run
#: should not execute the process, halo, event and scaling stacks.
_EXPORTS = {
    "MachineSpec": "topology", "SUMMIT": "topology", "FRONTIER": "topology",
    "NetworkModel": "mpi_sim", "CommModel": "mpi_sim",
    "HaloExchanger": "halo", "validate_periodicity": "halo",
    "RankSolver": "ranksolver",
    "DistributedSolver": "distributed",
    "ProcessCluster": "procs", "ClusterResult": "procs", "RankFault": "procs",
    "SharedMemoryTransport": "procs", "ShmArena": "procs",
    "Event": "events", "EventSimulator": "events", "StepTimeline": "events",
    "Placement": "placement", "best_policy": "placement",
    "intra_node_fraction": "placement",
    "IOModel": "io_model",
    "FailureModel": "resilience", "daly_interval": "resilience",
    "resilience_waste": "resilience", "resilience_efficiency": "resilience",
    "ResilientPoint": "resilience", "ResilientRunOutcome": "resilience",
    "simulate_resilient_run": "resilience",
    "ScalingDriver": "scaling", "ScalingPoint": "scaling",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["BlockDecomposition", "factor3d", *_EXPORTS]
