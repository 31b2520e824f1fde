"""The MFC-equivalent solver: RHS assembly, case setup, simulation driver.

The post-run diagnostics resolve on first access: a run never calls them.
"""

from repro.common.lazy import lazy_exports
from repro.solver.rhs import RHS, RHSConfig
from repro.solver.case import Case, Patch, box, halfspace, sphere
from repro.solver.resilience import (
    RecoveryCounters,
    RetryPolicy,
    SimulationDivergedError,
    StateDiagnostics,
    check_state,
)
from repro.solver.simulation import Simulation, StepRecord
from repro.solver.geometry import GEOMETRIES
from repro.solver.positivity import limit_face_states
from repro.solver.sweep import SWEEP_LAYOUTS
from repro.solver.workspace import SolverWorkspace

#: Diagnostics exports, imported from :mod:`repro.solver.diagnostics`
#: on first access.
_DIAGNOSTICS = ("enstrophy", "interface_cells", "kinetic_energy", "max_mach",
                "mixedness", "phase_volumes")
__getattr__ = lazy_exports(__name__, dict.fromkeys(_DIAGNOSTICS, "diagnostics"))

__all__ = [
    "RHS",
    "RHSConfig",
    "Case",
    "Patch",
    "box",
    "halfspace",
    "sphere",
    "Simulation",
    "StepRecord",
    "RetryPolicy",
    "RecoveryCounters",
    "StateDiagnostics",
    "check_state",
    "SimulationDivergedError",
    "GEOMETRIES",
    "limit_face_states",
    "SWEEP_LAYOUTS",
    "SolverWorkspace",
    *_DIAGNOSTICS,
]
