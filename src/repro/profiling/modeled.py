"""End-to-end modeled runs: execute the real solver, profile it as if on
a simulated device.

:class:`ModeledRun` wraps a :class:`~repro.solver.simulation.Simulation`
and, for every time step taken, records the step's kernel-family
workloads (from :mod:`repro.hardware.workloads`, sized to the actual
grid and variable count) priced on a chosen device+compiler.  The result
is a :class:`~repro.profiling.profiler.Profile` whose breakdown and
grind time are directly comparable to the paper's Figs. 6-7 — produced
while the *numerics actually run* on the host.
"""

from __future__ import annotations

from repro.common import ConfigurationError
from repro.hardware.costmodel import CostModel
from repro.hardware.devices import DeviceSpec
from repro.hardware.workloads import ProblemShape, rhs_workloads
from repro.profiling.profiler import Profile
from repro.solver.simulation import Simulation
from repro.timestepping.ssp_rk import SSP_SCHEMES


class ModeledRun:
    """Couples a live simulation to a device cost model."""

    def __init__(self, sim: Simulation, device: DeviceSpec, compiler: str = "nvhpc"):
        self.sim = sim
        self.device = device
        self.cost = CostModel(device, compiler)
        self.profile = Profile(device_name=device.name)
        self._shape = ProblemShape(cells=sim.grid.num_cells,
                                   nvars=sim.layout.nvars,
                                   ndim=sim.layout.ndim)
        self._per_rhs = rhs_workloads(self._shape)

    # ------------------------------------------------------------------
    def step(self):
        """Advance the real simulation one step; account its modeled cost."""
        return self.sim.step(callback=self._account)

    def run(self, *, n_steps: int):
        self.sim.run(n_steps=n_steps, callback=self._account)

    def _account(self, sim, rec) -> None:
        for _ in range(len(SSP_SCHEMES[sim.rk_order])):
            for w in self._per_rhs:
                self.profile.record(w.name, w.kernel_class,
                                    self.cost.kernel_time(w),
                                    flops=w.flops, nbytes=w.bytes)

    # ------------------------------------------------------------------
    def modeled_grind_ns(self) -> float:
        """Modeled ns per cell, PDE, and RHS evaluation on the device."""
        if not self.sim.history:
            raise ConfigurationError("no steps recorded yet")
        rhs_evals = len(SSP_SCHEMES[self.sim.rk_order]) * len(self.sim.history)
        return self.profile.grind_time_ns(cells=self.sim.grid.num_cells,
                                          pdes=self.sim.layout.nvars,
                                          rhs_evals=rhs_evals)

    def host_grind_ns(self) -> float:
        """The real (NumPy) grind time of the same steps."""
        return self.sim.grind_time_ns()

    def speedup_over_host(self) -> float:
        """How much faster the modeled device is than this host."""
        return self.host_grind_ns() / self.modeled_grind_ns()

    def report(self) -> str:
        return self.profile.report()
