"""Explicit time integration: SSP Runge-Kutta, CFL step control, the step body."""

from repro.timestepping.cfl import cfl_dt, rate_to_dt, wave_rate
from repro.timestepping.ssp_rk import (
    SSP_SCHEMES,
    rk_stages,
    shu_osher_combine,
    ssp_rk_step,
)
from repro.timestepping.step import horizon_reached, time_step

__all__ = ["cfl_dt", "rate_to_dt", "wave_rate", "horizon_reached",
           "time_step", "SSP_SCHEMES", "rk_stages", "shu_osher_combine",
           "ssp_rk_step"]
