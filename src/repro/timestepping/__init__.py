"""Explicit time integration: SSP Runge-Kutta and CFL-based step control."""

from repro.timestepping.cfl import (
    cfl_dt,
    cfl_dts,
    max_wave_speed,
    max_wave_speeds,
)
from repro.timestepping.ssp_rk import (
    SSP_SCHEMES,
    rk_stages,
    shu_osher_combine,
    ssp_rk_step,
)

__all__ = ["cfl_dt", "cfl_dts", "max_wave_speed", "max_wave_speeds",
           "SSP_SCHEMES", "rk_stages", "shu_osher_combine", "ssp_rk_step"]
