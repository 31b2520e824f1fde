"""The time step: one body for every driver.

``prim → dt → clip → RK stages`` is spelled once, here.  The serial
driver (guarded or not), the batched ensemble driver and each rank of a
process cluster call :func:`time_step` and keep only their own
bookkeeping — clocks, history, checkpoints, retirement, heartbeats.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import array_namespace, to_host_array
from repro.common import DTYPE, timed
from repro.state.conversions import cons_to_prim
from repro.timestepping.cfl import rate_to_dt, wave_rate
from repro.timestepping.ssp_rk import ssp_rk_step


def horizon_reached(time_now, t_end):
    """Whether a clock (scalar or per-case vector) has landed on ``t_end``.

    The one horizon predicate of every run loop; the relative slack
    absorbs the rounding of a final step clipped onto the horizon.
    """
    return time_now >= t_end * (1.0 - 1e-12)


def _clip(dt, dt_limit):
    """``min(dt, dt_limit)`` with the drivers' comparison semantics."""
    if dt_limit is None:
        return dt
    if np.ndim(dt):
        return np.minimum(dt, dt_limit)
    return dt_limit if dt > dt_limit else dt


def time_step(rhs, q, *, layout, mixture, widths, options, workspace=None,
              dt=None, dt_limit=None, reduce=None, stopwatch=None):
    """Advance ``q`` one step; returns ``(q_new, dt, rk_start)``.

    Parameters
    ----------
    rhs:
        ``rhs(q, out=, prim=)`` (``rhs(q)`` without a workspace).
    widths:
        Per-direction cell widths of the block ``q`` covers (see
        :func:`~repro.timestepping.cfl.wave_rate`).
    options:
        Supplies ``cfl``, ``fixed_dt`` and ``rk_order``
        (:class:`~repro.solver.options.SolverOptions`).
    workspace:
        The :class:`~repro.solver.workspace.SolverWorkspace` ``rhs``
        runs on; with one, a single ``cons_to_prim`` (the ``"other"``
        lap) serves both the dt computation and RK stage one — their
        inputs are identical, so sharing is bitwise neutral.
    dt / dt_limit:
        A given step (else ``fixed_dt``, else ``cfl / wave_rate``) and
        its upper bound — the clip that lands a run exactly on its
        horizon.
    reduce:
        ``reduce(local_rate)`` starts a cross-rank max-reduction and
        returns the zero-argument call that completes it.  The CFL dt is
        then resolved inside :func:`ssp_rk_step`, after stage one's RHS,
        so the reduction overlaps that RHS.

    A batch-stacked ``q`` of shape ``(nvars, B, *grid)`` takes (and
    returns, on the host) a length-``B`` dt vector: each case advances
    with its own dt, bitwise as in a standalone step.  ``rk_start`` is
    the ``time.perf_counter()`` stamp at which the RK stages began, so
    every driver's step wall excludes the dt computation.
    """
    ws = workspace
    prim0 = None
    if ws is not None:
        with timed(stopwatch, "other"):
            prim0 = cons_to_prim(layout, mixture, q, out=ws.prim)
    batch = q.shape[1] if q.ndim == layout.ndim + 2 else None
    if dt is None:
        dt = options.fixed_dt
    finish = None
    if dt is None:
        prim = prim0 if prim0 is not None \
            else cons_to_prim(layout, mixture, q)
        rate = wave_rate(layout, mixture, prim, widths)
        if reduce is None:
            dt = rate_to_dt(options.cfl, rate)
        else:
            finish = reduce(rate)
    elif batch is not None and not np.ndim(dt):
        dt = np.full(batch, dt, dtype=DTYPE)

    if finish is None:
        dt = _clip(to_host_array(dt) if batch is not None else dt, dt_limit)
        dt_rk = dt
        if batch is not None:
            # The per-case dt field (B, 1, ...) against the stacked
            # (nvars, B, *grid) state; asarray is the H2D entry.
            dt_rk = array_namespace(q).asarray(
                dt.reshape((batch,) + (1,) * layout.ndim))
    else:
        def dt_rk():
            nonlocal dt
            dt = _clip(rate_to_dt(options.cfl, finish()), dt_limit)
            return dt

    rk_start = time.perf_counter()
    q_new = ssp_rk_step(rhs, q, dt_rk, options.rk_order, workspace=ws,
                        prim0=prim0)
    return q_new, dt, rk_start
