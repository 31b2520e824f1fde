"""The time step: one body for every driver.

``prim → dt → clip → RK stages`` is spelled once, here, and called
from one place: the march loop (:class:`repro.solver.march.March`) that
a standalone case, a batch and each rank of a process cluster run.
"""

from __future__ import annotations

import numpy as np

from repro.backend import array_namespace, to_host_array
from repro.common import DTYPE, timed
from repro.state.conversions import cons_to_prim
from repro.timestepping.cfl import rate_to_dt, wave_rate
from repro.timestepping.ssp_rk import folds, ssp_rk_step


def horizon_reached(time_now, t_end):
    """Whether a clock (scalar or per-case vector) has landed on ``t_end``.

    The horizon predicate of the march loop; the relative slack
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
    """Advance ``q`` one step; returns ``(q_new, dt)``.

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
        runs on.  An ``rhs`` that :func:`~repro.timestepping.ssp_rk.
        folds` its stages measures the CFL wave rate itself, in stage
        one's first sweep, tile by tile as it converts ``q`` to
        primitives; otherwise a single ``cons_to_prim`` (the ``"other"``
        lap) serves both the dt computation and RK stage one — their
        inputs are identical, so sharing is bitwise neutral.
    dt / dt_limit:
        A given step (else ``fixed_dt``, else ``cfl / wave_rate``) and
        its upper bound — the clip that lands a run exactly on its
        horizon.
    reduce:
        ``reduce(local_rate)`` starts a cross-rank max-reduction and
        returns the zero-argument call that completes it.  The CFL dt is
        then resolved inside :func:`ssp_rk_step`, after stage one's
        first sweep (a folding RHS, such as a rank's) or its whole RHS,
        so the reduction overlaps that compute.

    A batch-stacked ``q`` of shape ``(nvars, B, *grid)`` takes (and
    returns, on the host) a length-``B`` dt vector: each case advances
    with its own dt, bitwise as in a standalone step.
    """
    ws = workspace
    batch = q.shape[1] if q.ndim == layout.ndim + 2 else None

    def rk_form(dt):
        """The host dt as the RK stages take it: a batch's per-case
        field ``(B, 1, ...)`` against the stacked ``(nvars, B, *grid)``
        state (asarray is the H2D entry)."""
        if batch is None:
            return dt
        return array_namespace(q).asarray(
            dt.reshape((batch,) + (1,) * layout.ndim))

    def from_rate(rate):
        nonlocal dt
        dt = rate_to_dt(options.cfl, rate)
        dt = _clip(to_host_array(dt) if batch is not None else dt, dt_limit)
        return rk_form(dt)

    if dt is None:
        dt = options.fixed_dt
    prim0 = None
    measure = False
    if dt is not None:
        if batch is not None and not np.ndim(dt):
            dt = np.full(batch, dt, dtype=DTYPE)
        dt = _clip(to_host_array(dt) if batch is not None else dt, dt_limit)
        dt_rk = rk_form(dt)
    elif reduce is None and folds(rhs, ws, q):
        dt_rk, measure = from_rate, True
    else:
        with timed(stopwatch, "other"):
            prim0 = cons_to_prim(layout, mixture, q,
                                 out=ws.prim if ws is not None else None,
                                 tiles=ws)
        rate = wave_rate(layout, mixture, prim0, widths, tiles=ws)
        if reduce is None:
            dt_rk = from_rate(rate)
        else:
            finish = reduce(rate)

            def dt_rk():
                return from_rate(finish())

    q_new = ssp_rk_step(rhs, q, dt_rk, options.rk_order, workspace=ws,
                        prim0=prim0 if ws is not None else None,
                        rate=measure)
    return q_new, dt
