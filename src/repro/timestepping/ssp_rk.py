"""Strong-stability-preserving Runge-Kutta integrators (Shu-Osher form).

MFC time-marches with SSP-RK3; orders 1 and 2 are provided for testing
and temporal-convergence studies.  Each stage is a convex combination

.. math::

   q^{(k)} = a\\,q^n + b\\,q^{(k-1)} + c\\,\\Delta t\\,L(q^{(k-1)}),

which preserves any convex invariant (positivity, maximum principles)
the forward-Euler building block preserves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.backend import array_namespace
from repro.common import ConfigurationError
from repro.state.conversions import row_tiles
from repro.timestepping.cfl import tile_of

#: Shu-Osher tableaux: per stage, coefficients (a, b, c) of
#: ``a*q_n + b*q_prev + c*dt*L(q_prev)``.
SSP_SCHEMES: dict[int, tuple[tuple[float, float, float], ...]] = {
    1: (
        (1.0, 0.0, 1.0),
    ),
    2: (
        (1.0, 0.0, 1.0),
        (0.5, 0.5, 0.5),
    ),
    3: (
        (1.0, 0.0, 1.0),
        (0.75, 0.25, 0.25),
        (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0),
    ),
}


def rk_stages(order: int) -> tuple[tuple[float, float, float], ...]:
    """The Shu-Osher tableau for ``order`` (validated)."""
    if order not in SSP_SCHEMES:
        raise ConfigurationError(
            f"SSP-RK order must be one of {sorted(SSP_SCHEMES)}, got {order}")
    return SSP_SCHEMES[order]


def shu_osher_combine(q_n, q_k, L, out, a, b, cdt, *, tiles=None):
    """``out = (a*q_n + b*q_k) + cdt*L``, tile by tile over
    :func:`~repro.state.conversions.row_tiles` (``tiles`` as there).

    ``cdt`` is a scalar or a per-case field broadcasting against the
    trailing axes (a batch's ``(B, 1, ...)``).  ``out`` may alias
    ``q_n`` or ``q_k`` (see :func:`shu_osher_tile`).
    """
    for rows, new in row_tiles(out, tiles):
        idx = (slice(None), rows)
        shu_osher_tile(q_n[idx], q_k[idx], L[idx], out[idx],
                       new(out[idx].shape), a, b, tile_of(cdt, (rows,)))
    return out


def shu_osher_tile(q_n, q_k, L, out, tmp, a, b, cdt) -> None:
    """One tile of a stage combination through the scratch ``tmp``.

    The one spelling every step driver shares: five ufunc evaluations
    grouped exactly as the allocating expression ``a*q_n + b*q_k +
    cdt*L``, so all drivers stay bitwise identical.  ``out`` may alias
    ``q_n`` (its first write, ``a*q_n``, is element-aligned) *or*
    ``q_k`` (read whole into ``tmp`` before ``a*q_n`` lands on it): a
    stage can update its own buffer in place.  ``tmp`` must not alias
    any operand.
    """
    xp = array_namespace(q_n, q_k, L)
    xp.multiply(q_k, b, out=tmp)
    xp.multiply(q_n, a, out=out)
    xp.add(out, tmp, out=out)
    xp.multiply(L, cdt, out=tmp)
    xp.add(out, tmp, out=out)


def stage_buffer(workspace, k: int, n_stages: int):
    """Destination of stage ``k``: the result buffer for the last stage,
    else the one stage buffer.

    The result buffer may alias ``q_n`` (it is the previous step's
    output), so ``q_n`` stays intact until the final combination; the
    intermediate stages update ``rk_stage`` in place.
    """
    return workspace.rk_result if k == n_stages - 1 else workspace.rk_stage


@dataclass
class Stage:
    """One stage a folding RHS completes itself: after ``L(q_k)`` it
    writes ``dest = a*q_n + b*q_k + (c*dt)*L`` tile by tile, where
    ``q_n`` is the workspace's ``rk_result`` (the step input).

    ``dt`` is the RK form of the step — a scalar or a batch's per-case
    field — or a callable :meth:`resolve` calls once: with the wave rate
    of ``q_k`` the RHS measured when ``rate`` is set, else with none.
    """

    dest: object
    a: float
    b: float
    c: float
    dt: object
    rate: bool = False

    def resolve(self, rate=None):
        """The stage's dt, resolving a callable one (once)."""
        if callable(self.dt):
            self.dt = self.dt(rate) if self.rate else self.dt()
        return self.dt


def folds(rhs, workspace, q) -> bool:
    """Whether ``rhs`` finishes its own stages on ``workspace``
    (:class:`Stage`; the solver's :class:`~repro.solver.rhs.RHS` does,
    and so does any proxy forwarding its attributes and keywords)."""
    return (workspace is not None and getattr(rhs, "folds", False)
            and rhs.workspace is workspace and workspace.compatible(q))


def ssp_rk_step(rhs: Callable[[np.ndarray], np.ndarray], q: np.ndarray,
                dt: float | Callable, order: int = 3, *,
                workspace=None, prim0: np.ndarray | None = None,
                rate: bool = False) -> np.ndarray:
    """Advance ``q`` by one step of the SSP-RK scheme of the given order.

    ``rhs(q)`` must return :math:`L(q) = dq/dt`; the input array is not
    modified.

    With a :class:`~repro.solver.workspace.SolverWorkspace` the stages
    run through preallocated buffers and the returned array is the
    workspace's ``rk_result`` (reused on the next call — copy it if you
    need it to survive).  The workspace path requires an ``rhs``
    accepting ``out=`` and ``prim=`` keywords (the solver's
    :class:`~repro.solver.rhs.RHS` does); ``prim0``, when given, is the
    precomputed primitive field of ``q`` forwarded to the first stage so
    the driver's dt computation and stage one share a single
    ``cons_to_prim``.  Every combination runs tile by tile: when ``rhs``
    :func:`folds`, inside its own last sweep (``stage=`` keyword, on the
    gang's members when it has one), else on the caller over the
    workspace's row tiles.  Intermediate stages update the one stage
    buffer in place, and a foreign ``q`` is first copied into
    ``rk_result``, where a folding RHS's gang members can reach it.

    ``dt`` may be a scalar or an array broadcastable against ``q``'s
    trailing axes — the ensemble engine passes a per-case dt field of
    shape ``(B, 1, ...)`` against batch-stacked ``(nvars, B, *grid)``
    states, so the broadcast multiply applies each case's scalar dt to
    exactly that case's slab, bitwise as in a standalone step.

    ``dt`` may also be a callable, resolved exactly once before ``c *
    dt`` is first formed: a zero-argument one after stage one's
    ``rhs(...)`` returns (or, folding, after its first sweep).  Stage
    one's RHS does not depend on dt, so a cluster rank posts its wave
    rate, evaluates that RHS while the other ranks' contributions
    arrive, and collects the reduced dt here — the same values in the
    same order as a blocking reduction.  With ``rate=True`` (folding
    only) it is called with the wave rate of ``q`` that stage one's
    first sweep measures while it converts ``q`` to primitives.

    All paths are bitwise identical.
    """
    stages = rk_stages(order)
    if workspace is None:
        q_n = q
        q_k = q
        for a, b, c in stages:
            L = rhs(q_k)
            if callable(dt):
                dt = dt()
            # First stage has b == 0, so q_prev's coefficient pattern still
            # holds with q_k == q_n.
            q_k = a * q_n + b * q_k + (c * dt) * L
        return q_k

    ws = workspace
    fold = folds(rhs, ws, q)
    if rate and not fold:
        raise ConfigurationError(
            "rate=True needs an rhs that folds its stages on the workspace")
    if fold and q is not ws.rk_result:
        array_namespace(q).copyto(ws.rk_result, q)
        q = ws.rk_result
    q_n = q
    q_k = q
    for k, (a, b, c) in enumerate(stages):
        out = stage_buffer(ws, k, len(stages))
        prim = prim0 if k == 0 else None
        if fold:
            stage = Stage(out, a, b, c, dt, rate=rate and k == 0)
            rhs(q_k, out=ws.dqdt, prim=prim, stage=stage)
            dt = stage.dt
        else:
            L = rhs(q_k, out=ws.dqdt, prim=prim)
            if callable(dt):
                dt = dt()
            shu_osher_combine(q_n, q_k, L, out, a, b, c * dt, tiles=ws)
        q_k = out
    return q_k
