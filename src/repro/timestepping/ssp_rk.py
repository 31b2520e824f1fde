"""Strong-stability-preserving Runge-Kutta integrators (Shu-Osher form).

MFC time-marches with SSP-RK3; orders 1 and 2 are provided for testing
and temporal-convergence studies.  Each stage is a convex combination

.. math::

   q^{(k)} = a\\,q^n + b\\,q^{(k-1)} + c\\,\\Delta t\\,L(q^{(k-1)}),

which preserves any convex invariant (positivity, maximum principles)
the forward-Euler building block preserves.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backend import array_namespace
from repro.common import ConfigurationError

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


def shu_osher_combine(q_n, q_k, L, out, tmp, a, b, cdt, xp=np):
    """``out = (a*q_n + b*q_k) + cdt*L`` through preallocated buffers.

    The one spelling of a stage combination every step driver shares:
    five ufunc evaluations grouped exactly as the allocating expression
    ``a*q_n + b*q_k + cdt*L``, so all drivers stay bitwise identical.
    ``out`` may alias ``q_n`` (its first write, ``a*q_n``, is
    element-aligned); ``tmp`` must not alias any operand.
    """
    xp.multiply(q_k, b, out=tmp)
    xp.multiply(q_n, a, out=out)
    xp.add(out, tmp, out=out)
    xp.multiply(L, cdt, out=tmp)
    xp.add(out, tmp, out=out)
    return out


def stage_buffer(workspace, k: int, n_stages: int):
    """Destination of stage ``k``: the result buffer for the last stage.

    The result buffer may alias ``q_n`` (it is the previous step's
    output), so intermediate stages alternate between the two stage
    buffers and ``q_n`` stays intact until the final combination.
    """
    return (workspace.rk_result if k == n_stages - 1
            else workspace.rk_stage[k % 2])


def ssp_rk_step(rhs: Callable[[np.ndarray], np.ndarray], q: np.ndarray,
                dt: float | Callable[[], float], order: int = 3, *,
                workspace=None,
                prim0: np.ndarray | None = None) -> np.ndarray:
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
    ``cons_to_prim``.

    ``dt`` may be a scalar or an array broadcastable against ``q``'s
    trailing axes — the ensemble engine passes a per-case dt field of
    shape ``(B, 1, ...)`` against batch-stacked ``(nvars, B, *grid)``
    states, so the broadcast multiply applies each case's scalar dt to
    exactly that case's slab, bitwise as in a standalone step.

    ``dt`` may also be a zero-argument callable: it is resolved exactly
    once, after stage one's ``rhs(...)`` returns and before ``c * dt``
    is first formed.  Stage one's RHS does not depend on dt, so a
    cluster rank posts its wave rate, evaluates that RHS while the other
    ranks' contributions arrive, and collects the reduced dt here —
    the same values in the same order as a blocking reduction.

    The combinations run whole-field on the caller even when the RHS
    sweeps on a gang: at 256² they are 1.6 % of a step (EXPERIMENTS.md
    "Real gangs").  All paths are bitwise identical.
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
    xp = array_namespace(q)
    q_n = q
    q_k = q
    for k, (a, b, c) in enumerate(stages):
        out = stage_buffer(ws, k, len(stages))
        L = rhs(q_k, out=ws.dqdt, prim=prim0 if k == 0 else None)
        if callable(dt):
            dt = dt()
        shu_osher_combine(q_n, q_k, L, out, ws.rk_tmp, a, b, c * dt, xp)
        q_k = out
    return q_k

