"""Vectorized WENO face reconstruction.

The public entry point :func:`reconstruct_faces` takes a field padded
with ghost cells along one axis and returns the left/right biased face
states for every interior face.  All arithmetic is expressed as whole-
array NumPy operations on views (no copies of the input), with the
reconstruction axis moved to the last (contiguous) position first — the
Python analog of the coalesced-access layout the paper engineers with
its array transposes.

The kernels mirror MFC's: the downwind ("right") reconstruction reuses
the upwind formula with the stencil mirrored, exactly as the Fortran
code's ``is_left``/``is_right`` branches do.
"""

from __future__ import annotations

import numpy as np

from repro.backend import array_namespace
from repro.common import ConfigurationError, ShapeError
from repro.weno.coefficients import IDEAL_WEIGHTS, WENO_EPS, halo_width


def weno_order_check(order: int) -> int:
    """Validate and return a supported WENO order."""
    if order not in IDEAL_WEIGHTS:
        raise ConfigurationError(f"unsupported WENO order {order}")
    return order


def _weno3(vm1, v0, vp1):
    """Third-order upwind value at the downwind face of the centre cell."""
    d0, d1 = IDEAL_WEIGHTS[3]
    p0 = -0.5 * vm1 + 1.5 * v0
    p1 = 0.5 * (v0 + vp1)
    b0 = (v0 - vm1) ** 2
    b1 = (vp1 - v0) ** 2
    a0 = d0 / (WENO_EPS + b0) ** 2
    a1 = d1 / (WENO_EPS + b1) ** 2
    return (a0 * p0 + a1 * p1) / (a0 + a1)


def _weno5(vm2, vm1, v0, vp1, vp2):
    """Fifth-order upwind value at the downwind face of the centre cell."""
    d0, d1, d2 = IDEAL_WEIGHTS[5]
    p0 = (2.0 * vm2 - 7.0 * vm1 + 11.0 * v0) / 6.0
    p1 = (-vm1 + 5.0 * v0 + 2.0 * vp1) / 6.0
    p2 = (2.0 * v0 + 5.0 * vp1 - vp2) / 6.0
    b0 = (13.0 / 12.0) * (vm2 - 2.0 * vm1 + v0) ** 2 \
        + 0.25 * (vm2 - 4.0 * vm1 + 3.0 * v0) ** 2
    b1 = (13.0 / 12.0) * (vm1 - 2.0 * v0 + vp1) ** 2 \
        + 0.25 * (vm1 - vp1) ** 2
    b2 = (13.0 / 12.0) * (v0 - 2.0 * vp1 + vp2) ** 2 \
        + 0.25 * (3.0 * v0 - 4.0 * vp1 + vp2) ** 2
    a0 = d0 / (WENO_EPS + b0) ** 2
    a1 = d1 / (WENO_EPS + b1) ** 2
    a2 = d2 / (WENO_EPS + b2) ** 2
    return (a0 * p0 + a1 * p1 + a2 * p2) / (a0 + a1 + a2)


def _upwind_faces(vlast: np.ndarray, start: int, count: int, order: int) -> np.ndarray:
    """Upwind reconstruction at the right face of cells ``start .. start+count-1``.

    ``vlast`` has the reconstruction axis last; returns an array whose last
    axis has length ``count``.
    """
    def cells(offset: int) -> np.ndarray:
        return vlast[..., start + offset: start + offset + count]

    if order == 1:
        return cells(0).copy()
    if order == 3:
        return _weno3(cells(-1), cells(0), cells(1))
    return _weno5(cells(-2), cells(-1), cells(0), cells(1), cells(2))


def _downwind_faces(vlast: np.ndarray, start: int, count: int, order: int) -> np.ndarray:
    """Downwind reconstruction at the left face of cells ``start .. start+count-1``.

    Mirrors the upwind stencil, as in MFC's right-biased branch.
    """
    def cells(offset: int) -> np.ndarray:
        return vlast[..., start + offset: start + offset + count]

    if order == 1:
        return cells(0).copy()
    if order == 3:
        return _weno3(cells(1), cells(0), cells(-1))
    return _weno5(cells(2), cells(1), cells(0), cells(-1), cells(-2))


#: Scratch arrays the in-place kernels consume (order-5 worst case).
SCRATCH_COUNT = 8


def _axis_last(arr: np.ndarray, axis: int, *, output: bool = False,
               xp=np) -> np.ndarray:
    """``arr`` with ``axis`` moved last — guaranteed to be a view.

    When ``axis`` already is the trailing axis the array itself is
    returned (the contiguous fast path the transposed sweep layout
    hits: no wrapper view at all).  Otherwise the ``np.moveaxis`` result
    is checked to actually alias ``arr`` — for destination buffers
    (``output=True``) a silent copy would mean kernel writes never land
    in the caller's array, so anything that defeats the view (an exotic
    subclass, a non-writeable destination) raises instead of corrupting
    the pipeline.
    """
    if axis % arr.ndim == arr.ndim - 1:
        if output and not arr.flags.writeable:
            raise ShapeError("output buffer is not writeable")
        return arr
    moved = xp.moveaxis(arr, axis, -1)
    if not xp.may_share_memory(moved, arr):
        raise ShapeError(
            "np.moveaxis produced a copy instead of a view; kernel "
            "writes would not land in the caller's buffer")
    if output and not moved.flags.writeable:
        raise ShapeError("output buffer is not writeable")
    return moved


def _weno3_into(out, s, vm1, v0, vp1, xp=np) -> None:
    """In-place :func:`_weno3`; bitwise identical, writes into ``out``.

    Every NumPy temporary of the expression form is replaced by a
    preallocated scratch array from ``s``, preserving the operation
    order (and hence the floating-point result) exactly.
    """
    d0, d1 = IDEAL_WEIGHTS[3]
    p0, p1, a0, a1, t = s[:5]
    # p0 = -0.5*vm1 + 1.5*v0
    xp.multiply(vm1, -0.5, out=p0)
    xp.multiply(v0, 1.5, out=t)
    xp.add(p0, t, out=p0)
    # p1 = 0.5*(v0 + vp1)
    xp.add(v0, vp1, out=p1)
    xp.multiply(p1, 0.5, out=p1)
    # a0 = d0 / (eps + (v0 - vm1)**2)**2
    xp.subtract(v0, vm1, out=a0)
    xp.multiply(a0, a0, out=a0)
    xp.add(a0, WENO_EPS, out=a0)
    xp.multiply(a0, a0, out=a0)
    xp.true_divide(d0, a0, out=a0)
    # a1 = d1 / (eps + (vp1 - v0)**2)**2
    xp.subtract(vp1, v0, out=a1)
    xp.multiply(a1, a1, out=a1)
    xp.add(a1, WENO_EPS, out=a1)
    xp.multiply(a1, a1, out=a1)
    xp.true_divide(d1, a1, out=a1)
    # out = (a0*p0 + a1*p1) / (a0 + a1)
    xp.multiply(a0, p0, out=out)
    xp.multiply(a1, p1, out=t)
    xp.add(out, t, out=out)
    xp.add(a0, a1, out=t)
    xp.true_divide(out, t, out=out)


def _weno5_into(out, s, vm2, vm1, v0, vp1, vp2, xp=np) -> None:
    """In-place :func:`_weno5`; bitwise identical, writes into ``out``."""
    d0, d1, d2 = IDEAL_WEIGHTS[5]
    p0, p1, p2, a0, a1, a2, t1, t2 = s[:8]
    # p0 = (2*vm2 - 7*vm1 + 11*v0)/6
    xp.multiply(vm2, 2.0, out=p0)
    xp.multiply(vm1, 7.0, out=t1)
    xp.subtract(p0, t1, out=p0)
    xp.multiply(v0, 11.0, out=t1)
    xp.add(p0, t1, out=p0)
    xp.true_divide(p0, 6.0, out=p0)
    # p1 = (-vm1 + 5*v0 + 2*vp1)/6
    xp.negative(vm1, out=p1)
    xp.multiply(v0, 5.0, out=t1)
    xp.add(p1, t1, out=p1)
    xp.multiply(vp1, 2.0, out=t1)
    xp.add(p1, t1, out=p1)
    xp.true_divide(p1, 6.0, out=p1)
    # p2 = (2*v0 + 5*vp1 - vp2)/6
    xp.multiply(v0, 2.0, out=p2)
    xp.multiply(vp1, 5.0, out=t1)
    xp.add(p2, t1, out=p2)
    xp.subtract(p2, vp2, out=p2)
    xp.true_divide(p2, 6.0, out=p2)
    # b0 = 13/12*(vm2 - 2*vm1 + v0)**2 + 0.25*(vm2 - 4*vm1 + 3*v0)**2
    xp.multiply(vm1, 2.0, out=t1)
    xp.subtract(vm2, t1, out=t1)
    xp.add(t1, v0, out=t1)
    xp.multiply(t1, t1, out=t1)
    xp.multiply(t1, 13.0 / 12.0, out=a0)
    xp.multiply(vm1, 4.0, out=t1)
    xp.subtract(vm2, t1, out=t1)
    xp.multiply(v0, 3.0, out=t2)
    xp.add(t1, t2, out=t1)
    xp.multiply(t1, t1, out=t1)
    xp.multiply(t1, 0.25, out=t1)
    xp.add(a0, t1, out=a0)
    # b1 = 13/12*(vm1 - 2*v0 + vp1)**2 + 0.25*(vm1 - vp1)**2
    xp.multiply(v0, 2.0, out=t1)
    xp.subtract(vm1, t1, out=t1)
    xp.add(t1, vp1, out=t1)
    xp.multiply(t1, t1, out=t1)
    xp.multiply(t1, 13.0 / 12.0, out=a1)
    xp.subtract(vm1, vp1, out=t1)
    xp.multiply(t1, t1, out=t1)
    xp.multiply(t1, 0.25, out=t1)
    xp.add(a1, t1, out=a1)
    # b2 = 13/12*(v0 - 2*vp1 + vp2)**2 + 0.25*(3*v0 - 4*vp1 + vp2)**2
    xp.multiply(vp1, 2.0, out=t1)
    xp.subtract(v0, t1, out=t1)
    xp.add(t1, vp2, out=t1)
    xp.multiply(t1, t1, out=t1)
    xp.multiply(t1, 13.0 / 12.0, out=a2)
    xp.multiply(v0, 3.0, out=t1)
    xp.multiply(vp1, 4.0, out=t2)
    xp.subtract(t1, t2, out=t1)
    xp.add(t1, vp2, out=t1)
    xp.multiply(t1, t1, out=t1)
    xp.multiply(t1, 0.25, out=t1)
    xp.add(a2, t1, out=a2)
    # a_i = d_i / (eps + b_i)**2
    for d, a in ((d0, a0), (d1, a1), (d2, a2)):
        xp.add(a, WENO_EPS, out=a)
        xp.multiply(a, a, out=a)
        xp.true_divide(d, a, out=a)
    # out = (a0*p0 + a1*p1 + a2*p2) / (a0 + a1 + a2)
    xp.multiply(a0, p0, out=out)
    xp.multiply(a1, p1, out=t1)
    xp.add(out, t1, out=out)
    xp.multiply(a2, p2, out=t1)
    xp.add(out, t1, out=out)
    xp.add(a0, a1, out=t1)
    xp.add(t1, a2, out=t1)
    xp.true_divide(out, t1, out=out)


# ----------------------------------------------------------------------
# Declarative operation schedules — the expression provider for the
# :mod:`repro.acc.fusion` code generator.  Each entry is one ufunc
# evaluation ``(op, a, b, out)`` (``b is None`` for unary ops); operand
# symbols name the stencil cells (``vm2`` .. ``vp2``), the scratch slots
# of ``_weno{3,5}_into`` (``p*``/``a*``/``t*``), the destination
# (``out``), the regularisation constant (``"EPS"``), or are literal
# float coefficients.  The schedules transcribe ``_weno3_into`` /
# ``_weno5_into`` line for line — same ufuncs, same operand order, same
# association — so source generated from them is bitwise identical to
# the reference kernels (pinned by ``tests/test_fusion.py``).

#: Scratch-slot names each order's schedule consumes, in ``s[:n]`` order.
WENO_SCHEDULE_SCRATCH = {
    1: (),
    3: ("p0", "p1", "a0", "a1", "t"),
    5: ("p0", "p1", "p2", "a0", "a1", "a2", "t1", "t2"),
}

#: Stencil-cell symbols each order reads, by cell offset from the centre.
WENO_SCHEDULE_STENCIL = {
    1: (("v0", 0),),
    3: (("vm1", -1), ("v0", 0), ("vp1", 1)),
    5: (("vm2", -2), ("vm1", -1), ("v0", 0), ("vp1", 1), ("vp2", 2)),
}

WENO3_SCHEDULE = (
    ("multiply", "vm1", -0.5, "p0"),
    ("multiply", "v0", 1.5, "t"),
    ("add", "p0", "t", "p0"),
    ("add", "v0", "vp1", "p1"),
    ("multiply", "p1", 0.5, "p1"),
    ("subtract", "v0", "vm1", "a0"),
    ("multiply", "a0", "a0", "a0"),
    ("add", "a0", "EPS", "a0"),
    ("multiply", "a0", "a0", "a0"),
    ("true_divide", IDEAL_WEIGHTS[3][0], "a0", "a0"),
    ("subtract", "vp1", "v0", "a1"),
    ("multiply", "a1", "a1", "a1"),
    ("add", "a1", "EPS", "a1"),
    ("multiply", "a1", "a1", "a1"),
    ("true_divide", IDEAL_WEIGHTS[3][1], "a1", "a1"),
    ("multiply", "a0", "p0", "out"),
    ("multiply", "a1", "p1", "t"),
    ("add", "out", "t", "out"),
    ("add", "a0", "a1", "t"),
    ("true_divide", "out", "t", "out"),
)

WENO5_SCHEDULE = (
    ("multiply", "vm2", 2.0, "p0"),
    ("multiply", "vm1", 7.0, "t1"),
    ("subtract", "p0", "t1", "p0"),
    ("multiply", "v0", 11.0, "t1"),
    ("add", "p0", "t1", "p0"),
    ("true_divide", "p0", 6.0, "p0"),
    ("negative", "vm1", None, "p1"),
    ("multiply", "v0", 5.0, "t1"),
    ("add", "p1", "t1", "p1"),
    ("multiply", "vp1", 2.0, "t1"),
    ("add", "p1", "t1", "p1"),
    ("true_divide", "p1", 6.0, "p1"),
    ("multiply", "v0", 2.0, "p2"),
    ("multiply", "vp1", 5.0, "t1"),
    ("add", "p2", "t1", "p2"),
    ("subtract", "p2", "vp2", "p2"),
    ("true_divide", "p2", 6.0, "p2"),
    ("multiply", "vm1", 2.0, "t1"),
    ("subtract", "vm2", "t1", "t1"),
    ("add", "t1", "v0", "t1"),
    ("multiply", "t1", "t1", "t1"),
    ("multiply", "t1", 13.0 / 12.0, "a0"),
    ("multiply", "vm1", 4.0, "t1"),
    ("subtract", "vm2", "t1", "t1"),
    ("multiply", "v0", 3.0, "t2"),
    ("add", "t1", "t2", "t1"),
    ("multiply", "t1", "t1", "t1"),
    ("multiply", "t1", 0.25, "t1"),
    ("add", "a0", "t1", "a0"),
    ("multiply", "v0", 2.0, "t1"),
    ("subtract", "vm1", "t1", "t1"),
    ("add", "t1", "vp1", "t1"),
    ("multiply", "t1", "t1", "t1"),
    ("multiply", "t1", 13.0 / 12.0, "a1"),
    ("subtract", "vm1", "vp1", "t1"),
    ("multiply", "t1", "t1", "t1"),
    ("multiply", "t1", 0.25, "t1"),
    ("add", "a1", "t1", "a1"),
    ("multiply", "vp1", 2.0, "t1"),
    ("subtract", "v0", "t1", "t1"),
    ("add", "t1", "vp2", "t1"),
    ("multiply", "t1", "t1", "t1"),
    ("multiply", "t1", 13.0 / 12.0, "a2"),
    ("multiply", "v0", 3.0, "t1"),
    ("multiply", "vp1", 4.0, "t2"),
    ("subtract", "t1", "t2", "t1"),
    ("add", "t1", "vp2", "t1"),
    ("multiply", "t1", "t1", "t1"),
    ("multiply", "t1", 0.25, "t1"),
    ("add", "a2", "t1", "a2"),
    ("add", "a0", "EPS", "a0"),
    ("multiply", "a0", "a0", "a0"),
    ("true_divide", IDEAL_WEIGHTS[5][0], "a0", "a0"),
    ("add", "a1", "EPS", "a1"),
    ("multiply", "a1", "a1", "a1"),
    ("true_divide", IDEAL_WEIGHTS[5][1], "a1", "a1"),
    ("add", "a2", "EPS", "a2"),
    ("multiply", "a2", "a2", "a2"),
    ("true_divide", IDEAL_WEIGHTS[5][2], "a2", "a2"),
    ("multiply", "a0", "p0", "out"),
    ("multiply", "a1", "p1", "t1"),
    ("add", "out", "t1", "out"),
    ("multiply", "a2", "p2", "t1"),
    ("add", "out", "t1", "out"),
    ("add", "a0", "a1", "t1"),
    ("add", "t1", "a2", "t1"),
    ("true_divide", "out", "t1", "out"),
)


def weno_schedule(order: int):
    """The declarative op schedule for ``order`` (empty for order 1)."""
    weno_order_check(order)
    return {1: (), 3: WENO3_SCHEDULE, 5: WENO5_SCHEDULE}[order]


def run_weno_schedule(schedule, env: dict, xp=np) -> None:
    """Execute a schedule against an environment of named arrays.

    The interpreter twin of the fusion code generator's rendered
    source — used by the schedule pin tests to prove the tables
    reproduce ``_weno{3,5}_into`` bit for bit without going through
    ``compile()``.
    """
    def operand(sym):
        if isinstance(sym, str):
            return WENO_EPS if sym == "EPS" else env[sym]
        return sym

    for op, a, b, out in schedule:
        ufunc = getattr(xp, op)
        if b is None:
            ufunc(operand(a), out=env[out])
        else:
            ufunc(operand(a), operand(b), out=env[out])


def _faces_into(vlast: np.ndarray, start: int, count: int, order: int,
                out: np.ndarray, scratch, downwind: bool,
                variant: str = "chained", xp=np) -> None:
    """In-place upwind/downwind reconstruction into ``out`` (axis last)."""
    if variant != "chained":
        from repro.weno.stacked import stacked_faces_into, validate_weno_variant

        validate_weno_variant(variant)
        stacked_faces_into(vlast, start, count, order, out, scratch, downwind,
                           xp=xp)
        return

    def cells(offset: int) -> np.ndarray:
        o = -offset if downwind else offset
        return vlast[..., start + o: start + o + count]

    if order == 1:
        xp.copyto(out, cells(0))
    elif order == 3:
        _weno3_into(out, scratch, cells(-1), cells(0), cells(1), xp=xp)
    else:
        _weno5_into(out, scratch, cells(-2), cells(-1), cells(0), cells(1),
                    cells(2), xp=xp)


def reconstruct_faces(v: np.ndarray, axis: int, order: int, *,
                      n_interior: int | None = None,
                      out: tuple[np.ndarray, np.ndarray] | None = None,
                      scratch: tuple[np.ndarray, ...] | None = None,
                      variant: str = "chained"):
    """Reconstruct left/right face states along ``axis``.

    Parameters
    ----------
    v:
        Field padded with :func:`~repro.weno.coefficients.halo_width`
        ghost cells on each side of ``axis``.  Leading axes (variables,
        other dimensions) are carried through untouched.
    axis:
        The axis along which to reconstruct.
    order:
        1, 3, or 5.
    n_interior:
        Number of interior cells along ``axis``; inferred from the padded
        extent when omitted.
    out:
        Optional ``(vL, vR)`` destination buffers with the face shape
        (``axis`` extent ``n_interior + 1``).  When given, the kernels
        run in place through scratch arrays and return the buffers —
        bitwise identical to the allocating path.
    scratch:
        At least :data:`SCRATCH_COUNT` preallocated arrays shaped like
        the output with the reconstruction axis moved last; allocated on
        the fly when omitted.  The ``"stacked"`` variant instead takes
        the shapes of
        :func:`repro.weno.stacked.stacked_scratch_shapes`.
    variant:
        Kernel implementation for the ``out=`` path: ``"chained"`` (the
        per-candidate ufunc chains) or ``"stacked"`` (candidate-batched
        stacked-stencil kernels; see :mod:`repro.weno.stacked`).  All
        variants are bitwise identical; the allocating path
        (``out=None``) always runs chained.

    Returns
    -------
    (vL, vR):
        Arrays whose ``axis`` extent is ``n_interior + 1`` (one per
        interior face).  ``vL[..., j]`` is the state just left of face
        ``j`` (reconstructed from the upwind cell), ``vR[..., j]`` just
        right of it.
    """
    order = weno_order_check(order)
    ng = halo_width(order)
    padded = v.shape[axis]
    if n_interior is None:
        n_interior = padded - 2 * ng
    if n_interior < 1 or padded != n_interior + 2 * ng:
        raise ShapeError(
            f"axis {axis} has padded extent {padded}, expected "
            f"{n_interior} interior cells + 2*{ng} ghost cells")

    xp = array_namespace(v)
    vlast = _axis_last(v, axis, xp=xp)
    nf = n_interior + 1
    if out is None:
        # Left states: upwind reconstruction from cells ng-1 .. ng+n-1.
        vL = _upwind_faces(vlast, ng - 1, nf, order)
        # Right states: downwind reconstruction from cells ng .. ng+n.
        vR = _downwind_faces(vlast, ng, nf, order)
        return xp.moveaxis(vL, -1, axis), xp.moveaxis(vR, -1, axis)

    out_l, out_r = out
    vl_last = _axis_last(out_l, axis, output=True, xp=xp)
    vr_last = _axis_last(out_r, axis, output=True, xp=xp)
    if scratch is None:
        # In the destination's memory order, like every arena's scratch.
        from repro.weno.stacked import allocate_weno_scratch

        scratch = allocate_weno_scratch(variant, order, vl_last.shape,
                                        v.dtype, xp=xp, axis=axis)
    _faces_into(vlast, ng - 1, nf, order, vl_last, scratch, downwind=False,
                variant=variant, xp=xp)
    _faces_into(vlast, ng, nf, order, vr_last, scratch, downwind=True,
                variant=variant, xp=xp)
    return out_l, out_r


def reconstruct_faces_span(v: np.ndarray, axis: int, order: int,
                           lo: int, hi: int, *,
                           out: tuple[np.ndarray, np.ndarray],
                           scratch: tuple[np.ndarray, ...],
                           variant: str = "chained") -> None:
    """Reconstruct only faces ``[lo, hi)`` along ``axis`` into ``out``.

    The tile entry point of the tiled sweep backend for the direction
    whose reconstruction axis *is* the tiled axis: reads of ``v`` extend
    a stencil halo beyond the span (they may overlap other tiles'
    spans), while writes land exactly in ``out[..., lo:hi]`` — so
    concurrent spans partitioning ``[0, n_faces)`` compose into bitwise
    the same result as one :func:`reconstruct_faces` call, face for
    face (the kernels are elementwise over faces).

    ``out`` holds the *full* face buffers (``axis`` extent
    ``n_interior + 1``); ``scratch`` needs :data:`SCRATCH_COUNT` arrays
    whose reconstruction-last extent is at least ``hi - lo`` (per-thread
    tile scratch — never share one set across concurrent spans).
    """
    order = weno_order_check(order)
    ng = halo_width(order)
    n_faces = v.shape[axis] - 2 * ng + 1
    if not 0 <= lo < hi <= n_faces:
        raise ShapeError(
            f"face span [{lo}, {hi}) outside the {n_faces} faces of axis {axis}")
    count = hi - lo
    xp = array_namespace(v)
    vlast = _axis_last(v, axis, xp=xp)
    vl_last = _axis_last(out[0], axis, output=True, xp=xp)
    vr_last = _axis_last(out[1], axis, output=True, xp=xp)
    if variant == "chained":
        span_scratch = tuple(s[..., :count] for s in scratch)
    else:
        from repro.weno.stacked import narrow_scratch_faces

        span_scratch = narrow_scratch_faces(scratch, variant, order, count)
    _faces_into(vlast, ng - 1 + lo, count, order, vl_last[..., lo:hi],
                span_scratch, downwind=False, variant=variant, xp=xp)
    _faces_into(vlast, ng + lo, count, order, vr_last[..., lo:hi],
                span_scratch, downwind=True, variant=variant, xp=xp)
