"""Stacked-stencil batched WENO kernels (the tuner's second variant).

The chained kernels in :mod:`repro.weno.reconstruct` evaluate each
candidate polynomial and smoothness indicator as its own chain of
``np.ufunc(out=)`` passes — ~66 passes per side for order 5.  The
stacked variant restructures the same arithmetic around two ideas:

1. **Candidates live on a leading "stack" axis.**  The three candidate
   polynomials and weights occupy one ``(ncand, ...)`` array, so the
   uniform stages (``eps`` shift, squaring, ideal-weight division, the
   final ``a_k * p_k`` products) each run as a single broadcast pass
   over all candidates instead of one pass per candidate.

2. **The smoothness indicators' leading terms are shifted windows of
   one shared difference array.**  For order 5, candidate ``k``'s
   ``13/12 (Δ²v)²`` term at face ``j`` is the same second difference a
   neighbouring candidate needs at face ``j±1`` — so one pass computes
   ``D2[m] = ((v[m] - 2 v[m+1]) + v[m+2])**2`` over the extended stencil
   range and every candidate reads it through an
   ``np.lib.stride_tricks.as_strided`` window (candidate axis stride =
   ±one element).  The chained kernels compute that array three times;
   sharing it removes ~8 array passes per side.  Order 3 shares its
   first-difference array the same way — there the *downwind* side can
   even reuse the identity ``(a-b)**2 == (b-a)**2`` (IEEE negation of a
   difference is exact and squaring erases the sign).

Every scalar operation sequence per output element is identical to the
chained kernels' — same ufuncs, same association, same rounding — so
the variant is **bitwise identical** (property-tested in
``tests/test_variants.py``) while making ~25% fewer memory sweeps and
~10% fewer element operations.
"""

from __future__ import annotations

import numpy as np

from repro.common import ConfigurationError
from repro.weno.coefficients import IDEAL_WEIGHTS, WENO_EPS

#: Kernel-variant names :func:`repro.weno.reconstruct.reconstruct_faces`
#: accepts (the registry the autotuner enumerates).
WENO_VARIANTS = ("chained", "stacked")

#: ``np.ufunc`` invocations one side's reconstruction makes over the
#: face block, per (variant, order) — the sweep counters' "pass" unit.
#: Counted from the kernels (and pinned by an instrumented test); order
#: 1 is a single copy either way.
WENO_PASSES_PER_SIDE = {
    ("chained", 1): 1, ("chained", 3): 20, ("chained", 5): 66,
    ("stacked", 1): 1, ("stacked", 3): 15, ("stacked", 5): 50,
}


def validate_weno_variant(variant: str) -> str:
    """Validate and return a WENO kernel-variant name."""
    if variant not in WENO_VARIANTS:
        raise ConfigurationError(
            f"WENO variant must be one of {WENO_VARIANTS}, got {variant!r}")
    return variant


def weno_passes_per_side(variant: str, order: int) -> int:
    """Face-block ufunc passes one reconstruction side costs."""
    return WENO_PASSES_PER_SIDE[(validate_weno_variant(variant), order)]


# ----------------------------------------------------------------------
# Scratch layout.  The stacked kernels need differently-shaped scratch
# than the chained ones (stacked candidate arrays, one extended
# difference array), described by per-slot kind tags so the workspace
# and the face-span narrowing helper stay variant-agnostic:
#
# ``("stack", ncand)``  — candidate-stacked array ``(ncand, *face)``
# ``("ext", pad)``      — face-shaped array with ``pad`` extra trailing
#                          elements (the shared difference array)
# ``("face",)``         — plain face-shaped temporary

def stacked_scratch_slots(order: int) -> tuple[tuple, ...]:
    """Slot spec of the stacked kernel's scratch for ``order``."""
    if order == 3:
        # P, B (2 candidates each), shared D1, one temporary.
        return (("stack", 2), ("stack", 2), ("ext", 1), ("face",))
    if order == 5:
        # P, B (3 candidates each), shared D2, two temporaries.
        return (("stack", 3), ("stack", 3), ("ext", 2), ("face",), ("face",))
    return ()


def stacked_scratch_shapes(order: int,
                           face_shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Array shapes of the stacked scratch for an axis-last face shape."""
    shapes = []
    for slot in stacked_scratch_slots(order):
        if slot[0] == "stack":
            shapes.append((slot[1], *face_shape))
        elif slot[0] == "ext":
            shapes.append((*face_shape[:-1], face_shape[-1] + slot[1]))
        else:
            shapes.append(tuple(face_shape))
    return tuple(shapes)


def allocate_weno_scratch(variant: str, order: int,
                          face_shape: tuple[int, ...],
                          dtype, xp=np, axis: int = -1) -> tuple:
    """Scratch tuple for one reconstruction side's kernels.

    ``face_shape`` is the face block with the reconstruction axis last.
    The chained variant takes its traditional homogeneous 8-array set;
    the stacked variant takes the shapes of
    :func:`stacked_scratch_shapes`.

    ``axis`` is the array axis the reconstruction axis occupies in the
    face buffers the scratch is combined with.  Each slot is one
    contiguous block in *that* memory order, handed out as its
    axis-last ``moveaxis`` view — so every operand of a kernel pass
    (stencil views, scratch, destination) walks memory in the same
    order and the ufunc inner loop is the unit-stride one, whichever
    axis is reconstructed.
    """
    from repro.weno.reconstruct import SCRATCH_COUNT

    if validate_weno_variant(variant) == "chained":
        shapes = (tuple(face_shape),) * SCRATCH_COUNT
    else:
        shapes = stacked_scratch_shapes(order, face_shape)
    at = axis % len(face_shape)

    def new(shape):
        # Candidate-stacked slots carry one leading axis more.
        k = at + len(shape) - len(face_shape)
        block = xp.empty((*shape[:k], shape[-1], *shape[k:-1]), dtype=dtype)
        return xp.moveaxis(block, k, -1)

    return tuple(new(shape) for shape in shapes)


def narrow_scratch_faces(scratch, variant: str, order: int,
                         count: int) -> tuple[np.ndarray, ...]:
    """Scratch views narrowed to ``count`` faces along the last axis.

    The face-span (direction-0 tile) narrowing: stacked and plain slots
    trim the trailing reconstruction axis, the extended difference slot
    keeps its ``pad`` extra elements.
    """
    if variant == "chained" or order == 1:
        return tuple(s[..., :count] for s in scratch)
    out = []
    for slot, s in zip(stacked_scratch_slots(order), scratch):
        pad = slot[1] if slot[0] == "ext" else 0
        out.append(s[..., :count + pad])
    return tuple(out)


# ----------------------------------------------------------------------
def _stack_windows(arr, ncand: int, count_shape: tuple[int, ...],
                   downwind: bool, xp=np):
    """Candidate-stacked overlapping windows of a difference array.

    ``arr`` is the shared difference array (trailing axis extended by
    ``ncand - 1``); the result's leading axis indexes candidates, each a
    one-element-shifted window.  The upwind side reads windows forward
    from offset 0; the mirrored downwind stencil reads them backward
    from offset ``ncand - 1``.  Pure views — no data moves.
    """
    as_strided = xp.lib.stride_tricks.as_strided
    step = arr.strides[-1]
    if downwind:
        return as_strided(arr[..., ncand - 1:],
                          shape=(ncand, *count_shape),
                          strides=(-step, *arr.strides))
    return as_strided(arr, shape=(ncand, *count_shape),
                      strides=(step, *arr.strides))


def _weno3_stacked_into(out, scratch, vlast, start: int, count: int,
                        downwind: bool, xp=np) -> None:
    """Stacked order-3 reconstruction; bitwise identical to ``_weno3_into``."""
    d0, d1 = IDEAL_WEIGHTS[3]
    P, B, D1, T = scratch[:4]
    sign = -1 if downwind else 1

    def cells(offset: int):
        o = sign * offset
        return vlast[..., start + o: start + o + count]

    vm1, v0, vp1 = cells(-1), cells(0), cells(1)

    # Candidate polynomials (chained forms, written into the stack rows).
    xp.multiply(vm1, -0.5, out=P[0])
    xp.multiply(v0, 1.5, out=T)
    xp.add(P[0], T, out=P[0])
    xp.add(v0, vp1, out=P[1])
    xp.multiply(P[1], 0.5, out=P[1])

    # Shared squared first difference D1[m] = (v[m+1] - v[m])**2 over
    # the extended range; both candidates (and, via the exactness of
    # IEEE difference negation under squaring, both stencil mirrors)
    # read it through shifted windows.
    ext = count + 1
    a = vlast[..., start - 1: start - 1 + ext]
    b = vlast[..., start: start + ext]
    xp.subtract(b, a, out=D1)
    xp.multiply(D1, D1, out=D1)
    D1S = _stack_windows(D1, 2, T.shape, downwind, xp=xp)

    # Nonlinear weights, one broadcast pass per stage.  The eps shift
    # materialises the overlapping windows into B (same scalar add the
    # chained kernel performs, so still bitwise neutral).
    xp.add(D1S, WENO_EPS, out=B)
    xp.multiply(B, B, out=B)
    ideal = xp.asarray([d0, d1]).reshape((2,) + (1,) * T.ndim)
    xp.true_divide(ideal, B, out=B)

    # Final combination, exactly the chained operation order.
    xp.multiply(B[0], P[0], out=out)
    xp.multiply(B[1], P[1], out=T)
    xp.add(out, T, out=out)
    xp.add(B[0], B[1], out=T)
    xp.true_divide(out, T, out=out)


def _weno5_stacked_into(out, scratch, vlast, start: int, count: int,
                        downwind: bool, xp=np) -> None:
    """Stacked order-5 reconstruction; bitwise identical to ``_weno5_into``."""
    d = IDEAL_WEIGHTS[5]
    P, B, D2, T, T2 = scratch[:5]
    sign = -1 if downwind else 1

    def cells(offset: int):
        o = sign * offset
        return vlast[..., start + o: start + o + count]

    vm2, vm1, v0, vp1, vp2 = (cells(-2), cells(-1), cells(0),
                              cells(1), cells(2))

    # Shared squared second difference over the extended stencil range.
    # The chained kernel evaluates ((x - 2y) + z)**2 once per candidate
    # with the operand roles shifted by one cell; here it is computed
    # once and read through candidate windows.  The mirrored (downwind)
    # stencil swaps the outer operands — a different rounding order —
    # so each side computes its own array.
    ext = count + 2
    lo = vlast[..., start - 2: start - 2 + ext]
    mid = vlast[..., start - 1: start - 1 + ext]
    hi = vlast[..., start: start + ext]
    x, z = (hi, lo) if downwind else (lo, hi)
    xp.multiply(mid, 2.0, out=D2)
    xp.subtract(x, D2, out=D2)
    xp.add(D2, z, out=D2)
    xp.multiply(D2, D2, out=D2)
    D2S = _stack_windows(D2, 3, T.shape, downwind, xp=xp)
    # beta first terms for all candidates in one pass (materialises the
    # overlapping windows into B).
    xp.multiply(D2S, 13.0 / 12.0, out=B)

    # beta second terms (chained forms, accumulated onto the stack rows).
    xp.multiply(vm1, 4.0, out=T)
    xp.subtract(vm2, T, out=T)
    xp.multiply(v0, 3.0, out=T2)
    xp.add(T, T2, out=T)
    xp.multiply(T, T, out=T)
    xp.multiply(T, 0.25, out=T)
    xp.add(B[0], T, out=B[0])
    xp.subtract(vm1, vp1, out=T)
    xp.multiply(T, T, out=T)
    xp.multiply(T, 0.25, out=T)
    xp.add(B[1], T, out=B[1])
    xp.multiply(v0, 3.0, out=T)
    xp.multiply(vp1, 4.0, out=T2)
    xp.subtract(T, T2, out=T)
    xp.add(T, vp2, out=T)
    xp.multiply(T, T, out=T)
    xp.multiply(T, 0.25, out=T)
    xp.add(B[2], T, out=B[2])

    # Candidate polynomials (chained forms, into the stack rows).
    xp.multiply(vm2, 2.0, out=P[0])
    xp.multiply(vm1, 7.0, out=T)
    xp.subtract(P[0], T, out=P[0])
    xp.multiply(v0, 11.0, out=T)
    xp.add(P[0], T, out=P[0])
    xp.true_divide(P[0], 6.0, out=P[0])
    xp.negative(vm1, out=P[1])
    xp.multiply(v0, 5.0, out=T)
    xp.add(P[1], T, out=P[1])
    xp.multiply(vp1, 2.0, out=T)
    xp.add(P[1], T, out=P[1])
    xp.true_divide(P[1], 6.0, out=P[1])
    xp.multiply(v0, 2.0, out=P[2])
    xp.multiply(vp1, 5.0, out=T)
    xp.add(P[2], T, out=P[2])
    xp.subtract(P[2], vp2, out=P[2])
    xp.true_divide(P[2], 6.0, out=P[2])

    # Nonlinear weights: all three candidates per broadcast pass.
    xp.add(B, WENO_EPS, out=B)
    xp.multiply(B, B, out=B)
    ideal = xp.asarray(d).reshape((3,) + (1,) * T.ndim)
    xp.true_divide(ideal, B, out=B)

    # Final combination, exactly the chained operation order.
    xp.multiply(B, P, out=P)
    xp.copyto(out, P[0])
    xp.add(out, P[1], out=out)
    xp.add(out, P[2], out=out)
    xp.add(B[0], B[1], out=T)
    xp.add(T, B[2], out=T)
    xp.true_divide(out, T, out=out)


def stacked_faces_into(vlast, start: int, count: int, order: int,
                       out, scratch, downwind: bool, xp=np) -> None:
    """Stacked in-place reconstruction into ``out`` (axis last)."""
    if order == 1:
        o = start if not downwind else start
        xp.copyto(out, vlast[..., o: o + count])
    elif order == 3:
        _weno3_stacked_into(out, scratch, vlast, start, count,
                            downwind, xp=xp)
    else:
        _weno5_stacked_into(out, scratch, vlast, start, count,
                            downwind, xp=xp)
