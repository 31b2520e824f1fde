"""The three transpose implementations the paper compares (§III.D-§III.E).

All three produce the permutation ``(1,2,3,4) -> (3,2,1,4)`` of a packed
4D array (swap the first and third indices, variables stay last), which
is what coalescing the z-direction sweep requires.  They are numerically
identical — tests assert bit-equality — but correspond to different
hardware paths with very different modeled costs:

* :func:`transpose_loop` — "fully collapsed OpenACC loops": the
  straightforward strided copy.  Fast enough on NVIDIA+NVHPC, 7x slower
  than the library path on MI250X+CCE (paper §III.D).
* :func:`geam_transpose_cutensor` — Listing 3: a single library call
  (``reshape`` with ``order=[3,2,1,4]`` dispatched to cuTENSOR inside
  ``host_data use_device``).
* :func:`geam_transpose_hipblas` — Listing 4: hipBLAS has no arbitrary
  tensor permutation, so the paper decomposes the swap into (a) a
  strided, batched GEAM swapping the first two indices
  (:math:`A_{klq} \\to A_{lkq}`, batched over :math:`q`) and (b) one
  unbatched GEAM on the fused index (:math:`A_{(lk)q} \\to A_{q(lk)}`),
  per variable.  We reproduce that decomposition step for step, with a
  contiguous materialisation after each GEAM just as the library does.
"""

from __future__ import annotations

import numpy as np

from repro.backend import array_namespace
from repro.common import ShapeError

#: The paper's index permutation, 0-based: (k, l, q, j) -> (q, l, k, j).
COALESCE_Z_PERM = (2, 1, 0, 3)


def _require_4d(v: np.ndarray) -> None:
    if v.ndim != 4:
        raise ShapeError(f"transpose paths expect a packed 4D array, got ndim={v.ndim}")


def _check_perm(perm: tuple[int, ...], ndim: int) -> None:
    if len(perm) != ndim or sorted(perm) != list(range(ndim)):
        raise ShapeError(f"perm {perm} is not a permutation of axes of ndim={ndim}")


def sweep_perm(ndim: int, axis: int) -> tuple[int, ...]:
    """Permutation moving ``axis`` last, preserving the order of the rest.

    The generalisation of :data:`COALESCE_Z_PERM`: for a packed array
    of ``ndim`` axes it produces the axis-contiguous layout in which
    ``axis`` runs with unit stride (the transpose probe of
    ``benchmarks/e2e/probes.py`` times it).  The sweep tiles do the
    opposite — they keep the reconstruction axis off the innermost
    position (:func:`repro.solver.workspace.tile_axes`).
    ``sweep_perm(n, n - 1)`` is the identity.
    """
    if not 0 <= axis < ndim:
        raise ShapeError(f"axis {axis} outside ndim={ndim}")
    return tuple(k for k in range(ndim) if k != axis) + (axis,)


def inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation undoing ``perm``."""
    _check_perm(perm, len(perm))
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def transpose_loop(v: np.ndarray, perm: tuple[int, ...] = COALESCE_Z_PERM, *,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Directive-loop transpose: one strided gather into ``out``.

    Models the fully collapsed ``parallel loop collapse(4) gang vector``
    kernel: NumPy's assignment through the permuted view is exactly the
    uncoalesced read / coalesced write that kernel performs.  With
    ``out`` (a preallocated workspace buffer of the permuted shape) no
    allocation happens — this is the steady-state path of the sweep
    engine's layout changes.
    """
    _check_perm(perm, v.ndim)
    xp = array_namespace(v)
    shape = tuple(v.shape[p] for p in perm)
    if out is None:
        out = xp.empty(shape, dtype=v.dtype)
    elif out.shape != shape:
        raise ShapeError(
            f"transpose out buffer has shape {out.shape}, expected {shape}")
    out[...] = xp.transpose(v, perm)
    return out


def untranspose_loop(t: np.ndarray, perm: tuple[int, ...], *,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`transpose_loop`: scatter ``t`` back to standard layout.

    ``t`` is an array in the layout ``transpose_loop(v, perm)`` produced;
    the result (or ``out``) has the original layout of ``v``.  One
    strided scatter — the coalesced-read / uncoalesced-write mirror of
    the forward kernel.
    """
    _check_perm(perm, t.ndim)
    xp = array_namespace(t)
    shape = tuple(t.shape[p] for p in inverse_perm(perm))
    if out is None:
        out = xp.empty(shape, dtype=t.dtype)
    elif out.shape != shape:
        raise ShapeError(
            f"untranspose out buffer has shape {out.shape}, expected {shape}")
    xp.copyto(xp.transpose(out, perm), t)
    return out


def geam_transpose_cutensor(v: np.ndarray) -> np.ndarray:
    """Listing 3's cuTENSOR path: one fused permutation call.

    ``reshape(v, shape=[n3,n2,n1,n4], order=[3,2,1,4])`` in Fortran is
    precisely the ``(2,1,0,3)`` axis permutation, materialised
    contiguously by the library.
    """
    _require_4d(v)
    xp = array_namespace(v)
    return xp.ascontiguousarray(xp.transpose(v, COALESCE_Z_PERM))


def geam_transpose_hipblas(v: np.ndarray) -> np.ndarray:
    """Listing 4's hipBLAS path: strided-batched GEAM + fused-index GEAM.

    Per variable ``j``:

    1. ``hipblasDgeamStridedBatched`` with op=T swaps the first two
       indices for each of the ``n3`` trailing slices:
       :math:`A_{klq} \\to T_{lkq}`.
    2. ``hipblasDgeam`` with op=T treats the fused ``(l k)`` index as one
       matrix dimension against ``q``: :math:`T_{(lk)q} \\to B_{q(lk)}`,
       which unfused is :math:`B_{qlk}`.

    Net effect: ``out[q, l, k, j] == v[k, l, q, j]``.
    """
    _require_4d(v)
    n1, n2, n3, n4 = v.shape
    out = np.empty((n3, n2, n1, n4), dtype=v.dtype)
    for j in range(n4):
        a = v[..., j]
        # GEAM 1: batched over the third index, swap the first two.
        tmp = np.empty((n2, n1, n3), dtype=v.dtype)
        for q in range(n3):
            # One batched GEAM instance: T out of the (k, l) matrix.
            tmp[:, :, q] = a[:, :, q].T
        # GEAM 2: fuse (l, k), transpose against q, unfuse.
        fused = tmp.reshape(n2 * n1, n3)
        out[..., j] = np.ascontiguousarray(fused.T).reshape(n3, n2, n1)
    return out
