"""Ghost-cell boundary conditions for padded state fields.

All conditions operate in place on a field of shape
``(nvars, *padded_spatial)`` — either conservative or primitive, since
the three supported conditions act identically on both layouts:

* ``PERIODIC`` — wrap interior cells around.
* ``REFLECTIVE`` — mirror the interior and negate the face-normal
  momentum/velocity component (slip wall).
* ``EXTRAPOLATION`` — zero-gradient copy of the first interior cell
  (MFC's non-reflecting outflow workhorse).

In distributed runs, faces interior to the global domain are instead
filled by the halo exchange (:mod:`repro.cluster.halo`); these routines
handle only true physical boundaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.backend import array_namespace
from repro.common import ConfigurationError
from repro.state.layout import StateLayout


class BC(enum.Enum):
    """Physical boundary-condition kinds."""

    PERIODIC = "periodic"
    REFLECTIVE = "reflective"
    EXTRAPOLATION = "extrapolation"


@dataclass(frozen=True)
class BoundarySet:
    """Boundary conditions for every axis: ``per_axis[d] = (lo, hi)``.

    Periodicity must match on both sides of an axis, as in MFC.
    """

    per_axis: tuple[tuple[BC, BC], ...]

    def __post_init__(self) -> None:
        for d, (lo, hi) in enumerate(self.per_axis):
            if (lo is BC.PERIODIC) != (hi is BC.PERIODIC):
                raise ConfigurationError(
                    f"axis {d}: periodic BCs must be paired, got {lo} / {hi}")

    @classmethod
    def all_periodic(cls, ndim: int) -> "BoundarySet":
        return cls(tuple((BC.PERIODIC, BC.PERIODIC) for _ in range(ndim)))

    @classmethod
    def all_extrapolation(cls, ndim: int) -> "BoundarySet":
        return cls(tuple((BC.EXTRAPOLATION, BC.EXTRAPOLATION) for _ in range(ndim)))

    @classmethod
    def all_reflective(cls, ndim: int) -> "BoundarySet":
        return cls(tuple((BC.REFLECTIVE, BC.REFLECTIVE) for _ in range(ndim)))

    def ndim(self) -> int:
        return len(self.per_axis)


def pad_with_ghosts(field: np.ndarray, ng: int) -> np.ndarray:
    """Allocate a padded copy of ``field`` with ``ng`` ghost cells per spatial side.

    ``field`` has shape ``(nvars, *spatial)``; ghost contents are
    uninitialised until :func:`fill_ghosts` runs.
    """
    xp = array_namespace(field)
    nvars, *spatial = field.shape
    padded = xp.empty((nvars, *[s + 2 * ng for s in spatial]), dtype=field.dtype)
    interior = (slice(None),) + tuple(slice(ng, ng + s) for s in spatial)
    padded[interior] = field
    return padded


def pad_axis(field: np.ndarray, axis: int, ng: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Pad only spatial ``axis`` of ``(nvars, *spatial)`` with ``ng`` ghosts per side.

    The dimension-split RHS reconstructs one direction at a time, so it
    only ever needs ghosts along that direction; per-axis padding keeps
    the temporary ``(1 + 2*ng/n)`` times the field instead of cubing it.
    When ``out`` is given (a preallocated workspace buffer of the padded
    shape) the interior is written into it and no allocation happens.
    """
    shape = list(field.shape)
    shape[axis + 1] += 2 * ng
    if out is None:
        padded = array_namespace(field).empty(shape, dtype=field.dtype)
    else:
        if list(out.shape) != shape:
            raise ConfigurationError(
                f"pad_axis out buffer has shape {out.shape}, expected {tuple(shape)}")
        padded = out
    interior = [slice(None)] * field.ndim
    interior[axis + 1] = slice(ng, ng + field.shape[axis + 1])
    padded[tuple(interior)] = field
    return padded


def fill_axis_ghosts(padded: np.ndarray, layout: StateLayout, axis: int, ng: int,
                     lo: BC, hi: BC, *, normal_direction: int | None = None) -> None:
    """Fill the ghost cells of one spatial ``axis`` of a per-axis padded field.

    ``normal_direction`` names the *physical* direction the ghosts face
    (the momentum component a reflective wall negates).  It defaults to
    ``axis`` — correct in the standard layout, where spatial axes sit in
    physical order.  A gathered sweep tile puts its direction first
    among the spatial axes instead (:func:`repro.solver.workspace.
    tile_axes`), so the sweep engine passes the physical direction
    explicitly; the filled values are bitwise the ones the standard
    layout produces.
    """
    _fill_axis(padded, layout, axis, ng, lo, hi,
               normal_direction=normal_direction)


def _axis_slices(padded: np.ndarray, axis: int, ng: int):
    """Spatial axis index inside the padded array (axis 0 is variables)."""
    return axis + 1, padded.shape[axis + 1] - 2 * ng


def fill_ghosts(padded: np.ndarray, layout: StateLayout, bcs: BoundarySet, ng: int) -> None:
    """Fill all ghost regions of ``padded`` in place, axis by axis.

    Axes are processed in order, so corner ghosts receive the
    composition of the per-axis conditions (sufficient for the
    dimension-split reconstruction used here and in MFC).
    """
    if bcs.ndim() != layout.ndim:
        raise ConfigurationError(
            f"boundary set has {bcs.ndim()} axes, layout has {layout.ndim}")
    for axis in range(layout.ndim):
        lo, hi = bcs.per_axis[axis]
        _fill_axis(padded, layout, axis, ng, lo, hi)


def _fill_axis(padded: np.ndarray, layout: StateLayout, axis: int, ng: int,
               lo: BC, hi: BC, *, normal_direction: int | None = None) -> None:
    ax, n = _axis_slices(padded, axis, ng)
    normal = axis if normal_direction is None else normal_direction
    if n < ng:
        raise ConfigurationError(
            f"axis {axis} has only {n} interior cells for {ng} ghost cells")

    def sl(start: int, stop: int):
        idx = [slice(None)] * padded.ndim
        idx[ax] = slice(start, stop)
        return tuple(idx)

    def sl_rev(start: int, stop: int):
        idx = [slice(None)] * padded.ndim
        idx[ax] = slice(stop - 1, start - 1 if start > 0 else None, -1)
        return tuple(idx)

    # Low side ghosts: indices [0, ng); interior starts at ng.
    if lo is BC.PERIODIC:
        padded[sl(0, ng)] = padded[sl(n, n + ng)]
    elif lo is BC.EXTRAPOLATION:
        padded[sl(0, ng)] = padded[sl(ng, ng + 1)]
    else:  # REFLECTIVE: mirror and negate normal component
        padded[sl(0, ng)] = padded[sl_rev(ng, ng + ng)]
        comp = layout.momentum_component(normal)
        padded[(comp,) + sl(0, ng)[1:]] *= -1.0

    # High side ghosts: indices [ng + n, ng + n + ng).
    if hi is BC.PERIODIC:
        padded[sl(ng + n, ng + n + ng)] = padded[sl(ng, ng + ng)]
    elif hi is BC.EXTRAPOLATION:
        padded[sl(ng + n, ng + n + ng)] = padded[sl(ng + n - 1, ng + n)]
    else:
        padded[sl(ng + n, ng + n + ng)] = padded[sl_rev(n, ng + n)]
        comp = layout.momentum_component(normal)
        padded[(comp,) + sl(ng + n, ng + n + ng)[1:]] *= -1.0
