"""Patch-based case setup, mirroring MFC's input-file "patches".

A :class:`Case` owns the grid, the fluid mixture, and an ordered list of
:class:`Patch` objects.  Each patch covers a geometric region (box,
sphere/circle, half-space) with uniform primitive values; later patches
overwrite earlier ones, exactly as MFC layers its patches.  The shocked
state of a shock-bubble problem, for instance, is a half-space patch on
top of an ambient background patch, plus a sphere patch for the bubble.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.common import ConfigurationError, DTYPE
from repro.eos.mixture import Mixture
from repro.grid.cartesian import StructuredGrid
from repro.state.conversions import prim_to_cons
from repro.state.layout import StateLayout

#: A geometry predicate: cell-centre coordinate arrays -> boolean mask.
Region = Callable[..., np.ndarray]


def box(lo: Sequence[float], hi: Sequence[float]) -> Region:
    """Axis-aligned box region ``lo[d] <= x_d < hi[d]``."""
    lo_arr = tuple(float(v) for v in lo)
    hi_arr = tuple(float(v) for v in hi)

    def region(*coords: np.ndarray) -> np.ndarray:
        mask = np.ones(coords[0].shape, dtype=bool)
        for c, l, h in zip(coords, lo_arr, hi_arr):
            mask &= (c >= l) & (c < h)
        return mask

    return region


def sphere(center: Sequence[float], radius: float) -> Region:
    """Spherical (circular in 2D, interval in 1D) region of given radius."""
    ctr = tuple(float(v) for v in center)
    r2 = float(radius) ** 2

    def region(*coords: np.ndarray) -> np.ndarray:
        d2 = np.zeros(coords[0].shape, dtype=DTYPE)
        for c, x0 in zip(coords, ctr):
            d2 += (c - x0) ** 2
        return d2 <= r2

    return region


def halfspace(axis: int, threshold: float, *, side: str = "below") -> Region:
    """Half-space ``x_axis < threshold`` (side="below") or ``>=`` (side="above")."""
    if side not in ("below", "above"):
        raise ConfigurationError(f"side must be 'below' or 'above', got {side!r}")

    def region(*coords: np.ndarray) -> np.ndarray:
        c = coords[axis]
        return c < threshold if side == "below" else c >= threshold

    return region


@dataclass(frozen=True)
class Patch:
    """Uniform primitive state applied over a geometric region.

    Parameters
    ----------
    region:
        Geometry predicate from :func:`box` / :func:`sphere` /
        :func:`halfspace` (or any custom callable on the meshgrid).
    alpha_rho:
        Partial densities, one per component.
    velocity:
        Velocity components, one per spatial dimension.
    pressure:
        Mixture pressure.
    alpha:
        Advected volume fractions (``ncomp - 1`` values).
    smear:
        Optional diffuse-interface smearing width in physical units; when
        positive, the patch blends into the existing state over roughly
        this distance (sphere patches only), seeding the diffuse
        interface the scheme maintains.
    """

    region: Region
    alpha_rho: tuple[float, ...]
    velocity: tuple[float, ...]
    pressure: float
    alpha: tuple[float, ...]
    smear: float = 0.0


@dataclass
class Case:
    """A complete simulation setup producing the initial conservative field."""

    grid: StructuredGrid
    mixture: Mixture
    patches: list[Patch] = field(default_factory=list)

    @property
    def layout(self) -> StateLayout:
        return StateLayout(ncomp=self.mixture.ncomp, ndim=self.grid.ndim)

    def add(self, patch: Patch) -> "Case":
        self._validate(patch)
        self.patches.append(patch)
        return self

    def _validate(self, patch: Patch) -> None:
        lay = self.layout
        if len(patch.alpha_rho) != lay.ncomp:
            raise ConfigurationError(
                f"patch has {len(patch.alpha_rho)} partial densities, need {lay.ncomp}")
        if len(patch.velocity) != lay.ndim:
            raise ConfigurationError(
                f"patch has {len(patch.velocity)} velocity components, need {lay.ndim}")
        if len(patch.alpha) != lay.n_advected:
            raise ConfigurationError(
                f"patch has {len(patch.alpha)} volume fractions, need {lay.n_advected}")

    def primitive_values(self, patch: Patch) -> np.ndarray:
        """The patch's primitive vector as a 1D array in layout order."""
        return np.array([*patch.alpha_rho, *patch.velocity, patch.pressure,
                         *patch.alpha], dtype=DTYPE)

    def initial_primitive(self) -> np.ndarray:
        """Apply all patches in order and return the primitive field."""
        if not self.patches:
            raise ConfigurationError("case has no patches")
        lay = self.layout
        coords = self.grid.meshgrid()
        prim = np.empty((lay.nvars, *self.grid.shape), dtype=DTYPE)
        first = True
        for patch in self.patches:
            self._validate(patch)
            values = self.primitive_values(patch)
            mask = patch.region(*coords)
            if first:
                if not mask.all():
                    raise ConfigurationError(
                        "first patch must cover the whole domain (background)")
                prim[:] = values.reshape((-1,) + (1,) * lay.ndim)
                first = False
                continue
            if patch.smear > 0.0:
                weight = _smear_weight(mask, coords, patch.smear)
                prim += weight * (values.reshape((-1,) + (1,) * lay.ndim) - prim)
            else:
                prim[:, mask] = values[:, None]
        return prim

    def initial_conservative(self) -> np.ndarray:
        """The conservative initial field (what the solver marches)."""
        return prim_to_cons(self.layout, self.mixture, self.initial_primitive())


def distance_to_background(mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance, in cells, from each cell of boolean
    ``mask`` to its nearest ``False`` cell (0.0 on ``False`` cells).

    Separable and integer until the last line: a nearest-``False`` scan
    along axis 0 gives the squared 1-D distance, then each further axis
    takes the lower envelope ``d2[j] = min_s(d2[j ± s] + s²)`` as shifted
    in-place minima, stopping once ``s²`` can no longer lower any cell.
    The squared distance is an exact ``int64``, so its ``float64`` root
    is correctly rounded and bit-for-bit the reference library transform
    that tests/test_distance_transform.py keeps as the oracle.  A mask
    with no ``False`` cell has no boundary to measure from: ``inf``.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        return np.full(mask.shape, np.inf)
    n0 = mask.shape[0]
    far = sum(mask.shape)  # exceeds every in-domain distance
    idx = np.arange(n0, dtype=np.int64).reshape((-1,) + (1,) * (mask.ndim - 1))
    before = np.maximum.accumulate(np.where(mask, -far, idx), axis=0)
    after = np.minimum.accumulate(np.where(mask, n0 + far, idx)[::-1], axis=0)[::-1]
    d2 = np.minimum(idx - before, after - idx)
    d2 *= d2
    for axis in range(1, mask.ndim):
        # Shift along the leading axis of a contiguous copy, so every
        # pass is one flat run (7x faster than shifting a strided view).
        best = np.ascontiguousarray(np.moveaxis(d2, axis, 0))
        src = best.copy()
        cand = np.empty_like(best)
        for s in range(1, best.shape[0]):
            if s * s >= best.max():
                break
            np.add(src, s * s, out=cand)
            np.minimum(best[s:], cand[:-s], out=best[s:])
            np.minimum(best[:-s], cand[s:], out=best[:-s])
        d2 = np.moveaxis(best, 0, axis)
    return np.sqrt(d2, order="C")


def _mean_spacing(coord: np.ndarray, axis: int) -> float:
    """Mean gap between the distinct values of a meshgrid coordinate.

    The values of ``coord`` are those of its 1-D line along ``axis``, so
    the line is sorted and deduplicated instead of the whole field —
    exactly the values ``np.unique`` would return (which would also
    import ``numpy.ma``); 1.0 for a single value.
    """
    line = np.sort(coord[(0,) * axis + (slice(None),) + (0,) * (coord.ndim - axis - 1)])
    distinct = line[np.concatenate(([True], line[1:] != line[:-1]))]
    return float(np.mean(np.diff(distinct))) if distinct.size > 1 else 1.0


def _smear_weight(mask: np.ndarray, coords: tuple[np.ndarray, ...],
                  smear: float) -> np.ndarray:
    """Smooth 0..1 blending weight around the boundary of ``mask``.

    Uses a tanh profile of the signed distance to the region boundary,
    approximated by a distance transform built from the mask itself.
    A mask with no boundary in the domain (every cell, or none) has an
    infinite distance, so its weight is exactly 1.0 (or 0.0) everywhere.
    """
    inside = distance_to_background(mask)
    outside = distance_to_background(~mask)
    # Convert cell-count distances to physical distances using the mean
    # local spacing (adequate for mildly stretched grids).
    spacing = np.mean([_mean_spacing(c, d) for d, c in enumerate(coords)])
    signed = (inside - outside) * spacing
    return 0.5 * (1.0 + np.tanh(signed / max(smear, 1e-300)))
