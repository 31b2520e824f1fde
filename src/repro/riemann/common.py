"""Shared pieces of the approximate Riemann solvers.

:class:`FaceStates` bundles the quantities every solver needs from a
primitive face state (density, normal velocity, sound speed, conservative
vector, physical flux).  Decomposing once and sharing it keeps each
solver's hot path free of repeated EOS evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import array_namespace
from repro.common import DTYPE
from repro.eos.mixture import Mixture
from repro.state.conversions import full_alphas, prim_to_cons
from repro.state.layout import StateLayout


@dataclass
class FaceStates:
    """Derived quantities of one side of a face Riemann problem.

    Attributes
    ----------
    prim / cons:
        Primitive and conservative state vectors, shape ``(nvars, ...)``.
    rho, p, c, un:
        Mixture density, pressure, frozen sound speed, and the velocity
        component normal to the face.
    flux:
        Physical flux of the conservative variables in the face-normal
        direction (advective flux for the volume fractions).
    """

    prim: np.ndarray
    cons: np.ndarray
    rho: np.ndarray
    p: np.ndarray
    c: np.ndarray
    un: np.ndarray
    flux: np.ndarray


def physical_flux(layout: StateLayout, prim: np.ndarray, cons: np.ndarray,
                  rho: np.ndarray, p: np.ndarray, direction: int,
                  *, out: np.ndarray | None = None) -> np.ndarray:
    """Exact flux :math:`F^{(d)}(q)` of the five-equation system.

    The advected volume fractions get the advective flux
    :math:`\\alpha u_n`; the compensating :math:`\\alpha\\nabla\\cdot u`
    source is applied in the RHS assembly, following MFC.
    """
    xp = array_namespace(prim, cons)
    un = prim[layout.momentum_component(direction)]
    flux = xp.empty_like(cons) if out is None else out
    flux[layout.partial_densities] = cons[layout.partial_densities] * un
    flux[layout.momentum] = cons[layout.momentum] * un
    flux[layout.momentum_component(direction)] += p
    flux[layout.energy] = (cons[layout.energy] + p) * un
    flux[layout.advected] = prim[layout.advected] * un
    return flux


def advect_volume_fractions(layout: StateLayout, flux: np.ndarray,
                            prim_l: np.ndarray, prim_r: np.ndarray,
                            u_face: np.ndarray) -> None:
    """Overwrite the advected-variable flux rows with the quasi-conservative form.

    The volume-fraction equation is nonconservative
    (:math:`\\partial_t\\alpha + u\\,\\partial_x\\alpha = 0`); following
    Johnsen & Colonius (and MFC), it is discretised as
    :math:`-\\partial_x(\\alpha u^*) + \\alpha\\,\\partial_x u^*` with
    ``u*`` the interface velocity returned by the Riemann solver and the
    face :math:`\\alpha` upwinded by the sign of ``u*``.  Using the same
    ``u*`` in flux and source makes uniform :math:`\\alpha` an exact
    steady state — without it, volume fractions drift at shocks and
    poison the mixture EOS.
    """
    if layout.n_advected == 0:
        return
    xp = array_namespace(flux, u_face)
    upwind = xp.where(u_face >= 0.0, prim_l[layout.advected],
                      prim_r[layout.advected])
    flux[layout.advected] = upwind * u_face


class RiemannScratch:
    """Preallocated face-field buffers for one direction's Riemann solve.

    Each buffer has the face-state shape ``(nvars, ...)``.  The
    ``star_*`` triple is consumed only by HLLC (two star-region fluxes
    plus the star-state temporary); the decompositions use the
    ``cons``/``flux`` pairs.  All uses are bitwise neutral — the
    buffers only replace ``np.empty_like`` destinations.
    """

    __slots__ = ("cons_l", "flux_l", "cons_r", "flux_r",
                 "star_l", "star_r", "star_tmp")

    def __init__(self, shape: tuple[int, ...], dtype=DTYPE, xp=np) -> None:
        for name in self.__slots__:
            setattr(self, name, xp.empty(shape, dtype=dtype))

    def view(self, idx) -> "RiemannScratch":
        """A scratch set whose buffers are views sliced by ``idx``.

        The tile entry point of the tiled sweep backend: a worker takes
        its private scratch and narrows every buffer to the face-tile
        shape it is solving, so the solvers' ``out=`` ufunc calls see
        exactly matching extents.  Views alias this scratch — never
        share one parent across concurrently running tiles.
        """
        sliced = object.__new__(RiemannScratch)
        for name in self.__slots__:
            setattr(sliced, name, getattr(self, name)[idx])
        return sliced


def decompose_faces(layout: StateLayout, mixture: Mixture, prim: np.ndarray,
                    direction: int, *, cons_out: np.ndarray | None = None,
                    flux_out: np.ndarray | None = None) -> FaceStates:
    """Build a :class:`FaceStates` from one side's primitive face states."""
    xp = array_namespace(prim)
    rho = prim[layout.partial_densities].sum(axis=0)
    p = prim[layout.pressure]
    alphas = full_alphas(layout, prim[layout.advected])
    c = mixture.sound_speed(alphas, rho, p)
    un = prim[layout.momentum_component(direction)]
    cons = prim_to_cons(layout, mixture, prim, out=cons_out)
    flux = physical_flux(layout, prim, cons, rho, p, direction, out=flux_out)
    return FaceStates(prim=prim, cons=cons, rho=rho, p=p, c=c,
                      un=xp.asarray(un), flux=flux)
