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
from repro.common.scratch import Scratch, fresh
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
    xp.multiply(cons[layout.partial_densities], un,
                out=flux[layout.partial_densities])
    xp.multiply(cons[layout.momentum], un, out=flux[layout.momentum])
    normal = flux[layout.momentum_component(direction)]
    xp.add(normal, p, out=normal)
    energy = xp.add(cons[layout.energy], p, out=flux[layout.energy])
    xp.multiply(energy, un, out=energy)
    xp.multiply(prim[layout.advected], un, out=flux[layout.advected])
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
    upwind = flux[layout.advected]
    xp.copyto(upwind, prim_r[layout.advected])
    xp.copyto(upwind, prim_l[layout.advected], where=u_face >= 0.0)
    xp.multiply(upwind, u_face, out=upwind)


class RiemannScratch:
    """Preallocated face-field buffers for one direction's Riemann solve.

    Each buffer has the face-state shape ``(nvars, ...)``.  The
    ``star_*`` triple is consumed only by HLLC (two star-region fluxes
    plus the star-state temporary); the decompositions use the
    ``cons``/``flux`` pairs.  All uses are bitwise neutral — the
    buffers only replace ``np.empty_like`` destinations.

    ``spare`` is an optional block of ``(k, *face)`` free for the whole
    solve (a tile arena's WENO scratch, dead once the faces are
    reconstructed): :meth:`new` carves the per-face temporaries from it.
    """

    BUFFERS = ("cons_l", "flux_l", "cons_r", "flux_r",
               "star_l", "star_r", "star_tmp")
    __slots__ = (*BUFFERS, "spare")

    def __init__(self, shape: tuple[int, ...], dtype=DTYPE, xp=np) -> None:
        for name in self.BUFFERS:
            setattr(self, name, xp.empty(shape, dtype=dtype))
        self.spare = None

    def new(self):
        """A fresh ``new(shape)`` allocator over :attr:`spare` — one per
        solve, shared by both sides (fresh arrays past its end)."""
        pool = None if self.spare is None else self.spare.reshape(-1)
        return Scratch(pool, xp=array_namespace(self.cons_l),
                       dtype=self.cons_l.dtype)


def decompose_faces(layout: StateLayout, mixture: Mixture, prim: np.ndarray,
                    direction: int, *, cons_out: np.ndarray | None = None,
                    flux_out: np.ndarray | None = None,
                    new=None) -> FaceStates:
    """Build a :class:`FaceStates` from one side's primitive face states
    (per-face temporaries from ``new(shape)``, by default fresh)."""
    xp = array_namespace(prim)
    new = fresh(prim) if new is None else new
    shape = prim.shape[1:]
    rho = xp.sum(prim[layout.partial_densities], axis=0, out=new(shape))
    c = new(shape)
    p = prim[layout.pressure]
    with new.frame():
        alphas = full_alphas(layout, prim[layout.advected],
                             out=new((layout.ncomp,) + shape))
        mixture.sound_speed(alphas, rho, p, out=c, new=new)
        cons = prim_to_cons(layout, mixture, prim, out=cons_out, new=new)
    un = prim[layout.momentum_component(direction)]
    flux = physical_flux(layout, prim, cons, rho, p, direction, out=flux_out)
    return FaceStates(prim=prim, cons=cons, rho=rho, p=p, c=c,
                      un=xp.asarray(un), flux=flux)


def solve_buffers(prim_l, scratch):
    """``(new, star_l, star_r, star_tmp)`` of one Riemann solve: the
    per-face allocator and the three state-sized work buffers — from
    ``scratch`` (a :class:`RiemannScratch`) when given, else fresh."""
    if scratch is None:
        xp = array_namespace(prim_l)
        return (fresh(prim_l), *(xp.empty_like(prim_l) for _ in range(3)))
    return scratch.new(), scratch.star_l, scratch.star_r, scratch.star_tmp


def decompose_sides(layout: StateLayout, mixture: Mixture, prim_l, prim_r,
                    direction: int, scratch, new) -> tuple:
    """Both sides' :class:`FaceStates` (into ``scratch``'s buffers when
    given) — the one preamble every solver shares."""
    if scratch is None:
        return (decompose_faces(layout, mixture, prim_l, direction, new=new),
                decompose_faces(layout, mixture, prim_r, direction, new=new))
    return (decompose_faces(layout, mixture, prim_l, direction,
                            cons_out=scratch.cons_l, flux_out=scratch.flux_l,
                            new=new),
            decompose_faces(layout, mixture, prim_r, direction,
                            cons_out=scratch.cons_r, flux_out=scratch.flux_r,
                            new=new))
