"""Mixture closure for the Allaire five-equation model.

Allaire et al. close the five-equation model by mixing the stiffened-gas
coefficients with volume fractions:

.. math::

   \\Gamma_m = \\sum_i \\alpha_i \\Gamma_i, \\qquad
   \\Pi_m = \\sum_i \\alpha_i \\Pi_i, \\qquad
   \\rho e = \\Gamma_m\\, p + \\Pi_m .

The mixture then behaves as a single stiffened gas with

.. math::

   \\gamma_m = 1 + 1/\\Gamma_m, \\qquad
   \\pi_{\\infty,m} = \\Pi_m / (\\Gamma_m + 1),

which gives the frozen mixture sound speed
:math:`c^2 = \\gamma_m (p + \\pi_{\\infty,m}) / \\rho` used by MFC's HLLC
wave-speed estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import array_namespace
from repro.common import ConfigurationError, DTYPE
from repro.common.scratch import fresh
from repro.eos.stiffened_gas import StiffenedGas


def mixture_gamma_pi(alphas: np.ndarray, fluids: tuple[StiffenedGas, ...]):
    """Return mixture ``(Gamma_m, Pi_m)`` arrays from stacked volume fractions.

    Parameters
    ----------
    alphas:
        Array of shape ``(ncomp, ...)`` with all component volume fractions
        (summing to 1 along axis 0).
    fluids:
        One EOS per component, matching ``alphas`` along axis 0.
    """
    if alphas.shape[0] != len(fluids):
        raise ConfigurationError(
            f"{alphas.shape[0]} volume-fraction fields but {len(fluids)} fluids")
    xp = array_namespace(alphas)
    dtype = getattr(alphas, "dtype", DTYPE)
    Gm = xp.zeros(alphas.shape[1:], dtype=dtype)
    Pm = xp.zeros(alphas.shape[1:], dtype=dtype)
    for i in range(alphas.shape[0]):
        Gm += alphas[i] * float(fluids[i].Gamma)
        Pm += alphas[i] * float(fluids[i].Pi)
    return Gm, Pm


@dataclass(frozen=True)
class Mixture:
    """A fixed set of stiffened-gas components and their mixture closure.

    This is the object the solver carries; it performs every mixture-level
    thermodynamic evaluation in vectorized form over whole fields.
    """

    fluids: tuple[StiffenedGas, ...]
    #: Mixing coefficients as *python* floats: scalar-weak under NumPy 2
    #: promotion, so a float32 field stays float32 (an np.float64 scalar
    #: would silently upcast it) while float64 results are bit-identical.
    _Gammas: tuple = field(init=False, repr=False, compare=False)
    _Pis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.fluids) < 1:
            raise ConfigurationError("a Mixture needs at least one fluid")
        object.__setattr__(self, "_Gammas",
                           tuple(float(f.Gamma) for f in self.fluids))
        object.__setattr__(self, "_Pis",
                           tuple(float(f.Pi) for f in self.fluids))

    @property
    def ncomp(self) -> int:
        return len(self.fluids)

    def gamma_pi(self, alphas: np.ndarray, *, new=None):
        """Mixture ``(Gamma_m, Pi_m)`` from full volume fractions ``(ncomp, ...)``.

        Implemented as an explicit accumulation over the (small) component
        axis rather than a BLAS contraction: BLAS kernels change FMA
        grouping with array extent, which would make block-decomposed
        runs differ from serial ones in the last bit.  The fixed
        accumulation order keeps distributed == serial exactly.

        ``new(shape)`` hands out the scratch arrays (results included) —
        a workspace tile's scratch; by default they are allocated.  The
        same ufuncs run in the same order either way.
        """
        if alphas.shape[0] != self.ncomp:
            raise ConfigurationError(
                f"expected {self.ncomp} volume fractions, got {alphas.shape[0]}")
        xp, new = _scratch(alphas, new)
        shape = alphas.shape[1:]
        Gm = xp.multiply(self._Gammas[0], alphas[0], out=new(shape))
        Pm = xp.multiply(self._Pis[0], alphas[0], out=new(shape))
        with new.frame():
            tmp = new(shape) if self.ncomp > 1 else None
            for i in range(1, self.ncomp):
                xp.add(Gm, xp.multiply(self._Gammas[i], alphas[i], out=tmp),
                       out=Gm)
                xp.add(Pm, xp.multiply(self._Pis[i], alphas[i], out=tmp),
                       out=Pm)
        return Gm, Pm

    def pressure(self, alphas: np.ndarray, rho_e_internal: np.ndarray, *,
                 out=None, new=None) -> np.ndarray:
        """Mixture pressure from volume fractions and volumetric internal energy."""
        xp = array_namespace(alphas, rho_e_internal)
        Gm, Pm = self.gamma_pi(alphas, new=new)
        p = xp.subtract(rho_e_internal, Pm, out=Pm if out is None else out)
        return xp.true_divide(p, Gm, out=p)

    def internal_energy(self, alphas: np.ndarray, p: np.ndarray, *,
                        new=None) -> np.ndarray:
        """Volumetric internal energy :math:`\\rho e` from volume fractions and pressure."""
        xp = array_namespace(alphas, p)
        Gm, Pm = self.gamma_pi(alphas, new=new)
        return xp.add(xp.multiply(Gm, p, out=Gm), Pm, out=Gm)

    def sound_speed(self, alphas: np.ndarray, rho: np.ndarray, p: np.ndarray,
                    *, out=None, new=None) -> np.ndarray:
        """Frozen mixture sound speed (see module docstring), into
        ``out`` when given; ``new`` as for :meth:`gamma_pi`."""
        xp, new = _scratch(alphas, new)
        shape = alphas.shape[1:]
        out = new(shape) if out is None else out
        with new.frame():
            Gm, Pm = self.gamma_pi(alphas, new=new)
            gamma_m = new(shape)
            xp.add(1.0, xp.true_divide(1.0, Gm, out=gamma_m), out=gamma_m)
            pi_m = xp.true_divide(Pm, xp.add(Gm, 1.0, out=Gm), out=Pm)
            c2 = xp.multiply(gamma_m, xp.add(p, pi_m, out=pi_m), out=pi_m)
            c2 = xp.true_divide(xp.maximum(c2, 0.0, out=c2), rho, out=c2)
            return xp.sqrt(c2, out=out)


def _scratch(like, new):
    """``(namespace, new)`` with ``new`` defaulting to fresh arrays."""
    return array_namespace(like), fresh(like) if new is None else new
