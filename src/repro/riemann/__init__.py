"""Approximate Riemann solvers for the five-equation model (paper §II-B).

The HLLC solver is the one MFC uses and the paper profiles (it is the
single most expensive kernel).  HLL and Rusanov are provided as more
dissipative baselines for comparison and testing.

All solvers share one interface: given left/right primitive face states
of shape ``(nvars, ...)`` they return ``(flux, u_face)`` where ``flux``
is the numerical flux of the conservative variables and ``u_face`` the
interface normal velocity used by the nonconservative
:math:`\\alpha\\,\\nabla\\!\\cdot u` term.
"""

from repro.common import ConfigurationError
from repro.riemann.common import FaceStates, decompose_faces, physical_flux
from repro.riemann.hllc import hllc_flux
from repro.riemann.hll import hll_flux
from repro.riemann.rusanov import rusanov_flux

SOLVERS = {
    "hllc": hllc_flux,
    "hll": hll_flux,
    "rusanov": rusanov_flux,
}


def resolve_riemann_flux(solver: str):
    """The flux callable of a solver name."""
    if solver not in SOLVERS:
        raise ConfigurationError(
            f"unknown riemann solver {solver!r}; expected one of "
            f"{tuple(SOLVERS)}")
    return SOLVERS[solver]


def riemann_expression(solver: str):
    """Expression-provider entry for the fusion code generator.

    Returns ``(qualname, callable)``: the provenance string the
    generated source embeds in its header comment plus the resolved flux
    kernel the fused region binds (the solvers are already single-call
    face kernels, so the generator stitches them in as one bound stage
    rather than re-deriving their arithmetic).
    """
    fn = resolve_riemann_flux(solver)
    return f"{fn.__module__}.{fn.__qualname__}", fn


__all__ = [
    "FaceStates",
    "decompose_faces",
    "physical_flux",
    "hllc_flux",
    "hll_flux",
    "rusanov_flux",
    "SOLVERS",
    "resolve_riemann_flux",
    "riemann_expression",
]
