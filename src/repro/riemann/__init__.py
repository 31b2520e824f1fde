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

import sys
from collections.abc import Mapping

from repro.common import ConfigurationError
from repro.common.lazy import lazy_exports
from repro.riemann.common import FaceStates, decompose_faces, physical_flux

_NAMES = ("hllc", "hll", "rusanov")

#: Each solver ``<name>_flux`` lives in the submodule of its name and
#: is imported on first access, so a run loads only the one it selected.
__getattr__ = lazy_exports(__name__, {f"{name}_flux": name for name in _NAMES})


class _Solvers(Mapping):
    """Solver name -> flux kernel, resolved through the package's lazy
    exports."""

    def __getitem__(self, name: str):
        if name not in _NAMES:
            raise KeyError(name)
        return getattr(sys.modules[__name__], f"{name}_flux")

    def __contains__(self, name) -> bool:
        return name in _NAMES

    def __iter__(self):
        return iter(_NAMES)

    def __len__(self) -> int:
        return len(_NAMES)


SOLVERS = _Solvers()


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
