"""Execution backends for the fused per-tile kernels.

The generated kernels are plain Python functions over NumPy arrays, so
they can be *compiled* three ways:

``numpy`` (default, always available)
    ``compile()`` + ``exec`` of the generated source.  Every elementwise
    op is an explicit ``np.<ufunc>(a, b, out=...)`` call in the same
    order as the reference pipeline, which is what makes the fused
    result bit-for-bit identical.  This is the only path CI requires.
``numexpr``
    Each generated op line becomes ``ne.evaluate('a * b', out=p0)`` so
    the virtual machine blocks the elementwise work through its own
    cache-sized chunks.  Op-for-op identical evaluation order keeps the
    bitwise contract.
``numba``
    The NumPy-source kernel is wrapped with ``numba.jit`` in object
    mode: array ops still dispatch to the identical NumPy ufuncs
    (bitwise-safe) while the interpreter overhead of the straight-line
    body is compiled away.

Neither optional package is assumed to be installed; availability is
probed with :func:`importlib.util.find_spec` and requesting a missing
backend is a configuration error, never a silent fallback.  The choice
is taken from the ``REPRO_FUSION_BACKEND`` environment variable when the
caller does not pass one explicitly.
"""

from __future__ import annotations

import importlib.util
import os

from repro.common import ConfigurationError

#: Valid values of the kernel-fusion knob.  ``"off"`` keeps the
#: stage-at-a-time pipeline, ``"on"`` requires the fused per-tile
#: kernels (workspace mandatory), ``"auto"`` enables them whenever the
#: workspace path is active.
FUSION_MODES = ("auto", "off", "on")

#: Recognised backend names, preference order for ``"auto"`` resolution.
FUSION_BACKENDS = ("numpy", "numexpr", "numba")

#: Environment variable consulted when no backend is passed explicitly.
BACKEND_ENV_VAR = "REPRO_FUSION_BACKEND"

_OPTIONAL_MODULES = {"numexpr": "numexpr", "numba": "numba"}


def validate_fusion(mode: str) -> str:
    """Validate and return a kernel-fusion knob value."""
    if mode not in FUSION_MODES:
        raise ConfigurationError(
            f"fusion must be one of {FUSION_MODES}, got {mode!r}")
    return mode


def backend_available(name: str) -> bool:
    """Whether ``name`` can actually execute on this host."""
    if name == "numpy":
        return True
    module = _OPTIONAL_MODULES.get(name)
    if module is None:
        return False
    return importlib.util.find_spec(module) is not None


def available_backends() -> tuple[str, ...]:
    """The subset of :data:`FUSION_BACKENDS` importable on this host."""
    return tuple(b for b in FUSION_BACKENDS if backend_available(b))


def select_backend(name: str | None = None) -> str:
    """Resolve the fusion backend to use.

    ``None`` consults :data:`BACKEND_ENV_VAR` (empty/unset means
    ``"numpy"``).  A named backend must exist and be importable; the
    pure-NumPy backend is always legal.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "") or "numpy"
    if name == "auto":
        return available_backends()[-1] if available_backends() else "numpy"
    if name not in FUSION_BACKENDS:
        raise ConfigurationError(
            f"fusion backend must be one of {FUSION_BACKENDS} or 'auto', "
            f"got {name!r}")
    if not backend_available(name):
        raise ConfigurationError(
            f"fusion backend {name!r} requested but the module is not "
            f"installed; install it or use the default 'numpy' backend")
    return name
