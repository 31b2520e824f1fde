"""Array-API-style execution backends for the solver hot path.

The paper's portability claim is that *one* kernel source runs on
NVIDIA and AMD GPUs alike; the Python analog is one RHS written against
an array **namespace** (``xp``) instead of module-level ``np.*`` calls.
This package is the seam that makes that real:

* :class:`Backend` — a named array provider: the namespace the kernels
  call, the allocator the workspace uses, and the explicit H2D/D2H
  transfer pair (:meth:`Backend.from_host` / :meth:`Backend.to_host`)
  that everything crossing the host boundary (checkpoints, halo
  exchange, the tuner's bitwise gate, diagnostics) must route through —
  the ``host_data use_device`` bracket of the paper's Listings 3–6,
* :func:`get_backend` — the registry.  ``numpy`` is the default (its
  namespace *is* the ``numpy`` module, so the converted hot path is
  bitwise identical to the pre-backend code); ``checked`` wraps NumPy
  in :class:`~repro.backend.guard.GuardArray` device-discipline
  enforcement (bitwise identical values, loud failures on host leaks),
* :func:`array_namespace` — namespace resolution from the arrays
  themselves, per the Array API standard's ``array_namespace``:
  kernels call it on their inputs and never import a backend directly.

The fusion compiler generates code against NumPy ufuncs, so the
``checked`` backend never fuses (``Backend.supports_fusion``).  What a
device backend would need is in ``docs/backends.md``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable

import numpy as np

from repro.common import ConfigurationError
from repro.common.lazy import lazy_exports

#: The guard types load with the ``checked`` backend, on first use.
__getattr__ = lazy_exports(__name__, {"BackendLeakError": "guard",
                                      "GuardArray": "guard"})

__all__ = [
    "Backend",
    "BackendLeakError",
    "GuardArray",
    "BACKEND_NAMES",
    "array_namespace",
    "get_backend",
    "resolve_backend",
    "to_host_array",
    "validate_backend",
    "validate_precision",
    "PRECISIONS",
]

#: Explicit, validated precision options (``precision`` is *not* a
#: tuner axis: float32 changes answers, so it must be asked for).
PRECISIONS = ("float64", "float32")


def validate_precision(precision: str) -> str:
    if precision not in PRECISIONS:
        raise ConfigurationError(
            f"precision must be one of {PRECISIONS}, got {precision!r}")
    return precision


def precision_dtype(precision: str):
    """The numpy dtype for a validated precision name."""
    return np.dtype(validate_precision(precision))


@dataclass(frozen=True)
class Backend:
    """One array provider the solver can execute on.

    Attributes
    ----------
    name:
        Registry key (``"numpy"`` or ``"checked"``).
    xp:
        The namespace hot-path kernels call — literally the ``numpy``
        module for the default backend.
    supports_fusion:
        Whether the fused sweep kernels, generated against NumPy
        ufuncs, can run on this backend.
    """

    name: str
    xp: Any
    supports_fusion: bool
    _from_host: Callable = field(repr=False, default=None)
    _to_host: Callable = field(repr=False, default=None)

    # ------------------------------------------------------------------
    def from_host(self, arr: np.ndarray, *, dtype=None):
        """H2D: a device array holding ``arr``'s values.

        Shares memory (numpy: identity; checked: zero-copy wrap);
        ``dtype`` converts on the way in (the ``precision`` seam).
        """
        return self._from_host(arr, dtype)

    def to_host(self, arr) -> np.ndarray:
        """D2H: the host ndarray view/copy of a device array.

        The one sanctioned way device data reaches host consumers —
        checkpoint writers, the tuner's ``.tobytes()`` gate, halo
        mailboxes, diagnostics.  Identity for the numpy backend.
        """
        return self._to_host(arr)

    def empty(self, shape, dtype):
        return self.xp.empty(shape, dtype)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def _np_from_host(arr, dtype):
    arr = np.asarray(arr)
    if dtype is not None and arr.dtype != np.dtype(dtype):
        return arr.astype(dtype)
    return arr


def _np_to_host(arr):
    if isinstance(arr, np.ndarray):
        return arr
    return np.asarray(arr)


def _guard():
    """:mod:`repro.backend.guard` if loaded, else None.  No
    :class:`GuardArray` exists before the ``checked`` backend loads it,
    so a run on NumPy never imports it."""
    return sys.modules.get("repro.backend.guard")


def _guard_from_host(arr, dtype):
    from repro.backend.guard import GuardArray

    return GuardArray(_np_from_host(arr, dtype))


def _guard_to_host(arr):
    guard = _guard()
    if guard is not None and isinstance(arr, guard.GuardArray):
        return arr._a
    return _np_to_host(arr)


_NUMPY = Backend("numpy", np, supports_fusion=True,
                 _from_host=_np_from_host, _to_host=_np_to_host)


@cache
def _checked() -> Backend:
    from repro.backend.guard import GUARD_NAMESPACE

    return Backend("checked", GUARD_NAMESPACE, supports_fusion=False,
                   _from_host=_guard_from_host, _to_host=_guard_to_host)


#: Each registered name with the builder of its backend.
_REGISTRY: dict[str, Callable[[], Backend]] = {"numpy": lambda: _NUMPY,
                                                "checked": _checked}

#: Names the registry knows.
BACKEND_NAMES = tuple(_REGISTRY)


def validate_backend(name: str) -> str:
    """Check the *name* is a registered backend."""
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
    return name


def get_backend(name: str = "numpy") -> Backend:
    """The registered backend of that name."""
    return _REGISTRY[validate_backend(name)]()


def resolve_backend(backend) -> Backend:
    """Coerce a name or :class:`Backend` instance to a :class:`Backend`."""
    if isinstance(backend, Backend):
        return backend
    if backend is None:
        return _NUMPY
    if isinstance(backend, str):
        return get_backend(backend)
    raise ConfigurationError(
        f"backend must be a name or Backend, got {type(backend).__name__}")


# ----------------------------------------------------------------------
# Namespace resolution (the Array API's array_namespace)
# ----------------------------------------------------------------------

def array_namespace(*arrays):
    """The namespace the given arrays belong to.

    The literal ``numpy`` module for ndarrays (so the default backend
    has zero indirection and bitwise-identical semantics), the guard
    namespace for :class:`GuardArray`.  Scalars, ``None`` and other
    objects are skipped; all-scalar calls default to NumPy.  Mixing
    arrays of different backends raises — that mix is an implicit
    transfer the author never wrote.
    """
    ns = None
    for a in arrays:
        if isinstance(a, np.ndarray):
            this = np
        elif (guard := _guard()) is not None and isinstance(a, guard.GuardArray):
            this = guard.GUARD_NAMESPACE
        else:
            continue
        if ns is None:
            ns = this
        elif ns is not this:
            raise ConfigurationError(
                f"arrays from different backends in one call "
                f"({ns!r} vs {this!r}); convert explicitly through "
                f"Backend.from_host/to_host")
    return ns if ns is not None else np


def to_host_array(arr) -> np.ndarray:
    """Device→host for *any* backend's array, dispatched by type.

    The free-function twin of :meth:`Backend.to_host` for call sites
    that receive arrays without knowing which backend produced them —
    the checkpoint writer and the tuner's validity gate route through
    this so a checked run can't crash (or silently skip) those paths.
    """
    return _guard_to_host(arr)
