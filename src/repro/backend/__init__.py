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
* :func:`get_backend` — the registry.  ``numpy`` is always available
  and is the default (its namespace *is* the ``numpy`` module, so the
  converted hot path is bitwise identical to the pre-backend code);
  ``checked`` wraps NumPy in :class:`~repro.backend.guard.GuardArray`
  device-discipline enforcement (bitwise identical values, loud
  failures on host leaks); ``torch`` and ``cupy`` activate when their
  packages are installed,
* :func:`array_namespace` — namespace resolution from the arrays
  themselves, per the Array API standard's ``array_namespace``:
  kernels call it on their inputs and never import a backend directly.

Capability flags gate the execution features that are inherently
NumPy-bound: the stacked WENO variant needs negative-stride
``as_strided`` views and the fusion compiler generates code against
NumPy ufuncs, so both silently (and documentedly) fall back on
non-NumPy backends.  See ``docs/backends.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.common import ConfigurationError
from repro.backend.guard import (
    GUARD_NAMESPACE,
    BackendLeakError,
    GuardArray,
)
from repro.backend.torch_adapter import (
    TORCH_NAMESPACE,
    host_to_tensor,
    tensor_to_host,
    torch_available,
)

__all__ = [
    "Backend",
    "BackendLeakError",
    "GuardArray",
    "BACKEND_NAMES",
    "array_namespace",
    "available_backends",
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
        Registry key (``"numpy"``, ``"checked"``, ``"torch"``,
        ``"cupy"``).
    xp:
        The namespace hot-path kernels call — literally the ``numpy``
        module for the default backend.
    bitwise:
        Whether this backend's results are bit-for-bit identical to the
        NumPy reference (True for ``numpy`` and ``checked``; torch/cupy
        match within dtype ULP tolerance instead).  The tuner's
        validity gate consults this to know whether a mismatch means
        *broken* or merely *different rounding*.
    supports_stacked_weno / supports_fusion / supports_threads:
        Execution features available on this backend (see the module
        docstring for why the first two are NumPy-only).
    """

    name: str
    xp: Any
    bitwise: bool
    supports_stacked_weno: bool
    supports_fusion: bool
    supports_threads: bool = True
    _from_host: Callable = field(repr=False, default=None)
    _to_host: Callable = field(repr=False, default=None)

    # ------------------------------------------------------------------
    def from_host(self, arr: np.ndarray, *, dtype=None):
        """H2D: a device array holding ``arr``'s values.

        Shares memory where the backend allows it (numpy: identity;
        checked/torch-CPU: zero-copy wrap) and copies where it must
        (CUDA).  ``dtype`` converts on the way in (the ``precision``
        seam).
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


def _guard_from_host(arr, dtype):
    return GuardArray(_np_from_host(arr, dtype))


def _guard_to_host(arr):
    if isinstance(arr, GuardArray):
        return arr._a
    return _np_to_host(arr)


def _torch_from_host(arr, dtype):
    return host_to_tensor(arr, device="cpu", dtype=dtype)


def _cupy_namespace():
    import cupy

    return cupy


_NUMPY = Backend("numpy", np, bitwise=True, supports_stacked_weno=True,
                 supports_fusion=True,
                 _from_host=_np_from_host, _to_host=_np_to_host)

_CHECKED = Backend("checked", GUARD_NAMESPACE, bitwise=True,
                   supports_stacked_weno=True, supports_fusion=False,
                   _from_host=_guard_from_host, _to_host=_guard_to_host)

#: Names the registry knows (availability is a separate question).
BACKEND_NAMES = ("numpy", "checked", "torch", "cupy")


def _build_torch() -> Backend:
    if not torch_available():
        raise ConfigurationError(
            "backend 'torch' requested but torch is not installed; "
            f"available here: {available_backends()}")
    return Backend("torch", TORCH_NAMESPACE, bitwise=False,
                   supports_stacked_weno=False, supports_fusion=False,
                   supports_threads=False,  # own intra-op pool; not fork-safe
                   _from_host=_torch_from_host, _to_host=tensor_to_host)


def _build_cupy() -> Backend:
    try:
        import cupy
    except ImportError:
        raise ConfigurationError(
            "backend 'cupy' requested but cupy is not installed; "
            f"available here: {available_backends()}") from None

    def from_host(arr, dtype):
        dev = cupy.asarray(arr)
        if dtype is not None and dev.dtype != np.dtype(dtype):
            dev = dev.astype(dtype)
        return dev

    def to_host(arr):
        if isinstance(arr, cupy.ndarray):
            return cupy.asnumpy(arr)
        return _np_to_host(arr)

    return Backend("cupy", cupy, bitwise=False, supports_stacked_weno=True,
                   supports_fusion=False, supports_threads=False,
                   _from_host=from_host, _to_host=to_host)


_CACHE: dict[str, Backend] = {"numpy": _NUMPY, "checked": _CHECKED}


def validate_backend(name: str) -> str:
    """Check the *name* is known (not necessarily available here)."""
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
    return name


def get_backend(name: str = "numpy") -> Backend:
    """The registered backend, raising when its package is missing."""
    validate_backend(name)
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    backend = _build_torch() if name == "torch" else _build_cupy()
    _CACHE[name] = backend
    return backend


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


def available_backends() -> list[str]:
    """Backends that can actually run on this host, in registry order."""
    names = ["numpy", "checked"]
    if torch_available():
        names.append("torch")
    try:
        import cupy  # noqa: F401
        names.append("cupy")
    except ImportError:
        pass
    return names


# ----------------------------------------------------------------------
# Namespace resolution (the Array API's array_namespace)
# ----------------------------------------------------------------------

def array_namespace(*arrays):
    """The namespace the given arrays belong to.

    The literal ``numpy`` module for ndarrays (so the default backend
    has zero indirection and bitwise-identical semantics), the guard
    namespace for :class:`GuardArray`, the torch adapter for tensors.
    Scalars and ``None`` are skipped; all-scalar calls default to
    NumPy.  Mixing arrays of different backends raises — that mix is an
    implicit transfer the author never wrote.
    """
    ns = None
    for a in arrays:
        if a is None or isinstance(a, (int, float, complex, np.generic)):
            continue
        if isinstance(a, np.ndarray):
            this = np
        elif isinstance(a, GuardArray):
            this = GUARD_NAMESPACE
        elif type(a).__module__.partition(".")[0] == "torch":
            this = TORCH_NAMESPACE
        elif type(a).__module__.partition(".")[0] == "cupy":
            this = _cupy_namespace()
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
    this so non-NumPy backends can't crash (or silently skip) those
    paths.
    """
    if isinstance(arr, np.ndarray):
        return arr
    if isinstance(arr, GuardArray):
        return arr._a
    if type(arr).__module__.partition(".")[0] == "torch":
        return tensor_to_host(arr)
    if type(arr).__module__.partition(".")[0] == "cupy":
        import cupy

        return cupy.asnumpy(arr)
    return np.asarray(arr)
