"""The ``checked`` backend: a device-array emulator that bans host NumPy.

Real accelerator arrays (CuPy, CUDA tensors) are not NumPy arrays: a
module-level ``np.something(device_array)`` call either crashes or —
worse — silently round-trips through host memory.  The hot path is
therefore written against a *namespace* (``xp``) resolved from the
arrays themselves (:func:`repro.backend.array_namespace`).  This module
supplies an in-process backend that **enforces** that discipline without
needing a GPU or an optional dependency installed:

* :class:`GuardArray` wraps an ``np.ndarray`` but sets
  ``__array_ufunc__ = None`` and raises from ``__array__`` /
  ``__array_function__`` — any stray ``np.add(...)``/``np.copyto(...)``
  /``np.asarray(...)`` on the converted hot path fails loudly with a
  :class:`BackendLeakError` instead of silently computing on the host,
* the :data:`GUARD_NAMESPACE` exposes the whole NumPy API but
  unwraps its :class:`GuardArray` arguments, calls NumPy, and rewraps
  ndarray results — so results are **bitwise identical** to the plain
  NumPy backend (same ufuncs, same operand order, same ``out=``
  buffers), which is exactly what makes it usable as a property-test
  oracle for the namespace seam.

Mixing a raw host ``np.ndarray`` into a guard expression (operand,
``out=`` destination, or ``__setitem__`` value) is also a
:class:`BackendLeakError`: on a real device that mix is an H2D/D2H
transfer the author never wrote.  Host data must enter through
``xp.asarray`` / :meth:`repro.backend.Backend.from_host` — the explicit
transfer seam.
"""

from __future__ import annotations

import types

import numpy as np

__all__ = ["BackendLeakError", "GuardArray", "GUARD_NAMESPACE"]


class BackendLeakError(RuntimeError):
    """A host-NumPy operation touched a checked-backend device array.

    Deliberately *not* a TypeError: NumPy swallows TypeError from
    ``__array__`` and falls back to the sequence protocol, which would
    silently build a host copy — the exact bug this backend exists to
    catch.
    """


def _leak(what: str) -> BackendLeakError:
    return BackendLeakError(
        f"{what} on a checked-backend array: the hot path called host "
        f"NumPy on device data instead of the resolved namespace "
        f"(repro.backend.array_namespace) — on a real accelerator this "
        f"is a crash or a silent host round-trip")


def _wrap(value):
    """Rewrap ndarray results; pass scalars and everything else through."""
    if type(value) is np.ndarray or isinstance(value, np.ndarray):
        return GuardArray(value)
    if isinstance(value, tuple):
        return tuple(_wrap(v) for v in value)
    if isinstance(value, list):
        return [_wrap(v) for v in value]
    return value


def _unwrap(value):
    """Unwrap guard operands; reject raw host ndarrays."""
    if isinstance(value, GuardArray):
        return value._a
    if isinstance(value, np.ndarray) and value.ndim > 0:
        raise _leak("host ndarray operand")
    if isinstance(value, tuple):
        return tuple(_unwrap(v) for v in value)
    if isinstance(value, list):
        return [_unwrap(v) for v in value]
    if isinstance(value, slice):
        return slice(_unwrap(value.start), _unwrap(value.stop),
                     _unwrap(value.step))
    return value


def _binop(opname: str):
    def op(self, other):
        return _wrap(getattr(self._a, opname)(_unwrap(other)))
    op.__name__ = opname
    return op


def _unop(opname: str):
    def op(self):
        return _wrap(getattr(self._a, opname)())
    op.__name__ = opname
    return op


class GuardArray:
    """An ``np.ndarray`` wrapper that refuses module-level NumPy.

    Slicing, arithmetic operators, comparisons, and method calls all
    work (delegated to the wrapped array, results rewrapped), so kernel
    code written against the resolved namespace runs unchanged.  Only
    the *host* entry points are blocked — see the module docstring.
    """

    __slots__ = ("_a",)

    #: Makes ``np.ufunc(guard, ...)`` and ``ndarray op guard`` return
    #: NotImplemented instead of computing — the load-bearing line.
    __array_ufunc__ = None

    def __init__(self, array: np.ndarray) -> None:
        if isinstance(array, GuardArray):
            array = array._a
        if not isinstance(array, np.ndarray):
            raise TypeError(
                f"GuardArray wraps np.ndarray, got {type(array).__name__}")
        object.__setattr__(self, "_a", array)

    # -- blocked host seams --------------------------------------------
    def __array__(self, dtype=None, copy=None):
        raise _leak("implicit np.asarray / __array__ conversion")

    def __array_function__(self, func, types_, args, kwargs):
        raise _leak(f"np.{getattr(func, '__name__', func)} call")

    #: Conversion-protocol attributes that must NOT delegate to the
    #: wrapped array: exposing ``__array_interface__`` would hand NumPy
    #: a silent zero-copy host view, bypassing ``__array__``'s guard.
    _BLOCKED = frozenset({
        "__array_interface__", "__array_struct__", "__array_priority__",
        "__array_wrap__", "__array_prepare__", "__array_finalize__",
    })

    # -- transparent delegation ----------------------------------------
    def __getattr__(self, name):
        if name in self._BLOCKED:
            raise AttributeError(name)
        attr = getattr(self._a, name)
        if callable(attr):
            def method(*args, **kwargs):
                return _wrap(attr(*[_unwrap(a) for a in args],
                                  **{k: _unwrap(v)
                                     for k, v in kwargs.items()}))
            method.__name__ = name
            return method
        return _wrap(attr)

    def __getitem__(self, key):
        return _wrap(self._a[_unwrap(key)])

    def __setitem__(self, key, value):
        self._a[_unwrap(key)] = _unwrap(value)

    def __len__(self):
        return len(self._a)

    def __iter__(self):
        return (_wrap(v) for v in self._a)

    def __repr__(self):
        return f"GuardArray({self._a!r})"

    def __float__(self):
        return float(self._a)

    def __int__(self):
        return int(self._a)

    def __bool__(self):
        return bool(self._a)

    def __index__(self):
        return self._a.__index__()

    # -- operators ------------------------------------------------------
    __add__ = _binop("__add__")
    __radd__ = _binop("__radd__")
    __sub__ = _binop("__sub__")
    __rsub__ = _binop("__rsub__")
    __mul__ = _binop("__mul__")
    __rmul__ = _binop("__rmul__")
    __truediv__ = _binop("__truediv__")
    __rtruediv__ = _binop("__rtruediv__")
    __floordiv__ = _binop("__floordiv__")
    __rfloordiv__ = _binop("__rfloordiv__")
    __mod__ = _binop("__mod__")
    __pow__ = _binop("__pow__")
    __rpow__ = _binop("__rpow__")
    __and__ = _binop("__and__")
    __rand__ = _binop("__rand__")
    __or__ = _binop("__or__")
    __ror__ = _binop("__ror__")
    __xor__ = _binop("__xor__")
    __rxor__ = _binop("__rxor__")
    __lt__ = _binop("__lt__")
    __le__ = _binop("__le__")
    __gt__ = _binop("__gt__")
    __ge__ = _binop("__ge__")
    __eq__ = _binop("__eq__")
    __ne__ = _binop("__ne__")
    __neg__ = _unop("__neg__")
    __pos__ = _unop("__pos__")
    __abs__ = _unop("__abs__")
    __invert__ = _unop("__invert__")

    __hash__ = None


class _GuardNamespace:
    """NumPy's API surface, arguments unwrapped and results rewrapped.

    Attribute access is resolved lazily against a wrapped module:
    callables become unwrap→call→rewrap closures, submodules become
    nested namespaces (so ``xp.lib.stride_tricks.as_strided`` works),
    and constants (dtypes, ``newaxis``, ``pi``) pass straight through.
    Resolved attributes are cached on the instance, so steady-state
    lookups cost one dict hit.
    """

    def __init__(self, module=np) -> None:
        self._module = module
        if module is np:
            # The one sanctioned host->device entry: asarray accepts raw
            # host data (ndarrays, lists, scalars) and returns a guard
            # array — the explicit transfer the seam requires.
            object.__setattr__(self, "asarray", _guard_asarray)
            object.__setattr__(self, "ascontiguousarray",
                               _guard_ascontiguousarray)

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if isinstance(attr, types.ModuleType):
            wrapped = _GuardNamespace(attr)
        elif callable(attr):
            def call(*args, _f=attr, **kwargs):
                return _wrap(_f(*[_unwrap(a) for a in args],
                                **{k: _unwrap(v)
                                   for k, v in kwargs.items()}))
            call.__name__ = name
            wrapped = call
        else:
            wrapped = attr
        object.__setattr__(self, name, wrapped)  # cache for next lookup
        return wrapped

    def __repr__(self):
        return f"<guard namespace over {self._module.__name__}>"


def _guard_asarray(obj, dtype=None, **kwargs):
    if isinstance(obj, GuardArray):
        obj = obj._a
    return _wrap(np.asarray(obj, dtype=dtype, **kwargs))


def _guard_ascontiguousarray(obj, dtype=None):
    if isinstance(obj, GuardArray):
        obj = obj._a
    return _wrap(np.ascontiguousarray(obj, dtype=dtype))


#: The namespace :func:`repro.backend.array_namespace` resolves for
#: :class:`GuardArray` inputs.
GUARD_NAMESPACE = _GuardNamespace(np)
