"""Tile scratch: the ``new(shape)`` allocators elementwise kernels take.

A kernel written against ``new`` draws every temporary from it and runs
the same ufuncs in the same order whatever ``new`` returns, so handing
it a block of a tile arena instead of fresh arrays only changes where
the temporaries live — never a bit of the result.
"""

from __future__ import annotations

import math

from repro.backend import array_namespace


class Scratch:
    """``new(shape)`` carving consecutive blocks of a flat ``pool``.

    A request past the pool's end (or with no pool) gets a fresh array
    of namespace ``xp`` and ``dtype``; ``high``, a one-element list, if
    given, keeps the largest total any allocator sharing it was asked
    for, so the pool's owner can grow it to fit.
    """

    __slots__ = ("pool", "size", "xp", "dtype", "high", "used")

    def __init__(self, pool, *, xp, dtype, high: list | None = None) -> None:
        self.pool, self.xp, self.dtype, self.high = pool, xp, dtype, high
        self.size = 0 if pool is None else pool.shape[0]
        self.used = 0

    def __call__(self, shape):
        lo = self.used
        self.used = hi = lo + math.prod(shape)
        if self.high is not None and hi > self.high[0]:
            self.high[0] = hi
        if hi <= self.size:
            return self.pool[lo:hi].reshape(shape)
        return self.xp.empty(shape, dtype=self.dtype)

    def frame(self) -> "_Frame":
        """``with new.frame():`` releases on exit every block carved
        inside (a stack frame) — for temporaries dead by then."""
        return _Frame(self)


class _Frame:
    __slots__ = ("scratch", "mark")

    def __init__(self, scratch: Scratch) -> None:
        self.scratch, self.mark = scratch, scratch.used

    def __enter__(self) -> Scratch:
        return self.scratch

    def __exit__(self, *exc) -> None:
        self.scratch.used = self.mark


def fresh(like):
    """``new(shape)`` allocating fresh arrays of ``like``'s namespace and
    dtype (the default of every kernel taking ``new=``)."""
    return Scratch(None, xp=array_namespace(like), dtype=like.dtype)
