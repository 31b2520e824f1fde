"""Value checks shared by every options surface.

Each factory returns ``check(label, value)``, which returns the
(normalised) value or raises :class:`ConfigurationError` naming
``label`` — so a keyword, a case-file key and a CLI flag are refused by
the same words.
"""

from __future__ import annotations

import os

from repro.common.errors import ConfigurationError


def _number(kinds, ok, wanted: str):
    def check(label: str, value):
        # bool is an int subclass; True is never a count or a size.
        if isinstance(value, bool) or not isinstance(value, kinds) \
                or not ok(value):
            raise ConfigurationError(
                f"{label} must be {wanted}, got {value!r}")
        return value if kinds is int else float(value)
    return check


def integer(floor: int):
    """An ``int`` (not a bool) ``>= floor``."""
    return _number(int, lambda v: v >= floor, f"an integer >= {floor}")


def real(ok, wanted: str):
    """An ``int`` or ``float`` satisfying ``ok``; normalised to float."""
    return _number((int, float), ok, wanted)


def choice(*values):
    """One of ``values``."""
    def check(label: str, value):
        if value not in values:
            raise ConfigurationError(
                f"{label} must be one of {values}, got {value!r}")
        return value
    return check


def optional(check):
    """``None``, or whatever ``check`` accepts."""
    return lambda label, value: None if value is None else check(label, value)


def path(label: str, value):
    """A non-empty ``str`` or ``os.PathLike``."""
    if not isinstance(value, (str, os.PathLike)) or not os.fspath(value):
        raise ConfigurationError(
            f"{label} must be a non-empty path, got {value!r}")
    return value
