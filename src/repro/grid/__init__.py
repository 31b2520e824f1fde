"""Structured grids: uniform, tanh-stretched, and cylindrical metadata (paper §III-A)."""

from repro.common.lazy import lazy_exports

#: Every export and the submodule it lives in (imported on first access).
_EXPORTS = {
    "StructuredGrid": "cartesian",
    "tanh_stretched_faces": "stretching", "uniform_faces": "stretching",
    "CylindricalGrid": "cylindrical",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
