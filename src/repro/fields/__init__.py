"""Field containers and data-layout transformations (paper §III.C-§III.E).

The paper's central optimization is moving from an *array of
user-defined types* (Fortran ``type(scalar_field), dimension(:)`` —
each field a separately allocated 3D array) to *flattened, coalesced 4D
arrays*.  This package reproduces both representations and every
transformation between them:

* :class:`ScalarField` / :class:`FieldBank` — the derived-type view
  (Listing 2): independently allocated per-variable arrays.
* :mod:`repro.fields.packing` — AoS -> packed 4D array and back.
* :mod:`repro.fields.transpose` — the three transpose implementations
  the paper compares: fully collapsed directive loops, the cuTENSOR
  ``reshape`` path (Listing 3), and the two-step hipBLAS GEAM
  decomposition (Listing 4).
"""

from repro.common.lazy import lazy_exports

#: Every export and the submodule it lives in, imported on first access:
#: the sweeps need only the transpose permutation.
_EXPORTS = {
    "FieldBank": "scalar_field", "ScalarField": "scalar_field",
    "pack_bank": "packing", "unpack_bank": "packing",
    "geam_transpose_cutensor": "transpose",
    "geam_transpose_hipblas": "transpose", "inverse_perm": "transpose",
    "sweep_perm": "transpose", "transpose_loop": "transpose",
    "untranspose_loop": "transpose",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
