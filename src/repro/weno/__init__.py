"""WENO reconstruction (paper §II-B).

Third- and fifth-order weighted essentially non-oscillatory
reconstructions of cell-averaged fields to cell faces, vectorized over
whole fields.  This is one of the two hottest kernels in MFC (the other
is the HLLC Riemann solve), and the one whose data layout the paper's
packing/coalescing optimizations target.
"""

from repro.weno.coefficients import halo_width, IDEAL_WEIGHTS, WENO_EPS
from repro.weno.reconstruct import (
    allocate_weno_scratch,
    reconstruct_faces,
    reconstruct_faces_span,
    weno_order_check,
    weno_passes_per_side,
)

__all__ = [
    "halo_width",
    "IDEAL_WEIGHTS",
    "WENO_EPS",
    "reconstruct_faces",
    "reconstruct_faces_span",
    "weno_order_check",
    "allocate_weno_scratch",
    "weno_passes_per_side",
]
