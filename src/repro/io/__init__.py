"""File I/O: binary snapshots, checkpoints, post-processing.

The paper (§III-A) describes MFC's binary output files and a host-side
post-processor that turns them into SILO databases for ParaView/VisIt.
This package implements working analogs of both (the shared-file vs
file-per-process write strategies are priced by
:mod:`repro.cluster.io_model`):

* :mod:`repro.io.binary` — the snapshot format (header + raw float64),
* :mod:`repro.io.silo` — the post-processor ("SILO" stands in for a
  portable ``.npz`` database with coordinates and named fields),
* :mod:`repro.io.case_files` — JSON case files, the analog of MFC's
  Python-dictionary input decks.
"""

from repro.common.lazy import lazy_exports

#: Every export and the submodule it lives in, imported on first access:
#: a run reads its case and writes snapshots (and checkpoints, when
#: asked); the post-processor and the series files load only for the
#: commands that use them.
_EXPORTS = {
    "SnapshotHeader": "binary", "read_snapshot": "binary",
    "verify_snapshot": "binary", "write_snapshot": "binary",
    "CheckpointManager": "checkpoint",
    "export_silo": "silo", "load_silo": "silo",
    "case_from_dict": "case_files", "case_to_dict": "case_files",
    "load_case": "case_files", "save_case": "case_files",
    "SeriesReader": "series", "SeriesWriter": "series",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
