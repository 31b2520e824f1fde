"""Durable checkpoint sets: rotation, verification, fallback.

Every driver checkpoints through :class:`CheckpointManager`, a *set*
per step: one block per writer, a snapshot named ``<writer>_<step>.bin``
(``ckpt`` for a run, the job id for a campaign slot, ``rank####`` for a
rank), then a manifest ``<prefix>_<step>.json`` written last, naming
each block's origin, shape and CRC32, the global shape and the run id.
A save prunes every set under the prefix but this run's newest
``keep``; a restore assembles the newest set that verifies, whatever
decomposition wrote it (docs/resilience.md "Durable checkpoints").
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path

import numpy as np

from repro.common import DTYPE, CheckpointError, ConfigurationError
from repro.io.binary import (
    SnapshotHeader,
    read_header,
    read_snapshot,
    write_atomic,
    write_snapshot,
)

#: File names: ``<stem>_<step>.bin|.json`` (step zero-padded so
#: lexicographic order matches step order).
_STEP_WIDTH = 9


class CheckpointManager:
    """Rotating, integrity-checked checkpoint sets in one directory.

    A save keeps ``keep`` of run ``run_id``'s sets (default id: fresh per
    instance) under ``prefix``.  A set's blocks are ``blocks``, each
    ``(writer, origin)`` (default one, the prefix's); this manager writes
    number ``block``, every writer passes ``barrier`` (a rank's
    collective), then the first writes the manifest — so it never names
    a block that is not yet durable.  :attr:`verified` / :attr:`rejected`
    count the sets restores passed / skipped; :attr:`skip_reasons` and
    :attr:`events` (``kind checkpoint reason detail``, the file at fault)
    say why, for recovery reports.
    """

    def __init__(self, directory: str | Path, *, keep: int = 3,
                 prefix: str = "ckpt", run_id: str | None = None,
                 blocks=None, block: int = 0, barrier=None) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.blocks = tuple(blocks or ((prefix, None),))
        for name in (prefix, *(writer for writer, _ in self.blocks)):
            if not re.fullmatch(r"[A-Za-z0-9._-]+", name):
                raise ConfigurationError(f"invalid checkpoint prefix {name!r}")
        self.directory = Path(directory)
        self.keep = keep
        self.prefix = prefix
        self.run_id = run_id or os.urandom(8).hex()
        self.block = block
        self.barrier = barrier
        self.verified = 0
        self.rejected = 0
        self.skip_reasons: dict[str, int] = {}
        self.events: list[dict] = []

    # ------------------------------------------------------------------
    def _file(self, stem: str, step: int, suffix: str) -> Path:
        return self.directory / f"{stem}_{step:0{_STEP_WIDTH}d}{suffix}"

    def path_for(self, step: int) -> Path:
        """This manager's block file of the set at ``step``."""
        return self._file(self.blocks[self.block][0], step, ".bin")

    def manifest_for(self, step: int) -> Path:
        return self._file(self.prefix, step, ".json")

    def _sets(self) -> list[tuple[Path, dict | CheckpointError]]:
        """``(manifest, its record or why it is unreadable)`` of every
        set under the prefix, oldest first."""
        if not self.directory.is_dir():
            return []
        pattern = re.compile(
            rf"{re.escape(self.prefix)}_\d{{{_STEP_WIDTH}}}\.json")
        return [(p, _read(p)) for p in sorted(self.directory.iterdir())
                if pattern.fullmatch(p.name)]

    def sets(self) -> list[list[Path]]:
        """The block files of each readable set, oldest set first."""
        return [[self.directory / b["file"] for b in record["blocks"]]
                for _, record in self._sets() if isinstance(record, dict)]

    def checkpoints(self) -> list[Path]:
        """The block files of every readable set, oldest set first."""
        return [path for blocks in self.sets() for path in blocks]

    # ------------------------------------------------------------------
    def save(self, q: np.ndarray, *, step: int, time: float) -> Path:
        """Write this manager's block of the set at ``step`` (returns its
        path); past the ``barrier`` the first block's writer writes the
        manifest and prunes."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(step)
        write_snapshot(path, q, step=step, time=time)
        if self.barrier is not None:
            self.barrier()
        if self.block == 0:
            entries = []
            for writer, origin in self.blocks:
                block = self._file(writer, step, ".bin")
                header, crc = read_header(block)
                entries.append({"file": block.name, "origin": list(
                    origin or (0,) * header.ndim), "shape": list(header.shape),
                    "crc": crc})
            record = {"step": step, "time": float(time), "dtype": str(q.dtype),
                      "nvars": header.nvars, "run": self.run_id,
                      "shape": [max(e["origin"][a] + e["shape"][a]
                                    for e in entries)
                                for a in range(header.ndim)],
                      "blocks": entries}
            record["crc"] = _crc(record)
            write_atomic(self.manifest_for(step), json.dumps(record).encode())
            self._discard(self.run_id)
        return path

    def clear(self) -> None:
        """Delete every set under the prefix."""
        self._discard()

    def _discard(self, run_id: str | None = None) -> None:
        """Delete every set under the prefix but run ``run_id``'s newest
        ``keep`` (a block a kept set names stays), and its dead writers'
        ``<file>.tmp.<pid>`` (:func:`~repro.io.binary.write_atomic`)."""
        sets = self._sets()
        writers = {self.prefix, *(w for w, _ in self.blocks), *(
            b["file"].rsplit("_", 1)[0] for _, rec in sets
            if isinstance(rec, dict) for b in rec["blocks"])}
        temp = re.compile(rf"(.+)_\d{{{_STEP_WIDTH}}}\.(?:bin|json)\.tmp\.(\d+)")
        for path in self.directory.glob("*.tmp.*"):
            match = temp.fullmatch(path.name)
            if match and match[1] in writers and not _alive(int(match[2])):
                path.unlink(missing_ok=True)
        keep = [m for m, rec in sets if isinstance(rec, dict)
                and rec["run"] == run_id][-self.keep:]
        kept = {b["file"] for m, rec in sets if m in keep
                for b in rec["blocks"]}
        for manifest, record in sets:
            if manifest in keep:
                continue
            manifest.unlink(missing_ok=True)
            for b in record["blocks"] if isinstance(record, dict) else ():
                if b["file"] not in kept:
                    (self.directory / b["file"]).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def load_latest(
        self, *, expect_shape: tuple[int, ...] | None = None,
        run_id: str | None = None,
    ) -> tuple[Path, SnapshotHeader, np.ndarray]:
        """The newest set that verifies, assembled: ``(manifest, header,
        global field)``.  A set with an unreadable manifest, a missing,
        corrupt or foreign block, or (``expect_shape``) another global
        shape is counted in ``rejected`` and skipped; ``run_id`` passes
        over other runs' sets.  Raises :class:`~repro.common.
        CheckpointError` when nothing survives."""
        reasons: list[str] = []
        for manifest, record in reversed(self._sets()):
            at_fault = manifest.name
            try:
                if isinstance(record, CheckpointError):
                    raise record
                if run_id is not None and record["run"] != run_id:
                    continue
                shape = (record["nvars"], *record["shape"])
                if expect_shape is not None and shape != tuple(expect_shape):
                    raise CheckpointError(
                        f"checkpoint shape {shape} does not match case "
                        f"{tuple(expect_shape)}", reason="shape")
                q = np.empty(shape, dtype=DTYPE)
                for block in record["blocks"]:
                    at_fault = block["file"]
                    path = self.directory / at_fault
                    if not path.is_file():
                        raise CheckpointError(f"block {at_fault} is missing",
                                              reason="missing")
                    header, crc = read_header(path)
                    if (crc, header.step, list(header.shape)) != \
                            (block["crc"], record["step"], block["shape"]):
                        raise CheckpointError(
                            f"{at_fault} is not the block its manifest wrote "
                            f"(overwritten by another run?)", reason="mismatch")
                    q[(slice(None), *(slice(o, o + n) for o, n in zip(
                        block["origin"], block["shape"])))] = \
                        read_snapshot(path)[1]
            except CheckpointError as err:
                reason = getattr(err, "reason", "corrupt")
                self.rejected += 1
                self.skip_reasons[reason] = \
                    self.skip_reasons.get(reason, 0) + 1
                self.events.append({
                    "kind": "checkpoint-skip", "checkpoint": at_fault,
                    "reason": reason, "detail": str(err)})
                reasons.append(f"{at_fault}: {err}")
                continue
            self.verified += 1
            return manifest, SnapshotHeader(
                step=record["step"], time=record["time"],
                nvars=record["nvars"], shape=tuple(record["shape"])), q
        detail = ("; ".join(reasons) if reasons
                  else f"no checkpoints under {self.directory}")
        raise CheckpointError(f"no valid checkpoint to restart from ({detail})")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError as err:  # EPERM: another user's live process
        return not isinstance(err, ProcessLookupError)
    return True


def _crc(record: dict) -> int:
    return zlib.crc32(json.dumps(record, sort_keys=True).encode())


def _read(manifest: Path) -> dict | CheckpointError:
    """A manifest's record, its CRC verified, or why it is unreadable."""
    try:
        record = json.loads(manifest.read_bytes())
        if record.pop("crc") == _crc(record):
            return record
        return CheckpointError(f"manifest {manifest.name} failed its CRC32 "
                               f"check", reason="crc")
    except (OSError, ValueError, AttributeError, KeyError) as err:
        return CheckpointError(f"manifest {manifest.name} is unreadable "
                               f"({err!r})", reason="manifest")
