"""Binary snapshot format (MFC's MPI-IO binary file analog).

A snapshot is a fixed-size header followed by the raw C-order float64
state.  The header carries everything a restart or post-processor needs:
magic, format version, step, simulation time, variable count, the
spatial extents, and — since format version 2 — the payload's dtype
string (which encodes endianness), its memory-order tag, and CRC32
checksums over both the header and the payload.

Durability discipline (version 2):

* **Atomic writes** — the snapshot is written to a temporary file in
  the destination directory, flushed and ``fsync``'d, then renamed over
  the target, so a crash mid-write can never leave a half-written file
  under the final name.
* **Integrity** — ``read_snapshot`` verifies the header CRC before
  trusting any field and the payload CRC before returning data; a
  truncated or bit-flipped file raises
  :class:`~repro.common.CheckpointError` instead of silently feeding
  garbage into a restart.
* **Compatibility** — the recorded dtype/endianness/order must match
  what this build writes (little-endian C-order float64); mismatches
  raise a :class:`~repro.common.CheckpointError` naming both sides.

Version-1 files (shape-only metadata, no checksums) remain readable for
old restart archives; they simply skip the integrity checks.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common import CheckpointError, ConfigurationError, DTYPE

MAGIC = b"MFCR"
VERSION = 2

#: Version-1 layout: magic, version, ndim, step, time, nvars + 3 extents.
_HEADER_FMT_V1 = "<4sHHqd4q"
_HEADER_BYTES_V1 = struct.calcsize(_HEADER_FMT_V1)

#: Version-2 layout: the v1 fields, then the payload dtype string (numpy
#: ``dtype.str``, e.g. ``"<f8"`` — byte order + kind + itemsize), the
#: memory-order tag (``"C"``), 3 pad bytes, the payload CRC32, and the
#: CRC32 of every preceding header byte.
_HEADER_FMT_V2 = "<4sHHqd4q8ss3xII"
HEADER_BYTES = struct.calcsize(_HEADER_FMT_V2)

#: What this build writes (and the only payload encoding it marches on).
NATIVE_DTYPE_STR = np.dtype(DTYPE).newbyteorder("<").str
NATIVE_ORDER = "C"


@dataclass(frozen=True)
class SnapshotHeader:
    """Metadata of one snapshot."""

    step: int
    time: float
    nvars: int
    shape: tuple[int, ...]
    dtype_str: str = NATIVE_DTYPE_STR
    order: str = NATIVE_ORDER
    version: int = VERSION

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def pack(self, payload_crc: int = 0) -> bytes:
        extents = list(self.shape) + [0] * (3 - len(self.shape))
        body = struct.pack("<4sHHqd4q8ss3x", MAGIC, VERSION, self.ndim,
                           self.step, self.time, self.nvars, *extents,
                           self.dtype_str.encode("ascii"),
                           self.order.encode("ascii"))
        body += struct.pack("<I", payload_crc & 0xFFFFFFFF)
        return body + struct.pack("<I", zlib.crc32(body))

    @classmethod
    def unpack(cls, raw: bytes) -> tuple["SnapshotHeader", int]:
        """Parse a header; returns ``(header, expected_payload_crc)``.

        Version-1 headers carry no checksums; their payload CRC is
        reported as ``-1`` (callers skip payload verification).
        """
        if len(raw) < _HEADER_BYTES_V1:
            raise CheckpointError(
                f"truncated snapshot header: {len(raw)} bytes",
                reason="truncated")
        magic, version = struct.unpack_from("<4sH", raw)
        if magic != MAGIC:
            raise CheckpointError("not a repro snapshot file (bad magic)",
                                  reason="magic")
        if version == 1:
            _, _, ndim, step, time, nvars, *extents = struct.unpack(
                _HEADER_FMT_V1, raw[:_HEADER_BYTES_V1])
            if not 1 <= ndim <= 3:
                raise CheckpointError(f"corrupt snapshot: ndim={ndim}",
                                  reason="corrupt")
            return cls(step=step, time=time, nvars=nvars,
                       shape=tuple(extents[:ndim]), version=1), -1
        if version != VERSION:
            raise CheckpointError(f"unsupported snapshot version {version}",
                                  reason="version")
        if len(raw) < HEADER_BYTES:
            raise CheckpointError(
                f"truncated snapshot header: {len(raw)} of "
                f"{HEADER_BYTES} bytes", reason="truncated")
        raw = raw[:HEADER_BYTES]
        (header_crc,) = struct.unpack_from("<I", raw, HEADER_BYTES - 4)
        if zlib.crc32(raw[:HEADER_BYTES - 4]) != header_crc:
            raise CheckpointError("snapshot header failed its CRC32 check",
                                  reason="crc")
        (_, _, ndim, step, time, nvars, *rest) = struct.unpack(
            _HEADER_FMT_V2, raw)
        extents, dtype_b, order_b, payload_crc = rest[:3], rest[3], rest[4], rest[5]
        if not 1 <= ndim <= 3:
            raise CheckpointError(f"corrupt snapshot: ndim={ndim}",
                                  reason="corrupt")
        return cls(step=step, time=time, nvars=nvars,
                   shape=tuple(extents[:ndim]),
                   dtype_str=dtype_b.rstrip(b"\x00").decode("ascii"),
                   order=order_b.decode("ascii")), payload_crc

    def header_bytes(self) -> int:
        return HEADER_BYTES if self.version >= 2 else _HEADER_BYTES_V1

    def check_compatible(self) -> None:
        """Raise :class:`CheckpointError` unless this build can decode
        the recorded payload encoding (dtype + endianness + order)."""
        if self.dtype_str != NATIVE_DTYPE_STR:
            raise CheckpointError(
                f"checkpoint payload dtype {self.dtype_str!r} does not "
                f"match this build's {NATIVE_DTYPE_STR!r} "
                f"(dtype/endianness mismatch)", reason="incompatible")
        if self.order != NATIVE_ORDER:
            raise CheckpointError(
                f"checkpoint payload layout {self.order!r} does not "
                f"match this build's {NATIVE_ORDER!r} (C order)",
                reason="incompatible")

    def nbytes(self) -> int:
        n = self.nvars
        for s in self.shape:
            n *= s
        return n * 8


def write_snapshot(path: str | Path, q: np.ndarray, *, step: int,
                   time: float, durable: bool = True) -> int:
    """Write a conservative field ``(nvars, *shape)``; returns bytes written.

    The write is atomic: data goes to a temporary sibling file which is
    flushed, ``fsync``'d (when ``durable``, the default), and renamed
    over ``path`` — readers never observe a partially written snapshot.
    """
    from repro.backend import to_host_array

    q = to_host_array(q)  # D2H: snapshots are a host-side consumer
    if q.dtype != DTYPE:
        if q.dtype.kind == "f" and q.dtype.itemsize < np.dtype(DTYPE).itemsize:
            # float32 states upcast losslessly; the restart path casts
            # back down, so the round-trip is exact.
            q = q.astype(DTYPE)
        else:
            raise ConfigurationError(
                f"snapshots store {DTYPE}, got {q.dtype}")
    if not 2 <= q.ndim <= 4:
        raise ConfigurationError(f"expected (nvars, *spatial) field, got ndim={q.ndim}")
    header = SnapshotHeader(step=step, time=time, nvars=q.shape[0],
                            shape=q.shape[1:])
    # The field's own bytes, streamed: no second copy of the payload.
    payload = np.ascontiguousarray(q).reshape(-1).view(np.uint8)
    write_atomic(path, header.pack(zlib.crc32(payload)), payload,
                 durable=durable)
    return HEADER_BYTES + header.nbytes()


def write_atomic(path: str | Path, *chunks, durable: bool = True) -> None:
    """Write ``chunks`` (bytes-like) to ``path`` atomically: a temporary
    sibling file, flushed and ``fsync``'d (when ``durable``), renamed
    over ``path``, then the rename itself persisted."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            if durable:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        try:  # persist the rename itself (best effort off Linux)
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass


def read_header(path: str | Path) -> tuple[SnapshotHeader, int]:
    """A snapshot's verified header and its recorded payload CRC32
    (``-1`` for version 1), without reading the payload."""
    with Path(path).open("rb") as fh:
        return SnapshotHeader.unpack(fh.read(HEADER_BYTES))


def read_snapshot(path: str | Path) -> tuple[SnapshotHeader, np.ndarray]:
    """Read a snapshot back, verifying integrity; returns ``(header, field)``.

    Raises :class:`~repro.common.CheckpointError` on truncation, CRC
    failure, or a dtype/endianness/layout mismatch.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header, payload_crc = SnapshotHeader.unpack(fh.read(HEADER_BYTES))
        header.check_compatible()
        start, size = header.header_bytes(), header.nbytes()
        got = max(0, os.fstat(fh.fileno()).st_size - start)
        if got >= size:
            # Straight into the one array the caller gets back.
            q = np.empty((header.nvars, *header.shape), dtype=DTYPE)
            payload = q.reshape(-1).view(np.uint8)
            fh.seek(start)
            got = fh.readinto(payload)
    if got < size:
        raise CheckpointError(
            f"truncated snapshot {path}: {got} of {size} bytes",
            reason="truncated")
    if payload_crc >= 0 and zlib.crc32(payload) != payload_crc:
        raise CheckpointError(
            f"snapshot {path} payload failed its CRC32 check", reason="crc")
    return header, q


def verify_snapshot(path: str | Path) -> SnapshotHeader:
    """Integrity-check a snapshot without keeping its payload.

    Returns the verified header; raises
    :class:`~repro.common.CheckpointError` exactly where
    :func:`read_snapshot` would.
    """
    header, _ = read_snapshot(path)
    return header
