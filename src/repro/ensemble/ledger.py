"""Write-ahead job ledger: append-only, CRC-framed, replayable.

The durable ensemble service records every job transition here *before*
acting on it, so a killed ``python -m repro ensemble`` invocation can
replay the file and resume exactly where it left off.  The format is
one record per line::

    crc32(payload) as 8 hex chars, one space, payload, newline

where the payload is a compact ``sort_keys`` JSON object.  The framing
gives the same single-file durability contract as the snapshot format
(:mod:`repro.io.binary`), adapted to an append-only log:

* **Appends are fsync'd** — a record is only acted on after it is on
  disk, so the ledger never under-reports what the service started.
* **A torn tail is dropped** — a crash mid-append leaves at most one
  half-written final line; replay drops it (``dropped_tail``) and the
  resumed service simply redoes the unrecorded transition.
* **A flipped bit loses one line, never the file** — CRC-failing or
  unparseable records mid-file are skipped with a counted warning
  (``skipped_records``); replay can never mistake corrupt bytes for a
  transition (a single bit flip always breaks the line's CRC).
* **Compaction is atomic** — :meth:`JobLedger.rewrite` goes through
  temp file + fsync + rename, the snapshot writes' own
  :func:`~repro.io.binary.write_atomic`, so rotation can never destroy
  the only copy.

Record kinds (the ``kind`` field):

``open``
    Written once per spec: the spec digest and job count, verified on
    resume so a ledger is never replayed against a different campaign.
``job``
    A job transition: ``id``, ``status`` (one of :data:`JOB_STATES`),
    the attempt number, and — for ``done`` — the result snapshot path,
    state digest, final step and time.
``event``
    A structured service event (degradation, checkpoint skip, chaos),
    kept for audit; replay ignores events when building the job table.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.common import ConfigurationError, InjectedCrash
from repro.io.binary import write_atomic

#: On-disk ledger format version (stamped into the ``open`` record).
LEDGER_VERSION = 1

#: The job lifecycle.  ``pending`` is implicit (no record yet);
#: ``running`` marks dispatch; ``done``/``quarantined`` are terminal;
#: ``failed`` jobs retry until their attempt budget quarantines them.
JOB_STATES = ("pending", "running", "done", "failed", "quarantined")

_LINE_RE = re.compile(r"([0-9a-f]{8}) (\{.*\})")


def encode_record(record: dict) -> bytes:
    """One CRC-framed ledger line (including the trailing newline)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    data = payload.encode("utf-8")
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x} ".encode("ascii") \
        + data + b"\n"


def decode_record(line: bytes) -> dict | None:
    """Parse one ledger line; ``None`` if framing, CRC, or JSON fails."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return None
    m = _LINE_RE.fullmatch(text)
    if m is None:
        return None
    crc, payload = m.group(1), m.group(2)
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != int(crc, 16):
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


@dataclass
class LedgerReplay:
    """What a replay recovered: the valid records plus damage tallies."""

    records: list[dict] = field(default_factory=list)
    #: CRC-failing / unparseable lines skipped mid-file (bit flips).
    skipped_records: int = 0
    #: Invalid trailing lines dropped (torn final append).
    dropped_tail: int = 0

    @property
    def damaged(self) -> bool:
        return bool(self.skipped_records or self.dropped_tail)


class JobLedger:
    """Append-only JSONL job ledger with per-record CRC32 framing.

    One service invocation is the sole writer; appends are flushed and
    fsync'd before returning so every acknowledged record survives the
    writer's death.  ``fail_after_appends`` is a deterministic crash
    hook for kill-at-every-step tests: when set to ``n``, the ``n``-th
    append completes durably and then raises
    :class:`~repro.common.InjectedCrash` — the record is on disk, the
    process "died" immediately after, which is the worst ordering a
    real SIGKILL can produce.
    """

    def __init__(self, path: str | Path, *,
                 fail_after_appends: int | None = None) -> None:
        self.path = Path(path)
        #: Appends performed by this instance (the crash hook's clock).
        self.appends = 0
        #: Crash after the N-th append of this instance (tests only).
        self.fail_after_appends = fail_after_appends

    def exists(self) -> bool:
        return self.path.is_file()

    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record (write + flush + fsync)."""
        if not isinstance(record, dict) or "kind" not in record:
            raise ConfigurationError(
                f"ledger records are dicts with a 'kind', got {record!r}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab") as fh:
            fh.write(encode_record(record))
            fh.flush()
            os.fsync(fh.fileno())
        self.appends += 1
        if self.fail_after_appends is not None \
                and self.appends >= self.fail_after_appends:
            raise InjectedCrash(
                f"injected crash after ledger append {self.appends} "
                f"({record.get('kind')}/{record.get('status', '-')})")

    # ------------------------------------------------------------------
    def replay(self) -> LedgerReplay:
        """Recover every intact record, tolerating torn or flipped lines.

        Invalid lines at the very end of the file are counted as
        ``dropped_tail`` (the torn-append case); invalid lines with
        valid records after them are ``skipped_records`` (silent media
        corruption).  A missing file replays to an empty ledger.
        """
        replay = LedgerReplay()
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return replay
        bad_run = 0  # consecutive invalid lines, pending classification
        for line in raw.split(b"\n"):
            if not line:
                continue
            record = decode_record(line)
            if record is None:
                bad_run += 1
                continue
            replay.skipped_records += bad_run
            bad_run = 0
            replay.records.append(record)
        replay.dropped_tail = bad_run
        return replay

    # ------------------------------------------------------------------
    def rewrite(self, records: list[dict]) -> None:
        """Atomically replace the ledger's contents (compaction): a
        crash mid-rotation leaves either the old ledger or the new one,
        never a mix and never nothing (:func:`~repro.io.binary.
        write_atomic`, as snapshots are written)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, *map(encode_record, records))


# ----------------------------------------------------------------------
def job_table(records: list[dict]) -> dict[str, dict]:
    """Fold replayed records into the latest known state per job.

    Returns ``{job_id: {"status", "attempts", ...}}`` where ``attempts``
    counts *recorded failures* (the retry budget's currency — an
    interruption that never got a failure record costs no attempt) and
    ``done`` entries carry the result snapshot metadata.  Records are
    applied in file order; unknown kinds and malformed job records are
    ignored, so a damaged ledger still folds to a consistent table.
    """
    table: dict[str, dict] = {}
    for record in records:
        if record.get("kind") != "job":
            continue
        job_id = record.get("id")
        status = record.get("status")
        if not isinstance(job_id, str) or status not in JOB_STATES:
            continue
        entry = table.setdefault(
            job_id, {"status": "pending", "attempts": 0})
        entry["status"] = status
        attempt = record.get("attempt")
        if isinstance(attempt, int):
            entry["attempts"] = max(entry["attempts"], attempt)
        if status == "failed":
            entry["attempts"] = max(
                entry["attempts"],
                attempt + 1 if isinstance(attempt, int) else
                entry["attempts"] + 1)
            entry["error"] = record.get("error")
            entry["failure_class"] = record.get("class")
        elif status == "done":
            entry["result_path"] = record.get("result")
            entry["state_sha"] = record.get("sha")
            entry["steps"] = record.get("steps")
            entry["time"] = record.get("time")
        elif status == "quarantined":
            entry["error"] = record.get("error", entry.get("error"))
    return table
