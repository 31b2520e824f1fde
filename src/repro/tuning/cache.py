"""Persistent per-host tuning cache.

A versioned JSON file mapping :func:`repro.tuning.plan.plan_cache_key`
keys to serialized :class:`~repro.tuning.plan.TuningPlan` entries.
Location: an explicit path, else ``$REPRO_TUNING_CACHE``, else
``.repro_tuning/cache.json`` under the working directory (ship the file
with a case to skip first-run tuning on identical hosts).

Robustness contract (the checkpoint file's, applied to tuning state):

* **Atomic writes** — :func:`~repro.io.binary.write_atomic`: temp file
  in the destination directory, flushed and fsynced, then
  ``os.replace``; a crash mid-store leaves the previous cache intact,
  never a half-written JSON.
* **Corrupt anything falls back to the model heuristic** — unreadable
  files, non-JSON bytes, wrong format versions, and entries that fail
  plan validation all behave as cache misses (tallied in
  :attr:`TuningCache.corrupt_events`), so a damaged cache costs one
  re-tune, never an error.
* **Lock-held merge-on-write** — :meth:`TuningCache.store` re-reads the
  file and merges under an exclusive ``flock`` on a sibling ``.lock``
  file, so two processes tuning concurrently against the same cache
  cannot lose each other's entries to the read-modify-write race (the
  atomic rename alone only protects against torn writes, not lost
  updates).
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

try:
    import fcntl
except ImportError:  # non-POSIX: stores fall back to lockless writes
    fcntl = None

from repro.io.binary import write_atomic
from repro.tuning.plan import TuningPlan
from repro.tuning.registry import REGISTRY_VERSION

#: On-disk format version (the file layout, not the variant registry).
CACHE_FORMAT_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_ENV_VAR = "REPRO_TUNING_CACHE"

#: Default cache file, relative to the working directory.
DEFAULT_CACHE_PATH = Path(".repro_tuning") / "cache.json"


def resolve_cache_path(path: str | Path | None = None) -> Path:
    """The cache file to use: explicit arg > env var > default."""
    if path is not None:
        return Path(path)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_PATH)


class TuningCache:
    """Load/store tuning plans keyed by signature+fingerprint+registry."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = resolve_cache_path(path)
        #: Lookup outcomes, for tests and reports.
        self.hits = 0
        self.misses = 0
        #: Times a corrupt file or entry was skipped (each one is also
        #: counted as a miss).
        self.corrupt_events = 0

    # ------------------------------------------------------------------
    def _load_entries(self) -> dict:
        """The cache file's entry map; ``{}`` on any corruption."""
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return {}
        except OSError:
            self.corrupt_events += 1
            return {}
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self.corrupt_events += 1
            return {}
        if (not isinstance(data, dict)
                or data.get("version") != CACHE_FORMAT_VERSION
                or data.get("registry") != REGISTRY_VERSION
                or not isinstance(data.get("entries"), dict)):
            self.corrupt_events += 1
            return {}
        return data["entries"]

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> TuningPlan | None:
        """The cached plan under ``key``, or None (miss or corrupt)."""
        entry = self._load_entries().get(key)
        if entry is None:
            self.misses += 1
            return None
        try:
            plan = TuningPlan.from_dict(entry)
        except Exception:
            self.corrupt_events += 1
            self.misses += 1
            return None
        self.hits += 1
        return plan

    @contextlib.contextmanager
    def _write_lock(self):
        """Exclusive inter-process lock for read-merge-write stores.

        Taken on a sibling ``.lock`` file (never on the cache itself —
        ``os.replace`` swaps the cache's inode out from under any lock
        held on it).  Degrades to a no-op where ``fcntl`` is missing.
        """
        if fcntl is None:
            yield
            return
        lock_path = self.path.with_name(self.path.name + ".lock")
        with lock_path.open("a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def store(self, key: str, plan: TuningPlan) -> Path:
        """Atomically persist ``plan`` under ``key``; returns the path.

        The load-merge-write runs under :meth:`_write_lock`, so entries
        stored by concurrent processes are merged, not overwritten.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._write_lock():
            entries = self._load_entries()
            entries[key] = plan.as_dict()
            payload = json.dumps(
                {"version": CACHE_FORMAT_VERSION,
                 "registry": REGISTRY_VERSION, "entries": entries},
                indent=2, sort_keys=True) + "\n"
            write_atomic(self.path, payload.encode())
        return self.path

    def clear(self) -> None:
        """Delete the cache file (missing is fine)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
