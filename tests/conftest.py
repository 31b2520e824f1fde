"""Session-wide resource gate: the suite must leave nothing running.

Forked gang workers, rank processes and supervised batch forks are all
children of the pytest process, and multiprocessing's shared-memory
segments and semaphores live in ``/dev/shm``.  At session end none may
survive — the gate every tier-1 run checks (ROADMAP "resource use is
bounded and asserted").
"""

import gc
import os

import pytest

_SHM_PREFIXES = ("psm_", "sem.mp-")


def _shm_entries() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(_SHM_PREFIXES)}
    except OSError:
        return set()


def live_children(parent: int) -> dict[int, str]:
    """``{pid: command line}`` of the live or zombie children of ``parent``
    (multiprocessing's resource tracker aside: it serves the session)."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline") as fh:
                cmdline = fh.read().replace("\0", " ")
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if ppid == parent and "resource_tracker" not in cmdline:
            found[int(entry)] = cmdline
    return found


@pytest.fixture(scope="session", autouse=True)
def no_leaked_processes_or_shm():
    shm_before = _shm_entries()
    yield
    gc.collect()  # a dropped gang reaps its workers in its finalizer
    assert live_children(os.getpid()) == {}
    assert _shm_entries() - shm_before == set()
