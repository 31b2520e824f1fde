"""Session-wide resource gate: the suite must leave nothing running.

Forked gang workers, rank processes and supervised batch forks are all
children of the pytest process that it reaps itself, and none of them
names anything in ``/dev/shm`` (the check below is the tripwire against
a named multiprocessing segment or semaphore coming back).  At session
end no child of any kind may survive — the gate every tier-1 run checks
(ROADMAP "resource use is bounded and asserted").
"""

import gc
import os

import pytest

_SHM_PREFIXES = ("psm_", "sem.mp-")


def shm_entries() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(_SHM_PREFIXES)}
    except OSError:
        return set()


def _processes(column: int, value: int) -> dict[int, str]:
    """``{pid: command line}`` of the processes, zombies included, whose
    ``/proc/<pid>/stat`` field ``column`` after the name equals ``value``."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                field = int(fh.read().rsplit(")", 1)[1].split()[column])
            with open(f"/proc/{entry}/cmdline") as fh:
                cmdline = fh.read().replace("\0", " ")
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if field == value:
            found[int(entry)] = cmdline
    return found


def live_children(parent: int) -> dict[int, str]:
    """The live or zombie children of ``parent``."""
    return _processes(1, parent)


def group_members(pgid: int) -> dict[int, str]:
    """Every process, live or zombie, in process group ``pgid``."""
    return _processes(2, pgid)


@pytest.fixture(scope="session", autouse=True)
def no_leaked_processes_or_shm():
    shm_before = shm_entries()
    yield
    gc.collect()  # a dropped gang reaps its workers in its finalizer
    assert live_children(os.getpid()) == {}
    assert shm_entries() - shm_before == set()
