"""Exit hygiene: a run leaves no process, no zombie and no ``/dev/shm`` name.

Each scenario runs in its own session (as the end-to-end harness starts
its children) and is watched from outside while it runs and after its
leader exits.  Every process the program creates must be a child it
reaps itself: an orphan — multiprocessing's resource tracker was one —
lingers as a zombie until PID 1 gets round to it, which the harness
reads as a leaked descendant.
"""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from tests.conftest import group_members, shm_entries

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = """
    import multiprocessing.resource_tracker as tracker
    from repro.bc import BoundarySet
    from repro.solver import Simulation
    from tests.test_service import bubble_case
"""
NO_TRACKER = """
    assert tracker._resource_tracker._pid is None, "resource tracker started"
"""
SCENARIOS = {
    "two-rank run": PRELUDE + """
    sim = Simulation(bubble_case(16), BoundarySet.all_periodic(2),
                     fixed_dt=1e-3, ranks=2)
    sim.run(n_steps=2)
    assert sim.step_count == 2 and sim.halo_counters.messages > 0
    """ + NO_TRACKER,
    "supervised batch": PRELUDE + """
    import sys
    from repro.ensemble import EnsembleJob, EnsembleService
    jobs = [EnsembleJob(bubble_case(16, cx=cx), 4e-3, f"j{cx}")
            for cx in (0.3, 0.5)]
    report = EnsembleService(jobs, BoundarySet.all_periodic(2),
                             ledger=sys.argv[1] + "/led.jsonl", batch_width=2,
                             fixed_dt=1e-3, supervise=True).run()
    assert [j.status for j in report.jobs] == ["done", "done"]
    """ + NO_TRACKER,
    "gang never closed": PRELUDE + """
    sim = Simulation(bubble_case(96), BoundarySet.all_periodic(2))
    sim.step()
    """ + NO_TRACKER,
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_run_leaves_nothing_behind(scenario, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]))
    shm_before = shm_entries()
    with open(tmp_path / "err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(SCENARIOS[scenario]),
             str(tmp_path)],
            env=env, stdout=err, stderr=err, start_new_session=True)
        # While it runs: no helper process, and no name in /dev/shm.  A
        # fork-context lock's name is unlinked microseconds after it is
        # made, so a name counts once two looks in a row have seen it.
        helpers, lingering, previous = {}, set(), set()
        while proc.poll() is None:
            helpers.update({pid: cmd for pid, cmd in
                            group_members(proc.pid).items()
                            if "resource_tracker import main" in cmd})
            new = shm_entries() - shm_before
            lingering |= new & previous
            previous = new
            time.sleep(0.005)
    exited = time.monotonic()
    # After it exits: the group is empty at once — not when PID 1 next
    # reaps (the harness allows 2 s; that tick is ~2 s).
    while (left := group_members(proc.pid)) and \
            time.monotonic() - exited < 0.25:
        time.sleep(0.002)
    assert left == {}, f"still in the group 0.25 s after exit: {left}"
    assert proc.returncode == 0, (tmp_path / "err").read_text()
    assert helpers == {}
    assert lingering == set() and shm_entries() - shm_before == set()


def test_source_names_no_shared_memory_segment():
    hits = [str(path.relative_to(ROOT))
            for path in sorted((ROOT / "src").rglob("*.py"))
            if "shared_memory" in path.read_text()]
    assert hits == []
