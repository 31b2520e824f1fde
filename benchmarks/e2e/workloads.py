"""Seeded generator for the four end-to-end benchmark workloads.

Every workload is built with the public ``Case``/``Patch`` API and handed
to the measured child process only as files: a case JSON written with
``case_to_dict`` + ``save_case`` (read back by ``load_case`` /
``load_solver_options``) or an ensemble-spec JSON (read back by
``load_ensemble_spec``), so the JSON front door users hit is on the
measured path.  A small ``job.json`` beside the input plays the role of
the command line (``--steps``, ``--snapshot``).

The amount of work is fixed per workload (``n_steps`` for the single
runs, a fixed multiset of horizons for the campaign) so numbers compare
across commits; the seed perturbs the bubble centre/radius and shuffles
the campaign horizons over the jobs, nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.eos import Mixture, StiffenedGas
from repro.grid import StructuredGrid
from repro.io.case_files import case_to_dict, save_case
from repro.solver import Case, Patch, box, halfspace, sphere

AIR = StiffenedGas(1.4, 0.0, "air")
HELIUM = StiffenedGas(1.667, 0.0, "helium")
WATER = StiffenedGas(6.12, 3.43e8, "water")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it runs and why it was chosen."""

    name: str
    kind: str  # "run" (python -m repro run) or "ensemble" (… ensemble)
    why: str
    #: Fixed step count of a single run; the quick mode quarters it.
    n_steps: int = 0
    #: Grid cells along each axis of the single run.
    shape: tuple[int, ...] = ()
    #: Case file "solver" section (the knobs a user would write).
    solver: tuple[tuple[str, object], ...] = ()
    #: Steps of the untimed oracle prefix compared against the
    #: reference engine (see oracles.py).
    oracle_steps: int = 0
    #: Campaign: (grid edge, job count) per batch signature.
    campaign: tuple[tuple[int, int], ...] = ()


# Sized so one child process takes ~6 s on the 2-core reference host
# (a quarter of ISSUE 12's 20-30 s prototypes: the driver's total-time
# cap leaves ~37 s per invocation for three repeats plus the oracles).
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="march2d-256", kind="run", n_steps=8, shape=(256, 256),
        oracle_steps=3,
        why="plain single-threaded staged baseline: weno+riemann kernels "
            "dominate and the 147 MB workspace makes it DRAM-bound",
    ),
    Workload(
        name="prod3d-48", kind="run", n_steps=5, shape=(48, 48, 48),
        oracle_steps=3,
        solver=(("layout", "transposed"), ("fusion", "on"),
                ("retry", {"max_retries": 4}), ("validate_every", 2),
                ("checkpoint_every", 2), ("checkpoint_keep", 3),
                ("checkpoint_dir", "checkpoints")),
        why="same solver used the production way: fused per-tile kernels, "
            "y/z gathers, guarded steps, checkpoints and a final snapshot",
    ),
    Workload(
        name="ranks2-192", kind="run", n_steps=24, shape=(192, 192),
        oracle_steps=6,
        solver=(("ranks", 2), ("checkpoint_every", 8),
                ("checkpoint_keep", 3), ("checkpoint_dir", "checkpoints")),
        why="cluster layer only: fork + shared-memory arena, mailbox halos, "
            "dt reduction, drain/join and RankSolver's own sweep bodies",
    ),
    Workload(
        name="campaign-svc", kind="ensemble",
        campaign=((32, 24), (64, 8)),
        why="overhead-bound durable campaign: ufunc dispatch on 32x32 "
            "tiles, fork per batch, ledger fsync and small-file I/O",
    ),
)}

#: Ensemble batch width of ``campaign-svc`` (two signatures: 32² and 64²).
BATCH_WIDTH = 8
#: Horizon multiset of the campaign, in units of one nominal step
#: (0.5 * dx / 3.2, the helium-side CFL step); the seed shuffles which
#: job gets which, so the total work stays the same.
HORIZON_STEPS = (6, 8, 10, 12)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def shock_bubble_2d(n: int, rng: random.Random) -> tuple[Case, list[dict]]:
    """Mach 1.22 air shock about to hit a helium bubble (unit square)."""
    cx = 0.4 + rng.uniform(-0.02, 0.02)
    cy = 0.5 + rng.uniform(-0.02, 0.02)
    radius = 0.15 + rng.uniform(-0.01, 0.01)
    grid = StructuredGrid.uniform(((0.0, 1.0), (0.0, 1.0)), (n, n))
    case = Case(grid, Mixture((AIR, HELIUM)))
    geometries = [
        {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        {"kind": "halfspace", "axis": 0, "threshold": 0.15, "side": "below"},
        {"kind": "sphere", "center": [cx, cy], "radius": radius},
    ]
    case.add(Patch(box([0.0, 0.0], [1.0, 1.0]), alpha_rho=(1.0, 0.0002),
                   velocity=(0.0, 0.0), pressure=1.0, alpha=(0.999,)))
    case.add(Patch(halfspace(0, 0.15), alpha_rho=(1.3764, 0.000275),
                   velocity=(0.394, 0.0), pressure=1.5698, alpha=(0.999,)))
    case.add(Patch(sphere([cx, cy], radius), alpha_rho=(0.001, 0.1819),
                   velocity=(0.0, 0.0), pressure=1.0, alpha=(0.001,),
                   smear=0.01))
    return case, geometries


def droplet_3d(n: int, rng: random.Random) -> tuple[Case, list[dict]]:
    """Pressurised air slab beside a water droplet (stiffened gas, SI)."""
    size = 4e-3
    centre = [size * (0.5 + rng.uniform(-0.03, 0.03)) for _ in range(3)]
    radius = size * (0.2 + rng.uniform(-0.01, 0.01))
    eps, rho_air, rho_water, p_atm = 1e-6, 1.204, 1000.0, 101325.0
    grid = StructuredGrid.uniform(((0.0, size),) * 3, (n, n, n))
    case = Case(grid, Mixture((AIR, WATER)))
    geometries = [
        {"kind": "box", "lo": [0.0] * 3, "hi": [size] * 3},
        {"kind": "halfspace", "axis": 0, "threshold": 0.15 * size,
         "side": "below"},
        {"kind": "sphere", "center": centre, "radius": radius},
    ]
    air = ((1 - eps) * rho_air, eps * rho_water)
    case.add(Patch(box([0.0] * 3, [size] * 3), alpha_rho=air,
                   velocity=(0.0, 0.0, 0.0), pressure=p_atm,
                   alpha=(1 - eps,)))
    case.add(Patch(halfspace(0, 0.15 * size),
                   alpha_rho=(2.0 * air[0], air[1]),
                   velocity=(200.0, 0.0, 0.0), pressure=2.5 * p_atm,
                   alpha=(1 - eps,)))
    case.add(Patch(sphere(centre, radius),
                   alpha_rho=(eps * rho_air, (1 - eps) * rho_water),
                   velocity=(0.0, 0.0, 0.0), pressure=p_atm, alpha=(eps,),
                   smear=size / n))
    return case, geometries


def _quartered(n: int) -> int:
    return max(2, n // 4)


def generate(name: str, seed: int, out_dir: Path, *,
             quick: bool = False) -> dict:
    """Write the inputs of workload ``name`` for ``seed`` into ``out_dir``.

    Returns the job description (also written as ``job.json``): the input
    file, the step count or job list, and the cell/variable counts the
    harness needs to turn wall time into grind time.
    """
    wl = WORKLOADS[name]
    rng = _rng(name, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    job: dict = {"workload": name, "seed": seed, "kind": wl.kind,
                 "quick": quick}
    if wl.kind == "run":
        build = droplet_3d if len(wl.shape) == 3 else shock_bubble_2d
        case, geometries = build(wl.shape[0], rng)
        spec = case_to_dict(case, geometries=geometries)
        if wl.solver:
            spec["solver"] = dict(wl.solver)
        save_case(out_dir / "case.json", spec)
        n_steps = _quartered(wl.n_steps) if quick else wl.n_steps
        job.update(input="case.json", snapshot="final.bin", n_steps=n_steps,
                   oracle_steps=min(wl.oracle_steps, n_steps),
                   cells=case.grid.num_cells, nvars=case.layout.nvars)
    else:
        jobs, sampled = [], []
        for edge, count in wl.campaign:
            if quick:
                count = _quartered(count)
            horizons = [HORIZON_STEPS[i % len(HORIZON_STEPS)]
                        for i in range(count)]
            rng.shuffle(horizons)
            for i, steps in enumerate(horizons):
                case, geometries = shock_bubble_2d(edge, rng)
                jobs.append({
                    "name": f"g{edge}-{i:02d}",
                    "t_end": steps * 0.5 / edge / 3.2,
                    "case": case_to_dict(case, geometries=geometries)})
            sampled.append(f"g{edge}-{rng.randrange(count):02d}")
        spec = {"batch_width": BATCH_WIDTH, "jobs": jobs,
                "service": {"ledger": "campaign.ledger",
                            "checkpoint_dir": "checkpoints",
                            "results_dir": "results",
                            "checkpoint_every": 5}}
        with (out_dir / "spec.json").open("w") as fh:
            json.dump(spec, fh, indent=1)
        job.update(input="spec.json", jobs=[j["name"] for j in jobs],
                   oracle_jobs=sampled)
    with (out_dir / "job.json").open("w") as fh:
        json.dump(job, fh, indent=1)
    return job
