"""``make bench-e2e-pair BASE=<sha>``: base commit vs this tree, paired.

Exports both sides with ``git archive`` into sibling throw-away
directories whose paths have the same length (a path's length moves
the heap layout, and with it ``peak_rss_mb``): ``BASE``, and this
checkout's working tree as ``git stash create`` records it (tracked
files, staged or not; ``HEAD`` when the tree is clean; untracked files
are left out, so ``git add`` a new file first).  It then runs
``benchmarks/e2e/run.py --workload W --trace 0`` in each export,
alternating which side goes first, once per seed: seeds
``1..--pairs`` plus one seed kept out of development (``--held-out``).
Every invocation is the benchmark's own driver mode — fresh child
processes, oracles on — so each side is measured by the benchmark code
of its own checkout (``benchmarks/e2e`` must not differ between them).

Per workload and end-to-end metric it prints each side's median and
quartiles over the invocations, the pairs the change won, and whether
the gain rule holds (wins >= 9/10 of the pairs, ties counting for
neither, and medians apart by more than the base's quartile distance).
One traced invocation per side then shows where the difference sits,
and the samples are written as two suite-shaped files for
``run.py --compare``, whose table is printed last.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ("benchmarks", "e2e", "run.py")
sys.path.insert(0, str(ROOT.joinpath(*RUN).parent))
from compare import quartiles  # noqa: E402  (the benchmark's own q1/med/q3)
E2E = ("setup_s", "time_to_solution_s", "grind_ns", "peak_rss_mb")
#: Per-layer metrics shown from the traced runs; the ones in EXACT
#: repeat exactly, so ``--compare`` reports any difference in them.
EXACT = ("solver.workspace_mb", "weno.passes_per_rhs",
         "acc.fused_launches_per_rhs", "cluster.halo_messages",
         "tuning.timing_runs")
LAYERS = ("solver.rhs_eval_ms", "weno.lap_share", "riemann.lap_share",
          "acc.fused_lap_share", "tuning.cold_tune_s", *EXACT)


def invoke(tree: Path, workload: str, seed: int, seconds: float,
           trace: int) -> dict:
    """One driver-mode invocation; its JSON line (``failed`` on a crash)."""
    done = subprocess.run(
        [sys.executable, str(tree.joinpath(*RUN)), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=tree, capture_output=True, text=True)
    # The harness names every failed operation on stderr.
    for line in done.stderr.splitlines():
        if line.startswith("FAILED"):
            print(f"  {tree.name} {workload} seed {seed}: {line}", flush=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(done.stderr[-2000:], file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def sha_of(tree: Path, rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=tree,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, prefix: str) -> Path:
    """``rev``'s tree in a new temporary directory named ``prefix*``."""
    tree = Path(tempfile.mkdtemp(prefix=prefix))
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--held-out", type=int, default=4242,
                    help="extra seed never used while developing")
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: all four")
    ap.add_argument("--out", default=str(ROOT / ".bench_pair"))
    args = ap.parse_args()
    workloads = args.workload or [
        w["name"] for w in
        json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    seeds = [*range(1, args.pairs + 1), args.held_out]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT,
                           capture_output=True, text=True,
                           check=True).stdout.strip()
    # Equal-length prefixes: mkdtemp adds the same number of characters.
    sides = {"base": export(args.base, "bench_pair_base_"),
             "change": export(stash or "HEAD", "bench_pair_chng_")}
    assert len(str(sides["base"])) == len(str(sides["change"]))
    for side, tree in sides.items():
        print(f"{side}: {tree}", flush=True)
    try:
        files = {side: {"seed": seeds[0], "workloads": {}, "stamp": {
            "git_sha": sha_of(ROOT, args.base) if side == "base"
            else sha_of(ROOT, "HEAD") + ("+tree" if stash else "")}}
            for side in sides}
        for name in workloads:
            runs = {side: [] for side in sides}
            for i, seed in enumerate(seeds):
                for side in (("base", "change") if i % 2 == 0
                             else ("change", "base")):
                    runs[side].append(invoke(sides[side], name, seed,
                                             args.seconds, 0))
                walls = "  ".join(
                    "{} {:.3f}s".format(side, runs[side][-1]["metrics"].get(
                        "time_to_solution_s", {}).get("value", float("nan")))
                    for side in sides)
                print(f"[{name} seed {seed}] {walls}", flush=True)
            print(f"\n== {name}: {len(seeds)} pairs (seeds {seeds}) ==")
            print(f"{'metric':<20} {'base med (q1/q3)':>28} "
                  f"{'change med (q1/q3)':>28} {'chg/base':>8} "
                  f"{'wins':>6}  gain rule")
            for side in sides:
                files[side]["workloads"][name] = {
                    "samples": {}, "counts": {},
                    "attempted": sum(r["attempted"] for r in runs[side]),
                    "failed": sum(r["failed"] for r in runs[side])}
            for metric in E2E:
                vals = {side: [r["metrics"][metric]["value"]
                               for r in runs[side] if metric in r["metrics"]]
                        for side in sides}
                if not (vals["base"] and vals["change"]):
                    continue
                for side in sides:
                    files[side]["workloads"][name]["samples"][metric] = \
                        vals[side]
                (b1, bm, b3), (c1, cm, c3) = (quartiles(vals[s])
                                               for s in sides)
                decided = [(b, c) for b, c in zip(vals["base"],
                                                  vals["change"]) if b != c]
                wins = sum(c < b for b, c in decided)
                holds = (wins >= 0.9 * len(seeds) and bm - cm > b3 - b1)
                print(f"{metric:<20} {f'{bm:.4g} ({b1:.4g}/{b3:.4g})':>28} "
                      f"{f'{cm:.4g} ({c1:.4g}/{c3:.4g})':>28} "
                      f"{cm / bm:>8.3f} {wins:>3}/{len(seeds):<2}  "
                      f"{'holds' if holds else 'no claim'}")
            print(f"{'failed/attempted':<20} " + "  ".join(
                f"{side} {files[side]['workloads'][name]['failed']}/"
                f"{files[side]['workloads'][name]['attempted']}"
                for side in sides))
            traced = {side: invoke(sides[side], name, seeds[0], args.seconds,
                                   1)["metrics"] for side in sides}
            print(f"-- {name}: per layer, one traced run each "
                  f"(seed {seeds[0]}) --")
            for metric in LAYERS:
                b, c = (traced[s].get(metric, {}).get("value") for s in sides)
                if b is None or c is None:
                    continue
                if metric in EXACT:
                    files["base"]["workloads"][name]["counts"][metric] = b
                    files["change"]["workloads"][name]["counts"][metric] = c
                print(f"{metric:<28} base {b:>10.4g}  change {c:>10.4g}")
        paths = []
        for side in sides:
            paths.append(out / f"pair_{side}.json")
            paths[-1].write_text(json.dumps(files[side], indent=1))
        print()
        return subprocess.run([sys.executable, str(ROOT.joinpath(*RUN)),
                               "--compare", *map(str, paths)]).returncode
    finally:
        for tree in sides.values():
            shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
