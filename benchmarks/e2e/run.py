"""End-to-end + per-layer benchmark of ``repro`` (see README.md here).

Driver contract (``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0`` (medians over >= 3 fresh child processes), the
per-layer metrics with ``--trace 1`` (one traced run + layer probes).

Without ``--workload`` it runs the whole suite — every workload's
end-to-end repeats, oracles and traced run — prints every metric by name
with unit and sample count, writes ``results/latest.json`` (``--out``)
and one ``results/trace_<workload>.json`` per workload, and exits
non-zero on any failed operation::

    python3 benchmarks/e2e/run.py --seed 1 [--seconds 22] [--quick]
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_SECONDS = 22


def _require_program() -> None:
    """The benchmark measures the program in this checkout and nothing
    else; without it there is nothing to run."""
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
                 f"is missing")
    sys.path.insert(0, str(ROOT / "src"))


def _emit(result: dict, metrics: dict[str, float], units: dict) -> None:
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def run_workload(args) -> int:
    """Driver mode: one workload, one JSON line."""
    import harness
    from metrics import END_TO_END, PER_LAYER

    if args.trace:
        result = harness.trace(args.workload, args.seed)
    else:
        result = harness.measure(args.workload, args.seed, args.seconds)
    for note in result["notes"]:
        print(f"FAILED: {note}", file=sys.stderr)
    if args.trace:
        _emit(result, result["metrics"], {m.name: m.unit for m in PER_LAYER})
    elif len(result["samples"].get("setup_s", [])) < result["repeats"]:
        return 1  # a child died: there is no honest value to print
    else:
        _emit(result, {m.name: m.reported(result["samples"][m.name])
                       for m in END_TO_END},
              {m.name: m.unit for m in END_TO_END})
    return 0


# ----------------------------------------------------------------------
def _stamp() -> dict:
    import numpy

    from repro.tuning import host_fingerprint

    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha or "unknown", "nproc": os.cpu_count(),
            "numpy": numpy.__version__,
            "host_fingerprint": host_fingerprint()}


def _check_contract() -> list[str]:
    """BENCHMARK.json must name exactly the metrics and workloads here."""
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return ["BENCHMARK.json is missing"]
    contract = json.loads(path.read_text())
    problems = []
    for key, ours in (
            ("workloads", [(w.name,) for w in WORKLOADS.values()]),
            ("end_to_end", [(m.name, m.unit, m.better, m.bound)
                            for m in END_TO_END]),
            ("per_layer", [(m.name, m.unit, m.better) for m in PER_LAYER])):
        theirs = [tuple(entry[k] for k in
                        ("name", "unit", "better", "bound")[:len(ours[0])])
                  for entry in contract[key]]
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py/"
                            f"workloads.py")
    return problems


def run_suite(args) -> int:
    import harness
    from compare import quartiles
    from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER
    from workloads import WORKLOADS

    record = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
              "stamp": _stamp(), "workloads": {}}
    problems = _check_contract()
    for name in WORKLOADS:
        print(f"== {name}: end-to-end (seed {args.seed}) ==", flush=True)
        e2e = harness.measure(name, args.seed, args.seconds, quick=args.quick)
        for m in END_TO_END:
            values = e2e["samples"].get(m.name)
            if values:
                q1, med, q3 = quartiles(values)
                print(f"  {m.name:<22} {m.reported(values):>12.4f} "
                      f"{m.unit:<4} ({m.reduce} of n={len(values)}; "
                      f"q1 {q1:.4f} med {med:.4f} q3 {q3:.4f})  "
                      f"bound {m.bound:.0%}")
        print(f"  {'failed_frac':<22} {e2e['failed']}/{e2e['attempted']}",
              flush=True)
        layers = harness.trace(name, args.seed, quick=args.quick,
                               measured=e2e)
        print(f"-- {name}: per layer (trace: {layers['trace_file']}) --")
        for m in PER_LAYER:
            print(f"  {m.name:<36} {layers['metrics'][m.name]:>14.5g} "
                  f"{m.unit:<9} n={layers['samples'].get(m.name, 0)}")
        failed = e2e["failed"] + layers["failed"]
        attempted = e2e["attempted"] + layers["attempted"]
        problems += [f"{name}: {n}" for n in e2e["notes"] + layers["notes"]]
        record["workloads"][name] = {
            "samples": e2e["samples"], "repeats": e2e["repeats"],
            "attempted": attempted, "failed": failed,
            "per_layer": layers["metrics"],
            "per_layer_samples": layers["samples"],
            "counts": {k: layers["metrics"][k] for k in EXACT_COUNTS},
            "trace_file": layers["trace_file"]}
    triad = record["workloads"]["march2d-256"]["per_layer"][
        "hardware.stream_triad_gbps"]
    record["stamp"]["stream_triad_gbps"] = triad
    out = Path(args.out) if args.out else harness.RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"wrote {out}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload: children repeat "
                             "(at least 3 times) until it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: quarter-size runs, 1 repeat, "
                             "oracles on")
    parser.add_argument("--out", help="suite mode: results file "
                                      "(default results/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return 1 if compare(*args.compare) else 0
    _require_program()
    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
