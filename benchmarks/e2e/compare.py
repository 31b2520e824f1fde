"""``run.py --compare A.json B.json``: is B within the bounds of A?

One row per (workload, end-to-end metric) with both reported values
(fastest or median of the repeats, as the metric defines), the quartiles
of the repeats, the bound, the ratio B/A (A is the base of every ratio),
and a verdict:

* ``within``  — B's value is no worse than A's by more than the bound;
* ``worse``   — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, the wider of the two files) exceeds the bound and the runs
  interleave, so neither of the above can be said.

``failed_frac`` gets one row per workload: any increase is ``worse``.
"""

from __future__ import annotations

import json
import statistics

from metrics import END_TO_END


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def verdict(metric, a: list[float], b: list[float]) -> str:
    """``a``/``b``: per-repeat samples; all end-to-end metrics are
    lower-is-better."""
    val_a, val_b = metric.reported(a), metric.reported(b)
    allowed = max(metric.bound * val_a, metric.floor)
    if max(spread(a), spread(b)) * val_a > allowed:
        if all(y <= x for x in a for y in b):
            return "within"  # every run of B reads better than every run of A
        if not (val_b - val_a > allowed
                and all(y > x for x in a for y in b)):
            return "unresolved"
    return "worse" if val_b - val_a > allowed else "within"


def compare(path_a: str, path_b: str) -> int:
    """Print the table; returns the number of ``worse`` rows."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"A (base) = {path_a}  [{a['stamp']['git_sha']}, seed {a['seed']}]")
    print(f"B        = {path_b}  [{b['stamp']['git_sha']}, seed {b['seed']}]")
    header = (f"{'workload':<14} {'metric':<20} {'A value (q1/med/q3)':>36} "
              f"{'B value (q1/med/q3)':>36} {'B/A':>7} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<14} missing from B")
            worse += 1
            continue
        for m in END_TO_END:
            va, vb = wa["samples"][m.name], wb["samples"][m.name]
            v = verdict(m, va, vb)
            worse += v == "worse"

            def fmt(values):
                q = "/".join(f"{x:.4g}" for x in quartiles(values))
                return f"{m.reported(values):.4g} ({q})"

            print(f"{name:<14} {m.name:<20} {fmt(va):>36} {fmt(vb):>36} "
                  f"{m.reported(vb) / m.reported(va):>7.3f} {m.bound:>6.0%}  "
                  f"{v}  ({m.reduce} of n={len(va)},{len(vb)}; {m.unit})")
        fa = wa["failed"] / wa["attempted"]
        fb = wb["failed"] / wb["attempted"]
        v = "worse" if fb > fa else "within"
        worse += v == "worse"
        print(f"{name:<14} {'failed_frac':<20} "
              f"{str(wa['failed']) + '/' + str(wa['attempted']):>36} "
              f"{str(wb['failed']) + '/' + str(wb['attempted']):>36} "
              f"{'':>7} {'any':>6}  {v}")
        for metric in sorted(set(wa.get("counts", {})) & set(wb["counts"])):
            if wa["counts"][metric] != wb["counts"][metric]:
                print(f"{name:<14} count {metric} differs: "
                      f"{wa['counts'][metric]} vs {wb['counts'][metric]}")
    return worse
