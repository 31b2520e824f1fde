"""Execution-choice registry + empirical autotuner + persistent plan cache.

The paper chose its kernel schedules at compile time, per platform;
this package makes the same choices at first-run time, per
``(case signature, host fingerprint)``, and caches them:

* :mod:`repro.tuning.registry` — the interchangeable (bitwise-identical)
  ways to run the hot kernels and the candidate cross-product,
* :mod:`repro.tuning.plan` — :class:`TuningPlan` and the cache-key
  pieces (case signature, host fingerprint),
* :mod:`repro.tuning.autotune` — the :class:`Autotuner` benchmark loop,
* :mod:`repro.tuning.cache` — the atomic, corruption-tolerant JSON
  :class:`TuningCache`.

Entry points: ``Simulation(tuning="auto")``, the ``tune`` CLI
subcommand, ``make tune``; see ``docs/tuning.md``.
"""

from repro.tuning.autotune import Autotuner
from repro.tuning.cache import (
    CACHE_ENV_VAR,
    CACHE_FORMAT_VERSION,
    DEFAULT_CACHE_PATH,
    TuningCache,
    resolve_cache_path,
)
from repro.tuning.plan import (
    PLAN_SOURCES,
    TuningPlan,
    case_signature,
    heuristic_plan,
    host_fingerprint,
    plan_cache_key,
    resolve_plan,
)
from repro.tuning.registry import REGISTRY_VERSION, candidate_plans

__all__ = [
    "Autotuner",
    "heuristic_plan",
    "TuningCache",
    "TuningPlan",
    "CACHE_ENV_VAR",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_PATH",
    "PLAN_SOURCES",
    "REGISTRY_VERSION",
    "candidate_plans",
    "case_signature",
    "host_fingerprint",
    "plan_cache_key",
    "resolve_cache_path",
    "resolve_plan",
]
