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

from repro.common.lazy import lazy_exports

#: Every export and the submodule it lives in, imported on first access:
#: an untuned run needs only :mod:`repro.tuning.plan`, never the tuner,
#: its cache or the registry fingerprint.
_EXPORTS = {
    "Autotuner": "autotune",
    "CACHE_ENV_VAR": "cache", "CACHE_FORMAT_VERSION": "cache",
    "DEFAULT_CACHE_PATH": "cache", "TuningCache": "cache",
    "resolve_cache_path": "cache",
    "PLAN_SOURCES": "plan", "TuningPlan": "plan", "case_signature": "plan",
    "heuristic_plan": "plan", "host_fingerprint": "plan",
    "plan_cache_key": "plan", "resolve_plan": "plan",
    "REGISTRY_VERSION": "registry", "candidate_plans": "registry",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
