"""Empirical autotuner over the execution-choice registry.

Given a case signature and host fingerprint, the tuner benchmarks the
cross-product of fusion × tile count, all at one gang
width — the configured one, else the planned one —
(:func:`repro.tuning.registry.candidate_plans`) with warmup/repeat
control, *verifies each candidate bitwise* against the reference
configuration, and picks the fastest valid plan — the Triton-autotune
pattern applied to the RHS hot path.  Winning plans persist in a
:class:`~repro.tuning.cache.TuningCache`, so the second run of the same
case on the same host performs zero timing runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.acc.gang import usable_cores
from repro.backend import resolve_backend, to_host_array
from repro.common import DTYPE
from repro.solver.rhs import RHS
from repro.tuning.cache import TuningCache
from repro.tuning.plan import (
    TuningPlan,
    case_signature,
    heuristic_plan,
    host_fingerprint,
    plan_cache_key,
)
from repro.tuning.registry import candidate_plans


@dataclass
class Autotuner:
    """Benchmarks candidate plans and caches the winner per case/host.

    Parameters
    ----------
    cache:
        Optional :class:`TuningCache`; None tunes every call.
    warmup / repeats:
        Timed-loop control per candidate: ``warmup`` untimed RHS
        evaluations (page in scratch, settle the allocator), then the
        minimum of ``repeats`` timed ones.
    """

    cache: TuningCache | None = None
    warmup: int = 1
    repeats: int = 3
    #: RHS evaluations performed for timing/validation (0 on a cache
    #: hit — the round-trip acceptance criterion).
    timing_runs: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    def plan_for(self, layout, mixture, grid, bcs, config, q, *,
                 threads: int | None = None,
                 sweep_layout: str = "strided",
                 dtype=DTYPE, batch: int | None = None,
                 backend: str = "numpy") -> TuningPlan:
        """The plan to run this case with on this host.

        Cache hit → the stored plan (``source="cache"``), zero timing
        runs.  Miss → measure, store, return (``source="tuned"``).

        ``batch`` tunes (and keys) the ensemble-stacked RHS instead of
        the single-case one; ``q`` must then be the stacked state
        ``(nvars, batch, *grid.shape)``.
        """
        sig = case_signature(layout, grid, config, dtype, batch=batch,
                             backend=backend, threads=threads)
        fp = host_fingerprint()
        key = plan_cache_key(sig, fp)
        if self.cache is not None:
            cached = self.cache.lookup(key)
            if cached is not None:
                return replace(cached, source="cache")
        plan = self.measure(layout, mixture, grid, bcs, config, q,
                            threads=threads, sweep_layout=sweep_layout,
                            dtype=dtype, batch=batch, backend=backend)
        if self.cache is not None:
            self.cache.store(key, plan)
        return plan

    # ------------------------------------------------------------------
    def measure(self, layout, mixture, grid, bcs, config, q, *,
                threads: int | None = None,
                sweep_layout: str = "strided",
                dtype=DTYPE, batch: int | None = None,
                backend: str = "numpy") -> TuningPlan:
        """Benchmark every candidate plan; return the fastest valid one.

        Every candidate's output must match the reference configuration
        bit for bit before it may win, so a candidate that is fast but
        wrong is discarded, never selected.  The first candidate is
        always the model-heuristic default, whose time becomes the
        winner's ``modeled_ns``.  ``q`` may live on any backend; the
        gate compares explicit device-to-host copies.
        """
        # Measurement and the gate are host-side, in the run's precision.
        q = to_host_array(q).astype(dtype, copy=False)
        precision = np.dtype(dtype).name
        reference = RHS(layout, mixture, grid, bcs, config, batch=batch,
                        threads=1, precision=precision)
        expected = reference(q).tobytes()
        self.timing_runs += 1

        candidates = candidate_plans(ndim=layout.ndim,
                                     cpu_count=usable_cores(),
                                     threads=threads,
                                     sweep_layout=sweep_layout,
                                     backends=(backend,))
        timed: list[tuple[float, dict]] = []
        modeled_ns: float | None = None
        for cand in candidates:
            be = resolve_backend(cand.get("backend", "numpy"))
            rhs = RHS(layout, mixture, grid, bcs, config,
                      threads=cand["threads"],
                      sweep_layout=cand["sweep_layout"],
                      tiles=cand["tiles"],
                      fusion=cand.get("fusion", "off"),
                      batch=batch, backend=be, precision=precision)
            q_c = be.from_host(q) if be.name != "numpy" else q
            out = be.empty(tuple(q.shape), q.dtype)
            try:
                rhs(q_c, out=out)
                self.timing_runs += 1
                if to_host_array(out).tobytes() != expected:
                    continue  # fast-but-wrong never wins
                for _ in range(self.warmup):
                    rhs(q_c, out=out)
                    self.timing_runs += 1
                best = None
                for _ in range(self.repeats):
                    t0 = time.perf_counter_ns()
                    rhs(q_c, out=out)
                    elapsed = time.perf_counter_ns() - t0
                    self.timing_runs += 1
                    if best is None or elapsed < best:
                        best = elapsed
            finally:
                rhs.close()
            # The plan records the width it was measured at.
            timed.append((float(best), dict(cand, threads=rhs.threads)))
            if modeled_ns is None:
                modeled_ns = float(best)  # candidate 0 is the heuristic

        if not timed:
            return heuristic_plan(threads=threads, sweep_layout=sweep_layout)
        best_ns, winner = min(timed, key=lambda item: item[0])
        return TuningPlan(sweep_layout=winner["sweep_layout"],
                          threads=winner["threads"],
                          tiles=winner["tiles"],
                          fusion=winner.get("fusion", "off"),
                          backend=winner.get("backend", "numpy"),
                          source="tuned",
                          measured_ns=best_ns,
                          modeled_ns=modeled_ns)
