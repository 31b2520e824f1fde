# Convenience targets for the repro project.

PYTHON ?= python

.PHONY: install test test-gang test-fault test-procs test-ensemble test-chaos test-backends bench bench-e2e bench-e2e-quick bench-e2e-pair cold-start rss tune examples artifacts clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Fast tier-1 slice: the forked gang backend only — bit-identity across
# widths and tile splits, width planning, worker/parent death, recovery
# paths with a live gang (tests/test_threading.py keeps its name: the
# knob is still called `threads`).
test-gang:
	$(PYTHON) -m pytest tests/test_gang.py tests/test_threading.py \
		tests/test_tiles.py

# Fault-injection and recovery suite (rollback-retry, checkpoint
# corruption fallback, determinism across layouts/gang widths).
test-fault:
	$(PYTHON) -m pytest tests/ -m faults

# Multi-process suite: the forked-worker substrate, halo exchange
# through an anonymous shared mapping (nothing in /dev/shm),
# decomposed-vs-serial bit-identity, rank-fault restart, and exit
# hygiene (no process, zombie or /dev/shm name left by a run).
test-procs:
	$(PYTHON) -m pytest tests/test_workers.py tests/test_procs.py \
		tests/test_cluster.py tests/test_exit_hygiene.py

# Batched ensemble suite: stacked-vs-standalone bit-identity across
# orders/solvers/layouts/threads/fusion, ragged retirement, scheduler
# grouping, allocation budget.
test-ensemble:
	$(PYTHON) -m pytest tests/ -m ensemble

# Chaos-recovery suite for the durable ensemble service: seeded worker
# SIGKILLs, ledger/checkpoint corruption, poison-job quarantine, and
# kill-at-every-append resume (the faults + ensemble markers), one batch
# at a time and side by side (TestSideBySide skips on a 1-core host) —
# time-boxed because a regression here can leave supervised workers
# hanging instead of failing.
test-chaos:
	timeout 600 $(PYTHON) -m pytest tests/ -m "faults or ensemble" -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Execution-backend seam: registry, guard-leak, numpy/checked
# bitwise-parity and float32-precision suites.
test-backends:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_backends.py -q

# End-to-end + per-layer benchmark (BENCHMARK.json's command; see
# benchmarks/e2e/README.md): the whole suite (~3.5 min) writes
# benchmarks/e2e/results/latest.json; the quick form is a < 60 s smoke
# run that exits non-zero on a failed operation, a failing oracle or a
# metric-name drift against BENCHMARK.json.
bench-e2e:
	python3 benchmarks/e2e/run.py

bench-e2e-quick:
	python3 benchmarks/e2e/run.py --quick

# Paired parent-vs-change run of the same benchmark (what a performance
# claim is judged by): BASE exported with git archive into a throw-away
# directory, >= 10 alternating invocations per workload plus one held-out
# seed, medians + quartiles + win counts, traced per-layer deltas, then
# run.py --compare.  ~45 min for all four workloads; narrow it with
# PAIR_ARGS="--workload march2d-256", or for a cluster-layer claim
# PAIR_ARGS="--workload ranks2-192 --pairs 10" (~10 min; both ranks'
# cores must be otherwise idle).
bench-e2e-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-e2e-pair BASE=<sha>"; exit 2; }
	python3 benchmarks/pair.py --base $(BASE) $(PAIR_ARGS)

# Cold start of the plain, fused, ranks=2 and ensemble entry paths: the
# repro modules each loads and the top 10 of python -X importtime, with
# the bytecode cache absent and present (COLD_ARGS="<tree> --repeats 5"
# measures another checkout, e.g. a git archive of the parent).
cold-start:
	python3 benchmarks/cold_start.py $(COLD_ARGS)

# Resident memory of each e2e workload, process by process: VmHWM and
# the RssAnon / RssShmem / RssFile split of the parent after import,
# construction and the march, of every live gang member, and the peak
# of reaped children.  Run on a copy of the parent commit too to see
# which part of peak_rss_mb moved (RSS_ARGS="--workload prod3d-48").
rss:
	python3 benchmarks/rss.py . $(RSS_ARGS)

# Autotune the quickstart example case on this host and cache the
# winning kernel-variant plan (see docs/tuning.md).
tune:
	PYTHONPATH=src $(PYTHON) -m repro tune examples/cases/shock_bubble_resilient.json

# Regenerates benchmarks/results/*.txt (the figure artifacts).
artifacts: bench
	@ls benchmarks/results/

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/scaling_study.py
	$(PYTHON) examples/gpu_porting_tour.py
	$(PYTHON) examples/cylindrical_filter.py
	$(PYTHON) examples/distributed_timeline.py
	$(PYTHON) examples/fault_tolerance.py
	$(PYTHON) examples/taylor_green.py
	$(PYTHON) examples/shock_bubble.py
	$(PYTHON) examples/shock_droplet.py
	$(PYTHON) examples/airfoil_immersed_boundary.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
