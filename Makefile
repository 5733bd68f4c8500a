PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast test-slow synth-check platform-check service-check perf-check remap-check bench bench-sweep bench-kernel bench-milp bench-service bench-repair docs-check experiments clean

## tier-1 verify: the full suite, benchmarks included (see ROADMAP.md);
## gated on the synth generate+diffcheck smoke check, the platform
## property suite, the service dedup round trip, the kernel perf bar,
## and the kill-GPU repair gate
test: synth-check platform-check service-check perf-check remap-check
	$(PYTHON) -m pytest -x -q

## unit/property/integration tests only (skips the benchmark harnesses)
test-fast:
	$(PYTHON) -m pytest tests -x -q

## opt-in wide synthetic-corpus sweeps (pytest -m slow, REPRO_SLOW gate)
test-slow:
	REPRO_SLOW=1 $(PYTHON) -m pytest tests -m slow -q

## generate + differential-check the tiny synthetic corpus (CI gate)
synth-check:
	$(PYTHON) -m repro.cli synth --check --quiet

## the heterogeneous-platform property suite: randomized-tree dtlist and
## evaluator cross-checks, golden link tables, solver heterogeneity
platform-check:
	$(PYTHON) -m pytest tests/test_platforms.py -x -q

## fast service round trips, in-process and over HTTP: 8 duplicate
## submissions must cost exactly one solve and return identical
## results, with the HTTP leg verified through /metrics (CI gate)
service-check:
	$(PYTHON) -m repro.cli serve --self-check --quiet
	$(PYTHON) -m repro.cli serve --self-check-http --quiet

## ratio-based perf gate: delta scoring must stay >=10x the interpreted
## evaluator on the quick corpus, and MILP model rebinds >=1.5x the
## legacy per-solve rebuild (stable under load; see tools/perf_check.py)
perf-check:
	$(PYTHON) tools/perf_check.py

## the kill-GPU repair gate: every GPU of every catalog platform killed
## under three pinned graphs — repaired mappings must stay valid,
## bit-exact under the shared evaluator, and never worse than
## greedy-from-scratch (CI gate; see docs/SCENARIOS.md)
remap-check:
	$(PYTHON) -m repro.cli remap --check --quiet

## the full benchmark suite
bench:
	$(PYTHON) -m pytest benchmarks -q

## just the sweep-engine benchmark: serial-uncached vs parallel-cached
bench-sweep:
	$(PYTHON) -m pytest benchmarks/test_bench_sweep.py -q

## the compiled-kernel benchmark: measures eval/delta/B&B/refine rates
## and writes/updates BENCH_kernel.json (the perf trajectory record)
bench-kernel:
	$(PYTHON) -m pytest benchmarks/test_bench_kernel.py -q

## the MILP model-reuse benchmark: preparation rates (rebind vs legacy
## rebuild) and solve amortization, recorded into BENCH_milp.json
bench-milp:
	$(PYTHON) -m pytest benchmarks/test_bench_milp.py -q

## the HTTP serving-tier load benchmark: duplicate-heavy and
## adversarial-unique mixes against a live server, recorded into
## BENCH_service.json (runs under `make test` too, via benchmarks/)
bench-service:
	$(PYTHON) -m pytest benchmarks/test_bench_service.py -q

## the incremental-repair benchmark: repair vs full re-solve wall time
## and quality gap after a kill-GPU delta, recorded into BENCH_repair.json
bench-repair:
	$(PYTHON) -m pytest benchmarks/test_bench_repair.py -q

## fail if a public API symbol lacks a docstring / doctest example
docs-check:
	$(PYTHON) tools/docs_check.py

## regenerate every paper table/figure (quick sweeps, cached)
experiments:
	$(PYTHON) -m repro.experiments all --cache-dir .sweep-cache

clean:
	rm -rf .sweep-cache .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
