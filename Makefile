# Convenience targets; see ROADMAP.md for the tier definitions.

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify loc lint perf-smoke bench bench-planes bench-scale chaos trace-smoke spec-smoke scenario-smoke cache-smoke serve-smoke fuzz-smoke fuzz-deep golden-regen

# Tier 1: lint gate plus the full unit/property suite (must stay green),
# plus the run-cache smoke so a cache regression cannot land silently,
# plus the serve smoke (HTTP byte-identity; see docs/architecture.md),
# plus the bounded fuzz smoke (deterministic; see docs/fuzzing.md),
# plus the scenario smoke (repair-vs-rebuild golden; see docs/scenarios.md).
verify: lint
	$(PY) -m pytest -x -q
	$(PY) benchmarks/bench_run_cache.py --quick
	$(MAKE) serve-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) scenario-smoke

# Bounded, derandomized stateful fuzzing pass: replay the checked-in
# counterexample corpus, then a small budget of fresh examples per
# machine.  Deterministic (derandomize=True, fixed seed), so a red run
# is a real regression, never flake.
fuzz-smoke:
	$(PY) -m repro fuzz --machine all --examples 12 --steps 25 --corpus tests/corpus

# Longer fuzz campaign across several seed offsets — run before merging
# changes to the retry layer, fault plane, or recovery driver.  On
# failure the shrunk counterexample lands in fuzz-failure/ as
# scenario.json + spec.json + trace-diff; see docs/fuzzing.md.
fuzz-deep:
	for s in 0 1 2 3; do \
		$(PY) -m repro fuzz --machine all --examples 75 --steps 50 \
			--seed $$s --corpus tests/corpus || exit 1; \
	done

# Python line count of the package source (src/), the size figure the
# ROADMAP north star and simplicity changes report.
loc:
	@find src -name '*.py' -exec cat {} + | wc -l

# Lint: ruff (configured in pyproject.toml) when installed, an AST
# fallback (syntax errors + unused imports) otherwise.
lint:
	$(PY) tools/lint.py

# Tier 2: kernel hot-path perf smoke — times the optimized kernel against
# the frozen legacy kernel and fails loudly if stats diverge from the
# golden snapshot.  Writes benchmarks/out/BENCH_kernel.json.
perf-smoke:
	$(PY) benchmarks/bench_kernel_hotpath.py --quick
	$(PY) benchmarks/bench_flood_planes.py --quick
	$(PY) benchmarks/bench_scale.py --gate

# Full kernel benchmark (n=2000, best-of-3).
bench:
	$(PY) benchmarks/bench_kernel_hotpath.py

# Full flood-plane benchmark (n=2000, best-of-3, >=3x flood-stage gate).
bench-planes:
	$(PY) benchmarks/bench_flood_planes.py

# Scaling run: nodes/sec + peak RSS at n up to 10^6 through the chunked
# instance layout, plus the fast-vs-legacy equivalence and >=10x gates.
# Writes benchmarks/out/BENCH_scale.json.  The million-node cell takes
# minutes; use `benchmarks/bench_scale.py --quick` for the n=10^4 cut.
bench-scale:
	$(PY) benchmarks/bench_scale.py

# Fault-plane chaos gate: the chaos test suite plus the resilience
# benchmark smoke (p=0 bit-identical, exact MST at every drop rate).
# Writes benchmarks/out/BENCH_faults.json.
chaos:
	$(PY) -m pytest tests/test_chaos.py tests/test_faults.py -x -q
	$(PY) benchmarks/bench_faults.py --quick

# Trace-plane smoke: record a small MGHS trace, JSONL round-trip it,
# self-diff against a legacy-kernel run, and re-check the
# zero-cost-when-off contract.  See docs/observability.md.
trace-smoke:
	$(PY) benchmarks/bench_trace_smoke.py

# Runspec smoke: emit specs as JSON, reload, execute through the one
# engine, JSON round-trip the reports, and diff the headline stats
# against benchmarks/golden/spec_smoke.json.  See docs/architecture.md.
spec-smoke:
	$(PY) benchmarks/bench_spec_smoke.py

# Scenario-plane smoke: one mixed churn schedule through the MAINT
# workload with repair vs rebuild checkpoints — spec/report JSON round
# trips, the repair<rebuild maintenance-energy gate, and the golden
# stats diff (benchmarks/golden/maintenance.json).  See docs/scenarios.md.
scenario-smoke:
	$(PY) benchmarks/bench_maintenance.py --quick

# Run-cache smoke: duplicated sweep through the process backend against
# a throwaway store — cold/warm timing (>=20x warm gate), byte-identity
# of cached vs fresh reports, golden stats diff.  Writes
# benchmarks/out/BENCH_cache.json.  See docs/performance.md.
cache-smoke:
	$(PY) benchmarks/bench_run_cache.py --quick

# Serve smoke: boot `repro serve` against a throwaway cache, golden spec
# submitted cold then warm across a restart (second response must be a
# store hit, byte-identical — exit 2 on divergence), plus an 8-client
# singleflight race.  Writes benchmarks/out/BENCH_serve.json.
serve-smoke:
	$(PY) benchmarks/bench_serve_smoke.py --quick

# Rebuild the golden stats snapshots deliberately (full configs).  The
# goldens gate the benchmarks above; never hand-edit the JSON — rerun
# this after an *intentional* semantics change and review the diff.
golden-regen:
	$(PY) benchmarks/bench_kernel_hotpath.py --write-golden
	$(PY) benchmarks/bench_flood_planes.py --write-golden
	$(PY) benchmarks/bench_spec_smoke.py --write-golden
	$(PY) benchmarks/bench_scale.py --quick --write-golden
	$(PY) benchmarks/bench_run_cache.py --quick --write-golden
	$(PY) benchmarks/bench_maintenance.py --quick --write-golden
