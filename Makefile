# Convenience targets; everything assumes the in-tree layout (src/ on path).

PY ?= python
export PYTHONPATH := src

.PHONY: test test-fast soak chaos trace-demo bench-engine bench-procpool bench-gateway bench-slo bench-cost bench-cache bench-smoke bench-ab bench-all

test:
	$(PY) -m pytest -x -q

# Everything except the slow soak/training integration tests — the fast CI
# job; `make soak` + `make chaos` cover the rest.
test-fast:
	$(PY) -m pytest -x -q -m "not slow"

# Sustained concurrent load against a proc-pool fleet: 8 clients x 200
# mixed-model requests over TCP, payload-checked responses, weight-digest
# and parent-RSS invariants (tests/test_soak.py).
soak:
	$(PY) -m pytest tests/test_soak.py -x -q -m slow

# Determinism gate: run the chaos suite twice with the same fault-plan seed,
# dumping every scenario's invariant report, then require the two report
# sets to be byte-identical.  CHAOS_SEED=n replays a specific schedule.
CHAOS_SEED ?= 0
chaos:
	rm -rf benchmarks/results/chaos/run1 benchmarks/results/chaos/run2
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_REPORT_DIR=benchmarks/results/chaos/run1 \
		$(PY) -m pytest tests/test_chaos.py -x -q
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_REPORT_DIR=benchmarks/results/chaos/run2 \
		$(PY) -m pytest tests/test_chaos.py -x -q
	diff -r benchmarks/results/chaos/run1 benchmarks/results/chaos/run2
	@echo "chaos determinism gate: reports identical across runs"

# Trace one batch of requests through gateway + fleet with per-layer
# profiling on; writes a Chrome trace (chrome://tracing / Perfetto) and the
# Prometheus-style metrics exposition into benchmarks/results/, and fails
# if span coverage or the exposition format regresses.
trace-demo:
	$(PY) -m repro.cli trace --backends 2 --batch 8 --requests 6 \
		--out benchmarks/results/trace_demo.json \
		--metrics-out benchmarks/results/trace_demo_metrics.prom --check

# Planned-vs-legacy execution sweep (batch size x path) into
# benchmarks/results/BENCH_engine.json, with the engine gates on: the
# planned path must be allocation-free in steady state (tracemalloc) and
# not slower than legacy at batch 1.
bench-engine:
	$(PY) benchmarks/bench_engine.py --check

# Proc-pool vs threaded serving throughput under concurrent load, into
# benchmarks/results/BENCH_procpool.json.  The 2x speedup gate enforces
# only on >= 4-core hosts; smaller hosts record honest numbers with
# gate_enforced=false.
bench-procpool:
	$(PY) benchmarks/bench_procpool.py --check

# Open-loop SLO sweep (fixed vs adaptive vs adaptive+shedding) through the
# gateway, into benchmarks/results/BENCH_slo.json.  The gate — adaptive
# must beat fixed attainment at >= 1 saturated load point, with every
# rejection typed — enforces only on >= 4-core hosts.
bench-slo:
	$(PY) benchmarks/bench_slo.py --check

# Per-request cost-attribution sweep (model x batch x execution mode) into
# benchmarks/results/BENCH_cost.json.  The gate requires stage shares
# (including the honest residual) to sum to 100% in every configuration,
# attribution coverage >= 95% (residual <= 5%), the metrics exposition to
# survive a render -> parse round trip, and at least one tail exemplar to
# resolve back to a full cost ledger.
bench-cost:
	$(PY) benchmarks/bench_cost_breakdown.py --check

# Cross-layer cache sweep (dup_frac x cache size) into
# benchmarks/results/BENCH_cache.json.  The gate requires every cached
# answer byte-identical to the cache-off baseline, exact hits at full
# budget, and a >= 2x hit-path speedup at dup_frac=0.5 (enforced only on
# >= 4-core hosts; recorded honestly either way).
bench-cache:
	$(PY) benchmarks/bench_cache.py --check

# The repository benchmark's own self-tests plus its ~20 s sanity pass
# (one primer + one round at a tenth of the requests on all four
# workloads; fails if a reply is wrong or if the printed metric names
# differ from the ones BENCHMARK.json declares).
bench-smoke:
	$(PY) -m pytest -q benchmarks/djinn_bench/tests
	$(PY) benchmarks/djinn_bench/run.py --smoke

# A/B the repository benchmark: commit REF against the working tree as
# PAIRS alternating pairs of `run.py --workload WORKLOAD --seed k` (which
# side goes first alternates too); prints both medians, both quartile
# spans, wins/pairs and the sign-test p per metric.  Single runs of
# identical code differ by 10-40 % on a small shared host, so this is what
# resolves a change.  RECORD=benchmarks/results/BENCH_history.jsonl appends
# the comparison to the committed trajectory.  WORKLOAD=all runs every
# BENCHMARK.json workload in turn, one table (and record) each.
#   make bench-ab REF=732230c WORKLOAD=dig_dup_cache PAIRS=10
#   make bench-ab REF=732230c WORKLOAD=all RECORD=benchmarks/results/BENCH_history.jsonl
PAIRS ?= 10
bench-ab:
	@test -n "$(REF)" -a -n "$(WORKLOAD)" || \
		{ echo "usage: make bench-ab REF=<sha> WORKLOAD=<name>|all [PAIRS=10] [RECORD=path.jsonl]"; exit 2; }
	$(PY) benchmarks/ab_pairs.py --ref $(REF) \
		$(if $(filter all,$(WORKLOAD)),--all,--workload $(WORKLOAD)) --pairs $(PAIRS) \
		$(if $(RECORD),--record $(RECORD))

# Reproduce the Fig 11-shaped throughput-vs-replicas curve on the real
# gateway; writes benchmarks/results/gateway_scaling.txt.
bench-gateway:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest bench_gateway_scaling.py -x -q -p no:cacheprovider

bench-all:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest . -x -q -p no:cacheprovider
