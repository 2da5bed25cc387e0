# Convenience targets; everything assumes the in-tree layout (src/ on path).

PY ?= python
export PYTHONPATH := src

.PHONY: test test-fast soak chaos trace-demo bench-gateway bench-smoke bench-ab bench-all

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

# Every figure/table script plus the djinn_bench self-tests.  One BLAS
# thread per request, as djinn_bench runs: OpenBLAS's default of one thread
# per vCPU makes bench_service_real's concurrent GEMMs oversubscribe the
# cores and its 4-client row fall below half the 1-client one.
bench-all:
	cd benchmarks && OPENBLAS_NUM_THREADS=1 PYTHONPATH=../src $(PY) -m pytest . -x -q -p no:cacheprovider
