# Contributor entry points.  All targets mirror exactly what CI runs.
# The workflow is documented in README.md; the layer map in docs/architecture.md.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test test-lifecycle bench-smoke bench-native bench-native-mt bench-serving bench-perf bench-perf-trace serve-demo serve-stats serve-cluster check

# Tier-1 verification: the full test suite (includes benchmarks/).
test:
	$(PYTEST) -x -q

# Lifecycle layer: versioned hot-swap under 256-way concurrent load,
# shadow-traffic divergence recording, canary auto-promote/rollback over
# both wire protocols, and the seeded chaos fuzzer (~40 ops; crank
# REPRO_SOAK_OPS / REPRO_SOAK_SEED for a real soak — outcomes land in
# BENCH_results.json via the lifecycle_soak gate).
test-lifecycle:
	$(PYTEST) tests/serving/test_lifecycle_swap.py tests/serving/test_shadow_canary.py tests/serving/test_lifecycle_chaos.py -x -q

# Quick benchmark smoke: the bit-packed engine throughput comparisons,
# including the >=10x packed-vs-naive gate, the compiler-pipeline gates
# (chain fusion, P=8 fabric decomposition) and the WorkerPool sharding
# scaling gate.
bench-smoke:
	$(PYTEST) benchmarks/test_engine_throughput.py -q

# Native backend gate: the generated-C engine must run the paper's P=6
# RINC bank >=5x faster than the NumPy engine, bit-identical.  Skips with
# an explicit reason on hosts without a C compiler (cc/gcc/clang or $CC) —
# the same hosts where backend="auto" serves the NumPy engine.
bench-native:
	$(PYTEST) benchmarks/test_native_throughput.py -q -rs

# Tier-2 native runtime gates: the autotuned threads+SIMD engine must beat
# the single-thread native engine >=2x at a 4096-sample batch (skips with
# an explicit reason on <4-core or toolchain-less hosts; a 1/2/4 thread
# sweep lands in BENCH_results.json alongside the gate) and a 1-word batch
# must stay on the calling thread — no small-batch latency regression.
bench-native-mt:
	$(PYTEST) benchmarks/test_native_mt_throughput.py -q -rs

# Serving-layer gates: coalesced async serving must beat sequential
# per-request calls >=3x on 256 concurrent 1-sample requests, multi-model
# serving (2 netlists on one shared WorkerPool) >=2x under mixed
# concurrent load, the binary wire protocol must cut wire+dispatch
# overhead >=3x vs JSON at the same concurrency, and the cluster router
# over 2 replicated backend processes must sustain >=1.8x single-backend
# throughput with a zero-loss replica-death drill (see docs/serving.md).
bench-serving:
	$(PYTEST) benchmarks/test_serving_latency.py benchmarks/test_wire_overhead.py benchmarks/test_router_throughput.py -q

# The absolute, layered benchmark (benchmarks/perf/README.md): six workloads
# from the raw kernel to open-loop serving, every number in absolute units,
# every output checked.  Untraced = the end-to-end metrics the PR driver
# compares; the traced pass adds the per-layer rows.  Not part of test/check.
bench-perf:
	python3 benchmarks/perf/run.py --seed 7 --label local

bench-perf-trace:
	python3 benchmarks/perf/run.py --seed 7 --label local --trace 1

# End-to-end serving demo: train two PoET-BiN variants on the
# synthetic-digits dataset, serve both from one server over a shared
# WorkerPool, fire concurrent clients at them and print per-model latency
# percentiles + batch occupancy.
serve-demo:
	PYTHONPATH=src python examples/serving_demo.py

# The demo plus a final Prometheus-style stats_text scrape — what an
# operational agent collects from the stats_text protocol op.
serve-stats:
	PYTHONPATH=src python examples/serving_demo.py --stats-text

# Cluster demo: a router over two replicated backend processes, a
# mixed-model burst, and a kill drill — SIGKILL one replica mid-burst and
# watch every request complete through client-transparent failover.
serve-cluster:
	PYTHONPATH=src python examples/cluster_demo.py

# CI-style composite: tier-1 tests plus every perf gate in one invocation.
# (test already runs the lifecycle files; test-lifecycle re-runs them -x as
# the explicit lifecycle/chaos gate so a soak failure is named in CI output.)
check: test test-lifecycle bench-smoke bench-native bench-native-mt bench-serving
