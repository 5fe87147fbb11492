# Contributor entry points.  The workflow is documented in README.md; the
# layer map in docs/architecture.md.
#
# test/check prove bit-exactness and structure and are deterministic: no
# test they collect compares two wall-clock measurements, and they write
# nothing outside temp dirs.  Speed is judged only by benchmarks/perf
# (bench-perf), as parent/change pairs in absolute units.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test test-lifecycle check check-san loc bench bench-perf bench-perf-trace profile-compile profile-predict profile-serve profile-kernel serve-demo serve-stats serve-cluster

# Tier-1 verification: the full test suite (tests/ and benchmarks/).
test:
	$(PYTEST) -x -q

# Lifecycle layer: versioned hot-swap under 256-way concurrent load,
# shadow-traffic divergence recording, canary auto-promote/rollback over
# both wire protocols, and the seeded chaos fuzzer (~40 ops; crank
# REPRO_SOAK_OPS / REPRO_SOAK_SEED for a real soak — add -s to see the
# divergence count it prints).
test-lifecycle:
	$(PYTEST) tests/serving/test_lifecycle_swap.py tests/serving/test_shadow_canary.py tests/serving/test_lifecycle_chaos.py -x -q

# CI composite: tier-1 plus a clean-tree guard — the run may not create,
# modify or delete anything git can see.
check:
	@before=$$(git status --porcelain); \
	$(MAKE) --no-print-directory test || exit 1; \
	after=$$(git status --porcelain); \
	if [ "$$before" != "$$after" ]; then \
		echo "make check: the test run changed the working tree:"; \
		echo "$$after"; exit 1; \
	fi

# Sanitizer tier (ROADMAP item 5), not part of test/check (~2 min): the engine
# conformance and native-backend suites with every generated unit — seg*
# functions, drivers, copy_scores/spread8, the stack blocks — compiled *and*
# linked under ASan + UBSan, any finding fatal.  It needs nothing from the
# code: find_compiler shell-splits CC, the command is part of the cache
# digest, the same command prefix runs the per-unit compiles and the link,
# and the sanitized object loads under ctypes once libasan is preloaded
# (UBSan alone needs no preload).  Leak checking is off: CPython's own
# allocations would drown it.  The cache is a throwaway directory.
check-san:
	@cache=$$(mktemp -d); \
	LD_PRELOAD=$$(cc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \
	CC="cc -fsanitize=address,undefined -fno-sanitize-recover=all" \
	REPRO_NATIVE_CACHE=$$cache \
	$(PYTEST) tests/engine/test_engine_conformance.py tests/engine/test_native_backend.py -x -q; \
	status=$$?; rm -rf $$cache; exit $$status

# Source size, report only: lines of Python per src/repro package (the
# package's own __init__.py as src/repro/) and in total, counted the way the
# ROADMAP counts them: find src -name '*.py' | xargs cat | wc -l.
loc:
	@printf '%7d  %s\n' $$(cat src/repro/*.py | wc -l) src/repro/; \
	for package in src/repro/*/; do \
		printf '%7d  %s\n' $$(find $$package -name '*.py' | xargs cat | wc -l) $$package; \
	done; \
	printf '%7d  %s\n' $$(find src -name '*.py' | xargs cat | wc -l) total

# The one wall-clock target that is not benchmarks/perf: eight report-only
# A-vs-B comparisons (chain fusion, P=8 pipeline, structured bank, pool
# sharding, native-mt one-word latency, multi-model serving, binary-vs-JSON
# wire, 2-replica router) parked until benchmarks/perf grows absolute
# workloads for them.  Prints tables, asserts on no time, touches no tracked
# file; not a prerequisite of test or check.
bench:
	$(PYTEST) benchmarks/parked_comparisons.py -q -rs

# The absolute, layered benchmark (benchmarks/perf/README.md): six workloads
# from the raw kernel to open-loop serving, every number in absolute units,
# every output checked.  Untraced = the end-to-end metrics the PR driver
# compares; the traced pass adds the per-layer rows.  Not part of test/check.
bench-perf:
	python3 benchmarks/perf/run.py --seed 7 --label local

bench-perf-trace:
	python3 benchmarks/perf/run.py --seed 7 --label local --trace 1

# Where a warm compile_netlist goes: per-stage milliseconds, fold counts,
# table_cost / statement_cost and a cProfile top 15 for the three synthetic
# benchmark netlists on the NumPy backend (no toolchain, no cache).  Report
# only: asserts nothing, writes only to stdout, not part of test/check.
profile-compile:
	PYTHONPATH=src python examples/profile_compile.py

# Where a default predict_batch goes: ns/sample per stage (check, pack, the
# NumPy executor, look-up, argmax) at 16 384 and 64 rows on the benchmark's
# clf_p6 (cached under benchmarks/perf/out, refitted in ~12 s when absent),
# NumPy calls and word-passes per LUT arity, the achieved ns per word-pass
# against an in-place ^= on the same scratch, and pack / unpack / concat at
# 1, 64 and 16 384 rows.  Report only, like profile-compile.
profile-predict:
	PYTHONPATH=src:. python examples/profile_predict.py

# Where a served one-sample predict goes: an in-process server on clf_p6
# (native engine, cached beside the fixture) under the benchmark's closed
# loop (2 connections, 256 in flight, generator in a child process) —
# CPU us per request by stage (decode, admit, coalesce, evaluate, book,
# complete/encode, write), frames per chunk, replies per write, tasks and
# loop handles created per request, and a cProfile top 15 of the loop
# thread.  Report only, like profile-compile.
profile-serve:
	PYTHONPATH=src:. python examples/profile_serve.py

# Where the native kernel goes (needs cc): the four benchmark fixtures as the
# base build and the fast build at the host's vector width (and at 4 lanes
# for contrast) — emitted statements, units, cold cc s, .so bytes,
# run_range us and ns per statement at 1024 words on one thread, 1/3/7/9/33
# words, and vector ops per statement from objdump -d.  Report only, like
# profile-compile; builds into temp dirs (~30 s).
profile-kernel:
	PYTHONPATH=src:. python examples/profile_kernel.py

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
