"""Parked wall-clock comparisons: report-only, run by ``make bench`` alone.

Eight A-vs-B stopwatches.  A ratio against a baseline that moves is not a
measurement of A (make B faster and A "regresses"), so speed is judged only
by ``benchmarks/perf``: absolute units, parent/change pairs.  These are the
comparisons ``BENCHMARK.json`` has no workload for yet:

==============================  =========================================
comparison                      what it is waiting for in benchmarks/perf
==============================  =========================================
chain fusion, P=8 pipeline,     trained-bank rows per pass pipeline
structured-bank pruning         (``passes.cost_after``, ``*.ns_per_lutword``)
WorkerPool sharding             a pool workload (ROADMAP item 3)
native-mt one-word latency      a one-word row for the native-mt engine
multi-model serving             a two-model ``serve_small_closed`` mix
binary vs JSON wire             a JSON-wire serving workload
2-replica router                a routed serving workload
==============================  =========================================

Nothing here asserts on a time and the file name keeps it out of the
default collection, so tier-1 cannot flake on it; the bit-exactness and
structural half of every comparison is a tier-1 test in the module its
builders are imported from.  Delete this file, and the ``bench`` target,
when the ``benchmark``-archetype PR lands those workloads (ROADMAP item 1).
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import time

from repro.engine import ShardedEngine, WorkerPool, compile_netlist, pack_bits
from repro.serving import BackgroundServer, ServerStats
from repro.serving.transport import encode_message, encode_predict_request

import test_engine_throughput as engine_bench
import test_native_mt_throughput as native_mt_bench
import test_router_throughput as router_bench
import test_serving_latency as serving_bench
import test_wire_overhead as wire_bench
from bench_utils import BATCH, emit, random_rows, require_toolchain


def _interleaved_best(calls, rounds=6, inner=3):
    """Best wall-clock seconds per call of each named callable.

    The paths alternate within every round, so a noisy-neighbour CPU spike
    cannot hit only one side of a comparison; the best time per path over
    all rounds is the steady-state cost.
    """
    best = {name: float("inf") for name in calls}
    for _ in range(rounds):
        for name, call in calls.items():
            start = time.perf_counter()
            for _ in range(inner):
                call()
            best[name] = min(best[name], (time.perf_counter() - start) / inner)
    return best


def _packed_paths(engines, packed):
    return {
        name: (lambda engine=engine: engine.run_packed(packed))
        for name, engine in engines.items()
    }


def _table(best, baseline, describe=lambda name: ""):
    return "\n".join(
        f"{name:10s} {describe(name)}{seconds * 1e3:8.3f} ms  "
        f"{best[baseline] / seconds:5.2f}x vs {baseline}"
        for name, seconds in best.items()
    )


@contextlib.contextmanager
def _short_switch_interval():
    """Client loop and server loop share this process's GIL; a short switch
    interval keeps each small syscall from stalling the other thread for the
    default 5 ms quantum (a server in its own process does not pay this)."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_fused_vs_unfused():
    netlist = engine_bench.chain_heavy_netlist()
    engines = {
        "unfused": compile_netlist(netlist, passes=()),
        "fused": compile_netlist(netlist),
    }
    best = _interleaved_best(_packed_paths(engines, pack_bits(random_rows())))
    emit(
        f"Chain fusion (64 chains x 1+24 narrow LUTs, {BATCH}-sample batch)",
        _table(
            best,
            "unfused",
            lambda name: f"{engines[name].n_nodes:5d} LUTs / "
            f"{engines[name].n_groups:2d} groups  ",
        ),
    )


def test_p8_decomposed_vs_raw():
    netlist, engines = engine_bench.p8_engines()
    best = _interleaved_best(_packed_paths(engines, pack_bits(random_rows())))
    emit(
        f"P=8 compiler pipeline ({netlist.n_luts}-LUT RINC bank, "
        f"{BATCH}-sample batch)",
        _table(best, "raw", lambda name: f"{engines[name].n_nodes:5d} LUTs  "),
    )


def test_structured_bank_raw_vs_optimized():
    netlist = engine_bench.structured_bank()
    engines = {
        "raw": compile_netlist(netlist, passes=()),
        "optimized": compile_netlist(netlist),
    }
    best = _interleaved_best(_packed_paths(engines, pack_bits(random_rows())))
    emit(
        f"Structured (trained-shaped) bank ({netlist.n_luts} LUTs, "
        f"{BATCH}-sample batch)",
        _table(best, "raw", lambda name: f"{engines[name].n_nodes:5d} LUTs  "),
    )


def test_sharded_vs_serial():
    """On a CPU-quota-throttled container two forked busy workers can run
    *slower* than one; the table says what this host delivers."""
    netlist = engine_bench.sharding_bank()
    n_samples = 10_000
    packed = pack_bits(random_rows(n_samples))
    engines = {"serial": compile_netlist(netlist)}
    pools = []
    try:
        for n_workers in engine_bench.SHARD_WORKERS:
            pools.append(WorkerPool(n_workers=n_workers, backend="process"))
            engines[f"{n_workers} workers"] = ShardedEngine(
                netlist, pool=pools[-1]
            )
        best = _interleaved_best(
            _packed_paths(engines, packed), rounds=4, inner=1
        )
    finally:
        for pool in pools:
            pool.close()
    emit(
        f"Sharded serving ({netlist.n_luts}-LUT bank, {n_samples}-sample batch)",
        _table(best, "serial"),
    )


def test_native_mt_one_word_vs_scalar():
    """A sub-grain batch stays on the calling thread, so ``native-mt``'s
    one-word latency is its vector build's, beside a scalar build's."""
    require_toolchain()
    _, scalar, tuned = native_mt_bench.native_engines()
    packed = pack_bits(random_rows(64, seed=1))
    best = _interleaved_best(
        _packed_paths({"scalar": scalar, "native-mt": tuned}, packed),
        rounds=12,
        inner=64,
    )
    emit(
        f"native-mt one-word latency (64 samples, {tuned.threads}x{tuned.unroll})",
        _table(best, "scalar"),
    )


def test_multi_model_served_vs_sequential():
    """256 mixed-model 1-sample requests: coalesced through one server on a
    shared pool vs each model's direct packed path called per request."""
    models = serving_bench.build_multi_models()
    plan = serving_bench.mixed_plan(models)
    server = serving_bench.multi_model_server(models)

    def sequential():
        for name, rows in plan:
            models[name]["predict_fn"](rows)

    with _short_switch_interval(), BackgroundServer(server) as handle:
        best = _interleaved_best(
            {
                "sequential": sequential,
                "coalesced": lambda: asyncio.run(
                    serving_bench.drive(handle.address, plan)
                ),
            },
            rounds=4,
            inner=1,
        )
        snapshots = {
            name: server.registry.resolve(name).stats.snapshot()
            for name in ("a", "b")
        }
    emit(
        f"Multi-model coalesced serving ({len(plan)} mixed concurrent "
        f"1-sample requests, 2 banks on one shared WorkerPool)",
        "\n".join(
            [_table(best, "sequential")]
            + [
                f"model {name}: {snap['requests_completed']} requests, "
                f"mean occupancy {snap['mean_batch_occupancy']:.1f}, "
                f"{snap['batches']} batches, {snap['shed']} shed, "
                f"p99 {snap['latency_us']['p99']:.0f} us"
                for name, snap in snapshots.items()
            ]
        ),
    )


def test_binary_wire_vs_json_wire():
    """256 concurrent 1-sample requests against a near-zero-compute model,
    payloads held in each client's native format outside the timed region:
    the time is framing, the wire, server-side decode + dispatch, and reply
    parsing."""
    _, json_payloads, packed_payloads = wire_bench.wire_workload()
    stats = ServerStats()
    server = wire_bench.wire_server(stats, packed_payloads[0])
    with _short_switch_interval(), BackgroundServer(server) as handle:
        best = _interleaved_best(
            {
                "JSON": lambda: asyncio.run(
                    wire_bench.drive_json(handle.address, json_payloads)
                ),
                "binary": lambda: asyncio.run(
                    wire_bench.drive_binary(handle.address, packed_payloads)
                ),
            },
            rounds=4,
            inner=1,
        )
        snapshot = stats.snapshot()
    wire_bytes = {
        "JSON": len(
            encode_message(
                {"op": "predict", "id": 0, "features": json_payloads[0]}
            )
        ),
        "binary": len(encode_predict_request(packed_payloads[0], 1)),
    }
    emit(
        f"Binary vs JSON wire ({wire_bench.N_REQUESTS} concurrent 1-sample "
        f"requests, {wire_bench.N_FEATURES}-feature popcount model)",
        _table(
            best, "JSON", lambda name: f"{wire_bytes[name]:5d} B/request  "
        )
        + f"\nbatch occupancy mean {snapshot['mean_batch_occupancy']:.1f} "
        f"samples/batch, {snapshot['batches']} batches, {snapshot['shed']} shed",
    )


def test_two_replica_router_vs_single_backend():
    """The mixed-model binary workload at one backend box vs the router over
    two, with a modeled per-batch service time (see ``router_bench``)."""
    requests = router_bench.make_workload()
    with router_bench.spawn_cluster() as cluster:
        best = _interleaved_best(
            {
                "1 backend": lambda: router_bench.run_checked(
                    cluster["backend_a"][1], requests
                ),
                "router/2": lambda: router_bench.run_checked(
                    cluster["router"][1], requests
                ),
            },
            rounds=3,
            inner=1,
        )
    total_samples = len(requests) * router_bench.SAMPLES_PER_REQUEST
    emit(
        f"Cluster router: 2-replica scaling ({len(requests)} x "
        f"{router_bench.SAMPLES_PER_REQUEST}-sample requests, models "
        f"{'/'.join(router_bench.MODELS)}, modeled service time "
        f"{router_bench.SLEEP_MS} ms/batch)",
        _table(
            best,
            "1 backend",
            lambda name: f"{total_samples / best[name]:9,.0f} samples/s  ",
        ),
    )
