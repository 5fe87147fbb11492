"""Per-layer numbers: one public call at a time, timed from outside.

Module = layer.  Every number here comes from calling a module's public
function directly with the benchmark's seeded inputs; nothing is patched
and nothing inside ``src/`` is instrumented.  Unless a row says otherwise a
value is the median over repeated calls (counts in ``REPS``).  README.md
says which end-to-end metric each row should move.

Run-side rows (``*.ns_per_lutword``, ``*.us_1word``) build into the
persistent ``out/native-cache`` so only the first traced run in a checkout
pays for them; build-side rows (``native.cc_s``, ``server.register_s``) use
a fresh directory and are always cold.

``python layers.py pool <seed>`` is the child entry for the
``engine.parallel`` rows: the fork+shared-memory pool and its resource
tracker live and die inside a supervised session of their own.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

if __name__ == "__main__":  # the pool child is started by path
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import adapters, fixtures, loadgen, serve_host  # noqa: E402
from benchmarks.perf.measure import median_call_s, now  # noqa: E402
from benchmarks.perf.procs import HERE, child  # noqa: E402
from benchmarks.perf.workloads import server_child  # noqa: E402

ROWS = 16384  # samples behind the per-sample rows
WORDS = 1024  # words behind the per-LUT-word rows (the bank workload's batch)
REPS = {"slow": 5, "batch": 15, "call": 200, "frame": 500, "rtt": 300, "build": 3}
POOL_TIMEOUT_S = 120.0


def _bitpack(ctx) -> Dict[str, float]:
    rows = fixtures.feature_rows(ctx.seed, ROWS)
    packed = adapters.pack_bits(rows)
    chunks = [adapters.pack_bits(rows[i : i + 1]) for i in range(64)]
    ones = [1] * 64
    word = adapters.pack_bits(rows[:37])
    six = packed[:6]
    weights = np.array([5, -3, 7, 1, -8, 2], dtype=np.int64)
    per_sample = 1e9 / ROWS
    return {
        "bitpack.pack_ns_per_sample": per_sample
        * median_call_s(lambda: adapters.pack_bits(rows), REPS["batch"]),
        "bitpack.unpack_ns_per_sample": per_sample
        * median_call_s(lambda: adapters.unpack_bits(packed, ROWS), REPS["batch"]),
        "bitpack.concat_packed_us": 1e6
        * median_call_s(lambda: adapters.concat_packed(chunks, ones), REPS["call"]),
        "bitpack.mask_padding_us": 1e6
        * median_call_s(lambda: adapters.mask_padding(word, 37), REPS["call"]),
        "bitpack.weighted_sums_ns_per_sample": per_sample
        * median_call_s(
            lambda: adapters.packed_weighted_sums(six, weights, ROWS), REPS["batch"]
        ),
    }


def _readout(ctx) -> Dict[str, float]:
    readout = ctx.fixtures.clf.output_layer_
    intermediate = fixtures.packed_batch(ctx.seed, readout.n_inputs, ROWS // 64)
    one_word = intermediate[:, :1]
    scores = readout.decision_scores_packed(intermediate, ROWS)
    return {
        "readout.scores_packed_ns_per_sample": 1e9 / ROWS
        * median_call_s(
            lambda: readout.decision_scores_packed(intermediate, ROWS), REPS["batch"]
        ),
        "readout.scores_packed_us_1word": 1e6
        * median_call_s(lambda: readout.decision_scores_packed(one_word, 64), REPS["call"]),
        "readout.argmax_ns_per_sample": 1e9 / ROWS
        * median_call_s(lambda: np.argmax(scores, axis=1), REPS["batch"]),
    }


_PASS_ROW = {
    "ConstantFoldPass": "passes.fold_s",
    "FuseChainsPass": "passes.fuse_s",
    "DedupTablesPass": "passes.dedup_s",
    "DecomposePass": "passes.decompose_s",
}


def _compiler(ctx, detail: dict) -> Dict[str, float]:
    """``engine.passes`` and the lowering, summed over the four programs."""
    runs: List[Dict[str, float]] = []
    counts: Dict[str, float] = {}
    optimized = {}
    for _ in range(REPS["build"]):
        times = dict.fromkeys(_PASS_ROW.values(), 0.0)
        counts = {"passes.cost_before": 0, "passes.cost_after": 0, "passes.nodes_after": 0}
        for name, netlist in ctx.fixtures.programs.items():
            graph = adapters.IRGraph.from_netlist(netlist)
            before = adapters.table_cost(graph)
            for pipeline_pass in adapters.default_passes(6):
                t0 = now()
                graph = pipeline_pass.run(graph)
                times[_PASS_ROW[type(pipeline_pass).__name__]] += now() - t0
            after = adapters.table_cost(graph)
            counts["passes.cost_before"] += before
            counts["passes.cost_after"] += after
            counts["passes.nodes_after"] += len(graph.nodes)
            detail[f"passes.cost[{name}]"] = [before, after]
            optimized[name] = graph.to_netlist()
        runs.append(times)
    out = {row: statistics.median(run[row] for run in runs) for row in _PASS_ROW.values()}
    out.update({k: float(v) for k, v in counts.items()})

    def lower_all():
        return [adapters.CompiledNetlist.from_netlist(n) for n in optimized.values()]

    out["lower.from_netlist_s"] = median_call_s(lower_all, REPS["build"])
    out["lower.n_groups"] = float(sum(p.n_groups for p in lower_all()))
    return out


def _executors(ctx, detail: dict) -> Dict[str, float]:
    """NumPy, native and native-mt on the bank workload's program and batch."""
    netlist = adapters.optimize_netlist(ctx.fixtures.programs["rinc_p6"])
    program = adapters.CompiledNetlist.from_netlist(netlist)
    x = fixtures.packed_batch(ctx.seed, program.n_primary_inputs, WORDS)
    x1 = x[:, :1]
    per_lutword = 1e9 / (program.n_nodes * WORDS)
    out = {
        "numpy.ns_per_lutword": per_lutword
        * median_call_s(lambda: program.run_packed(x), REPS["slow"]),
        "numpy.us_1word": 1e6 * median_call_s(lambda: program.run_packed(x1), REPS["call"]),
        "native.codegen_s": median_call_s(
            lambda: adapters.generate_c_source(program), REPS["build"]
        ),
    }
    source = adapters.generate_c_source(program)
    out["native.c_source_bytes"] = float(len(source.encode()))
    with ctx.audit.scratch_dir("cc") as cold:
        t0 = now()
        _, so_path = adapters.build_shared_object(source, cache_dir=str(cold))
        out["native.cc_s"] = now() - t0  # one cold build: not a median
        out["native.so_bytes"] = float(os.path.getsize(so_path))
        out["native.cache_hit_s"] = median_call_s(
            lambda: adapters.build_shared_object(source, cache_dir=str(cold)),
            REPS["call"],
        )
    single = adapters.NativeCompiledNetlist(program, cache_dir=ctx.warm_cache)
    out["native.ns_per_lutword"] = per_lutword * median_call_s(
        lambda: single.run_packed(x), REPS["batch"]
    )
    out["native.us_1word"] = 1e6 * median_call_s(lambda: single.run_packed(x1), REPS["call"])
    tuned = adapters.NativeCompiledNetlist.tuned(program, cache_dir=ctx.warm_cache)
    out["native_mt.ns_per_lutword"] = per_lutword * median_call_s(
        lambda: tuned.run_packed(x), REPS["batch"]
    )
    out["native_mt.threads"] = float(tuned.threads)
    out["native_mt.unroll"] = float(tuned.unroll)
    detail["native_mt.opt_tier"] = tuned.opt_tier
    return out


def _pool(ctx) -> Dict[str, float]:
    env = dict(os.environ, REPRO_NATIVE_CACHE=ctx.warm_cache)
    with child([str(HERE / "layers.py"), "pool", str(ctx.seed)], env) as proc:
        stdout, _ = proc.communicate(timeout=POOL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pool child exited with {proc.returncode}")
    return json.loads(stdout.decode().splitlines()[-1])


def pool_child(seed: int) -> Dict[str, float]:
    """Runs in the child: fork+shm ``WorkerPool`` on the same program and batch."""
    netlist = fixtures.synthetic_programs()["rinc_p6"]
    x = fixtures.packed_batch(seed, fixtures.N_FEATURES, WORDS)
    x1 = x[:, :1]
    with adapters.WorkerPool(n_workers=2, backend="process", prefer_threads=False) as pool:
        t0 = now()
        pool.attach("rinc_p6", netlist, engine_backend="native")
        pool.warm_up()
        attach_s = now() - t0
        if pool.backend != "process":
            raise RuntimeError(f"pool fell back to {pool.backend!r}")
        n_nodes = pool.serial_engine("rinc_p6").n_nodes
        sharded = median_call_s(lambda: pool.run_packed("rinc_p6", x), REPS["batch"])
        one_word = median_call_s(lambda: pool.run_packed("rinc_p6", x1), REPS["call"])
    return {
        "pool.attach_s": attach_s,
        "pool.process_ns_per_lutword": 1e9 * sharded / (n_nodes * WORDS),
        "pool.us_1word": 1e6 * one_word,
    }


async def _decode_frames_us(frame: bytes) -> float:
    """Median microseconds of ``read_frame`` per frame, off an in-memory reader."""
    batches = []
    for _ in range(5):
        reader = asyncio.StreamReader()
        reader.feed_data(frame * REPS["frame"])
        reader.feed_eof()
        t0 = now()
        for _ in range(REPS["frame"]):
            await adapters.read_frame(reader)
        batches.append((now() - t0) / REPS["frame"])
    return 1e6 * statistics.median(batches)


def _transport(ctx, detail: dict) -> Dict[str, float]:
    rows = fixtures.feature_rows(ctx.seed, 2048)
    words = adapters.pack_bits(rows[:1])
    as_list = rows[:1].tolist()  # the JSON client's resident form
    labels = np.array([3], dtype=np.int64)

    def bin_request(packed=words, n=1):
        return adapters.encode_predict_request(
            packed, n, model=serve_host.MODEL_NAME, request_id=7
        )

    def json_request(features=as_list):
        return adapters.encode_message(
            {"op": "predict", "id": 7, "model": serve_host.MODEL_NAME, "features": features}
        )

    reply = adapters.encode_reply(labels, request_id=7)
    detail["transport.bin_request_bytes[2048]"] = len(
        bin_request(adapters.pack_bits(rows), 2048)
    )
    detail["transport.json_request_bytes[2048]"] = len(json_request(rows.tolist()))
    return {
        "transport.bin_encode_request_us": 1e6 * median_call_s(bin_request, REPS["frame"]),
        "transport.bin_decode_request_us": asyncio.run(_decode_frames_us(bin_request())),
        "transport.bin_encode_reply_us": 1e6
        * median_call_s(lambda: adapters.encode_reply(labels, request_id=7), REPS["frame"]),
        "transport.bin_decode_reply_us": 1e6
        * median_call_s(lambda: adapters.decode_reply(reply), REPS["frame"]),
        "transport.json_encode_request_us": 1e6 * median_call_s(json_request, REPS["frame"]),
        "transport.json_decode_request_us": asyncio.run(_decode_frames_us(json_request())),
        "transport.bin_request_bytes": float(len(bin_request())),
        "transport.json_request_bytes": float(len(json_request())),
    }


async def _queue_submit_us(ctx) -> float:
    """256 concurrent one-sample submits into a queue whose model is a no-op."""
    words = adapters.pack_bits(fixtures.feature_rows(ctx.seed, 1))
    queue = adapters.BatchingQueue(
        lambda X: np.zeros(len(X), dtype=np.int64),
        max_batch=serve_host.MAX_BATCH,
        max_wait_us=serve_host.MAX_WAIT_US,
        packed_fn=lambda packed, n: np.zeros(n, dtype=np.int64),
    )
    rounds = []
    try:
        for _ in range(20):
            t0 = now()
            await asyncio.gather(*(queue.submit_packed(words, 1) for _ in range(256)))
            rounds.append((now() - t0) / 256)
    finally:
        await queue.close()
    return 1e6 * statistics.median(rounds)


def _server_and_client(ctx) -> Dict[str, float]:
    """A cold server child of its own, then blocking clients on it while idle."""
    rows = fixtures.feature_rows(ctx.seed, 64)
    reference = ctx.fixtures.clf.predict(rows)
    first = adapters.pack_bits(rows[:1])
    load = loadgen.Load(
        [adapters.encode_predict_request(first, 1, model=serve_host.MODEL_NAME)],
        [reference[:1]], [first], 1,
    )
    out = {}
    with server_child(ctx, load) as (_, address, timings):
        warm_up_s = timings["start_s"]  # start() = the warm-up evaluation = the cold compile
        out["server.spawn_s"] = timings["spawn_to_serving_s"] - warm_up_s
        out["server.register_s"] = timings["register_s"] + warm_up_s
        for row, binary in (("client.bin_rtt_us", True), ("client.json_rtt_us", False)):
            with adapters.ServingClient(*address, binary=binary) as client:
                times = []
                for i in range(REPS["rtt"]):
                    t0 = now()
                    got = client.predict(rows[i % 64], model=serve_host.MODEL_NAME)
                    times.append(now() - t0)
                    if got[0] != reference[i % 64]:
                        raise RuntimeError(f"{row}: wrong label for pool row {i % 64}")
            out[row] = 1e6 * statistics.median(times)
    return out


def measure_all(ctx, detail: dict) -> Dict[str, float]:
    """Every workload-independent per-layer row; ``detail`` gets the extras."""
    out = _pool(ctx)
    out.update(_bitpack(ctx))
    out.update(_readout(ctx))
    out.update(_compiler(ctx, detail))
    out.update(_executors(ctx, detail))
    out.update(_transport(ctx, detail))
    out["queue.submit_us_per_request"] = asyncio.run(_queue_submit_us(ctx))
    out.update(_server_and_client(ctx))
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "pool":
        sys.exit("usage: layers.py pool <seed>")
    print(json.dumps(pool_child(int(sys.argv[2]))))
