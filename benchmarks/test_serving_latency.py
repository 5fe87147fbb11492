"""Coalesced async serving vs. per-request calls: the serving-layer gate.

The scenario the serving layer exists for: 256 clients each holding *one*
sample.  Called one by one, every request pays a full engine dispatch for a
single packed bit; coalesced through :class:`repro.serving.InferenceServer`,
the 256 requests share four 64-sample packed words of engine work plus one
popcount read-out per batch.

Both sides run the same model — a serving-sized RINC bank (the engine
benchmark's P=6 topology) feeding a quantised output layer via
``decision_scores_packed`` — so the ratio isolates the serving machinery:
request coalescing against per-request dispatch, *including* the server's
socket + JSON overhead, which the sequential baseline does not pay.

Gate: coalesced throughput >= 3x the sequential per-request baseline, with
p99 latency reported from both the server's admission-to-result clock and
the client's end-to-end clock.  Like the engine gates, the measurement
escalates with extra rounds before failing so a noisy-neighbour CPU spike
delays convergence instead of flaking.

The multi-model gate is the PR-5 acceptance scenario: one server, one
shared WorkerPool, two distinct compiled netlists (different feature
widths), mixed concurrent 1-sample traffic routed by the wire protocol's
``model`` field.  Coalesced multi-model serving must beat sequential
per-request direct calls >= 2x, bit-exact per model.
"""

from __future__ import annotations

import asyncio
import sys
import time

import numpy as np

from repro.core.output_layer import SparseQuantizedOutputLayer, quantize_symmetric
from repro.engine import ShardedEngine, WorkerPool, pack_bits, rinc_bank_netlist
from repro.serving import BackgroundServer, InferenceServer, ServerStats
from repro.serving.transport import encode_message, read_message, write_message
from repro.utils.rng import as_rng

from bench_utils import emit, record_gate

N_FEATURES = 256
N_CLASSES = 10
FAN_IN = 6  # intermediate bits per class; bank outputs = 10 * 6
N_REQUESTS = 256
COALESCING_TARGET = 3.0
MULTI_MODEL_TARGET = 2.0


_MODEL_CACHE: dict = {}


def _build_model():
    """A serving-sized PoET-BiN stack without the training cost.

    The RINC bank is the engine benchmark's serving-scale P=6 topology with
    random tables (the optimiser's adversarial case); the output layer gets
    random quantised weights — the arithmetic is identical to a trained
    layer's.  Built once and shared by both tests; the pool stays open for
    the process lifetime (its finalizer reclaims it at exit).
    """
    if _MODEL_CACHE:
        return _MODEL_CACHE["model"]
    netlist = rinc_bank_netlist(
        n_primary_inputs=N_FEATURES,
        n_trees=960,
        n_mats=160,
        n_outputs=N_CLASSES * FAN_IN,
        lut_width=6,
        seed=2,
    )
    layer = SparseQuantizedOutputLayer(n_classes=N_CLASSES, fan_in=FAN_IN)
    rng = as_rng(9)
    layer.float_weights_ = rng.normal(size=(N_CLASSES, FAN_IN))
    layer.float_biases_ = rng.normal(size=N_CLASSES)
    layer.weights_ = quantize_symmetric(layer.float_weights_, layer.n_bits)
    layer.biases_ = quantize_symmetric(layer.float_biases_, layer.n_bits)
    engine = ShardedEngine(netlist, pool=WorkerPool(n_workers=2))

    def scores_fn(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.uint8)
        packed = engine.run_packed(pack_bits(X))
        return layer.decision_scores_packed(packed, X.shape[0])

    def predict_fn(X: np.ndarray) -> np.ndarray:
        return np.argmax(scores_fn(X), axis=1)

    _MODEL_CACHE["model"] = (engine, scores_fn, predict_fn)
    return _MODEL_CACHE["model"]


def _sequential_seconds(predict_fn, rows: np.ndarray) -> float:
    """Wall clock for per-request calls: one predict_batch-style call each."""
    start = time.perf_counter()
    for i in range(rows.shape[0]):
        predict_fn(rows[i : i + 1])
    return time.perf_counter() - start


N_CONNECTIONS = 16


async def _drive_concurrent(address, rows: np.ndarray):
    """All requests concurrently outstanding over a pooled connection set.

    A realistic load generator: ``N_CONNECTIONS`` clients each pipeline
    their share of one-sample requests (tagged with ``id``) and collect the
    out-of-order completions.  Every request is in flight before the first
    response arrives, so the server sees the full concurrency.
    """
    n = rows.shape[0]
    shares = [list(range(i, n, N_CONNECTIONS)) for i in range(N_CONNECTIONS)]
    labels = np.empty(n, dtype=np.int64)
    latencies = np.empty(n, dtype=np.float64)

    async def worker(indices):
        reader, writer = await asyncio.open_connection(*address)
        started = {}
        try:
            frames = []
            for i in indices:
                started[i] = time.perf_counter()
                frames.append(
                    encode_message(
                        {
                            "op": "predict",
                            "id": i,
                            "features": rows[i : i + 1].tolist(),
                        }
                    )
                )
            # the whole pipeline goes out in one send — the server reads a
            # burst, not a syscall-per-request trickle
            writer.write(b"".join(frames))
            await writer.drain()
            for _ in indices:
                response = await read_message(reader)
                assert response is not None and response["ok"], response
                i = response["id"]
                latencies[i] = time.perf_counter() - started[i]
                labels[i] = response["labels"][0]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    await asyncio.gather(*(worker(share) for share in shares))
    return labels, latencies


def _concurrent_seconds(address, rows: np.ndarray):
    start = time.perf_counter()
    labels, latencies = asyncio.run(_drive_concurrent(address, rows))
    return time.perf_counter() - start, labels, latencies


def test_coalesced_serving_beats_per_request_calls():
    """256 concurrent 1-sample requests: coalesced >= 3x sequential."""
    # client loop and server loop share this process's GIL; a short switch
    # interval keeps each small syscall from stalling the other thread for
    # the default 5 ms quantum (a server deployed in its own process does
    # not pay this at all)
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        _run_coalescing_gate()
    finally:
        sys.setswitchinterval(previous_interval)


def _run_coalescing_gate():
    engine, scores_fn, predict_fn = _build_model()
    rng = as_rng(0)
    rows = rng.integers(0, 2, size=(N_REQUESTS, N_FEATURES), dtype=np.uint8)
    expected = predict_fn(rows)

    stats = ServerStats()
    server = InferenceServer(
        scores_fn=scores_fn,
        max_batch=64,
        # the wait budget spans the socket-arrival drain of a 256-request
        # burst, so batches actually fill to max_batch instead of timing
        # out at whatever trickled in during 2 ms
        max_wait_us=10_000,
        max_queue=4096,
        stats=stats,
        warm_up=lambda: predict_fn(rows[:1]),
    )
    with BackgroundServer(server) as handle:
        t_seq = _sequential_seconds(predict_fn, rows)
        t_conc, labels, client_lat = _concurrent_seconds(handle.address, rows)
        np.testing.assert_array_equal(labels, expected)
        best_lat = client_lat
        # escalate with interleaved re-measurement before failing: mins
        # only improve, so noise delays convergence instead of flaking
        for _ in range(3):
            if t_seq / t_conc >= COALESCING_TARGET:
                break
            t_seq = min(t_seq, _sequential_seconds(predict_fn, rows))
            t_again, labels, lat = _concurrent_seconds(handle.address, rows)
            np.testing.assert_array_equal(labels, expected)
            if t_again < t_conc:
                t_conc, best_lat = t_again, lat
        snapshot = stats.snapshot()

    speedup = t_seq / t_conc
    server_p = snapshot["latency_us"]
    emit(
        f"Coalesced serving vs per-request calls "
        f"({N_REQUESTS} concurrent 1-sample requests, "
        f"{N_FEATURES}-feature P=6 bank)",
        "\n".join(
            [
                f"sequential  {t_seq * 1e3:8.2f} ms   "
                f"({t_seq / N_REQUESTS * 1e6:7.1f} us/request)",
                f"coalesced   {t_conc * 1e3:8.2f} ms   "
                f"({t_conc / N_REQUESTS * 1e6:7.1f} us/request)   "
                f"speedup {speedup:4.1f}x",
                f"server latency us   p50 {server_p['p50']:8.1f}   "
                f"p95 {server_p['p95']:8.1f}   p99 {server_p['p99']:8.1f}",
                f"client e2e latency  p50 {np.percentile(best_lat, 50) * 1e6:8.1f}   "
                f"p99 {np.percentile(best_lat, 99) * 1e6:8.1f} us",
                f"batch occupancy     mean "
                f"{snapshot['mean_batch_occupancy']:.1f} samples/batch, "
                f"{snapshot['batches']} batches, "
                f"{snapshot['shed']} shed",
            ]
        ),
    )
    assert snapshot["shed"] == 0, "no request should be shed at this load"
    assert snapshot["mean_batch_occupancy"] > 1.0, (
        "requests never coalesced — the server degenerated to per-request work"
    )
    record_gate("serving_coalescing_speedup", speedup, COALESCING_TARGET)
    assert speedup >= COALESCING_TARGET, (
        f"coalesced serving is only {speedup:.2f}x the per-request baseline "
        f"(target {COALESCING_TARGET}x)"
    )


def _make_scores_stack(engine, n_classes, fan_in, seed):
    """An output layer + packed scores/predict pair over ``engine``."""
    layer = SparseQuantizedOutputLayer(n_classes=n_classes, fan_in=fan_in)
    rng = as_rng(seed)
    layer.float_weights_ = rng.normal(size=(n_classes, fan_in))
    layer.float_biases_ = rng.normal(size=n_classes)
    layer.weights_ = quantize_symmetric(layer.float_weights_, layer.n_bits)
    layer.biases_ = quantize_symmetric(layer.float_biases_, layer.n_bits)

    def scores_fn(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.uint8)
        packed = engine.run_packed(pack_bits(X))
        return layer.decision_scores_packed(packed, X.shape[0])

    def predict_fn(X: np.ndarray) -> np.ndarray:
        return np.argmax(scores_fn(X), axis=1)

    return scores_fn, predict_fn


_MULTI_CACHE: dict = {}


def _build_multi_models():
    """Two serving-sized banks with different widths over one WorkerPool.

    Model "a" is a 256-feature P=6 bank, model "b" a 128-feature one —
    distinct shapes so any cross-model shard routing fails loudly.  Both
    attach to a single shared pool (the multi-tenant configuration under
    test); the pool stays open for the process lifetime, reclaimed by its
    finalizer at exit.
    """
    if _MULTI_CACHE:
        return _MULTI_CACHE["models"]
    pool = WorkerPool(n_workers=2)
    specs = {
        "a": dict(n_primary_inputs=256, n_trees=480, n_mats=80,
                  n_outputs=N_CLASSES * 6, lut_width=6, seed=2, fan_in=6),
        "b": dict(n_primary_inputs=128, n_trees=320, n_mats=60,
                  n_outputs=N_CLASSES * 4, lut_width=6, seed=3, fan_in=4),
    }
    models = {"pool": pool}
    for name, spec in specs.items():
        fan_in = spec.pop("fan_in")
        netlist = rinc_bank_netlist(**spec)
        engine = ShardedEngine(netlist, pool=pool, model_id=name)
        scores_fn, predict_fn = _make_scores_stack(
            engine, N_CLASSES, fan_in, seed=20 + len(models)
        )
        models[name] = {
            "width": spec["n_primary_inputs"],
            "scores_fn": scores_fn,
            "predict_fn": predict_fn,
        }
    _MULTI_CACHE["models"] = models
    return models


async def _drive_mixed(address, plan):
    """``plan`` rows of (index, model, 1-sample matrix): all concurrently
    outstanding over pooled connections, routed by the ``model`` field."""
    shares = [plan[i::N_CONNECTIONS] for i in range(N_CONNECTIONS)]
    labels = np.empty(len(plan), dtype=np.int64)

    async def worker(share):
        reader, writer = await asyncio.open_connection(*address)
        try:
            frames = [
                encode_message(
                    {
                        "op": "predict",
                        "id": i,
                        "model": model,
                        "features": rows.tolist(),
                    }
                )
                for i, model, rows in share
            ]
            writer.write(b"".join(frames))
            await writer.drain()
            for _ in share:
                response = await read_message(reader)
                assert response is not None and response["ok"], response
                labels[response["id"]] = response["labels"][0]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    await asyncio.gather(*(worker(share) for share in shares))
    return labels


def test_multi_model_coalesced_serving_beats_sequential_calls():
    """Mixed-model concurrent 1-sample load on one shared pool: >= 2x.

    256 requests alternate between two models of different widths; the
    sequential baseline calls each model's direct packed path per request.
    The server must answer bit-exactly per model and beat the baseline
    through per-model coalescing — while both queues share one WorkerPool
    and one admission budget.
    """
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        _run_multi_model_gate()
    finally:
        sys.setswitchinterval(previous_interval)


def _run_multi_model_gate():
    models = _build_multi_models()
    pool = models["pool"]
    rng = as_rng(4)
    plan = []
    for i in range(N_REQUESTS):
        name = "a" if i % 2 else "b"
        rows = rng.integers(
            0, 2, size=(1, models[name]["width"]), dtype=np.uint8
        )
        plan.append((i, name, rows))
    expected = np.array(
        [int(models[name]["predict_fn"](rows)[0]) for _, name, rows in plan]
    )

    def sequential_seconds() -> float:
        start = time.perf_counter()
        for _, name, rows in plan:
            models[name]["predict_fn"](rows)
        return time.perf_counter() - start

    server = InferenceServer(
        max_batch=64,
        max_wait_us=10_000,
        max_queue=4096,
        max_total_queue=8192,
        warm_up=pool.warm_up,
    )
    for name in ("a", "b"):
        server.register_model(name, scores_fn=models[name]["scores_fn"])

    def concurrent_seconds(address):
        start = time.perf_counter()
        labels = asyncio.run(_drive_mixed(address, plan))
        return time.perf_counter() - start, labels

    with BackgroundServer(server) as handle:
        t_seq = sequential_seconds()
        t_conc, labels = concurrent_seconds(handle.address)
        np.testing.assert_array_equal(labels, expected)
        for _ in range(3):  # escalate before failing: mins only improve
            if t_seq / t_conc >= MULTI_MODEL_TARGET:
                break
            t_seq = min(t_seq, sequential_seconds())
            t_again, labels = concurrent_seconds(handle.address)
            np.testing.assert_array_equal(labels, expected)
            t_conc = min(t_conc, t_again)
        snapshots = {
            name: server.registry.resolve(name).stats.snapshot()
            for name in ("a", "b")
        }

    speedup = t_seq / t_conc
    emit(
        f"Multi-model coalesced serving ({N_REQUESTS} mixed concurrent "
        f"1-sample requests, 2 banks on one shared WorkerPool)",
        "\n".join(
            [
                f"sequential  {t_seq * 1e3:8.2f} ms   "
                f"coalesced {t_conc * 1e3:8.2f} ms   speedup {speedup:4.1f}x",
            ]
            + [
                f"model {name}: {snap['requests_completed']} requests, "
                f"mean occupancy {snap['mean_batch_occupancy']:.1f}, "
                f"{snap['batches']} batches, {snap['shed']} shed, "
                f"p99 {snap['latency_us']['p99']:.0f} us"
                for name, snap in snapshots.items()
            ]
        ),
    )
    for name, snap in snapshots.items():
        assert snap["shed"] == 0, f"model {name} shed at this load"
        assert snap["requests_completed"] >= N_REQUESTS // 2
        assert snap["mean_batch_occupancy"] > 1.0, (
            f"model {name} never coalesced its requests"
        )
    record_gate("multi_model_speedup", speedup, MULTI_MODEL_TARGET)
    assert speedup >= MULTI_MODEL_TARGET, (
        f"multi-model coalesced serving is only {speedup:.2f}x the "
        f"per-request baseline (target {MULTI_MODEL_TARGET}x)"
    )


def test_served_results_bit_exact_under_concurrency():
    """Mixed-size concurrent requests return exactly the direct results."""
    engine, scores_fn, predict_fn = _build_model()
    rng = as_rng(1)
    sizes = [int(rng.integers(1, 9)) for _ in range(24)]
    chunks = [
        rng.integers(0, 2, size=(k, N_FEATURES), dtype=np.uint8) for k in sizes
    ]
    expected = [predict_fn(chunk) for chunk in chunks]
    server = InferenceServer(
        scores_fn=scores_fn, max_batch=32, max_wait_us=1500, max_queue=4096
    )
    with BackgroundServer(server) as handle:

        async def drive():
            async def one(chunk):
                reader, writer = await asyncio.open_connection(*handle.address)
                try:
                    await write_message(
                        writer,
                        {"op": "predict", "features": chunk.tolist()},
                    )
                    return await read_message(reader)
                finally:
                    writer.close()
                    await writer.wait_closed()

            return await asyncio.gather(*(one(c) for c in chunks))

        responses = asyncio.run(drive())
    for want, response in zip(expected, responses):
        assert response["ok"], response
        np.testing.assert_array_equal(np.asarray(response["labels"]), want)
