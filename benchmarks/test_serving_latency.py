"""Coalesced async serving at 256-way concurrency: bit-exact and coalescing.

The scenario the serving layer exists for: 256 clients each holding *one*
sample.  Coalesced through :class:`repro.serving.InferenceServer`, the 256
requests share four 64-sample packed words of engine work plus one
read-out per batch.  The model is a serving-sized RINC bank (the engine
benchmark's P=6 topology) feeding a quantised output layer via
``decision_scores_packed``.

What tier-1 pins is what does not depend on the host's speed: every label
equals the direct call's, nothing is shed, and requests really coalesce
(mean batch occupancy > 1) — single-model, and with two distinct compiled
netlists (different feature widths) behind one server, routed by the wire
protocol's ``model`` field.

How fast that is is ``benchmarks/perf``'s ``serve_small_closed`` workload
(256 one-sample requests always in flight, absolute req/s and µs).  The
multi-model served-vs-sequential stopwatch is report-only in
``parked_comparisons.py`` (``make bench``), which imports the builders
below.
"""

from __future__ import annotations

import asyncio
import functools

import numpy as np

from repro.core.output_layer import SparseQuantizedOutputLayer, quantize_symmetric
from repro.engine import compile_netlist, pack_bits, rinc_bank_netlist
from repro.serving import BackgroundServer, InferenceServer
from repro.serving.transport import encode_message, read_message, write_message
from repro.utils.rng import as_rng

from bench_utils import drive_pipelined, read_json_reply

N_FEATURES = 256
N_CLASSES = 10
N_REQUESTS = 256


def _make_scores_stack(engine, fan_in, seed):
    """A random quantised output layer over ``engine`` as a packed
    scores/predict pair — the arithmetic is identical to a trained layer's."""
    layer = SparseQuantizedOutputLayer(n_classes=N_CLASSES, fan_in=fan_in)
    rng = as_rng(seed)
    layer.float_weights_ = rng.normal(size=(N_CLASSES, fan_in))
    layer.float_biases_ = rng.normal(size=N_CLASSES)
    layer.weights_ = quantize_symmetric(layer.float_weights_, layer.n_bits)
    layer.biases_ = quantize_symmetric(layer.float_biases_, layer.n_bits)

    def scores_fn(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.uint8)
        packed = engine.run_packed(pack_bits(X))
        return layer.decision_scores_packed(packed, X.shape[0])

    def predict_fn(X: np.ndarray) -> np.ndarray:
        return np.argmax(scores_fn(X), axis=1)

    return scores_fn, predict_fn


@functools.lru_cache(maxsize=None)
def _build_model():
    """A serving-sized PoET-BiN stack without the training cost.

    The RINC bank is the engine benchmark's serving-scale P=6 topology with
    random tables (the optimiser's adversarial case).  Built once, on the
    in-process NumPy engine.
    """
    fan_in = 6  # intermediate bits per class
    netlist = rinc_bank_netlist(
        n_primary_inputs=N_FEATURES,
        n_trees=960,
        n_mats=160,
        n_outputs=N_CLASSES * fan_in,
        lut_width=6,
        seed=2,
    )
    return _make_scores_stack(compile_netlist(netlist), fan_in, seed=9)


@functools.lru_cache(maxsize=None)
def build_multi_models():
    """Two serving-sized banks with different widths, each on its own
    in-process NumPy engine.

    Model "a" is a 256-feature P=6 bank, model "b" a 128-feature one —
    distinct shapes so any cross-model routing fails loudly.
    """
    specs = {
        "a": dict(n_primary_inputs=256, n_trees=480, n_mats=80,
                  n_outputs=N_CLASSES * 6, lut_width=6, seed=2, fan_in=6),
        "b": dict(n_primary_inputs=128, n_trees=320, n_mats=60,
                  n_outputs=N_CLASSES * 4, lut_width=6, seed=3, fan_in=4),
    }
    models = {}
    for layer_seed, (name, spec) in enumerate(specs.items(), start=21):
        fan_in = spec.pop("fan_in")
        scores_fn, predict_fn = _make_scores_stack(
            compile_netlist(rinc_bank_netlist(**spec)), fan_in, seed=layer_seed
        )
        models[name] = {
            "width": spec["n_primary_inputs"],
            "scores_fn": scores_fn,
            "predict_fn": predict_fn,
        }
    return models


def mixed_plan(models):
    """256 one-sample requests alternating between models "a" and "b", as
    rows of (model, 1-sample matrix)."""
    rng = as_rng(4)
    plan = []
    for i in range(N_REQUESTS):
        name = "a" if i % 2 else "b"
        rows = rng.integers(
            0, 2, size=(1, models[name]["width"]), dtype=np.uint8
        )
        plan.append((name, rows))
    return plan


def multi_model_server(models) -> InferenceServer:
    server = InferenceServer(
        max_batch=64,
        # the wait budget spans the socket-arrival drain of a 256-request
        # burst, so batches actually fill to max_batch instead of timing
        # out at whatever trickled in during 2 ms
        max_wait_us=10_000,
        max_queue=4096,
        max_total_queue=8192,
    )
    for name in ("a", "b"):
        server.register_model(name, scores_fn=models[name]["scores_fn"])
    return server


def drive(address, plan):
    """Fire ``plan`` — rows of (model-or-None, 1-sample matrix) — as
    concurrent JSON requests routed by the ``model`` field."""

    def encode(i):
        model, rows = plan[i]
        message = {"op": "predict", "id": i, "features": rows.tolist()}
        if model is not None:
            message["model"] = model
        return encode_message(message)

    return drive_pipelined(address, len(plan), encode, read_json_reply)


def test_coalesced_serving_bit_exact():
    """256 concurrent 1-sample requests: direct-call labels, no shed, coalesced."""
    scores_fn, predict_fn = _build_model()
    rows = as_rng(0).integers(0, 2, size=(N_REQUESTS, N_FEATURES), dtype=np.uint8)
    server = InferenceServer(
        max_batch=64,
        max_wait_us=10_000,
        max_queue=4096,
        warm_up=lambda: predict_fn(rows[:1]),
    )
    stats = server.register_model("default", scores_fn=scores_fn).stats
    plan = [(None, rows[i : i + 1]) for i in range(N_REQUESTS)]
    with BackgroundServer(server) as handle:
        labels = asyncio.run(drive(handle.address, plan))
        snapshot = stats.snapshot()
    np.testing.assert_array_equal(np.ravel(labels), predict_fn(rows))
    assert snapshot["shed"] == 0, "no request should be shed at this load"
    assert snapshot["mean_batch_occupancy"] > 1.0, (
        "requests never coalesced — the server degenerated to per-request work"
    )


def test_multi_model_serving_bit_exact():
    """Mixed-model concurrent 1-sample load on one server.

    The server must answer bit-exactly per model and coalesce per model —
    while both queues share one admission budget.
    """
    models = build_multi_models()
    plan = mixed_plan(models)
    expected = np.array(
        [int(models[name]["predict_fn"](rows)[0]) for name, rows in plan]
    )
    server = multi_model_server(models)
    with BackgroundServer(server) as handle:
        labels = asyncio.run(drive(handle.address, plan))
        snapshots = {
            name: server.registry.resolve(name).stats.snapshot()
            for name in ("a", "b")
        }
    np.testing.assert_array_equal(np.ravel(labels), expected)
    for name, snap in snapshots.items():
        assert snap["shed"] == 0, f"model {name} shed at this load"
        assert snap["requests_completed"] >= N_REQUESTS // 2
        assert snap["mean_batch_occupancy"] > 1.0, (
            f"model {name} never coalesced its requests"
        )


def test_served_results_bit_exact_under_concurrency():
    """Mixed-size concurrent requests return exactly the direct results."""
    scores_fn, predict_fn = _build_model()
    rng = as_rng(1)
    sizes = [int(rng.integers(1, 9)) for _ in range(24)]
    chunks = [
        rng.integers(0, 2, size=(k, N_FEATURES), dtype=np.uint8) for k in sizes
    ]
    expected = [predict_fn(chunk) for chunk in chunks]
    server = InferenceServer(max_batch=32, max_wait_us=1500, max_queue=4096)
    server.register_model("default", scores_fn=scores_fn)
    with BackgroundServer(server) as handle:

        async def drive_chunks():
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

        responses = asyncio.run(drive_chunks())
    for want, response in zip(expected, responses):
        assert response["ok"], response
        np.testing.assert_array_equal(np.asarray(response["labels"]), want)
