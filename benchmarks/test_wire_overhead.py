"""Binary and JSON wire protocols at 256-way concurrency: bit-exactness.

The same 256-concurrent 1-sample scenario as the serving benchmark, the
same server, but a model whose compute is a single vectorised reduction —
near zero — so what is exercised is framing, shipping and decoding.  The
JSON protocol turns ``F`` features into JSON text, a parse back into
Python objects, and a server-side re-validate + re-pack; the binary
protocol ships the client's resident
:func:`~repro.engine.bitpack.pack_bits` words — decoded with one
``frombuffer`` — and the queue coalesces them in the packed domain.

Tier-1 pins that both transports return exactly the direct evaluation's
labels under that load, shed nothing and coalesce.  The per-request codec
costs are absolute ``transport.*_us`` / ``client.*_rtt_us`` rows in
``benchmarks/perf``; the end-to-end binary-vs-JSON stopwatch is report-only
in ``parked_comparisons.py`` (``make bench``), which imports the drivers
below.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.engine import pack_bits, unpack_bits
from repro.serving import BackgroundServer, InferenceServer, ServingClient
from repro.serving.transport import encode_message, encode_predict_request
from repro.utils.rng import as_rng

from bench_utils import drive_pipelined, read_binary_reply, read_json_reply

N_FEATURES = 1024
N_CLASSES = 10
N_REQUESTS = 256


def _batch_fn(X: np.ndarray) -> np.ndarray:
    """Popcount mod N_CLASSES: one vectorised reduction, near-zero cost."""
    return np.asarray(X, dtype=np.int64).sum(axis=1) % N_CLASSES


def _packed_fn(words: np.ndarray, n_samples: int) -> np.ndarray:
    """The model's packed entry point: one vectorised unpack + reduction.

    (At 1024 one-word signals, a single C-speed ``unpack_bits`` beats the
    generic bit-sliced ``packed_weighted_sums`` counter by ~50x — the right
    packed strategy is per-model, which is exactly why ``packed_fn`` is a
    pluggable hook and not hard-wired.)
    """
    return _batch_fn(unpack_bits(words, n_samples))


def wire_workload():
    """(expected labels, JSON payloads, packed payloads) of the 256 requests.

    Each client's payload is in its native format — the packed word matrix
    for the binary client ("pack once"), the nested Python list for the
    JSON client.
    """
    rows = as_rng(6).integers(0, 2, size=(N_REQUESTS, N_FEATURES), dtype=np.uint8)
    json_payloads = [rows[i : i + 1].tolist() for i in range(N_REQUESTS)]
    packed_payloads = [pack_bits(rows[i : i + 1]) for i in range(N_REQUESTS)]
    return _batch_fn(rows), json_payloads, packed_payloads


def wire_server(warm_payload) -> InferenceServer:
    """The popcount model served as ``"default"``; its stats are
    ``server.registry.resolve(None).stats``."""
    server = InferenceServer(
        max_batch=64,
        max_wait_us=10_000,
        max_queue=4096,
        warm_up=lambda: _packed_fn(warm_payload, 1),
    )
    server.register_model("default", batch_fn=_batch_fn, packed_fn=_packed_fn)
    return server


def drive_json(address, payloads):
    """``payloads[i]`` is the request's features as a nested list; each
    request pays the JSON text encode, exactly what the protocol imposes."""
    return drive_pipelined(
        address,
        len(payloads),
        lambda i: encode_message(
            {"op": "predict", "id": i, "features": payloads[i]}
        ),
        read_json_reply,
    )


def drive_binary(address, packed_payloads):
    """``packed_payloads[i]`` is the request's resident ``pack_bits`` word
    matrix; each request pays the binary framing — a header pack plus one
    ``tobytes``."""
    return drive_pipelined(
        address,
        len(packed_payloads),
        lambda i: encode_predict_request(packed_payloads[i], 1, request_id=i),
        read_binary_reply,
    )


def test_both_wires_bit_exact_under_concurrency():
    """256 concurrent 1-sample requests, popcount model, JSON then binary."""
    expected, json_payloads, packed_payloads = wire_workload()
    server = wire_server(packed_payloads[0])
    stats = server.registry.resolve(None).stats
    with BackgroundServer(server) as handle:
        labels_json = asyncio.run(drive_json(handle.address, json_payloads))
        labels_bin = asyncio.run(drive_binary(handle.address, packed_payloads))
        snapshot = stats.snapshot()
    np.testing.assert_array_equal(np.ravel(labels_json), expected)
    np.testing.assert_array_equal(np.ravel(labels_bin), expected)
    assert snapshot["shed"] == 0, "no request should be shed at this load"
    assert snapshot["mean_batch_occupancy"] > 1.0, (
        "requests never coalesced — the server degenerated to per-request work"
    )


def test_binary_labels_bit_exact_vs_predict_batch():
    """Mixed-size binary requests reproduce predict_batch exactly."""
    rng = as_rng(7)
    sizes = [int(rng.integers(1, 70)) for _ in range(20)]
    chunks = [
        rng.integers(0, 2, size=(k, N_FEATURES), dtype=np.uint8) for k in sizes
    ]
    server = InferenceServer(max_batch=128, max_wait_us=1_500, max_queue=4096)
    server.register_model("default", batch_fn=_batch_fn, packed_fn=_packed_fn)
    with BackgroundServer(server) as handle:
        with ServingClient(*handle.address, binary=True) as client:
            for chunk in chunks:
                np.testing.assert_array_equal(
                    client.predict(chunk), _batch_fn(chunk)
                )
