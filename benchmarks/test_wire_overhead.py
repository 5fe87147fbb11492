"""Binary wire protocol vs JSON: the zero-copy transport gate.

The serving-latency benchmark gates *coalescing* against per-request
dispatch.  This one isolates the *wire*: the same 256-concurrent 1-sample
scenario, the same server, but a model whose compute is a single vectorised
reduction — near zero — so wall clock is dominated by what each protocol
spends framing, shipping and decoding requests.

Per request, the JSON protocol turns ``F`` features into JSON text (~2
bytes per feature), a parse back into Python objects, and a server-side
re-validate + re-pack.  The binary protocol ships the client's resident
:func:`~repro.engine.bitpack.pack_bits` words — decoded with one
``frombuffer`` — and the queue coalesces them in the packed domain, so the
server never materialises a byte matrix, let alone JSON.

Each client holds its payload in its native format *outside* the timed
region — the packed word matrix for the binary client ("pack once"), the
nested Python list for the JSON client (already generous: a packed-native
client would pay an unpack first).  The timed region covers per-request
framing, the wire, server-side decode + dispatch + evaluation, and reply
parsing — the full overhead a serving deployment pays per request.

Gate: at 1024 features, binary wire+dispatch must be >= 3x cheaper than
JSON, labels bit-exact against the direct evaluation on both transports.
Like every perf gate in this repo, the measurement escalates with
interleaved re-measurement (mins only improve) before failing, so a noisy
CPU spike delays convergence instead of flaking.
"""

from __future__ import annotations

import asyncio
import sys
import time

import numpy as np

from repro.engine import pack_bits, unpack_bits
from repro.serving import BackgroundServer, InferenceServer, ServerStats
from repro.serving.transport import (
    _COMMON,
    _REPLY_HEAD,
    OP_REPLY,
    encode_predict_request,
)
from repro.serving.transport import encode_message, read_message
from repro.utils.rng import as_rng

from bench_utils import emit, record_gate

N_FEATURES = 1024
N_CLASSES = 10
N_REQUESTS = 256
N_CONNECTIONS = 16
WIRE_TARGET = 3.0


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


async def _drive_json(address, payloads) -> np.ndarray:
    """One-sample JSON requests pipelined over pooled connections.

    ``payloads[i]`` is the request's features as a nested list — the JSON
    client's native representation; the timed region pays the JSON text
    encode, exactly what the protocol imposes.
    """
    n = len(payloads)
    labels = np.empty(n, dtype=np.int64)

    async def worker(indices):
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(
                b"".join(
                    encode_message(
                        {"op": "predict", "id": i, "features": payloads[i]}
                    )
                    for i in indices
                )
            )
            await writer.drain()
            for _ in indices:
                response = await read_message(reader)
                assert response is not None and response["ok"], response
                labels[response["id"]] = response["labels"][0]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    shares = [list(range(i, n, N_CONNECTIONS)) for i in range(N_CONNECTIONS)]
    await asyncio.gather(*(worker(share) for share in shares))
    return labels


async def _read_binary_reply(reader) -> tuple:
    """(request_id, labels) of one OP_REPLY frame (client side, async)."""
    header = await reader.readexactly(_COMMON.size)
    _, _, opcode, flags, request_id = _COMMON.unpack(header)
    assert opcode == OP_REPLY, f"unexpected opcode 0x{opcode:02x}"
    samples, n_classes = _REPLY_HEAD.unpack(
        await reader.readexactly(_REPLY_HEAD.size)
    )
    body = await reader.readexactly(
        samples * 8 + (samples * n_classes * 8 if flags & 0x01 else 0)
    )
    labels = np.frombuffer(body[: samples * 8], dtype="<i8")
    return request_id, labels


async def _drive_binary(address, packed_payloads) -> np.ndarray:
    """The same load over the binary protocol.

    ``packed_payloads[i]`` is the request's resident ``pack_bits`` word
    matrix; the timed region pays the binary framing — a header pack plus
    one ``tobytes`` — exactly what the protocol imposes.
    """
    n = len(packed_payloads)
    labels = np.empty(n, dtype=np.int64)

    async def worker(indices):
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(
                b"".join(
                    encode_predict_request(
                        packed_payloads[i], 1, request_id=i
                    )
                    for i in indices
                )
            )
            await writer.drain()
            for _ in indices:
                request_id, reply_labels = await _read_binary_reply(reader)
                labels[request_id] = reply_labels[0]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    shares = [list(range(i, n, N_CONNECTIONS)) for i in range(N_CONNECTIONS)]
    await asyncio.gather(*(worker(share) for share in shares))
    return labels


def _timed(drive, address, payloads):
    start = time.perf_counter()
    labels = asyncio.run(drive(address, payloads))
    return time.perf_counter() - start, labels


def test_binary_wire_beats_json_wire():
    """256 concurrent 1-sample requests, popcount model: binary >= 3x JSON."""
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        _run_wire_gate()
    finally:
        sys.setswitchinterval(previous_interval)


def _run_wire_gate():
    rng = as_rng(6)
    rows = rng.integers(0, 2, size=(N_REQUESTS, N_FEATURES), dtype=np.uint8)
    expected = _batch_fn(rows)
    # each client's native payload, held outside the timed region
    json_payloads = [rows[i : i + 1].tolist() for i in range(N_REQUESTS)]
    packed_payloads = [pack_bits(rows[i : i + 1]) for i in range(N_REQUESTS)]

    stats = ServerStats()
    server = InferenceServer(
        batch_fn=_batch_fn,
        packed_fn=_packed_fn,
        max_batch=64,
        max_wait_us=10_000,
        max_queue=4096,
        stats=stats,
        warm_up=lambda: _packed_fn(packed_payloads[0], 1),
    )
    with BackgroundServer(server) as handle:
        t_json, labels_json = _timed(_drive_json, handle.address, json_payloads)
        t_bin, labels_bin = _timed(
            _drive_binary, handle.address, packed_payloads
        )
        np.testing.assert_array_equal(labels_json, expected)
        np.testing.assert_array_equal(labels_bin, expected)
        # escalate with interleaved re-measurement before failing: mins
        # only improve, so noise delays convergence instead of flaking
        for _ in range(3):
            if t_json / t_bin >= WIRE_TARGET:
                break
            t_again, labels_json = _timed(
                _drive_json, handle.address, json_payloads
            )
            np.testing.assert_array_equal(labels_json, expected)
            t_json = min(t_json, t_again)
            t_again, labels_bin = _timed(
                _drive_binary, handle.address, packed_payloads
            )
            np.testing.assert_array_equal(labels_bin, expected)
            t_bin = min(t_bin, t_again)
        snapshot = stats.snapshot()

    ratio = t_json / t_bin
    json_bytes = len(
        encode_message({"op": "predict", "id": 0, "features": json_payloads[0]})
    )
    bin_bytes = len(encode_predict_request(packed_payloads[0], 1))
    emit(
        f"Binary vs JSON wire overhead ({N_REQUESTS} concurrent 1-sample "
        f"requests, {N_FEATURES}-feature popcount model)",
        "\n".join(
            [
                f"JSON        {t_json * 1e3:8.2f} ms   "
                f"({t_json / N_REQUESTS * 1e6:7.1f} us/request, "
                f"{json_bytes} wire bytes/request)",
                f"binary      {t_bin * 1e3:8.2f} ms   "
                f"({t_bin / N_REQUESTS * 1e6:7.1f} us/request, "
                f"{bin_bytes} wire bytes/request)   ratio {ratio:4.1f}x",
                f"batch occupancy mean "
                f"{snapshot['mean_batch_occupancy']:.1f} samples/batch, "
                f"{snapshot['batches']} batches, {snapshot['shed']} shed",
            ]
        ),
    )
    assert snapshot["shed"] == 0, "no request should be shed at this load"
    assert snapshot["mean_batch_occupancy"] > 1.0, (
        "requests never coalesced — the server degenerated to per-request work"
    )
    record_gate("binary_wire_speedup", ratio, WIRE_TARGET)
    assert ratio >= WIRE_TARGET, (
        f"binary wire is only {ratio:.2f}x faster than JSON "
        f"(target {WIRE_TARGET}x)"
    )


def test_binary_labels_bit_exact_vs_predict_batch():
    """Mixed-size binary requests reproduce predict_batch exactly."""
    rng = as_rng(7)
    sizes = [int(rng.integers(1, 70)) for _ in range(20)]
    chunks = [
        rng.integers(0, 2, size=(k, N_FEATURES), dtype=np.uint8) for k in sizes
    ]
    server = InferenceServer(
        batch_fn=_batch_fn,
        packed_fn=_packed_fn,
        max_batch=128,
        max_wait_us=1_500,
        max_queue=4096,
    )
    from repro.serving import ServingClient

    with BackgroundServer(server) as handle:
        with ServingClient(*handle.address, binary=True) as client:
            for chunk in chunks:
                np.testing.assert_array_equal(
                    client.predict(chunk), _batch_fn(chunk)
                )
