"""``repro.serving`` — a multi-model async batching server for packed PoET-BiN inference.

The engine (:mod:`repro.engine`) answers "how fast can one big batch go";
this package answers the serving question: *many small concurrent requests,
for many hosted models*, each on an engine of its own — and, one level up,
many replicated boxes behind one router.  The pieces, bottom-up:

``transport``
    One wire grammar, one request path.  Both wire formats — length-prefixed
    JSON and the zero-copy binary format, in which clients ship
    :func:`~repro.engine.bitpack.pack_bits` uint64 bit-planes in a
    versioned frame (magic ``0xBF``) and the server feeds the words
    straight to the engine — are declared once, as a table, and decoded by
    one sans-IO walk shared by the asyncio, blocking-socket and in-memory
    readers (first-byte discrimination lets both coexist on one listener;
    anything undecodable is a typed protocol error).  On top sit the shared
    typed-error mapping and :class:`~repro.serving.transport.FrameServer`:
    the dual-protocol asyncio listener with the explicit ``starting →
    serving → draining → stopped`` lifecycle, the shared control ops and
    the HTTP listener, which the backend server and the cluster router
    subclass with their predict, their own ops and their metrics text.
    ``docs/serving.md`` carries the wire formats.

``metrics_http``
    :class:`~repro.serving.metrics_http.HttpMetricsListener` — a native
    HTTP listener for ``GET /metrics`` (Prometheus exposition) and
    ``GET /healthz`` (200 while ``serving``, else 503), run by either
    server given ``http_port=``.

``stats``
    :class:`~repro.serving.stats.ServerStats` — p50/p95/p99 latency,
    batch-occupancy histogram, queue depth high-water mark, shed counts —
    one per model, plus :func:`~repro.serving.stats.render_stats_text`,
    the Prometheus-style scrape rendering behind the ``stats_text`` op
    (:func:`~repro.serving.stats.render_exposition` writes it).

``queue``
    :class:`~repro.serving.queue.BatchingQueue` — the coalescing core.
    Concurrent ``submit`` calls are held until the batch fills or its
    timer fires — after ``max_wait_us`` on an executor-evaluated queue, at
    the end of the next loop pass on an ``on_loop`` one — stacked into
    one matrix, evaluated once, and scattered back; admission control sheds
    past ``max_queue`` with the typed
    :class:`~repro.serving.queue.ServerOverloadedError`.
    :class:`~repro.serving.queue.AdmissionBudget` adds the *shared* bound a
    multi-model server needs: total in-flight samples across every queue.

``registry``
    :class:`~repro.serving.registry.ModelRegistry` — model name → (queue,
    stats, scores-mode), with a default model and the typed
    :class:`~repro.serving.registry.ModelNotFoundError` for unknown names.

``server``
    :class:`~repro.serving.server.InferenceServer` — the TCP front end; each
    connection's requests route to their model's queue, so socket
    concurrency becomes per-model batch occupancy.  The constructor takes
    server knobs only; ``register_model`` hosts every model, either as
    explicit ``scores_fn`` / ``batch_fn`` (+ ``packed_fn``) functions or as
    ``model=`` an object with ``compiled_netlist()``, whose in-process
    engine registration resolves once and owns until the version retires;
    the engine says whether its batches may run on the event loop.
    :class:`~repro.serving.server.BackgroundServer` hosts it on a dedicated
    event-loop thread for blocking callers.  ``drain()`` stops admissions
    (typed ``unavailable`` rejections, 503 on ``/healthz``) and flushes
    what was admitted; ``set_admission_weights`` re-partitions the shared
    budget per model at runtime.

``router``
    :class:`~repro.serving.router.RouterServer` — the cluster layer: one
    front door speaking both protocols unchanged over a placement map of
    model → N backend replicas, with least-outstanding balancing, active
    health checks (ejection/reinstatement), client-transparent failover,
    and :class:`~repro.serving.router.Rebalancer`, which re-weights every
    backend's per-model admission shares from scraped queue-depth/latency
    stats.  ``repro.serving.standalone`` runs either role as its own OS
    process.

``client``
    :class:`~repro.serving.client.ServingClient` — a blocking connection
    with typed error mapping, per-request model routing and opt-in
    :class:`~repro.serving.retry.RetryPolicy` backoff; ``binary=True``
    switches ``predict`` onto the binary protocol.  A connection whose
    stream may hold a half-consumed frame (timeout, protocol or transport
    error) refuses reuse with
    :class:`~repro.serving.client.StaleConnectionError`.

Quickstart (blocking side, two models)::

    from repro.serving import BackgroundServer, InferenceServer, ServingClient

    server = InferenceServer(max_batch=64, max_total_queue=4096)
    server.register_model("digits", model=digits_clf, backend="auto")
    server.register_model("svhn", model=svhn_clf, backend="auto",
                          max_batch=128)
    with BackgroundServer(server) as handle:
        with ServingClient(*handle.address) as client:
            labels = client.predict(rows)                    # default model
            labels = client.predict(svhn_rows, model="svhn")
            print(client.stats(model="svhn")["latency_us"])

See ``docs/serving.md`` for the knobs and their failure semantics, and
``benchmarks/test_serving_latency.py`` for the coalescing and multi-model
wins this buys.
"""

from repro.serving.client import ServingClient, StaleConnectionError
from repro.serving.lifecycle import (
    CanaryPolicy,
    DivergenceStore,
    LifecycleLog,
)
from repro.serving.metrics_http import HttpMetricsListener
from repro.serving.queue import (
    AdmissionBudget,
    BadRequestError,
    BatchingQueue,
    ServerOverloadedError,
    ServerUnavailableError,
    ServingError,
)
from repro.serving.registry import (
    ModelNotFoundError,
    ModelRegistry,
    RegisteredModel,
)
from repro.serving.retry import RetryPolicy
from repro.serving.router import BackendFailedError, Rebalancer, RouterServer
from repro.serving.server import BackgroundServer, InferenceServer
from repro.serving.stats import ServerStats, render_stats_text
from repro.serving.transport import (
    BINARY_MAGIC,
    BINARY_VERSION,
    BinaryControlRequest,
    BinaryProtocolError,
    BinaryReply,
    BinaryRequest,
    FrameServer,
    MAX_MESSAGE_BYTES,
    ProtocolError,
    RawBinaryReply,
    WIRE_ERROR_TYPES,
    decode_control_reply,
    decode_reply,
    encode_control_reply,
    encode_control_request,
    encode_message,
    encode_predict_request,
    encode_reply,
    read_message,
    recv_control_reply,
    recv_message,
    recv_reply,
    replace_request_id,
    send_message,
    write_message,
)

__all__ = [
    "AdmissionBudget",
    "BackendFailedError",
    "BackgroundServer",
    "BadRequestError",
    "BatchingQueue",
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "BinaryControlRequest",
    "BinaryProtocolError",
    "BinaryReply",
    "BinaryRequest",
    "CanaryPolicy",
    "DivergenceStore",
    "FrameServer",
    "LifecycleLog",
    "HttpMetricsListener",
    "InferenceServer",
    "MAX_MESSAGE_BYTES",
    "ModelNotFoundError",
    "ModelRegistry",
    "ProtocolError",
    "RawBinaryReply",
    "Rebalancer",
    "RegisteredModel",
    "RetryPolicy",
    "RouterServer",
    "ServerOverloadedError",
    "ServerStats",
    "ServerUnavailableError",
    "ServingClient",
    "ServingError",
    "StaleConnectionError",
    "WIRE_ERROR_TYPES",
    "decode_control_reply",
    "decode_reply",
    "encode_control_reply",
    "encode_control_request",
    "encode_message",
    "encode_predict_request",
    "encode_reply",
    "read_message",
    "recv_control_reply",
    "recv_message",
    "recv_reply",
    "render_stats_text",
    "replace_request_id",
    "send_message",
    "write_message",
]
