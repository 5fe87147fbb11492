"""Print, byte for byte, what a server answers on every surface it shares.

Report only.  An ``InferenceServer`` hosting two models (``clf``, a small
``PoETBiNClassifier`` registered with ``model=``, and ``fn``, an explicit
``scores_fn``) and a ``RouterServer`` in front of it, both with
``http_port=0``.  First each server's ``ping``, ``stats``, ``stats_text``,
``list_models`` and an unknown op on both wires (a JSON frame and a binary
OP_CONTROL frame), ``GET /metrics``, ``GET /healthz``, a ``404``, a
``405`` and a ``HEAD``; then one predict per model on both wires through
each; then, router first, the ``drain`` op, ``/healthz`` and ``ping``
while draining and the refused predicts.  No predict runs before the
``stats`` ops, so every latency reads 0.  Each exchange is one fresh
connection read to EOF; bound ports are printed as ``<port>``, nothing
else is rewritten.

Run it on two checkouts and compare::

    PYTHONPATH=src python examples/wire_parity.py > new.txt
    (cd <other checkout> && PYTHONPATH=src python <this checkout>/examples/wire_parity.py) > old.txt
    diff old.txt new.txt && echo identical
"""

import socket

import numpy as np

from repro.core import PoETBiNClassifier
from repro.engine import pack_bits
from repro.serving import BackgroundServer, InferenceServer, RouterServer
from repro.serving.transport import (
    encode_control_request,
    encode_message,
    encode_predict_request,
)
from repro.utils.rng import as_rng

N_FEATURES = 16


def _classifier() -> PoETBiNClassifier:
    rng = as_rng(0)
    X = (rng.random((200, N_FEATURES)) < 0.5).astype(np.uint8)
    targets = np.stack(
        [X[:, [j, j + 1, j + 2]].sum(axis=1) >= 2 for j in range(4)], axis=1
    ).astype(np.uint8)
    y = np.argmax(targets.reshape(200, 2, 2).sum(axis=2), axis=1)
    return PoETBiNClassifier(
        n_classes=2,
        n_inputs=3,
        n_levels=1,
        branching=(2,),
        intermediate_per_class=2,
        output_epochs=2,
        seed=0,
    ).fit(X, targets, y)


def _exchange(address, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection, half-close, read to EOF."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _http(method: str, path: str) -> bytes:
    return f"{method} {path} HTTP/1.0\r\nHost: parity\r\n\r\n".encode()


class _Reporter:
    """Prints one server's answers, its bound ports masked."""

    def __init__(self, name, address, http_address, ports):
        self.name = name
        self.address = address
        self.http_address = http_address
        self.ports = ports

    def show(self, label: str, answer: bytes) -> None:
        for port in self.ports:
            answer = answer.replace(b":%d" % port, b":<port>")
        print(f"{self.name} {label} {answer!r}")

    def ops(self, ops, phase=""):
        for op in ops:
            for wire, frame in (
                ("json", encode_message(op)),
                ("binary", encode_control_request(op, request_id=7)),
            ):
                self.show(f"{phase}{wire} {op}", _exchange(self.address, frame))

    def http(self, method, path, phase=""):
        self.show(
            f"{phase}http {method} {path}",
            _exchange(self.http_address, _http(method, path)),
        )

    def predicts(self, phase=""):
        rows = np.array([[1, 0] * 8, [0, 1] * 8, [1] * 16], dtype=np.uint8)
        for model in ("clf", "fn"):
            json_frame = encode_message(
                {"op": "predict", "id": 3, "model": model,
                 "features": rows.tolist()}
            )
            binary_frame = encode_predict_request(
                pack_bits(rows), len(rows), model=model,
                return_scores=model == "fn", request_id=9,
            )
            for wire, frame in (("json", json_frame), ("binary", binary_frame)):
                self.show(
                    f"{phase}{wire} predict {model}",
                    _exchange(self.address, frame),
                )


def _report(servers) -> None:
    # every stats read comes before the first predict: latencies read 0
    for server in servers:
        server.ops(
            [
                {"op": "ping"},
                {"op": "stats"},
                {"op": "stats", "model": "fn"},
                {"op": "stats_text"},
                {"op": "list_models"},
                {"op": "no_such_op"},
            ]
        )
        for method, path in (
            ("GET", "/metrics"),
            ("GET", "/healthz"),
            ("GET", "/nope"),
            ("POST", "/metrics"),
            ("HEAD", "/healthz"),
        ):
            server.http(method, path)
    for server in servers:
        server.predicts()
    for server in servers:
        server.ops([{"op": "drain"}])
        server.http("GET", "/healthz", phase="draining ")
        server.ops([{"op": "ping"}], phase="draining ")
        server.predicts(phase="draining ")


def main() -> None:
    backend = InferenceServer(max_batch=8, max_wait_us=500, http_port=0)
    backend.register_model("clf", model=_classifier(), backend="numpy")
    backend.register_model(
        "fn",
        scores_fn=lambda X: np.asarray(X, dtype=np.float64)[:, :4] * 0.5,
    )
    with BackgroundServer(backend) as backend_handle:
        router = RouterServer(
            {"clf": [backend_handle.address], "fn": [backend_handle.address]},
            http_port=0,
            health_interval=0,
        )
        with BackgroundServer(router) as router_handle:
            ports = [
                backend.port, backend.http_port, router.port, router.http_port
            ]
            _report(
                [
                    _Reporter(name, (server.host, server.port),
                              (server.host, server.http_port), ports)
                    for name, server in (("router", router), ("backend", backend))
                ]
            )


if __name__ == "__main__":
    main()
