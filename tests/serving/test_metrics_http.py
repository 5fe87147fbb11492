"""The ``/metrics`` + ``/healthz`` listener under arbitrary request bytes.

Whatever a peer sends before half-closing, it gets one ``HTTP/1.0
<status>`` response or a clean close: never a hang, never an error on the
``asyncio`` logger.  A request line longer than
:data:`~repro.serving.metrics_http.MAX_REQUEST_BYTES` is hung up on, and so
is a peer that has not sent its request by
:data:`~repro.serving.metrics_http.REQUEST_DEADLINE_S`.
"""

import asyncio
import logging
import re
import socket
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import BackgroundServer, InferenceServer
from repro.serving import metrics_http
from repro.serving.metrics_http import MAX_REQUEST_BYTES

_STATUS_LINE = re.compile(rb"HTTP/1\.0 (200|400|404|405|503) [A-Za-z ]+\r\n")


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(scope="module")
def http_address():
    """One server's HTTP listener for the whole module; nothing may reach
    the ``asyncio`` logger while it runs."""
    logger = logging.getLogger("asyncio")
    records = _Records()
    logger.addHandler(records)
    srv = InferenceServer(http_port=0)
    srv.register_model(
        "default", lambda X: np.asarray(X).sum(axis=1).astype(np.int64)
    )
    try:
        with BackgroundServer(srv):
            yield srv.http_address
    finally:
        logger.removeHandler(records)
    assert not records.messages, records.messages[:3]


def _exchange(address, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the listener closes; a
    listener that neither answers nor closes fails on the timeout."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


_TOKENS = st.sampled_from(
    [b"GET", b"HEAD", b"POST", b"get", b"", b"/metrics", b"/healthz",
     b"/metrics?x=1", b"/", b"*", b"HTTP/1.1", b"HTTP/1.0", b"\x00", b"\xff"]
)
_LINES = st.lists(
    st.one_of(_TOKENS, st.binary(max_size=40)), max_size=4
).map(b" ".join)
_REQUESTS = st.one_of(
    st.binary(max_size=4096),
    st.lists(
        st.tuples(_LINES, st.sampled_from([b"\r\n", b"\n", b"\r", b""])),
        max_size=6,
    ).map(lambda lines: b"".join(line + end for line, end in lines)),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_REQUESTS)
@example(b"")
@example(b"\r\n")
@example(b"GET /metrics HTTP/1.0\r\n\r\n")
@example(b"HEAD /healthz HTTP/1.0\r\n\r\n")
@example(b"GET /healthz")  # no line end before the half-close
@example(b"GET\r\n\r\n")
@example(b"GET /metrics HTTP/1.0\r\nHost: x\r\n")  # headers never end
def test_any_bytes_get_a_status_line_or_a_clean_close(http_address, data):
    response = _exchange(http_address, data)
    if not response:
        return
    assert _STATUS_LINE.match(response), response[:80]
    head, separator, body = response.partition(b"\r\n\r\n")
    assert separator, response[:80]
    length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head + b"\r\n")[1])
    assert len(body) in (0, length)  # HEAD answers headers only


def test_a_request_line_past_the_bound_is_hung_up_on(http_address):
    path = b"/" + b"a" * (20 * 1024)
    assert len(path) > MAX_REQUEST_BYTES
    assert _exchange(http_address, b"GET " + path + b" HTTP/1.0\r\n\r\n") == b""


def test_a_header_section_past_the_bound_is_still_answered(http_address):
    headers = b"".join(b"X-Pad-%d: %s\r\n" % (i, b"p" * 1000) for i in range(20))
    assert len(headers) > MAX_REQUEST_BYTES
    response = _exchange(
        http_address, b"GET /healthz HTTP/1.0\r\n" + headers + b"\r\n"
    )
    assert response.startswith(b"HTTP/1.0 200 OK\r\n")
    assert response.endswith(b"\r\n\r\nok\n")


@pytest.fixture()
def deadline_listener(monkeypatch):
    """``(http_address, handle, records)``: a listener whose request
    deadline is patched to 0.5 s, with the ``asyncio`` logger recorded."""
    monkeypatch.setattr(metrics_http, "REQUEST_DEADLINE_S", 0.5)
    logger = logging.getLogger("asyncio")
    records = _Records()
    logger.addHandler(records)
    srv = InferenceServer(http_port=0)
    srv.register_model(
        "default", lambda X: np.asarray(X).sum(axis=1).astype(np.int64)
    )
    try:
        with BackgroundServer(srv) as handle:
            yield srv.http_address, handle, records
    finally:
        logger.removeHandler(records)


def _handlers(handle):
    """The listener's live connection-handler tasks on the server loop."""

    async def on_loop():
        return [
            task
            for task in asyncio.all_tasks()
            if task.get_coro().__qualname__ == "HttpMetricsListener._handle"
        ]

    return handle.run(on_loop())


@pytest.mark.parametrize(
    "sent",
    [b"GET /metr", b"GET /metrics HTTP/1.0\r\nHost: x\r\n", b""],
    ids=["partial-request-line", "partial-headers", "nothing"],
)
def test_a_stalled_request_is_hung_up_on(deadline_listener, sent):
    """A peer that stops short of a whole request, without half-closing,
    is closed once the deadline passes: no answer, no handler task left,
    nothing on the ``asyncio`` logger."""
    address, handle, records = deadline_listener
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(sent)
        assert sock.recv(65536) == b""  # closed, not answered
    deadline = time.monotonic() + 5
    while _handlers(handle) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _handlers(handle) == []
    assert not records.messages, records.messages[:3]


def test_a_slow_request_inside_the_deadline_is_answered(deadline_listener):
    address, _handle, records = deadline_listener
    with socket.create_connection(address, timeout=5) as sock:
        for part in (b"GET /healthz HTTP/1.0\r\n", b"Host: x\r\n", b"\r\n"):
            sock.sendall(part)
            time.sleep(0.1)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    assert response.startswith(b"HTTP/1.0 200 OK\r\n")
    assert response.endswith(b"\r\n\r\nok\n")
    assert not records.messages, records.messages[:3]
