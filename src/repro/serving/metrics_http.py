"""A native HTTP listener for operational endpoints: ``/metrics`` + ``/healthz``.

The Prometheus exposition rendering has existed since PR 5
(:func:`~repro.serving.stats.render_stats_text`), but scraping it required
a sidecar speaking the serving wire protocol.  This module is the missing
transport: a deliberately tiny asyncio HTTP/1.0-style server — request
line, headers, one response, close — because a scrape endpoint needs
nothing more (Prometheus is happy with ``Connection: close``), and pulling
in an HTTP framework for two GET routes would be all liability.

Routes:

``GET /metrics``
    The Prometheus exposition text (``text/plain; version=0.0.4``) from the
    ``render`` callable — the owning server's ``render_metrics``: every
    hosted model's stats snapshot on an
    :class:`~repro.serving.server.InferenceServer`, the per-backend
    counters on a :class:`~repro.serving.router.RouterServer`.

``GET /healthz``
    ``ok`` (200) while the owning server reports the ``serving`` state; any
    other state — ``draining`` above all — answers 503 with the state name
    as the body.  Load balancers and the cluster router key off exactly
    this flip to stop sending a draining box new work while its admitted
    requests finish.

Anything else is ``404``; non-GET/HEAD methods are ``405``; a malformed
request line is ``400``.  ``HEAD`` is honoured (headers only) since probes
sometimes use it.  The reader is bounded in size (:data:`MAX_REQUEST_BYTES`,
also the stream's line limit) so a hostile peer can feed neither an
unbounded request line (it is hung up on) nor an unbounded header section
(the rest is not read), and in time (:data:`REQUEST_DEADLINE_S`): a peer
that has not sent its request line and headers by then is hung up on, so
an idle or dribbling connection pins no socket and no handler task.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional, Tuple

__all__ = ["HttpMetricsListener", "MAX_REQUEST_BYTES", "REQUEST_DEADLINE_S"]

#: Upper bound on one request's line + header section.
MAX_REQUEST_BYTES = 16 * 1024
#: Seconds a peer has, from its connect, to send its request line and
#: headers.
REQUEST_DEADLINE_S = 10.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: the content type Prometheus expects from a scrape target
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _response(
    status: int,
    body: str,
    content_type: str = "text/plain; charset=utf-8",
    *,
    head_only: bool = False,
) -> bytes:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {_STATUS_TEXT[status]}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("ascii")
    return head if head_only else head + payload


class HttpMetricsListener:
    """Serve ``/metrics`` (and ``/healthz``) over plain HTTP.

    Parameters
    ----------
    render:
        Zero-argument callable returning the exposition text; called per
        scrape on the event loop (snapshotting is a few lock-guarded
        copies, cheap enough to stay inline).
    state:
        Zero-argument callable returning the owning server's lifecycle
        state; ``/healthz`` answers 200 only while it returns
        ``"serving"``, 503 otherwise.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from the
        :meth:`start` return value).
    """

    def __init__(
        self,
        render: Callable[[], str],
        state: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._render = render
        self._state = state
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("HTTP listener already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- handling
    def _respond_to(self, method: str, path: str, head_only: bool) -> bytes:
        path = path.split("?", 1)[0]
        if method not in ("GET", "HEAD"):
            return _response(405, "only GET is supported\n", head_only=head_only)
        if path == "/metrics":
            try:
                text = self._render()
            except Exception as error:  # noqa: BLE001 - surface, don't hang up
                return _response(
                    500, f"metrics rendering failed: {error}\n",
                    head_only=head_only,
                )
            return _response(
                200, text, METRICS_CONTENT_TYPE, head_only=head_only
            )
        if path == "/healthz":
            state = self._state()
            if state == "serving":
                return _response(200, "ok\n", head_only=head_only)
            return _response(503, f"{state}\n", head_only=head_only)
        return _response(
            404, "try /metrics or /healthz\n", head_only=head_only
        )

    async def _read_request(self, reader: asyncio.StreamReader) -> bytes:
        """Read one request — its line, then its (bounded) header section,
        which the routes need none of — and return the response; an empty
        one hangs up (the peer closed or flooded before a request line)."""
        try:
            request_line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return b""
        parts = request_line.decode("ascii", errors="replace").split()
        if len(parts) < 2:
            return _response(400, "malformed request line\n")
        consumed = len(request_line)
        while True:
            try:
                line = await reader.readuntil(b"\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                break
            consumed += len(line)
            if line == b"\r\n" or consumed > MAX_REQUEST_BYTES:
                break
        method = parts[0].upper()
        return self._respond_to(method, parts[1], method == "HEAD")

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                response = await asyncio.wait_for(
                    self._read_request(reader), REQUEST_DEADLINE_S
                )
            except asyncio.TimeoutError:
                return  # the request did not arrive in time: hang up
            if response:
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
