"""Regression tests for ServingClient's stream discipline.

Pre-PR, a request that timed out (or died mid-frame) left the reply bytes
in the socket buffer; the *next* request on the same client would read the
stale reply as its own — silently wrong answers, off by one forever after.
These tests pin the fix: the first timeout / protocol error / mid-frame
connection failure marks the client dead, and every later call raises the
typed :class:`~repro.serving.client.StaleConnectionError` instead of
desyncing.
"""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.serving import (
    BackgroundServer,
    InferenceServer,
    ProtocolError,
    ServingClient,
    ServingError,
    StaleConnectionError,
    encode_message,
    recv_message,
    send_message,
)

N_FEATURES = 8


def _scores_fn(X):
    return np.asarray(X, dtype=np.float64) @ np.eye(N_FEATURES)


class _ScriptedServer:
    """A one-connection fake server whose replies we control byte-by-byte."""

    def __init__(self, conn_script):
        self._script = conn_script
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        try:
            self._script(conn)
        except OSError:
            pass  # the client hanging up mid-script is part of the tests
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class TestTimeoutDesync:
    def test_reuse_after_timeout_raises_stale_not_garbage(self):
        """The late reply must never be read as the next request's answer."""
        release = threading.Event()

        def script(conn):
            first = recv_message(conn)  # consume request 1, reply late
            release.wait(timeout=10)
            send_message(conn, {"ok": True, "labels": [41], "id": first.get("id")})
            recv_message(conn)  # drain whatever else arrives

        with _ScriptedServer(script) as server:
            client = ServingClient(*server.address, timeout=0.2)
            with pytest.raises(socket.timeout):
                client.predict(np.zeros((1, N_FEATURES), dtype=np.uint8))
            release.set()  # stale reply for request 1 lands in the buffer
            # pre-PR: this would read labels=[41] meant for the first request
            with pytest.raises(StaleConnectionError, match="half-consumed"):
                client.predict(np.ones((1, N_FEATURES), dtype=np.uint8))
            with pytest.raises(StaleConnectionError):
                client.ping()
            client.close()

    def test_binary_client_reuse_after_timeout_raises_stale(self):
        def script(conn):
            conn.recv(65536)  # swallow the frame, never answer
            threading.Event().wait(0.5)

        with _ScriptedServer(script) as server:
            client = ServingClient(*server.address, timeout=0.2, binary=True)
            with pytest.raises(socket.timeout):
                client.predict(np.zeros((1, N_FEATURES), dtype=np.uint8))
            with pytest.raises(StaleConnectionError):
                client.predict(np.zeros((1, N_FEATURES), dtype=np.uint8))
            client.close()


class TestMidFrameDeath:
    def test_half_frame_then_close_marks_dead(self):
        """A reply cut mid-frame is a ProtocolError; reuse is refused."""

        def script(conn):
            recv_message(conn)
            frame = encode_message({"ok": True, "labels": [1]})
            conn.sendall(frame[: len(frame) - 4])  # header + partial body

        with _ScriptedServer(script) as server:
            client = ServingClient(*server.address, timeout=2.0)
            with pytest.raises(ProtocolError, match="mid-message"):
                client.predict(np.zeros((1, N_FEATURES), dtype=np.uint8))
            with pytest.raises(StaleConnectionError):
                client.predict(np.zeros((1, N_FEATURES), dtype=np.uint8))
            client.close()

    def test_clean_close_marks_dead_with_connection_error(self):
        def script(conn):
            recv_message(conn)  # read the request, hang up without replying

        with _ScriptedServer(script) as server:
            client = ServingClient(*server.address, timeout=2.0)
            with pytest.raises(ConnectionError, match="closed"):
                client.predict(np.zeros((1, N_FEATURES), dtype=np.uint8))
            with pytest.raises(StaleConnectionError):
                client.ping()
            client.close()

    def test_oversized_length_header_marks_dead(self):
        def script(conn):
            recv_message(conn)
            conn.sendall(struct.pack(">I", 2**31))  # absurd frame length

        with _ScriptedServer(script) as server:
            client = ServingClient(*server.address, timeout=2.0)
            with pytest.raises(ProtocolError):
                client.ping()
            with pytest.raises(StaleConnectionError):
                client.ping()
            client.close()


class TestTypedErrorsDoNotKillTheConnection:
    def test_server_side_errors_leave_the_client_usable(self):
        """Complete error frames are consumed whole — no desync, no staleness."""
        server = InferenceServer(max_batch=8, max_wait_us=500, max_queue=64)
        server.register_model("default", scores_fn=_scores_fn)
        with BackgroundServer(server) as handle:
            with ServingClient(*handle.address) as client:
                with pytest.raises(ServingError):
                    client.stats(model="no-such-model")
                rows = np.eye(N_FEATURES, dtype=np.uint8)[:3]
                np.testing.assert_array_equal(
                    client.predict(rows), np.arange(3)
                )

    def test_binary_typed_error_leaves_the_client_usable(self):
        server = InferenceServer(max_batch=8, max_wait_us=500, max_queue=64)
        server.register_model("default", scores_fn=_scores_fn)
        with BackgroundServer(server) as handle:
            with ServingClient(*handle.address, binary=True) as client:
                with pytest.raises(ServingError):
                    client.predict(
                        np.zeros((1, N_FEATURES), dtype=np.uint8),
                        model="no-such-model",
                    )
                rows = np.eye(N_FEATURES, dtype=np.uint8)[:3]
                np.testing.assert_array_equal(
                    client.predict(rows), np.arange(3)
                )


class TestIdempotentClose:
    """The context-manager satellite: close() is idempotent and final."""

    @pytest.fixture()
    def server(self):
        srv = InferenceServer(max_batch=8, max_wait_us=500, max_queue=64)
        srv.register_model("default", scores_fn=_scores_fn)
        with BackgroundServer(srv) as handle:
            yield handle

    def test_close_twice_is_fine(self, server):
        client = ServingClient(*server.address)
        client.predict(np.ones((1, N_FEATURES), dtype=np.uint8))
        client.close()
        client.close()  # second close is a no-op, not an error
        assert client.closed

    def test_context_manager_then_explicit_close(self, server):
        with ServingClient(*server.address) as client:
            client.predict(np.ones((1, N_FEATURES), dtype=np.uint8))
            assert not client.closed
        assert client.closed
        client.close()  # closing an already-exited client is fine too

    def test_closed_client_refuses_work_with_typed_error(self, server):
        """A dead client is replaced, never resurrected: every call after
        close() fails fast instead of touching a dead socket."""
        client = ServingClient(*server.address)
        client.close()
        with pytest.raises(StaleConnectionError, match="closed"):
            client.predict(np.ones((1, N_FEATURES), dtype=np.uint8))
        with pytest.raises(StaleConnectionError, match="closed"):
            client.ping()
        with pytest.raises(StaleConnectionError, match="closed"):
            client.stats()
