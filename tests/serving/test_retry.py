"""RetryPolicy tests: the backoff schedule, and a client against flaky servers.

The fakes exercise exactly the two opt-in retry surfaces: a listener that
only starts accepting after the client's first connect attempts have been
refused, and a protocol-speaking server that sheds the first requests with
the typed ``overloaded`` error before serving.
"""

import socket
import threading

import numpy as np
import pytest

from repro.serving import (
    RetryPolicy,
    ServerOverloadedError,
    ServingClient,
    ServingError,
)
from repro.serving.transport import recv_message, send_message


class TestRetryPolicySchedule:
    def test_deterministic_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5,
            jitter=0.0,
        )
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_jitter_bounds_and_seed(self):
        policy = RetryPolicy(
            max_attempts=9, base_delay=0.1, multiplier=1.0, jitter=0.5, seed=3
        )
        delays = list(policy.delays())
        assert len(delays) == 8
        assert all(0.05 <= d <= 0.15 for d in delays)
        assert list(policy.delays()) == delays  # seeded: reproducible
        assert len(set(delays)) > 1  # but actually jittered

    def test_call_retries_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.01, jitter=0.0, sleep=sleeps.append
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ServerOverloadedError("busy")
            return "served"

        assert policy.call(flaky, retry_on=(ServerOverloadedError,)) == "served"
        assert len(attempts) == 3
        assert sleeps == pytest.approx([0.01, 0.02])

    def test_call_exhausts_attempts_with_the_typed_error(self):
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.0, jitter=0.0, sleep=lambda _: None
        )
        attempts = []

        def always_busy():
            attempts.append(1)
            raise ServerOverloadedError("still busy")

        with pytest.raises(ServerOverloadedError, match="still busy"):
            policy.call(always_busy, retry_on=(ServerOverloadedError,))
        assert len(attempts) == 3

    def test_unlisted_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda _: None)
        attempts = []

        def bad():
            attempts.append(1)
            raise ServingError("model exploded")

        with pytest.raises(ServingError):
            policy.call(bad, retry_on=(ServerOverloadedError,))
        assert len(attempts) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class _LateListener:
    """A fake server whose listener only appears after N connect failures.

    The port is reserved up front (bound, then closed) so refused connects
    are deterministic; the policy's ``sleep`` hook doubles as the trigger
    that finally starts accepting.
    """

    def __init__(self, failures_before_up: int) -> None:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        self.address = probe.getsockname()
        probe.close()
        self._remaining = failures_before_up
        self._server: socket.socket = None
        self.sleeps = []

    def sleep_hook(self, delay: float) -> None:
        self.sleeps.append(delay)
        self._remaining -= 1
        if self._remaining <= 0 and self._server is None:
            self._server = socket.socket()
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind(self.address)
            self._server.listen(4)

    def close(self) -> None:
        if self._server is not None:
            self._server.close()


class TestConnectRetries:
    def test_client_connects_once_the_listener_appears(self):
        listener = _LateListener(failures_before_up=2)
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.001, jitter=0.0,
            sleep=listener.sleep_hook,
        )
        try:
            client = ServingClient(*listener.address, retry=policy)
            client.close()
        finally:
            listener.close()
        assert len(listener.sleeps) == 2  # two refusals, then connected

    def test_connect_gives_up_after_max_attempts(self):
        listener = _LateListener(failures_before_up=99)  # never comes up
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.001, jitter=0.0,
            sleep=listener.sleep_hook,
        )
        with pytest.raises(OSError):
            ServingClient(*listener.address, retry=policy)
        assert len(listener.sleeps) == 2

    def test_no_policy_means_no_retry(self):
        listener = _LateListener(failures_before_up=1)
        with pytest.raises(OSError):
            ServingClient(*listener.address)
        assert listener.sleeps == []


class _SheddingServer:
    """A protocol-speaking fake that sheds the first ``n_sheds`` predicts."""

    def __init__(self, n_sheds: int) -> None:
        self._n_sheds = n_sheds
        self.requests_seen = 0
        self._server = socket.socket()
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(4)
        self.address = self._server.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._server.accept()
        except OSError:  # pragma: no cover - closed before a connect
            return
        with conn:
            while True:
                try:
                    request = recv_message(conn)
                except Exception:  # pragma: no cover - client hung up
                    return
                if request is None:
                    return
                self.requests_seen += 1
                if self.requests_seen <= self._n_sheds:
                    send_message(
                        conn,
                        {
                            "ok": False,
                            "error": {
                                "type": "overloaded",
                                "message": "fake shed",
                            },
                        },
                    )
                else:
                    k = len(request["features"])
                    send_message(conn, {"ok": True, "labels": [0] * k})

    def close(self) -> None:
        self._server.close()
        self._thread.join(timeout=5)


class TestShedRetries:
    def test_predict_retries_sheds_until_served(self):
        server = _SheddingServer(n_sheds=2)
        sleeps = []
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.001, jitter=0.0, sleep=sleeps.append
        )
        try:
            with ServingClient(*server.address, retry=policy) as client:
                labels = client.predict(np.ones((2, 4), dtype=np.uint8))
        finally:
            server.close()
        np.testing.assert_array_equal(labels, [0, 0])
        assert server.requests_seen == 3  # two sheds + the served retry
        assert len(sleeps) == 2

    def test_predict_raises_after_exhausting_retries(self):
        server = _SheddingServer(n_sheds=99)
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.001, jitter=0.0, sleep=lambda _: None
        )
        try:
            with ServingClient(*server.address, retry=policy) as client:
                with pytest.raises(ServerOverloadedError):
                    client.predict(np.ones((1, 4), dtype=np.uint8))
        finally:
            server.close()
        assert server.requests_seen == 3

    def test_without_policy_shed_is_immediate(self):
        server = _SheddingServer(n_sheds=1)
        try:
            with ServingClient(*server.address) as client:
                with pytest.raises(ServerOverloadedError):
                    client.predict(np.ones((1, 4), dtype=np.uint8))
        finally:
            server.close()
        assert server.requests_seen == 1
