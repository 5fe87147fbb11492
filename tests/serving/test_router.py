"""Cluster router: balancing, failover, health lifecycle, rebalancing.

Everything here runs router and backends in one event loop (the
process-boundary version lives in ``benchmarks/test_router_throughput.py``);
backends are real :class:`~repro.serving.server.InferenceServer` instances
except in the failure-path tests, where a scripted asyncio server plays a
backend that dies mid-request or sheds on cue.  The three
:class:`~repro.serving.retry.RetryPolicy` failover paths each get their own
test: connect-refused → next endpoint, shed → bounded backoff, drain →
immediate re-route with no backoff at all.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.engine import pack_bits
from repro.serving import InferenceServer, RetryPolicy, RouterServer
from repro.serving.transport import (
    encode_message,
    read_message,
    write_message,
)
from repro.serving.router import _BackendLink
from repro.serving.transport import (
    decode_reply,
    encode_predict_request,
    read_reply_frame,
)

N_FEATURES = 8


def _popcount_fn(X):
    return np.asarray(X, dtype=np.int64).sum(axis=1) % 3


def _expected(rows):
    return _popcount_fn(np.asarray(rows))


def _counting_fn(calls):
    def batch_fn(X):
        calls.append(X.shape[0])
        return _popcount_fn(X)

    return batch_fn


async def _backend(calls=None, **kwargs):
    kwargs.setdefault("max_batch", 16)
    kwargs.setdefault("max_wait_us", 1_000)
    kwargs.setdefault("max_queue", 4096)
    srv = InferenceServer(**kwargs)
    fn = _counting_fn(calls) if calls is not None else _popcount_fn
    srv.register_model("m", fn)
    await srv.start()
    return srv


def _router(backends, **kwargs):
    kwargs.setdefault("health_interval", 0)  # deterministic: no health loop
    kwargs.setdefault("retry", None)
    placement = {"m": [(b.host, b.port) for b in backends]}
    return RouterServer(placement, **kwargs)


async def _request(address, payload):
    reader, writer = await asyncio.open_connection(*address)
    try:
        await write_message(writer, payload)
        return await read_message(reader)
    finally:
        writer.close()
        await writer.wait_closed()


def _dead_endpoint():
    """A (host, port) that refuses connections."""
    probe = socket.create_server(("127.0.0.1", 0))
    endpoint = probe.getsockname()
    probe.close()
    return endpoint


class _ScriptedBackend:
    """An asyncio fake backend whose per-connection behaviour we script."""

    def __init__(self, conn_script):
        self._script = conn_script
        self._server = None
        self.host = self.port = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self

    async def _handle(self, reader, writer):
        try:
            await self._script(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()


class TestRouting:
    def test_json_predict_is_bit_exact_and_keeps_the_client_id(self):
        rows = [[1, 0, 1, 0, 1, 1, 0, 0], [0] * N_FEATURES]

        async def drive():
            backend = await _backend()
            router = _router([backend])
            address = await router.start()
            try:
                tagged = await _request(
                    address,
                    {"op": "predict", "id": 77, "features": rows},
                )
                untagged = await _request(
                    address, {"op": "predict", "features": rows}
                )
                return tagged, untagged
            finally:
                await router.stop()
                await backend.stop()

        tagged, untagged = asyncio.run(drive())
        assert tagged["ok"], tagged
        assert tagged["id"] == 77  # the client's id, not the router's
        np.testing.assert_array_equal(tagged["labels"], _expected(rows))
        assert untagged["ok"] and "id" not in untagged

    def test_binary_predict_forwards_raw_frame_with_client_id(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, size=(5, N_FEATURES)).astype(np.uint8)

        async def drive():
            backend = await _backend()
            router = _router([backend])
            address = await router.start()
            try:
                reader, writer = await asyncio.open_connection(*address)
                try:
                    writer.write(
                        encode_predict_request(
                            pack_bits(rows),
                            rows.shape[0],
                            model="m",
                            request_id=0xDEADBEEF,
                        )
                    )
                    await writer.drain()
                    return await read_reply_frame(reader)
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await router.stop()
                await backend.stop()

        reply = asyncio.run(drive())
        decoded = decode_reply(reply.frame)
        assert decoded.request_id == 0xDEADBEEF
        np.testing.assert_array_equal(decoded.labels, _expected(rows))

    def test_unknown_model_is_model_not_found(self):
        async def drive():
            backend = await _backend()
            router = _router([backend])
            address = await router.start()
            try:
                return await _request(
                    address,
                    {
                        "op": "predict",
                        "model": "nope",
                        "features": [[1] * N_FEATURES],
                    },
                )
            finally:
                await router.stop()
                await backend.stop()

        response = asyncio.run(drive())
        assert response["error"]["type"] == "model_not_found"

    def test_version_pin_routes_by_family_and_is_forwarded(self):
        """``m@2`` has no placement entry of its own: the router routes it
        by the family ``m`` and forwards the pin untouched, so the backend
        answers with the pinned standby version."""

        def v2_fn(X):
            return (np.asarray(X, dtype=np.int64).sum(axis=1) + 1) % 3

        async def drive():
            backend = await _backend()
            backend.register_model("m", v2_fn, version=2)
            router = _router([backend])
            address = await router.start()
            rows = [[1, 0, 1, 0, 1, 0, 1, 0], [1] * N_FEATURES]
            try:
                pinned = await _request(
                    address,
                    {"op": "predict", "model": "m@2", "features": rows},
                )
                primary = await _request(
                    address,
                    {"op": "predict", "model": "m", "features": rows},
                )
                ghost = await _request(
                    address,
                    {"op": "predict", "model": "ghost@2", "features": rows},
                )
                return pinned, primary, ghost, rows
            finally:
                await router.stop()
                await backend.stop()

        pinned, primary, ghost, rows = asyncio.run(drive())
        assert pinned["ok"], pinned
        X = np.asarray(rows)
        assert pinned["labels"] == v2_fn(X).tolist()
        assert primary["labels"] == _expected(rows).tolist()
        # the family fallback only applies to names the router places
        assert ghost["error"]["type"] == "model_not_found"

    def test_load_spreads_across_replicas(self):
        """Concurrent requests land on both replicas, not just the first."""
        calls_a, calls_b = [], []

        async def drive():
            a = await _backend(calls_a, max_wait_us=20_000, max_batch=4)
            b = await _backend(calls_b, max_wait_us=20_000, max_batch=4)
            router = _router([a, b])
            address = await router.start()
            try:
                reader, writer = await asyncio.open_connection(*address)
                try:
                    for i in range(16):
                        await write_message(
                            writer,
                            {
                                "op": "predict",
                                "id": i,
                                "features": [[1] * N_FEATURES],
                            },
                        )
                    for _ in range(16):
                        response = await read_message(reader)
                        assert response["ok"], response
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await router.stop()
                await a.stop()
                await b.stop()

        asyncio.run(drive())
        # least-outstanding balancing: with 16 pipelined requests and
        # max_batch=4 both replicas must take real work
        assert sum(calls_a) > 0 and sum(calls_b) > 0
        assert sum(calls_a) + sum(calls_b) == 16

    def test_router_ops(self):
        async def drive():
            backend = await _backend()
            router = _router([backend])
            address = await router.start()
            try:
                ping = await _request(address, {"op": "ping"})
                stats = await _request(address, {"op": "stats"})
                models = await _request(address, {"op": "list_models"})
                return ping, stats, models, backend
            finally:
                await router.stop()
                await backend.stop()

        ping, stats, models, backend = asyncio.run(drive())
        assert ping == {"ok": True, "state": "serving", "role": "router"}
        assert stats["router"]["models"] == {
            "m": [f"{backend.host}:{backend.port}"]
        }
        assert models["models"][0]["name"] == "m"


class TestFailover:
    """The three RetryPolicy failover paths, one test each."""

    def test_connect_refused_fails_over_to_next_endpoint(self):
        rows = [[1] * N_FEATURES]

        async def drive():
            backend = await _backend()
            dead = _dead_endpoint()
            router = RouterServer(
                {"m": [dead, (backend.host, backend.port)]},
                health_interval=0,
                retry=None,
                connect_timeout=0.5,
            )
            address = await router.start()
            try:
                response = await _request(
                    address, {"op": "predict", "features": rows}
                )
                return response, router.snapshot()
            finally:
                await router.stop()
                await backend.stop()

        response, snapshot = asyncio.run(drive())
        assert response["ok"], response
        np.testing.assert_array_equal(response["labels"], _expected(rows))
        dead_entry, live_entry = snapshot["backends"]
        assert dead_entry["state"] == "ejected"
        assert dead_entry["ejections"] == 1
        assert live_entry["state"] == "healthy"
        assert snapshot["failovers"] == 1

    def test_backend_dying_mid_request_fails_over(self):
        """A backend that reads the request then drops the connection."""
        rows = [[0, 1, 0, 1, 0, 1, 0, 1]]

        async def killer(reader, writer):
            await read_message(reader)  # swallow the predict, say nothing
            writer.close()

        async def drive():
            flaky = await _ScriptedBackend(killer).start()
            backend = await _backend()
            router = RouterServer(
                {
                    "m": [
                        (flaky.host, flaky.port),
                        (backend.host, backend.port),
                    ]
                },
                health_interval=0,
                retry=None,
            )
            address = await router.start()
            try:
                response = await _request(
                    address, {"op": "predict", "features": rows}
                )
                return response, router.snapshot()
            finally:
                await router.stop()
                await flaky.stop()
                await backend.stop()

        response, snapshot = asyncio.run(drive())
        assert response["ok"], response  # the client never saw the failure
        np.testing.assert_array_equal(response["labels"], _expected(rows))
        assert snapshot["failovers"] == 1
        assert snapshot["backends"][0]["state"] == "ejected"

    def test_backend_stalling_mid_request_fails_over(self):
        """A backend that reads the request and never answers: past
        ``request_timeout`` the router ejects it and the other replica
        answers the client."""
        rows = [[1, 1, 0, 1, 0, 0, 0, 1]]

        async def staller(reader, writer):
            await read_message(reader)  # swallow the predict, say nothing
            await reader.read()  # until the router hangs up

        async def drive():
            stalled = await _ScriptedBackend(staller).start()
            backend = await _backend()
            router = RouterServer(
                {
                    "m": [
                        (stalled.host, stalled.port),
                        (backend.host, backend.port),
                    ]
                },
                health_interval=0,
                retry=None,
                request_timeout=0.3,
            )
            address = await router.start()
            try:
                response = await _request(
                    address, {"op": "predict", "id": 7, "features": rows}
                )
                return response, router.snapshot()
            finally:
                await router.stop()
                await stalled.stop()
                await backend.stop()

        response, snapshot = asyncio.run(drive())
        assert response["ok"], response
        assert response["id"] == 7
        np.testing.assert_array_equal(response["labels"], _expected(rows))
        assert snapshot["failovers"] == 1
        stalled_entry, live_entry = snapshot["backends"]
        assert (stalled_entry["state"], stalled_entry["ejections"]) == ("ejected", 1)
        assert stalled_entry["forwarded"] == 0
        assert (live_entry["state"], live_entry["forwarded"]) == ("healthy", 1)

    def test_drain_503_reroutes_immediately_without_backoff(self):
        """A draining backend's typed unavailable is a re-route signal, not
        a retry-with-backoff — retry=None proves no backoff is consumed."""
        rows = [[1, 1, 1, 1, 0, 0, 0, 0]]

        async def drive():
            draining = await _backend()
            await draining.drain()
            backend = await _backend()
            router = RouterServer(
                {
                    "m": [
                        (draining.host, draining.port),
                        (backend.host, backend.port),
                    ]
                },
                health_interval=0,
                retry=None,
            )
            address = await router.start()
            try:
                response = await _request(
                    address, {"op": "predict", "features": rows}
                )
                return response, router.snapshot()
            finally:
                await router.stop()
                await draining.stop()
                await backend.stop()

        response, snapshot = asyncio.run(drive())
        assert response["ok"], response
        np.testing.assert_array_equal(response["labels"], _expected(rows))
        # the draining replica is parked for the health loop, not ejected
        assert snapshot["backends"][0]["state"] == "draining"
        assert snapshot["backends"][0]["ejections"] == 0
        assert snapshot["failovers"] == 1

    def test_shed_backs_off_and_retries_under_the_policy(self):
        """Every replica shedding means the cluster is saturated: back off,
        then re-pass.  The scripted backend sheds once, then serves."""
        rows = [[1, 0, 0, 0, 0, 0, 0, 1]]
        sheds = []

        async def shed_then_serve(reader, writer):
            while True:
                request = await read_message(reader)
                if request is None:
                    return
                if not sheds:
                    sheds.append(1)
                    await write_message(
                        writer,
                        {
                            "ok": False,
                            "id": request.get("id"),
                            "error": {
                                "type": "overloaded",
                                "message": "scripted shed",
                            },
                        },
                    )
                    continue
                await write_message(
                    writer,
                    {
                        "ok": True,
                        "id": request.get("id"),
                        "labels": _expected(request["features"]).tolist(),
                    },
                )

        async def drive():
            flaky = await _ScriptedBackend(shed_then_serve).start()
            router = RouterServer(
                {"m": [(flaky.host, flaky.port)]},
                health_interval=0,
                retry=RetryPolicy(
                    max_attempts=2, base_delay=0.001, jitter=0.0
                ),
            )
            address = await router.start()
            try:
                return await _request(
                    address, {"op": "predict", "features": rows}
                )
            finally:
                await router.stop()
                await flaky.stop()

        response = asyncio.run(drive())
        assert response["ok"], response
        np.testing.assert_array_equal(response["labels"], _expected(rows))
        assert sheds == [1]  # the first pass really was shed

    def test_shed_without_retry_policy_reaches_the_client(self):
        async def always_shed(reader, writer):
            while True:
                request = await read_message(reader)
                if request is None:
                    return
                await write_message(
                    writer,
                    {
                        "ok": False,
                        "id": request.get("id"),
                        "error": {
                            "type": "overloaded",
                            "message": "scripted shed",
                        },
                    },
                )

        async def drive():
            flaky = await _ScriptedBackend(always_shed).start()
            router = RouterServer(
                {"m": [(flaky.host, flaky.port)]},
                health_interval=0,
                retry=None,
            )
            address = await router.start()
            try:
                return await _request(
                    address,
                    {"op": "predict", "features": [[1] * N_FEATURES]},
                )
            finally:
                await router.stop()
                await flaky.stop()

        response = asyncio.run(drive())
        assert response["error"]["type"] == "overloaded"

    def test_no_routable_replica_is_typed_unavailable(self):
        async def drive():
            dead = _dead_endpoint()
            router = RouterServer(
                {"m": [dead]},
                health_interval=0,
                retry=None,
                connect_timeout=0.5,
            )
            address = await router.start()
            try:
                return await _request(
                    address,
                    {"op": "predict", "features": [[1] * N_FEATURES]},
                )
            finally:
                await router.stop()

        response = asyncio.run(drive())
        assert response["error"]["type"] == "unavailable"
        assert "no routable replica" in response["error"]["message"]


class TestHealthChecks:
    def test_dead_backend_is_ejected_by_the_probe(self):
        async def drive():
            backend = await _backend()
            router = _router([backend])
            await router.start()
            try:
                await backend.stop()  # the box goes away
                await router.check_health_once()
                return router.snapshot()
            finally:
                await router.stop()

        snapshot = asyncio.run(drive())
        assert snapshot["backends"][0]["state"] == "ejected"

    def test_draining_backend_is_parked_not_ejected(self):
        async def drive():
            backend = await _backend()
            router = _router([backend])
            await router.start()
            try:
                await backend.drain()
                await router.check_health_once()
                return router.snapshot()
            finally:
                await router.stop()
                await backend.stop()

        snapshot = asyncio.run(drive())
        assert snapshot["backends"][0]["state"] == "draining"
        assert snapshot["backends"][0]["ejections"] == 0

    def test_reinstatement_needs_consecutive_probe_successes(self):
        async def drive():
            backend = await _backend()
            router = _router([backend], reinstate_after=2)
            await router.start()
            try:
                (link,) = router.links()
                link.eject("test-forced ejection")
                states = [link.state]
                await router.check_health_once()  # success 1 of 2
                states.append(link.state)
                await router.check_health_once()  # success 2 of 2
                states.append(link.state)
                return states
            finally:
                await router.stop()
                await backend.stop()

        assert asyncio.run(drive()) == [
            _BackendLink.EJECTED,
            _BackendLink.EJECTED,
            _BackendLink.HEALTHY,
        ]


class TestRebalancer:
    def test_traffic_skew_shifts_admission_weights(self):
        """Traffic on alpha only → alpha's weight grows, and the pushed
        weights land in each backend's live AdmissionBudget."""

        async def drive():
            srv = InferenceServer(
                max_batch=16,
                max_wait_us=1_000,
                max_queue=4096,
                max_total_queue=1024,
            )
            srv.register_model("alpha", _popcount_fn)
            srv.register_model("beta", _popcount_fn)
            await srv.start()
            router = RouterServer(
                {
                    "alpha": [(srv.host, srv.port)],
                    "beta": [(srv.host, srv.port)],
                },
                health_interval=0,
                retry=None,
            )
            address = await router.start()
            try:
                for _ in range(10):
                    response = await _request(
                        address,
                        {
                            "op": "predict",
                            "model": "alpha",
                            "features": [[1] * N_FEATURES] * 8,
                        },
                    )
                    assert response["ok"], response
                weights = await router.rebalance_once()
                return weights, srv._registry.budget.weights
            finally:
                await router.stop()
                await srv.stop()

        weights, budget_weights = asyncio.run(drive())
        assert set(weights) == {"alpha", "beta"}
        assert weights["alpha"] > weights["beta"]
        assert weights["alpha"] + weights["beta"] == pytest.approx(1.0)
        # the push really re-partitioned the backend's shared budget
        assert budget_weights == pytest.approx(weights)

    def test_no_traffic_splits_evenly(self):
        async def drive():
            srv = InferenceServer(
                max_batch=8,
                max_wait_us=500,
                max_queue=256,
                max_total_queue=256,
            )
            srv.register_model("alpha", _popcount_fn)
            srv.register_model("beta", _popcount_fn)
            await srv.start()
            router = RouterServer(
                {
                    "alpha": [(srv.host, srv.port)],
                    "beta": [(srv.host, srv.port)],
                },
                health_interval=0,
            )
            await router.start()
            try:
                return await router.rebalance_once()
            finally:
                await router.stop()
                await srv.stop()

        weights = asyncio.run(drive())
        assert weights["alpha"] == pytest.approx(weights["beta"])
