"""Server lifecycle: starting → serving → draining → stopped.

Drain is the graceful half of shutdown: admissions stop (typed
``unavailable`` on both wire protocols), everything admitted before the
flip still completes, control ops keep answering so the drain can be
observed, and ``/healthz`` flips to 503 so load balancers and the cluster
router route away.  These tests pin each of those promises, plus the
runtime admission-share knob (``set_admission_weights``) the rebalancer
pushes through the same wire.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.engine import pack_bits
from repro.serving import InferenceServer, RouterServer
from repro.serving.transport import decode_reply, encode_predict_request
from repro.serving.transport import read_message, write_message
from repro.serving.transport import read_reply_frame
from repro.serving.queue import ServerUnavailableError

N_FEATURES = 8


def _popcount_fn(X):
    return np.asarray(X, dtype=np.int64).sum(axis=1) % 3


def _server(**kwargs):
    kwargs.setdefault("max_batch", 16)
    kwargs.setdefault("max_wait_us", 1_000)
    kwargs.setdefault("max_queue", 256)
    srv = InferenceServer(**kwargs)
    srv.register_model("m", _popcount_fn)
    return srv


async def _request(address, payload):
    """One JSON request/response on a fresh connection."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        await write_message(writer, payload)
        return await read_message(reader)
    finally:
        writer.close()
        await writer.wait_closed()


class TestStates:
    def test_state_walk(self):
        async def drive():
            srv = _server()
            states = [srv.state]
            await srv.start()
            states.append(srv.state)
            await srv.drain()
            states.append(srv.state)
            await srv.stop()
            states.append(srv.state)
            return states

        assert asyncio.run(drive()) == [
            "starting",
            "serving",
            "draining",
            "stopped",
        ]

    def test_drain_is_idempotent(self):
        async def drive():
            srv = _server()
            await srv.start()
            try:
                await srv.drain()
                await srv.drain()  # second call is a no-op, not an error
                return srv.state
            finally:
                await srv.stop()

        assert asyncio.run(drive()) == "draining"

    def test_stop_without_drain_still_lands_stopped(self):
        async def drive():
            srv = _server()
            await srv.start()
            await srv.stop()
            return srv.state

        assert asyncio.run(drive()) == "stopped"


class TestDrainSemantics:
    def test_draining_rejects_json_predict_with_unavailable(self):
        async def drive():
            srv = _server()
            address = await srv.start()
            try:
                await srv.drain()
                return await _request(
                    address, {"op": "predict", "features": [[1] * N_FEATURES]}
                )
            finally:
                await srv.stop()

        response = asyncio.run(drive())
        assert response["ok"] is False
        assert response["error"]["type"] == "unavailable"
        assert "draining" in response["error"]["message"]

    def test_draining_rejects_binary_predict_with_unavailable(self):
        rows = np.ones((2, N_FEATURES), dtype=np.uint8)

        async def drive():
            srv = _server()
            address = await srv.start()
            try:
                await srv.drain()
                reader, writer = await asyncio.open_connection(*address)
                try:
                    writer.write(
                        encode_predict_request(
                            pack_bits(rows), 2, model="m", request_id=5
                        )
                    )
                    await writer.drain()
                    return await read_reply_frame(reader)
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await srv.stop()

        reply = asyncio.run(drive())
        assert reply.request_id == 5  # id echoed even on rejection
        assert reply.error_type == "unavailable"
        with pytest.raises(ServerUnavailableError, match="draining"):
            decode_reply(reply.frame)

    def test_admitted_work_completes_before_new_work_is_rejected(self):
        """A predict in flight when drain starts still gets its answer."""
        release = threading.Event()

        def slow_fn(X):
            release.wait(timeout=5)
            return _popcount_fn(X)

        rows = [[1, 0, 1, 0, 1, 0, 1, 0]]

        async def drive():
            srv = InferenceServer(max_batch=4, max_wait_us=500, max_queue=64)
            srv.register_model("m", slow_fn)
            address = await srv.start()
            try:
                reader, writer = await asyncio.open_connection(*address)
                try:
                    await write_message(
                        writer, {"op": "predict", "id": 1, "features": rows}
                    )
                    # let the request reach the queue, then start draining
                    await asyncio.sleep(0.05)
                    drain = asyncio.ensure_future(srv.drain())
                    await asyncio.sleep(0.05)
                    assert srv.state == "draining"
                    assert not drain.done()  # blocked on the admitted batch
                    release.set()
                    await drain
                    response = await read_message(reader)
                finally:
                    writer.close()
                    await writer.wait_closed()
                late = await _request(
                    address, {"op": "predict", "features": rows}
                )
                return response, late
            finally:
                await srv.stop()

        response, late = asyncio.run(drive())
        assert response["ok"] and response["labels"] == [1]  # 4 bits % 3
        assert late["error"]["type"] == "unavailable"

    def test_control_ops_keep_answering_while_draining(self):
        async def drive():
            srv = _server()
            address = await srv.start()
            try:
                await srv.drain()
                ping = await _request(address, {"op": "ping"})
                stats = await _request(address, {"op": "stats", "model": "m"})
                return ping, stats
            finally:
                await srv.stop()

        ping, stats = asyncio.run(drive())
        assert ping == {"ok": True, "state": "draining"}
        assert stats["ok"] and stats["backlog_samples"] == 0

    def test_drain_op_over_the_wire(self):
        async def drive():
            srv = _server()
            address = await srv.start()
            try:
                response = await _request(address, {"op": "drain"})
                return response, srv.state
            finally:
                await srv.stop()

        response, state = asyncio.run(drive())
        assert response == {"ok": True, "state": "draining"}
        assert state == "draining"


class TestHealthz:
    @staticmethod
    async def _healthz(http_address):
        reader, writer = await asyncio.open_connection(*http_address)
        try:
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        return int(head.split()[1]), body

    @pytest.mark.parametrize("role", ["inference", "router"])
    def test_healthz_follows_the_state(self, role):
        async def drive():
            backend = _server(http_port=0 if role == "inference" else None)
            await backend.start()
            srv = backend
            if role == "router":
                srv = RouterServer(
                    {"m": [(backend.host, backend.port)]},
                    http_port=0,
                    health_interval=0,
                )
                await srv.start()
            try:
                before = await self._healthz(srv.http_address)
                await srv.drain()
                after = await self._healthz(srv.http_address)
                return before, after
            finally:
                if srv is not backend:
                    await srv.stop()
                await backend.stop()

        before, after = asyncio.run(drive())
        assert before == (200, b"ok\n")
        assert after == (503, b"draining\n")


class TestSetAdmissionWeights:
    def test_weights_partition_the_shared_budget(self):
        async def drive():
            srv = InferenceServer(
                max_batch=8, max_wait_us=500, max_queue=256,
                max_total_queue=100,
            )
            srv.register_model("a", _popcount_fn)
            srv.register_model("b", _popcount_fn)
            address = await srv.start()
            try:
                response = await _request(
                    address,
                    {
                        "op": "set_admission_weights",
                        "weights": {"a": 3.0, "b": 1.0},
                    },
                )
                return response, srv
            finally:
                await srv.stop()

        response, srv = asyncio.run(drive())
        assert response["ok"] is True
        assert response["weights"] == {"a": 3.0, "b": 1.0}
        assert response["shares"] == {"a": 75, "b": 25}

    def test_without_shared_budget_is_bad_request(self):
        async def drive():
            srv = _server()  # no max_total_queue
            address = await srv.start()
            try:
                return await _request(
                    address,
                    {"op": "set_admission_weights", "weights": {"m": 1.0}},
                )
            finally:
                await srv.stop()

        response = asyncio.run(drive())
        assert response["error"]["type"] == "bad_request"
        assert "max_total_queue" in response["error"]["message"]

    def test_malformed_weights_are_bad_request(self):
        async def drive():
            srv = _server(max_total_queue=64)
            address = await srv.start()
            try:
                not_a_dict = await _request(
                    address,
                    {"op": "set_admission_weights", "weights": [1, 2]},
                )
                negative = await _request(
                    address,
                    {"op": "set_admission_weights", "weights": {"m": -1.0}},
                )
                return not_a_dict, negative
            finally:
                await srv.stop()

        not_a_dict, negative = asyncio.run(drive())
        assert not_a_dict["error"]["type"] == "bad_request"
        assert negative["error"]["type"] == "bad_request"

    def test_non_finite_weights_are_rejected_and_change_nothing(self):
        """``Infinity`` (which the client encoder refuses to write, so the
        frame is built by hand) and an overflowing sum are typed
        ``bad_request`` naming the problem; the live shares stay."""
        async def drive():
            srv = InferenceServer(
                max_batch=8, max_wait_us=500, max_queue=256,
                max_total_queue=100,
            )
            srv.register_model("a", _popcount_fn)
            srv.register_model("b", _popcount_fn)
            address = await srv.start()
            budget = srv._registry.budget
            try:
                await _request(
                    address,
                    {
                        "op": "set_admission_weights",
                        "weights": {"a": 3.0, "b": 1.0},
                    },
                )
                before = budget.weights, budget.share_of("a")
                replies = []
                for body in (
                    b'{"op":"set_admission_weights",'
                    b'"weights":{"a":Infinity,"b":1}}',
                    b'{"op":"set_admission_weights",'
                    b'"weights":{"a":1e308,"b":1e308}}',
                ):
                    reader, writer = await asyncio.open_connection(*address)
                    writer.write(len(body).to_bytes(4, "big") + body)
                    replies.append(await read_message(reader))
                    writer.close()
                    await writer.wait_closed()
                after = budget.weights, budget.share_of("a")
                return replies, before, after
            finally:
                await srv.stop()

        (infinite, overflow), before, after = asyncio.run(drive())
        assert infinite["error"]["type"] == "bad_request"
        assert "finite non-negative" in infinite["error"]["message"]
        assert overflow["error"]["type"] == "bad_request"
        assert "finite sum" in overflow["error"]["message"]
        assert before == after == ({"a": 3.0, "b": 1.0}, 75)
