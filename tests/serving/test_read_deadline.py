"""The frame port's read deadlines, over a real socket.

A peer that stalls part-way into a frame is hung up on after
:data:`~repro.serving.transport.FRAME_READ_TIMEOUT_S`, an idle one after
:data:`~repro.serving.transport.IDLE_TIMEOUT_S`; a connection whose request
is still evaluating is never cut, and a peer that dribbles valid frames in
pieces, pausing less than the deadline, is answered bit-exactly.  Every test
shortens the two module constants.
"""

import logging
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import pack_bits
from repro.serving import BackgroundServer, InferenceServer, ServingClient
from repro.serving import transport
from repro.serving.transport import (
    encode_message,
    encode_predict_request,
    recv_message,
    recv_reply,
)
from repro.utils.rng import as_rng

N_FEATURES = 16


def _scores_fn(X):
    X = np.asarray(X, dtype=np.float64)
    return X.reshape(len(X), 4, N_FEATURES // 4).sum(axis=2) + 0.01 * np.arange(4)


def _labels(X):
    return np.argmax(_scores_fn(X), axis=1)


def _server(scores_fn=_scores_fn):
    srv = InferenceServer(max_batch=8, max_wait_us=1_000)
    srv.register_model("m", scores_fn=scores_fn)
    return srv


def _open_handlers(handle, srv, timeout=5.0):
    """The server's connection-handler count, once it reaches zero (or the
    count at ``timeout``)."""

    async def count():
        return len(srv._connections)

    give_up = time.monotonic() + timeout
    while (open_handlers := handle.run(count())) and time.monotonic() < give_up:
        time.sleep(0.01)
    return open_handlers


@pytest.fixture
def deadlines(monkeypatch):
    def shorten(frame, idle):
        monkeypatch.setattr(transport, "FRAME_READ_TIMEOUT_S", frame)
        monkeypatch.setattr(transport, "IDLE_TIMEOUT_S", idle)

    return shorten


#: what the peer sends before it stalls, and which deadline must close it
STALLS = {
    "binary_head": (b"\xbf\x01\x01", "frame"),  # 3 bytes of a binary header
    "json_length": (b"\x00\x00", "frame"),  # 2 of a JSON length's 4 bytes
    "nothing": (b"", "idle"),
}


@pytest.mark.parametrize("stall", list(STALLS))
def test_a_stalled_peer_is_hung_up_on(stall, deadlines, caplog):
    sent, which = STALLS[stall]
    # the other deadline is far off, so only the named one can close it
    deadline = 0.2
    deadlines(
        frame=deadline if which == "frame" else 60.0,
        idle=deadline if which == "idle" else 60.0,
    )
    srv = _server()
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        with BackgroundServer(srv) as handle:
            start = time.monotonic()
            with socket.create_connection(handle.address, timeout=3) as sock:
                sock.sendall(sent)
                assert sock.recv(1) == b""  # closed, nothing answered
            waited = time.monotonic() - start
            assert _open_handlers(handle, srv) == 0
    assert waited >= deadline
    logged = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
    assert not logged, logged[:3]


def test_a_slow_evaluation_outlives_both_deadlines(deadlines):
    """A request still evaluating is owed an answer: its connection is not
    cut, and after the answer the idle deadline starts afresh."""
    deadlines(frame=0.1, idle=0.3)

    def slow(X):
        time.sleep(0.6)
        return _scores_fn(X)

    rows = as_rng(3).integers(0, 2, size=(2, N_FEATURES)).astype(np.uint8)
    with BackgroundServer(_server(slow)) as handle:
        for binary in (False, True):
            with ServingClient(*handle.address, binary=binary) as client:
                for _ in range(2):
                    np.testing.assert_array_equal(
                        client.predict(rows, model="m"), _labels(rows)
                    )


def _stream(rows, binary):
    """One predict frame per row, numbered by row, on one wire."""
    if binary:
        frames = [
            encode_predict_request(pack_bits(row[None]), 1, request_id=i, model="m")
            for i, row in enumerate(rows)
        ]
    else:
        frames = [
            encode_message(
                {"op": "predict", "id": i, "model": "m", "features": row[None].tolist()}
            )
            for i, row in enumerate(rows)
        ]
    return b"".join(frames)


def test_frames_dribbled_in_pieces_are_answered_bit_exactly(deadlines):
    deadlines(frame=0.5, idle=2.0)
    with BackgroundServer(_server()) as handle:

        @settings(max_examples=15, deadline=None)
        @given(data=st.data())
        def dribble(data):
            binary = data.draw(st.booleans(), label="binary")
            seed = data.draw(st.integers(0, 2**16), label="seed")
            rows = as_rng(seed).integers(
                0, 2, size=(data.draw(st.integers(1, 3)), N_FEATURES)
            ).astype(np.uint8)
            stream = _stream(rows, binary)
            cuts = sorted(
                data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=5))
            )
            # five pauses of at most 0.04 s keep every frame under 0.5 s
            pauses = data.draw(
                st.lists(
                    st.sampled_from([0.0, 0.01, 0.04]),
                    min_size=len(cuts),
                    max_size=len(cuts),
                )
            )
            edges = [0, *cuts, len(stream)]
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(stream[: edges[1]])
                for lo, hi, pause in zip(edges[1:], edges[2:], pauses):
                    time.sleep(pause)
                    sock.sendall(stream[lo:hi])
                if binary:
                    replies = {
                        reply.request_id: reply.labels
                        for reply in (recv_reply(sock) for _ in rows)
                    }
                else:
                    replies = {
                        reply["id"]: np.asarray(reply["labels"])
                        for reply in (recv_message(sock) for _ in rows)
                    }
            assert sorted(replies) == list(range(len(rows)))
            for i, row in enumerate(rows):
                np.testing.assert_array_equal(replies[i], _labels(row[None]))

        dribble()
