"""The wire grammar against generated data, and the crashes it rules out.

``transport._walk`` is the one walk over the frame grammar; a
``StreamReader``, a blocking socket, a frame held in memory and a stream
taken in whatever chunks arrive are four views of it (the first awaits it,
the next two step it through ``transport._drive``, the last suspends and
resumes it in ``transport._ChunkedWalk``).  The fuzz feeds arbitrary bytes,
every proper prefix and single-byte mutations of valid frames to every
direction through all four views and allows exactly three outcomes — a
decoded object, ``None`` on clean EOF, or a typed
``ProtocolError``/``ServingError`` — identical across the views, with no
read requested beyond the announced, capped size.  The chunked view is then
cut at ``hypothesis``-chosen boundaries, and the block a batch completion
writes is compared with the per-frame encoders it replaces.

The regression tests below it replay, over a real socket, the byte strings
that used to kill a connection handler with an untyped exception, and the
``OP_ERROR`` answer to a control op that used to poison a binary client.
"""

import asyncio
import dataclasses
import io
import logging
import socket
import struct
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import pack_bits
from repro.serving import (
    BackgroundServer,
    BadRequestError,
    InferenceServer,
    ModelNotFoundError,
    ProtocolError,
    ServerUnavailableError,
    ServingClient,
    ServingError,
)
from repro.serving import transport
from repro.serving.transport import (
    decode_control_reply,
    encode_control_reply,
    encode_control_request,
    encode_error,
    encode_message,
    encode_predict_request,
    encode_reply,
    read_frame,
    recv_control_reply,
    recv_message,
    recv_reply,
)

N_FEATURES = 8
CAP = 1 << 13  # small caps, so generated size fields cross them often
#: the largest read any frame may ask for: a capped payload, or an OP_ERROR
#: message, whose u16 length field is its own bound
MAX_READ = max(CAP, 0xFFFF)

PACKED = pack_bits(np.eye(3, N_FEATURES, dtype=np.uint8))

#: the three inputs that crashed a connection handler at the parent
BAD_NAME = encode_predict_request(PACKED, 3, model="ab").replace(
    b"ab", b"\xff\xfe"
)
DEEP_JSON = b"[" * 200_000
BIG_INT_JSON = b'{"a": ' + b"7" * 5000 + b"}"


def _json_frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _control_frame(body: bytes, opcode: int = transport.OP_CONTROL) -> bytes:
    return (
        struct.pack("<BBBBII", 0xBF, 1, opcode, 0, 9, len(body)) + body
    )


VALID_FRAMES = [
    encode_predict_request(PACKED, 3, model="m", return_scores=True),
    encode_predict_request(PACKED, 3, request_id=7),
    encode_reply(np.array([2, 0, 1])),
    encode_reply(np.array([1, 0]), np.array([[0.5, 1.5], [np.nan, -1.0]])),
    *(encode_error(name, f"boom {name}") for name in transport.ERROR_CODES.values()),
    encode_control_request({"op": "lifecycle", "model": "m"}, request_id=3),
    encode_control_reply({"ok": True, "events": []}, request_id=3),
    encode_message({"op": "predict", "id": 1, "features": [[0, 1]]}),
    encode_message({"ok": True, "labels": [1], "id": 1}),
]

DIRECTIONS = [
    transport._REQUESTS,
    transport._REPLIES,
    transport._PREDICT_REPLY,
    transport._CONTROL_REPLY,
    transport._JSON_ONLY,
]

_LOOP = None  # one event loop for the whole module, see _event_loop


@pytest.fixture(scope="module", autouse=True)
def _event_loop():
    global _LOOP
    _LOOP = asyncio.new_event_loop()
    yield
    _LOOP.close()
    _LOOP = None


def _through_memory(data: bytes, direction):
    """The in-memory view, recording the size of every read it issues."""
    stream = io.BytesIO(data)

    def fetch(n_bytes: int) -> bytes:
        assert 0 < n_bytes <= MAX_READ, f"a read of {n_bytes} bytes"
        return stream.read(n_bytes)

    return transport._drive(fetch, direction, "connection closed")


def _through_stream_reader(data: bytes, direction):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await transport._walk(
            reader.readexactly, direction, "connection closed"
        )

    return _LOOP.run_until_complete(main())


def _through_socketpair(data: bytes, direction):
    a, b = socket.socketpair()
    try:
        a.sendall(data)
        a.close()
        return transport._recv(b, direction)
    finally:
        b.close()


class _CappedChunkedWalk(transport._ChunkedWalk):
    """The chunked view, checking the size of every fetch the walk makes."""

    def _fetch(self, n_bytes: int):
        assert 0 < n_bytes <= MAX_READ, f"a read of {n_bytes} bytes"
        return super()._fetch(n_bytes)


def _chunked(chunks, direction):
    """Every outcome of ``chunks`` then EOF through the chunked view: the
    decoded frames, closed by ``None`` or by the typed error that ended it."""
    walk = _CappedChunkedWalk(direction, "connection closed")
    outcomes = []
    try:
        for chunk in (*(c for c in chunks if c), b""):
            for frame in walk.frames(chunk):
                outcomes.append(("decoded", _canonical(frame)))
    except (ProtocolError, ServingError) as error:
        outcomes.append((type(error).__name__, str(error)))
    return outcomes


def _through_chunks(data: bytes, direction):
    """The chunked view's first frame, for comparison with the one-frame
    views: ``frames`` is a generator, so nothing past it is decoded."""
    walk = _CappedChunkedWalk(direction, "connection closed")
    for chunk in (data, b"") if data else (b"",):
        for frame in walk.frames(chunk):
            return frame
    raise AssertionError("EOF produced neither a frame, None nor an error")


VIEWS = [
    _through_memory, _through_stream_reader, _through_socketpair,
    _through_chunks,
]


def _canonical(value):
    """A decoded frame as plain comparable data (arrays by content)."""
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple(_canonical(item) for item in dataclasses.astuple(value)),
        )
    if isinstance(value, tuple):
        return tuple(_canonical(item) for item in value)
    return value


def _outcome(view, data: bytes, direction):
    try:
        return ("decoded", _canonical(view(data, direction)))
    except (ProtocolError, ServingError) as error:
        if direction.ops and data[:1] == b"\xbf":
            # a frame that opened with the magic is answered on that wire
            assert not type(error) is ProtocolError, error
        return (type(error).__name__, str(error))
    # anything else propagates: an untyped exception fails the test


def _check(data: bytes):
    with mock.patch.object(
        transport, "MAX_MESSAGE_BYTES", CAP
    ), mock.patch.object(transport, "MAX_PAYLOAD_BYTES", CAP):
        for direction in DIRECTIONS:
            outcomes = [_outcome(view, data, direction) for view in VIEWS]
            assert all(outcome == outcomes[0] for outcome in outcomes), (
                direction,
                outcomes,
            )


def _mutations():
    """A valid frame with one byte replaced."""
    return st.sampled_from(VALID_FRAMES).flatmap(
        lambda frame: st.tuples(
            st.integers(0, len(frame) - 1), st.integers(0, 255)
        ).map(
            lambda cut: frame[: cut[0]] + bytes([cut[1]]) + frame[cut[0] + 1:]
        )
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    st.one_of(
        st.binary(max_size=64),
        # a plausible header in front of arbitrary bytes
        st.tuples(
            st.sampled_from([b"\xbf\x01", b"\xbf", b"\x00\x00", b"\x00"]),
            st.binary(max_size=48),
        ).map(b"".join),
        _mutations(),
        # a valid frame followed by the start of another
        st.tuples(
            st.sampled_from(VALID_FRAMES), st.binary(max_size=16)
        ).map(b"".join),
    )
)
@example(BAD_NAME)
@example(_json_frame(DEEP_JSON[:CAP]))  # still far past the recursion limit
@example(_control_frame(DEEP_JSON[:CAP]))
@example(_json_frame(BIG_INT_JSON))
@example(_control_frame(BIG_INT_JSON))
def test_any_bytes_decode_to_an_object_none_or_a_typed_error(data):
    _check(data)


@pytest.mark.parametrize("index", range(len(VALID_FRAMES)))
def test_every_proper_prefix_of_a_valid_frame(index):
    frame = VALID_FRAMES[index]
    for cut in range(len(frame)):
        _check(frame[:cut])
    _check(frame)


def test_valid_frames_decode_in_their_direction():
    """The corpus is live: each frame decodes somewhere, none everywhere."""
    for frame in VALID_FRAMES:
        kinds = {
            _outcome(_through_memory, frame, direction)[0]
            for direction in DIRECTIONS
        }
        assert "decoded" in kinds and len(kinds) > 1, frame


@pytest.mark.parametrize(
    "body", [DEEP_JSON, BIG_INT_JSON, b"\xff\xfe", b"[1, 2]"],
    ids=["deep", "bigint", "not-utf8", "not-an-object"],
)
def test_undecodable_json_bodies_are_typed_on_either_wire(body):
    with pytest.raises(ProtocolError) as plain:
        transport._slice(_json_frame(body), transport._REQUESTS)
    assert not isinstance(plain.value, transport.BinaryProtocolError)
    for opcode, direction in (
        (transport.OP_CONTROL, transport._REQUESTS),
        (transport.OP_CONTROL_REPLY, transport._CONTROL_REPLY),
    ):
        with pytest.raises(transport.BinaryProtocolError) as framed:
            transport._slice(_control_frame(body, opcode), direction)
        assert str(framed.value) == str(plain.value)


# ------------------------------------------- the chunked view, cut anywhere
REQUEST_STREAM = b"".join(
    [
        encode_predict_request(PACKED, 3, model="m", return_scores=True),
        encode_message({"op": "predict", "id": 1, "features": [[0, 1]]}),
        encode_control_request({"op": "lifecycle", "model": "m"}, request_id=3),
        encode_predict_request(PACKED, 3, request_id=7),
    ]
)
BAD_VERSION = b"\xbf\x2a" + encode_predict_request(PACKED, 3)[2:]


def _frame_by_frame(data: bytes, direction):
    """The reference for :func:`_chunked`: ``read_frame``'s walk over a
    ``StreamReader``, frame after frame, to the ``None`` or the error."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        outcomes = []
        try:
            while not outcomes or outcomes[-1][1] is not None:
                frame = await transport._walk(
                    reader.readexactly, direction, "connection closed"
                )
                outcomes.append(("decoded", _canonical(frame)))
        except (ProtocolError, ServingError) as error:
            outcomes.append((type(error).__name__, str(error)))
        return outcomes

    return _LOOP.run_until_complete(main())


def _cut(data: bytes, cuts):
    edges = [0, *sorted(cuts), len(data)]
    return [data[lo:hi] for lo, hi in zip(edges, edges[1:])]


def _streams():
    """A few valid frames end to end, sometimes damaged, sometimes cut off."""
    return st.tuples(
        st.lists(st.sampled_from(VALID_FRAMES + [BAD_VERSION]), max_size=4).map(
            b"".join
        ),
        st.binary(max_size=12),
    ).map(b"".join)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.one_of(_streams(), _mutations()).flatmap(
        lambda data: st.tuples(
            st.just(data),
            st.lists(st.integers(0, len(data)), max_size=6),
        )
    ),
    st.sampled_from(DIRECTIONS),
)
def test_chunk_boundaries_never_change_what_a_stream_decodes_to(cut_stream, direction):
    data, cuts = cut_stream
    with mock.patch.object(
        transport, "MAX_MESSAGE_BYTES", CAP
    ), mock.patch.object(transport, "MAX_PAYLOAD_BYTES", CAP):
        assert _chunked(_cut(data, cuts), direction) == _frame_by_frame(
            data, direction
        )


def test_every_single_byte_split_of_a_multi_frame_stream():
    expected = _frame_by_frame(REQUEST_STREAM, transport._REQUESTS)
    assert [kind for kind, _ in expected] == ["decoded"] * 5  # 4 frames, None
    for cut in range(len(REQUEST_STREAM) + 1):
        assert _chunked(_cut(REQUEST_STREAM, [cut]), transport._REQUESTS) == expected
    one_byte_at_a_time = [bytes([byte]) for byte in REQUEST_STREAM]
    assert _chunked(one_byte_at_a_time, transport._REQUESTS) == expected


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.lists(st.integers(0, len(REQUEST_STREAM) + len(BAD_VERSION)), max_size=5))
def test_a_malformed_frame_still_yields_the_good_ones_before_it(cuts):
    outcomes = _chunked(
        _cut(REQUEST_STREAM + BAD_VERSION + REQUEST_STREAM, cuts),
        transport._REQUESTS,
    )
    assert [kind for kind, _ in outcomes] == ["decoded"] * 4 + [
        "BinaryProtocolError"
    ]
    assert "version 42" in outcomes[-1][1]


# ------------------------------- one batch, one block: the bytes are unchanged
class _FakeWriter:
    def __init__(self):
        self.writes = []

    def is_closing(self):
        return False

    def write(self, data):
        self.writes.append(data)


def _reply_requests(draw, scores_mode):
    """Requests of one batch: ``(connection, frame, decoded predict)``."""
    requests = []
    for index in range(draw(st.integers(1, 6))):
        connection = draw(st.integers(0, 1))
        n_samples = draw(st.integers(1, 5))
        return_scores = scores_mode and draw(st.booleans())
        kind = draw(st.sampled_from(["binary", "json", "json-no-id", "control"]))
        if kind == "binary":
            frame = predict = transport.BinaryRequest(
                draw(st.integers(0, 2**32 - 1)), None, None, n_samples,
                return_scores,
            )
        else:
            predict = transport.JsonPredictRequest(
                None, None, n_samples, return_scores
            )
            frame = {"op": "predict"}
            if kind == "json":
                frame["id"] = index
            elif kind == "control":
                frame = transport.BinaryControlRequest(index, frame)
        requests.append((connection, frame, predict))
    return requests


def _per_frame(frame, predict, labels, scores, error):
    """What the per-request path sent: one public encoder call per reply."""
    if isinstance(frame, transport.BinaryRequest):
        if error is not None:
            return encode_error("internal", error, request_id=frame.request_id)
        return encode_reply(
            labels, scores if predict.return_scores else None,
            request_id=frame.request_id,
        )
    if error is not None:
        response = transport.error_response("internal", error)
    else:
        response = {"ok": True, "labels": labels.tolist()}
        if predict.return_scores:
            response["scores"] = scores.tolist()
    if isinstance(frame, transport.BinaryControlRequest):
        return encode_control_reply(response, request_id=frame.request_id)
    if "id" in frame:
        response["id"] = frame["id"]
    return encode_message(response)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_a_batch_is_answered_with_the_bytes_of_its_per_frame_replies(data):
    """Batches completing in one loop pass — good ones and failed ones,
    both wires, with and without scores — reach each connection as one
    ``write`` of exactly the concatenated per-frame encodings."""
    from repro.serving.queue import _Pending

    scores_mode = data.draw(st.booleans())
    n_classes = data.draw(st.integers(1, 4))
    server = InferenceServer()
    if scores_mode:
        model = server.register_model("default", scores_fn=lambda X: X)
    else:
        model = server.register_model("default", batch_fn=lambda X: X)
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

    async def main():
        connections = [transport.CorkedWriter(_FakeWriter()) for _ in range(2)]
        expected = [b"", b""]
        for _ in range(data.draw(st.integers(1, 3))):
            requests = data.draw(st.composite(_reply_requests)(scores_mode))
            entries, lo = [], 0
            for connection, frame, predict in requests:
                entries.append(
                    _Pending(
                        None, predict.n_samples, lo, server._complete,
                        (connections[connection], frame, predict, model),
                    )
                )
                lo += predict.n_samples
                connections[connection].pending += 1
            if data.draw(st.integers(0, 3)) == 0:  # the evaluation failed
                result, error, message = None, ValueError("boom"), "ValueError: boom"
                labels = scores = None
            elif scores_mode:
                result = np.array(
                    data.draw(
                        st.lists(
                            st.lists(finite, min_size=n_classes, max_size=n_classes),
                            min_size=lo, max_size=lo,
                        )
                    )
                )
                error = message = None
                labels, scores = np.argmax(result, axis=1), result
            else:
                result = np.array(
                    data.draw(
                        st.lists(st.integers(-2**40, 2**40), min_size=lo, max_size=lo)
                    )
                )
                error = message = scores = None
                labels = result
            server._complete(entries, result, error)
            for entry, (connection, frame, predict) in zip(entries, requests):
                rows = slice(entry.lo, entry.lo + entry.n_samples)
                expected[connection] += _per_frame(
                    frame, predict,
                    None if labels is None else labels[rows],
                    None if scores is None else scores[rows],
                    message,
                )
        await asyncio.sleep(0)  # the corked flush
        for connection, block in zip(connections, expected):
            assert connection.pending == 0
            assert b"".join(connection._writer.writes) == block
            assert len(connection._writer.writes) == (1 if block else 0)

    _LOOP.run_until_complete(main())


# ------------------------------------------------- over a real socket: crashers
def _labels_fn(X):
    return np.asarray(X).sum(axis=1).astype(np.int64)


@pytest.fixture()
def served(caplog):
    """A live server, and the guarantee that no connection handler died."""
    srv = InferenceServer(max_batch=8, max_wait_us=500, max_queue=64)
    srv.register_model("default", batch_fn=_labels_fn)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with BackgroundServer(srv) as handle:
            yield handle
    crashed = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
    assert not crashed, crashed


def _closed_cleanly(sock: socket.socket) -> bool:
    return sock.recv(1) == b""


class TestSocketCrashersGetATypedBadRequest:
    def test_predict_with_a_non_utf8_model_name(self, served):
        with socket.create_connection(served.address, timeout=5) as sock:
            sock.sendall(BAD_NAME)
            with pytest.raises(BadRequestError, match="utf-8"):
                recv_reply(sock)  # an OP_ERROR frame on the binary wire
            assert _closed_cleanly(sock)

    @pytest.mark.parametrize(
        "body", [DEEP_JSON, BIG_INT_JSON], ids=["deep", "bigint"]
    )
    def test_undecodable_json_frame(self, served, body):
        with socket.create_connection(served.address, timeout=5) as sock:
            sock.sendall(_json_frame(body))
            response = recv_message(sock)  # a JSON frame on the JSON wire
            assert response["ok"] is False
            assert response["error"]["type"] == "bad_request"
            assert "invalid JSON payload" in response["error"]["message"]
            assert _closed_cleanly(sock)

    @pytest.mark.parametrize(
        "body", [DEEP_JSON, BIG_INT_JSON], ids=["deep", "bigint"]
    )
    def test_undecodable_control_body(self, served, body):
        with socket.create_connection(served.address, timeout=5) as sock:
            sock.sendall(_control_frame(body))
            with pytest.raises(BadRequestError, match="invalid JSON payload"):
                recv_control_reply(sock)
            assert _closed_cleanly(sock)

    def test_good_frames_in_front_of_a_malformed_one_are_answered(self, served):
        """One ``send``: three predicts, then a frame of version 42 — the
        three are admitted from the same chunk and answered, the fourth
        gets the typed error, and only then the connection closes."""
        rows = np.eye(3, N_FEATURES, dtype=np.uint8)
        good = b"".join(
            encode_predict_request(pack_bits(rows[i : i + 1]), 1, request_id=i + 1)
            for i in range(3)
        )
        with socket.create_connection(served.address, timeout=5) as sock:
            sock.sendall(good + BAD_VERSION)
            answered, refused = {}, []
            for _ in range(4):
                try:
                    reply = recv_reply(sock)
                    answered[reply.request_id] = reply.labels.tolist()
                except BadRequestError as error:
                    refused.append(str(error))
            assert _closed_cleanly(sock)
        assert answered == {1: [1], 2: [1], 3: [1]}
        assert len(refused) == 1 and "version 42" in refused[0]

    def test_the_server_keeps_serving_afterwards(self, served):
        for frame in (BAD_NAME, _json_frame(DEEP_JSON)):
            with socket.create_connection(served.address, timeout=5) as sock:
                sock.sendall(frame)
                while sock.recv(4096):
                    pass
        with ServingClient(*served.address, binary=True) as client:
            labels = client.predict(np.eye(3, N_FEATURES, dtype=np.uint8))
        np.testing.assert_array_equal(labels, [1, 1, 1])


# ------------------------------------------ OP_ERROR in answer to a control op
class TestErrorFrameAnsweringAControlOp:
    @pytest.mark.parametrize(
        "error_type, exc",
        [
            ("unavailable", ServerUnavailableError),
            ("model_not_found", ModelNotFoundError),
            ("bad_request", BadRequestError),
            ("internal", ServingError),
        ],
    )
    def test_in_memory_and_blocking_readers_raise_the_mapped_error(
        self, error_type, exc
    ):
        frame = encode_error(error_type, "no such luck", request_id=4)
        with pytest.raises(exc, match="^no such luck$") as caught:
            decode_control_reply(frame)
        assert type(caught.value) is exc
        with pytest.raises(exc, match="^no such luck$") as caught:
            _through_socketpair(frame, transport._CONTROL_REPLY)
        assert type(caught.value) is exc
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            with pytest.raises(exc, match="^no such luck$"):
                recv_control_reply(b)
        finally:
            a.close()
            b.close()

    def test_a_binary_client_stays_usable(self):
        """The error frame was consumed whole: no half-read stream, so the
        connection must not be marked dead."""
        listener = socket.create_server(("127.0.0.1", 0))

        def script():
            conn, _ = listener.accept()
            with conn:
                reader = conn.makefile("rb")

                def next_control():
                    head = reader.read(12)
                    (length,) = struct.unpack("<I", head[8:])
                    return reader.read(length)

                next_control()
                conn.sendall(encode_error("unavailable", "draining"))
                next_control()
                conn.sendall(encode_control_reply({"ok": True, "events": [1]}))

        thread = threading.Thread(target=script, daemon=True)
        thread.start()
        try:
            with ServingClient(
                *listener.getsockname(), timeout=5, binary=True
            ) as client:
                with pytest.raises(ServerUnavailableError, match="draining"):
                    client.lifecycle("m")
                assert client.lifecycle("m") == [1]
        finally:
            listener.close()
            thread.join(timeout=5)

    def test_a_version_mismatch_reaches_the_caller_typed(self, served):
        """What a real server sends: it cannot decode the control frame, so
        it answers OP_ERROR — which now raises ``bad_request``, not
        "unexpected opcode 0x03 in a control reply"."""
        frame = bytearray(encode_control_request({"op": "lifecycle"}))
        frame[1] = 42  # version byte
        with socket.create_connection(served.address, timeout=5) as sock:
            sock.sendall(bytes(frame))
            with pytest.raises(BadRequestError, match="version 42"):
                recv_control_reply(sock)


def test_request_side_reads_stay_within_the_cap():
    """A header announcing gigabytes is refused before any read of that
    size — on the request side through ``read_frame`` itself."""
    sizes = []

    class Recording(asyncio.StreamReader):
        async def readexactly(self, n):
            sizes.append(n)
            return await super().readexactly(n)

    async def main(data):
        reader = Recording()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    binary = transport.BinaryProtocolError
    hostile = [
        (binary, struct.pack("<BBBBIHII", 0xBF, 1, 1, 0, 0, 0, 2**31, 2**16)),
        (binary, struct.pack("<BBBBIHII", 0xBF, 1, 1, 0, 0, 0xFFFF, 1, 1)),
        (binary, struct.pack("<BBBBII", 0xBF, 1, 4, 0, 0, 0xFFFFFFFF)),
        (ProtocolError, struct.pack(">I", transport.MAX_MESSAGE_BYTES + 1)),
    ]
    for error, data in hostile:
        with pytest.raises(error, match="cap") as caught:
            _LOOP.run_until_complete(main(data + b"\0" * 64))
        assert type(caught.value) is error  # answered on the wire it spoke
    assert max(sizes) <= 14, sizes  # nothing past the fixed-size heads
