"""The unified transport layer: one codec implementation, shared by all.

Every frame is parsed by exactly one implementation — these tests pin
(a) the client to the shared error-type table, (b) the error-type mapping
both protocols and both directions use, and (c) the router-facing pieces:
the client-side unified reply reader and the raw-frame request-id splice.
"""

import asyncio

import numpy as np
import pytest

from repro.engine import pack_bits
from repro.serving import transport
from repro.serving.queue import (
    BadRequestError,
    ServerOverloadedError,
    ServerUnavailableError,
    ServingError,
)
from repro.serving.registry import ModelNotFoundError
from repro.serving.transport import (
    ERROR_CODES,
    BinaryProtocolError,
    RawBinaryReply,
    WIRE_ERROR_TYPES,
    decode_control_reply,
    decode_reply,
    encode_control_reply,
    encode_error,
    encode_message,
    encode_reply,
    read_reply_frame,
    replace_request_id,
    wire_exception,
)


def _drive(*byte_chunks):
    """Run ``read_reply_frame`` over an in-memory StreamReader."""

    async def main():
        reader = asyncio.StreamReader()
        for chunk in byte_chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        return await read_reply_frame(reader)

    return asyncio.run(main())


class TestErrorMapping:
    def test_every_wire_type_maps_to_its_exception(self):
        assert WIRE_ERROR_TYPES["overloaded"] is ServerOverloadedError
        assert WIRE_ERROR_TYPES["bad_request"] is BadRequestError
        assert WIRE_ERROR_TYPES["model_not_found"] is ModelNotFoundError
        assert WIRE_ERROR_TYPES["unavailable"] is ServerUnavailableError

    def test_binary_codes_and_json_strings_are_one_table(self):
        # every binary error code's string has a typed exception (or the
        # ServingError fallback for "internal"), and the code mapping is
        # bijective — two codes for one string would desync the protocols
        assert sorted(ERROR_CODES) == [1, 2, 3, 4, 5]
        assert len(set(ERROR_CODES.values())) == len(ERROR_CODES)
        for name in ERROR_CODES.values():
            exc = wire_exception(name, "boom")
            assert isinstance(exc, ServingError)
            assert exc.error_type == name if name != "internal" else True

    def test_unknown_and_missing_types_fall_back_to_serving_error(self):
        assert type(wire_exception("no-such-type", "x")) is ServingError
        assert type(wire_exception(None, "x")) is ServingError

    def test_unavailable_crosses_the_binary_wire(self):
        frame = encode_error("unavailable", "draining", request_id=3)
        with pytest.raises(ServerUnavailableError, match="draining"):
            decode_reply(frame)


class TestReadReplyFrame:
    """The router's client-side reader: both protocols, replies kept raw."""

    def test_json_reply_comes_back_as_dict(self):
        payload = {"ok": True, "labels": [1, 2], "id": 9}
        assert _drive(encode_message(payload)) == payload

    def test_clean_eof_is_none(self):
        assert _drive() is None

    def test_binary_reply_keeps_raw_frame_bytes(self):
        labels = np.array([3, 1, 2], dtype=np.int64)
        frame = encode_reply(labels, request_id=17)
        reply = _drive(frame)
        assert isinstance(reply, RawBinaryReply)
        assert reply.request_id == 17
        assert reply.error_type is None
        assert reply.frame == frame  # byte-identical: nothing re-encoded
        np.testing.assert_array_equal(decode_reply(reply.frame).labels, labels)

    def test_binary_reply_with_scores_keeps_raw_frame(self):
        labels = np.array([0, 1], dtype=np.int64)
        scores = np.array([[0.5, -0.5], [float("inf"), 2.0]])
        frame = encode_reply(labels, scores, request_id=5)
        reply = _drive(frame)
        assert reply.frame == frame
        decoded = decode_reply(reply.frame)
        np.testing.assert_array_equal(decoded.scores, scores)

    def test_binary_error_carries_type_without_decoding(self):
        frame = encode_error("overloaded", "shed", request_id=8)
        reply = _drive(frame)
        assert isinstance(reply, RawBinaryReply)
        assert reply.error_type == "overloaded"
        assert reply.request_id == 8
        assert reply.frame == frame

    def test_truncated_binary_reply_raises(self):
        frame = encode_reply(np.array([1, 2, 3], dtype=np.int64))
        with pytest.raises(transport.BinaryProtocolError, match="mid-binary"):
            _drive(frame[:-4])

    def test_interleaved_json_and_binary_replies(self):
        async def main():
            reader = asyncio.StreamReader()
            binary = encode_reply(np.array([7], dtype=np.int64), request_id=2)
            reader.feed_data(encode_message({"ok": True, "id": 1}))
            reader.feed_data(binary)
            reader.feed_eof()
            first = await read_reply_frame(reader)
            second = await read_reply_frame(reader)
            return first, second, binary

        first, second, binary = asyncio.run(main())
        assert first == {"ok": True, "id": 1}
        assert second.frame == binary


class TestReplaceRequestId:
    def test_splice_changes_only_the_id(self):
        labels = np.array([5, 0, 9], dtype=np.int64)
        scores = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        original = encode_reply(labels, scores, request_id=111)
        spliced = replace_request_id(original, 42)
        assert spliced == encode_reply(labels, scores, request_id=42)
        decoded = decode_reply(spliced)
        assert decoded.request_id == 42
        np.testing.assert_array_equal(decoded.labels, labels)
        np.testing.assert_array_equal(decoded.scores, scores)

    def test_splice_works_on_error_frames(self):
        original = encode_error("internal", "boom", request_id=1)
        assert replace_request_id(original, 7) == encode_error(
            "internal", "boom", request_id=7
        )

    def test_splice_round_trips_on_predict_frames(self):
        rows = np.array([[1, 0, 1, 1], [0, 1, 0, 0]], dtype=np.uint8)
        packed = pack_bits(rows)
        original = transport.encode_predict_request(
            packed, 2, model="m", request_id=10
        )
        assert replace_request_id(original, 3) == (
            transport.encode_predict_request(
                packed, 2, model="m", request_id=3
            )
        )


class TestTruncatedFramesInMemory:
    """The in-memory decoders check every announced size against the bytes
    they hold: any proper prefix of a valid frame is a typed
    ``BinaryProtocolError`` — never ``struct.error``, a NumPy ``ValueError``
    or a half-read message — and the complete frame decodes as ever."""

    LABELS = np.array([5, 0, 9, 2], dtype=np.int64)
    SCORES = np.arange(8, dtype=np.float64).reshape(4, 2)

    @pytest.mark.parametrize("scores", [None, SCORES], ids=["labels", "scored"])
    def test_reply_prefixes(self, scores):
        frame = encode_reply(self.LABELS, scores, request_id=9)
        for cut in range(len(frame)):
            with pytest.raises(BinaryProtocolError):
                decode_reply(frame[:cut])
        decoded = decode_reply(frame)
        assert decoded.request_id == 9
        np.testing.assert_array_equal(decoded.labels, self.LABELS)
        if scores is None:
            assert decoded.scores is None
        else:
            np.testing.assert_array_equal(decoded.scores, scores)

    def test_error_prefixes(self):
        frame = encode_error("overloaded", "queue full", request_id=3)
        for cut in range(len(frame)):
            with pytest.raises(BinaryProtocolError):
                decode_reply(frame[:cut])
        with pytest.raises(ServerOverloadedError, match="^queue full$"):
            decode_reply(frame)

    def test_control_reply_prefixes(self):
        payload = {"ok": True, "status": "promoted", "version": 2}
        frame = encode_control_reply(payload, request_id=17)
        for cut in range(len(frame)):
            with pytest.raises(BinaryProtocolError):
                decode_control_reply(frame[:cut])
        assert decode_control_reply(frame) == (17, payload)

    def test_splice_rejects_a_frame_shorter_than_its_header(self):
        frame = encode_reply(self.LABELS)
        for cut in range(8):  # the common header that holds the id
            with pytest.raises(BinaryProtocolError):
                replace_request_id(frame[:cut], 7)
