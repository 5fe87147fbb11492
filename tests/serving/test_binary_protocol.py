"""Unit tests for the binary wire format: framing, limits, discrimination.

End-to-end binary serving (client -> server -> engine) lives in
``test_server.py``; this file exercises the codec in isolation — encode /
``read_frame`` round-trips, the JSON-vs-binary first-byte discrimination on
a shared stream, truncation and oversized-header rejection, and the
blocking ``recv_reply`` side including its typed-error raising.
"""

import asyncio
import socket
import struct

import numpy as np
import pytest

from repro.engine import pack_bits, unpack_bits
from repro.serving import (
    BadRequestError,
    BinaryProtocolError,
    BinaryRequest,
    ModelNotFoundError,
    ProtocolError,
    ServerOverloadedError,
    ServingError,
    encode_message,
    encode_predict_request,
    encode_reply,
    recv_reply,
)
from repro.serving.transport import (
    BINARY_MAGIC,
    BINARY_VERSION,
    MAX_PAYLOAD_BYTES,
    OP_PREDICT,
    encode_error,
    read_frame,
)
from repro.utils.rng import as_rng


def _read_one(*byte_chunks):
    """Drive ``read_frame`` over an in-memory StreamReader."""

    async def main():
        reader = asyncio.StreamReader()
        for chunk in byte_chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(main())


def _recv_from_bytes(data):
    """Run the blocking ``recv_reply`` against a one-shot socketpair."""
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.close()
        return recv_reply(right)
    finally:
        right.close()


class TestPredictFraming:
    def test_round_trip_preserves_words_exactly(self):
        rng = as_rng(3)
        rows = rng.integers(0, 2, size=(70, 33), dtype=np.uint8)
        packed = pack_bits(rows)

        frame = encode_predict_request(
            packed, 70, model="digits", return_scores=True, request_id=99
        )
        request = _read_one(frame)

        assert isinstance(request, BinaryRequest)
        assert request.request_id == 99
        assert request.model == "digits"
        assert request.n_samples == 70
        assert request.return_scores is True
        np.testing.assert_array_equal(request.packed, packed)
        np.testing.assert_array_equal(
            unpack_bits(np.ascontiguousarray(request.packed), 70), rows
        )

    def test_empty_model_name_means_default(self):
        packed = pack_bits(np.ones((2, 4), dtype=np.uint8))
        request = _read_one(encode_predict_request(packed, 2))
        assert request.model is None
        assert request.return_scores is False
        assert request.request_id == 0

    def test_frame_split_across_many_feeds(self):
        """Reassembly works however the transport fragments the bytes."""
        packed = pack_bits(np.eye(5, dtype=np.uint8))
        frame = encode_predict_request(packed, 5, model="m")
        chunks = [frame[i : i + 3] for i in range(0, len(frame), 3)]
        request = _read_one(*chunks)
        np.testing.assert_array_equal(request.packed, packed)

    def test_eof_before_any_frame_is_none(self):
        assert _read_one() is None

    def test_wrong_word_count_rejected_at_encode(self):
        packed = pack_bits(np.ones((65, 4), dtype=np.uint8))  # 2 words
        with pytest.raises(BinaryProtocolError):
            encode_predict_request(packed, 64)  # 64 samples need 1 word


class TestMalformedFrames:
    def test_truncated_mid_frame(self):
        packed = pack_bits(np.ones((3, 4), dtype=np.uint8))
        frame = encode_predict_request(packed, 3)
        with pytest.raises(BinaryProtocolError, match="mid-binary-frame"):
            _read_one(frame[: len(frame) - 5])

    def test_truncated_mid_header(self):
        frame = encode_predict_request(pack_bits(np.ones((1, 2), dtype=np.uint8)), 1)
        with pytest.raises(BinaryProtocolError):
            _read_one(frame[:4])

    def test_oversized_header_rejected_before_allocation(self):
        """A hostile header announcing gigabytes fails fast on sizes alone."""
        huge = struct.pack(
            "<BBBBIHII",
            BINARY_MAGIC,
            BINARY_VERSION,
            OP_PREDICT,
            0,
            0,
            0,
            2**31,  # n_samples
            2**16,  # n_features -> petabytes of implied payload
        )
        with pytest.raises(BinaryProtocolError, match="cap"):
            _read_one(huge)

    def test_unknown_version_rejected(self):
        frame = bytearray(
            encode_predict_request(pack_bits(np.ones((1, 2), dtype=np.uint8)), 1)
        )
        frame[1] = 42  # version byte
        with pytest.raises(BinaryProtocolError, match="version"):
            _read_one(bytes(frame))

    def test_server_rejects_non_predict_opcodes(self):
        with pytest.raises(BinaryProtocolError, match="opcode"):
            _read_one(encode_reply(np.array([1, 2])))

    def test_oversized_payload_rejected_at_encode(self):
        words = 1 + MAX_PAYLOAD_BYTES // (8 * 4)
        packed = np.zeros((4, words), dtype=np.uint64)
        with pytest.raises(BinaryProtocolError, match="cap"):
            encode_predict_request(packed, words * 64)


class TestSharedListenerDiscrimination:
    def test_json_frame_still_parses(self):
        message = _read_one(encode_message({"op": "ping", "id": 7}))
        assert message == {"op": "ping", "id": 7}

    def test_json_then_binary_then_json_on_one_stream(self):
        packed = pack_bits(np.ones((4, 6), dtype=np.uint8))
        stream = (
            encode_message({"op": "ping"})
            + encode_predict_request(packed, 4, request_id=5)
            + encode_message({"op": "stats"})
        )

        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(stream)
            reader.feed_eof()
            return [await read_frame(reader) for _ in range(3)]

        first, second, third = asyncio.run(main())
        assert first == {"op": "ping"}
        assert isinstance(second, BinaryRequest)
        assert second.request_id == 5
        assert third == {"op": "stats"}

    def test_json_truncation_errors_match_json_protocol(self):
        frame = encode_message({"op": "ping"})
        with pytest.raises(ProtocolError, match="mid-message"):
            _read_one(frame[:-2])
        with pytest.raises(ProtocolError, match="mid-header"):
            _read_one(frame[:2])


class TestReplySide:
    def test_labels_only_round_trip(self):
        labels = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        reply = _recv_from_bytes(encode_reply(labels, request_id=12))
        assert reply.request_id == 12
        assert reply.scores is None
        np.testing.assert_array_equal(reply.labels, labels)

    def test_scores_round_trip_is_lossless_including_non_finite(self):
        """Raw IEEE doubles cross the wire — inf/NaN included, bit for bit."""
        labels = np.array([0, 1], dtype=np.int64)
        scores = np.array(
            [[np.nan, -np.inf, 1.5], [np.inf, 2.25, -0.0]], dtype=np.float64
        )
        reply = _recv_from_bytes(encode_reply(labels, scores))
        np.testing.assert_array_equal(reply.labels, labels)
        np.testing.assert_array_equal(
            np.isnan(reply.scores), np.isnan(scores)
        )
        mask = ~np.isnan(scores)
        np.testing.assert_array_equal(reply.scores[mask], scores[mask])

    @pytest.mark.parametrize(
        "error_type, exc",
        [
            ("overloaded", ServerOverloadedError),
            ("bad_request", BadRequestError),
            ("model_not_found", ModelNotFoundError),
            ("internal", ServingError),
        ],
    )
    def test_error_frames_raise_the_same_typed_exceptions_as_json(
        self, error_type, exc
    ):
        with pytest.raises(exc, match="boom"):
            _recv_from_bytes(encode_error(error_type, "boom"))

    def test_truncated_reply_raises(self):
        frame = encode_reply(np.arange(8, dtype=np.int64))
        with pytest.raises(BinaryProtocolError, match="mid-"):
            _recv_from_bytes(frame[:-3])

    def test_reply_to_a_json_first_byte_is_rejected(self):
        with pytest.raises(BinaryProtocolError, match="leading byte"):
            _recv_from_bytes(encode_message({"ok": True}))
