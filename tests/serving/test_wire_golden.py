"""Golden frames: the exact bytes of one frame of every kind on either wire.

The grammar in :mod:`repro.serving.transport` is the model, these bytes are
the data.  Nothing here depends on how the codec is organised — only on the
public encoders and readers — so the file passes unchanged on either side
of a codec refactor and fails the moment one moves a byte.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.engine import pack_bits
from repro.serving import (
    BadRequestError,
    BinaryControlRequest,
    BinaryRequest,
    ModelNotFoundError,
    ServerOverloadedError,
    ServerUnavailableError,
    ServingError,
)
from repro.serving.transport import (
    RawBinaryReply,
    decode_control_reply,
    decode_reply,
    encode_control_reply,
    encode_control_request,
    encode_error,
    encode_message,
    encode_predict_request,
    encode_reply,
    read_frame,
    read_reply_frame,
    recv_control_reply,
    recv_message,
    recv_reply,
)

ROWS = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
PACKED = pack_bits(ROWS)  # [[5], [6], [3]]
LABELS = np.array([2, 0, 1], dtype=np.int64)
SCORES = np.array([[0.5, -1.0], [np.inf, 2.0], [0.0, -0.0]])

WORDS = "050000000000000006000000000000000300000000000000"
LABEL_BYTES = "020000000000000000000000000000000100000000000000"

GOLDEN = {
    # magic ver op flags | id | name_len n_samples n_features | name | words
    "predict_named": "bf010101" "07000000" "0100" "03000000" "03000000" "6d"
    + WORDS,
    "predict_default": "bf010100" "04030201" "0000" "03000000" "03000000"
    + WORDS,
    # magic ver op flags | id | n_samples n_classes | labels [| scores]
    "reply_labels": "bf010200" "09000000" "03000000" "00000000" + LABEL_BYTES,
    "reply_scores": "bf010201" "09000000" "03000000" "02000000" + LABEL_BYTES
    + "000000000000e03f" "000000000000f0bf"
    + "000000000000f07f" "0000000000000040"
    + "0000000000000000" "0000000000000080",
    # magic ver op flags | id | code msg_len | message
    "error_overloaded": "bf010300" "05000000" "01" "1000"
    + b"boom: overloaded".hex(),
    "error_bad_request": "bf010300" "05000000" "02" "1100"
    + b"boom: bad_request".hex(),
    "error_model_not_found": "bf010300" "05000000" "03" "1500"
    + b"boom: model_not_found".hex(),
    "error_internal": "bf010300" "05000000" "04" "0e00"
    + b"boom: internal".hex(),
    "error_unavailable": "bf010300" "05000000" "05" "1100"
    + b"boom: unavailable".hex(),
    # magic ver op flags | id | json_len | json
    "control": "bf010400" "0b000000" "28000000"
    + b'{"op":"promote","model":"m","version":2}'.hex(),
    "control_reply": "bf010500" "0b000000" "1f000000"
    + b'{"ok":true,"status":"promoted"}'.hex(),
    # big-endian length | json
    "json": "00000036"
    + b'{"op":"predict","id":3,"features":[[0,1]],"model":"m"}'.hex(),
}
GOLDEN = {name: bytes.fromhex(text) for name, text in GOLDEN.items()}

CONTROL = {"op": "promote", "model": "m", "version": 2}
CONTROL_REPLY = {"ok": True, "status": "promoted"}
JSON = {"op": "predict", "id": 3, "features": [[0, 1]], "model": "m"}

ERRORS = {
    "overloaded": ServerOverloadedError,
    "bad_request": BadRequestError,
    "model_not_found": ModelNotFoundError,
    "internal": ServingError,
    "unavailable": ServerUnavailableError,
}


def _read(reader_fn, data: bytes):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await reader_fn(reader)

    return asyncio.run(main())


def _recv(recv_fn, data: bytes):
    a, b = socket.socketpair()
    try:
        a.sendall(data)
        a.close()
        return recv_fn(b)
    finally:
        b.close()


class TestEncodersProduceTheGoldenBytes:
    def test_predict(self):
        assert GOLDEN["predict_named"] == encode_predict_request(
            PACKED, 3, model="m", return_scores=True, request_id=7
        )
        assert GOLDEN["predict_default"] == encode_predict_request(
            PACKED, 3, request_id=0x01020304
        )

    def test_reply(self):
        assert GOLDEN["reply_labels"] == encode_reply(LABELS, request_id=9)
        assert GOLDEN["reply_scores"] == encode_reply(
            LABELS, SCORES, request_id=9
        )

    @pytest.mark.parametrize("error_type", sorted(ERRORS))
    def test_error(self, error_type):
        assert GOLDEN[f"error_{error_type}"] == encode_error(
            error_type, f"boom: {error_type}", request_id=5
        )

    def test_unknown_error_type_degrades_to_internal(self):
        assert encode_error("nonesuch", "é", request_id=1) == bytes.fromhex(
            "bf010300" "01000000" "04" "0200" "c3a9"
        )

    def test_control(self):
        assert GOLDEN["control"] == encode_control_request(
            CONTROL, request_id=11
        )
        assert GOLDEN["control_reply"] == encode_control_reply(
            CONTROL_REPLY, request_id=11
        )

    def test_json(self):
        assert GOLDEN["json"] == encode_message(JSON)


class TestReadersDecodeTheGoldenBytes:
    def test_request_side(self):
        named = _read(read_frame, GOLDEN["predict_named"])
        assert isinstance(named, BinaryRequest)
        assert (named.request_id, named.model) == (7, "m")
        assert (named.n_samples, named.return_scores) == (3, True)
        np.testing.assert_array_equal(named.packed, PACKED)
        default = _read(read_frame, GOLDEN["predict_default"])
        assert (default.request_id, default.model) == (0x01020304, None)
        assert default.return_scores is False
        np.testing.assert_array_equal(default.packed, PACKED)
        control = _read(read_frame, GOLDEN["control"])
        assert isinstance(control, BinaryControlRequest)
        assert (control.request_id, control.payload) == (11, CONTROL)
        assert _read(read_frame, GOLDEN["json"]) == JSON

    @pytest.mark.parametrize("name", ["reply_labels", "reply_scores"])
    def test_reply_through_all_three_views(self, name):
        frame = GOLDEN[name]
        raw = _read(read_reply_frame, frame)
        assert isinstance(raw, RawBinaryReply)
        assert (raw.request_id, raw.error_type, raw.frame) == (9, None, frame)
        for reply in (decode_reply(frame), _recv(recv_reply, frame)):
            assert reply.request_id == 9
            np.testing.assert_array_equal(reply.labels, LABELS)
            if name == "reply_labels":
                assert reply.scores is None
            else:
                np.testing.assert_array_equal(reply.scores, SCORES)
                assert np.signbit(reply.scores[2, 1])  # -0.0 survives

    @pytest.mark.parametrize("error_type", sorted(ERRORS))
    def test_error_through_all_three_views(self, error_type):
        frame = GOLDEN[f"error_{error_type}"]
        raw = _read(read_reply_frame, frame)
        assert (raw.request_id, raw.error_type, raw.frame) == (
            5, error_type, frame
        )
        for attempt in (
            lambda: decode_reply(frame),
            lambda: _recv(recv_reply, frame),
        ):
            with pytest.raises(ERRORS[error_type]) as caught:
                attempt()
            assert type(caught.value) is ERRORS[error_type]
            assert str(caught.value) == f"boom: {error_type}"

    def test_control_reply_through_all_three_views(self):
        frame = GOLDEN["control_reply"]
        raw = _read(read_reply_frame, frame)
        assert (raw.request_id, raw.error_type, raw.frame) == (11, None, frame)
        assert decode_control_reply(frame) == (11, CONTROL_REPLY)
        assert _recv(recv_control_reply, frame) == CONTROL_REPLY

    def test_json_reply_side(self):
        assert _read(read_reply_frame, GOLDEN["json"]) == JSON
        assert _recv(recv_message, GOLDEN["json"]) == JSON
