"""Framing tests for the length-prefixed JSON protocol."""

import asyncio
import socket
import struct

import pytest

from repro.serving import transport
from repro.serving.transport import (
    ProtocolError,
    encode_message,
    read_message,
    recv_message,
    send_message,
)


def test_encode_is_length_prefixed_json():
    frame = encode_message({"op": "ping"})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert frame[4:] == b'{"op":"ping"}'


class TestBlockingTransport:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "predict", "features": [[0, 1], [1, 0]]}
            send_message(a, payload)
            assert recv_message(b) == payload
        finally:
            a.close()
            b.close()

    def test_multiple_messages_keep_framing(self):
        a, b = socket.socketpair()
        try:
            for i in range(5):
                send_message(a, {"i": i})
            assert [recv_message(b)["i"] for _ in range(5)] == list(range(5))
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_mid_header_close_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00")  # half a header
            a.close()
            with pytest.raises(ProtocolError, match="mid-header"):
                recv_message(b)
        finally:
            b.close()

    def test_mid_message_close_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b'{"truncated"')
            a.close()
            with pytest.raises(ProtocolError, match="mid-message"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_without_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", transport.MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError, match="cap"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_invalid_json_raises(self):
        a, b = socket.socketpair()
        try:
            body = b"not json at all"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="invalid JSON"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_raises(self):
        a, b = socket.socketpair()
        try:
            body = b"[1, 2, 3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_message(b)
        finally:
            a.close()
            b.close()


def test_encode_respects_cap(monkeypatch):
    monkeypatch.setattr(transport, "MAX_MESSAGE_BYTES", 8)
    with pytest.raises(ProtocolError, match="cap"):
        encode_message({"op": "a message longer than eight bytes"})


class TestAsyncTransport:
    def _reader_with(self, data: bytes, eof: bool = True) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return reader

    def test_round_trip(self):
        payload = {"op": "stats", "nested": {"a": [1, 2]}}

        async def main():
            reader = self._reader_with(encode_message(payload))
            return await read_message(reader)

        assert asyncio.run(main()) == payload

    def test_clean_eof_returns_none(self):
        async def main():
            return await read_message(self._reader_with(b""))

        assert asyncio.run(main()) is None

    def test_mid_header_eof_raises(self):
        async def main():
            return await read_message(self._reader_with(b"\x00"))

        with pytest.raises(ProtocolError, match="mid-header"):
            asyncio.run(main())

    def test_mid_message_eof_raises(self):
        async def main():
            reader = self._reader_with(struct.pack(">I", 50) + b"{}")
            return await read_message(reader)

        with pytest.raises(ProtocolError, match="mid-message"):
            asyncio.run(main())

    def test_oversized_frame_rejected(self):
        async def main():
            reader = self._reader_with(
                struct.pack(">I", transport.MAX_MESSAGE_BYTES + 1), eof=False
            )
            return await read_message(reader)

        with pytest.raises(ProtocolError, match="cap"):
            asyncio.run(main())
