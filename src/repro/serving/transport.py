"""The unified transport layer: every wire frame is parsed by exactly one codec.

The length-prefixed JSON codec, the ``0xBF`` binary codec, the first-byte
protocol discrimination and the typed error mapping all live here — the
single implementation the client, the server and the cluster router
consume.  ``docs/serving.md`` describes both wire formats.

Layout:

* **JSON codec** — :func:`encode_message`, async :func:`read_message` /
  :func:`write_message`, blocking :func:`recv_message` /
  :func:`send_message`.  Frames are a 4-byte big-endian length followed by
  one UTF-8 JSON object, capped at :data:`MAX_MESSAGE_BYTES`.
* **Binary codec** — :func:`encode_predict_request`, :func:`encode_reply`,
  :func:`encode_error`, :func:`decode_reply`, blocking :func:`recv_reply`.
  Frames lead with :data:`BINARY_MAGIC` (0xBF), which a JSON length header
  under the 64 MiB cap (first byte <= 0x04) can never produce.
* **Discrimination** — :func:`read_frame` (server side: requests of either
  protocol) and :func:`read_reply_frame` (client side: replies of either
  protocol, returned *raw* so a router can forward the bytes untouched
  after :func:`replace_request_id`).
* **Error mapping** — :data:`WIRE_ERROR_TYPES` (wire ``error.type`` string
  → typed exception) and :data:`ERROR_CODES` (binary error code → string),
  the one table both protocols and both directions share.
* **Listener machinery** — :class:`CorkedWriter` and :class:`FrameServer`,
  the dual-protocol asyncio front end with the explicit
  ``starting → serving → draining → stopped`` lifecycle that
  :class:`~repro.serving.server.InferenceServer` and
  :class:`~repro.serving.router.RouterServer` both subclass.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.engine.bitpack import n_words
from repro.serving.queue import (
    BadRequestError,
    ServerOverloadedError,
    ServerUnavailableError,
    ServingError,
)
from repro.serving.registry import ModelNotFoundError

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "BinaryControlRequest",
    "BinaryProtocolError",
    "BinaryReply",
    "BinaryRequest",
    "CorkedWriter",
    "ERROR_CODES",
    "FrameServer",
    "MAX_MESSAGE_BYTES",
    "MAX_MODEL_NAME_BYTES",
    "MAX_PAYLOAD_BYTES",
    "OP_CONTROL",
    "OP_CONTROL_REPLY",
    "OP_ERROR",
    "OP_PREDICT",
    "OP_REPLY",
    "ProtocolError",
    "RawBinaryReply",
    "WIRE_ERROR_TYPES",
    "decode_control_reply",
    "decode_reply",
    "encode_control_reply",
    "encode_control_request",
    "encode_error",
    "encode_message",
    "encode_predict_request",
    "encode_reply",
    "error_response",
    "read_frame",
    "read_message",
    "read_reply_frame",
    "recv_control_reply",
    "recv_message",
    "recv_reply",
    "replace_request_id",
    "send_message",
    "wire_exception",
    "write_message",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one message's JSON payload (64 MiB ≈ a 250k-sample
#: request of 256 features — far beyond anything the batcher admits).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed frame: bad header, oversized payload, or invalid JSON."""


class BinaryProtocolError(ProtocolError):
    """Malformed binary frame: bad version, bad sizes, or truncation."""


# --------------------------------------------------------------------- errors
#: wire ``error.type`` string → the typed exception a client raises.
#: :class:`~repro.serving.queue.ServingError` itself is the fallback for
#: ``internal`` and unknown types, so both protocols and both transports
#: raise identical exceptions from one table.
WIRE_ERROR_TYPES: Dict[str, type] = {
    ServerOverloadedError.error_type: ServerOverloadedError,
    BadRequestError.error_type: BadRequestError,
    ModelNotFoundError.error_type: ModelNotFoundError,
    ServerUnavailableError.error_type: ServerUnavailableError,
}

#: binary wire error codes <-> the JSON protocol's typed error strings
ERROR_CODES = {
    1: "overloaded",
    2: "bad_request",
    3: "model_not_found",
    4: "internal",
    5: "unavailable",
}
_ERROR_CODE_OF = {name: code for code, name in ERROR_CODES.items()}


def wire_exception(error_type: Optional[str], message: str) -> ServingError:
    """The typed exception instance for a wire error (never raises)."""
    return WIRE_ERROR_TYPES.get(error_type or "", ServingError)(message)


def error_response(error_type: str, message: str) -> Dict[str, Any]:
    """The JSON protocol's error payload for a typed failure."""
    return {"ok": False, "error": {"type": error_type, "message": message}}


# ----------------------------------------------------------------- JSON codec
def encode_message(payload: Dict[str, Any]) -> bytes:
    """Serialise one message to its framed wire form.

    Non-finite floats raise :class:`ProtocolError`: ``json.dumps`` would
    otherwise emit the bare ``NaN``/``Infinity`` tokens, which are not JSON
    — a strict peer rejects the whole frame.  The server converts this
    failure into the typed ``internal`` wire error; the binary protocol
    carries non-finite scores losslessly instead.
    """
    try:
        body = json.dumps(
            payload, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except ValueError as error:
        raise ProtocolError(
            f"payload is not JSON-serialisable: {error}"
        ) from error
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte cap"
        )
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"invalid JSON payload: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_length(length: int) -> None:
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame announces {length} bytes, cap is {MAX_MESSAGE_BYTES}"
        )


async def _read_json_after_first(
    reader: asyncio.StreamReader, first: bytes
) -> Dict[str, Any]:
    """Finish reading a JSON frame whose header's first byte was consumed
    by protocol discrimination — the one shared tail both unified readers
    use, so the JSON framing has no second implementation."""
    try:
        rest = await reader.readexactly(_HEADER.size - 1)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-header") from error
    (length,) = _HEADER.unpack(first + rest)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-message") from error
    return _decode_body(body)


async def read_message(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Read one framed JSON message; ``None`` on clean EOF before a header."""
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError:
        return None  # connection closed between messages
    return await _read_json_after_first(reader, first)


async def write_message(
    writer: asyncio.StreamWriter, payload: Dict[str, Any]
) -> None:
    """Frame and send one message, draining the transport buffer."""
    writer.write(encode_message(payload))
    await writer.drain()


def _recv_exactly(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Blocking counterpart of :func:`read_message` (``None`` on clean EOF)."""
    header = _recv_exactly(sock, _HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ProtocolError("connection closed mid-header")
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    body = _recv_exactly(sock, length)
    if len(body) < length:
        raise ProtocolError("connection closed mid-message")
    return _decode_body(body)


def send_message(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Blocking counterpart of :func:`write_message`."""
    sock.sendall(encode_message(payload))


# --------------------------------------------------------------- binary codec
#: First byte of every binary frame.  JSON frames lead with the high byte
#: of a big-endian length capped at 64 MiB (<= 0x04), so 0xBF is
#: unambiguous on a shared listener.
BINARY_MAGIC = 0xBF

BINARY_VERSION = 1

OP_PREDICT = 0x01
OP_REPLY = 0x02
OP_ERROR = 0x03
#: control-plane ops: a JSON payload inside a binary frame.  Lifecycle
#: commands (promote, set_shadow, shadow_report, ...) are rare and
#: structured, so they do not earn bespoke binary layouts — but a binary
#: client must not interleave JSON frames into its pipelined stream just
#: to run them, so the JSON body rides the binary framing instead.
OP_CONTROL = 0x04
OP_CONTROL_REPLY = 0x05

#: flags bit 0 on OP_PREDICT: "return scores"; on OP_REPLY: "scores follow"
FLAG_SCORES = 0x01

#: Cap on one frame's variable-size payload — shared with the JSON cap so
#: neither protocol admits larger requests than the other.
MAX_PAYLOAD_BYTES = MAX_MESSAGE_BYTES

MAX_MODEL_NAME_BYTES = 4096

_COMMON = struct.Struct("<BBBBI")  # magic, version, opcode, flags, request id
_PREDICT_HEAD = struct.Struct("<HII")  # name length, n_samples, n_features
_REPLY_HEAD = struct.Struct("<II")  # n_samples, n_classes
_ERROR_HEAD = struct.Struct("<BH")  # error code, message length
_CONTROL_HEAD = struct.Struct("<I")  # JSON payload length

_WORD = np.dtype("<u8")
_LABEL = np.dtype("<i8")
_SCORE = np.dtype("<f8")

#: byte offset of the u32 request id inside the common frame header —
#: what :func:`replace_request_id` splices, so a router can re-stamp a
#: forwarded reply without decoding its payload.
_REQUEST_ID_OFFSET = 4
_REQUEST_ID = struct.Struct("<I")


@dataclass
class BinaryRequest:
    """One decoded OP_PREDICT frame."""

    request_id: int
    model: Optional[str]  # None = the server's default model
    packed: np.ndarray  # (n_features, n_words(n_samples)) uint64
    n_samples: int
    return_scores: bool


@dataclass
class BinaryReply:
    """One decoded OP_REPLY frame."""

    request_id: int
    labels: np.ndarray  # (n_samples,) int64
    scores: Optional[np.ndarray]  # (n_samples, n_classes) float64 or None


@dataclass
class BinaryControlRequest:
    """One decoded OP_CONTROL frame: a JSON control op on the binary wire.

    The payload is the same dict the JSON protocol would carry (``op``,
    ``model``, ...); the server dispatches it through the normal JSON op
    table and answers with an OP_CONTROL_REPLY frame echoing the request
    id — so a pipelined binary client runs lifecycle commands without
    switching codecs mid-stream.
    """

    request_id: int
    payload: Dict[str, Any]


@dataclass
class RawBinaryReply:
    """One server→client binary frame kept as raw bytes.

    This is the router's currency: :func:`read_reply_frame` validates the
    frame and extracts only what routing needs — the request id for
    re-association and, for OP_ERROR, the typed error string for failover
    decisions — while the payload stays unparsed, ready to forward to the
    client after :func:`replace_request_id`.  :func:`decode_reply` fully
    parses the frame when a caller does want the labels.
    """

    request_id: int
    opcode: int
    error_type: Optional[str]  # set only for OP_ERROR frames
    frame: bytes


def encode_predict_request(
    packed: np.ndarray,
    n_samples: int,
    *,
    model: Optional[str] = None,
    return_scores: bool = False,
    request_id: int = 0,
) -> bytes:
    """Frame one packed predict request.

    ``packed`` is the ``(n_features, n_words(n_samples))`` uint64 matrix
    from :func:`~repro.engine.bitpack.pack_bits` — it is shipped as raw
    little-endian words, no transformation.
    """
    words = np.ascontiguousarray(np.asarray(packed, dtype=np.uint64))
    if words.ndim != 2:
        raise BinaryProtocolError(
            f"packed must be 2-D, got shape {words.shape}"
        )
    if words.shape[1] != n_words(n_samples):
        raise BinaryProtocolError(
            f"{n_samples} samples need {n_words(n_samples)} words per "
            f"signal, got {words.shape[1]}"
        )
    name = (model or "").encode("utf-8")
    if len(name) > MAX_MODEL_NAME_BYTES:
        raise BinaryProtocolError(
            f"model name of {len(name)} bytes exceeds the "
            f"{MAX_MODEL_NAME_BYTES}-byte cap"
        )
    payload = words.astype(_WORD, copy=False).tobytes()
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise BinaryProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte cap"
        )
    flags = FLAG_SCORES if return_scores else 0
    return b"".join(
        (
            _COMMON.pack(
                BINARY_MAGIC, BINARY_VERSION, OP_PREDICT, flags, request_id
            ),
            _PREDICT_HEAD.pack(len(name), n_samples, words.shape[0]),
            name,
            payload,
        )
    )


def encode_reply(
    labels: np.ndarray,
    scores: Optional[np.ndarray] = None,
    *,
    request_id: int = 0,
) -> bytes:
    """Frame one predict reply (labels, optionally per-class scores)."""
    labels = np.ascontiguousarray(np.asarray(labels, dtype=np.int64))
    if labels.ndim != 1:
        raise BinaryProtocolError(
            f"labels must be 1-D, got shape {labels.shape}"
        )
    flags = 0
    n_classes = 0
    parts = [labels.astype(_LABEL, copy=False).tobytes()]
    if scores is not None:
        scores = np.ascontiguousarray(np.asarray(scores, dtype=np.float64))
        if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
            raise BinaryProtocolError(
                f"scores must be ({labels.shape[0]}, n_classes), "
                f"got shape {scores.shape}"
            )
        flags = FLAG_SCORES
        n_classes = scores.shape[1]
        parts.append(scores.astype(_SCORE, copy=False).tobytes())
    return b"".join(
        (
            _COMMON.pack(
                BINARY_MAGIC, BINARY_VERSION, OP_REPLY, flags, request_id
            ),
            _REPLY_HEAD.pack(labels.shape[0], n_classes),
            *parts,
        )
    )


def encode_error(
    error_type: str, message: str, *, request_id: int = 0
) -> bytes:
    """Frame one typed error (unknown types degrade to ``internal``)."""
    code = _ERROR_CODE_OF.get(error_type, _ERROR_CODE_OF["internal"])
    body = message.encode("utf-8")[:65535]
    return b"".join(
        (
            _COMMON.pack(BINARY_MAGIC, BINARY_VERSION, OP_ERROR, 0, request_id),
            _ERROR_HEAD.pack(code, len(body)),
            body,
        )
    )


def _encode_control_body(payload: Dict[str, Any]) -> bytes:
    try:
        body = json.dumps(
            payload, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            f"payload is not JSON-serialisable: {error}"
        ) from error
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"control payload of {len(body)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte cap"
        )
    return body


def encode_control_request(
    payload: Dict[str, Any], *, request_id: int = 0
) -> bytes:
    """Frame one JSON control op for the binary wire (OP_CONTROL)."""
    body = _encode_control_body(payload)
    return b"".join(
        (
            _COMMON.pack(
                BINARY_MAGIC, BINARY_VERSION, OP_CONTROL, 0, request_id
            ),
            _CONTROL_HEAD.pack(len(body)),
            body,
        )
    )


def encode_control_reply(
    payload: Dict[str, Any], *, request_id: int = 0
) -> bytes:
    """Frame one JSON control response (OP_CONTROL_REPLY)."""
    body = _encode_control_body(payload)
    return b"".join(
        (
            _COMMON.pack(
                BINARY_MAGIC, BINARY_VERSION, OP_CONTROL_REPLY, 0, request_id
            ),
            _CONTROL_HEAD.pack(len(body)),
            body,
        )
    )


def replace_request_id(frame: bytes, request_id: int) -> bytes:
    """Re-stamp a binary frame's request id without touching the payload.

    The router forwards backend replies verbatim except for this one field:
    the backend answered with the router's internal id, the client must see
    its own.
    """
    if len(frame) < _COMMON.size:
        raise BinaryProtocolError("frame truncated mid-header")
    return (
        frame[:_REQUEST_ID_OFFSET]
        + _REQUEST_ID.pack(request_id)
        + frame[_REQUEST_ID_OFFSET + _REQUEST_ID.size:]
    )


# ------------------------------------------------------------ binary decoding
def _check_version(version: int) -> None:
    if version != BINARY_VERSION:
        raise BinaryProtocolError(
            f"unsupported binary protocol version {version} "
            f"(this side speaks {BINARY_VERSION})"
        )


def _predict_sizes(name_len: int, samples: int, features: int) -> int:
    """Validate an OP_PREDICT header, returning the payload byte count."""
    if name_len > MAX_MODEL_NAME_BYTES:
        raise BinaryProtocolError(
            f"model name of {name_len} bytes exceeds the "
            f"{MAX_MODEL_NAME_BYTES}-byte cap"
        )
    payload = features * n_words(samples) * 8
    if payload > MAX_PAYLOAD_BYTES:
        raise BinaryProtocolError(
            f"frame announces {payload} payload bytes, "
            f"cap is {MAX_PAYLOAD_BYTES}"
        )
    return payload


def _reply_sizes(samples: int, n_classes: int, flags: int) -> Tuple[int, int]:
    labels_bytes = samples * 8
    scores_bytes = samples * n_classes * 8 if flags & FLAG_SCORES else 0
    if labels_bytes + scores_bytes > MAX_PAYLOAD_BYTES:
        raise BinaryProtocolError(
            f"frame announces {labels_bytes + scores_bytes} payload bytes, "
            f"cap is {MAX_PAYLOAD_BYTES}"
        )
    return labels_bytes, scores_bytes


def _parse_predict(
    flags: int, request_id: int, head: bytes, name: bytes, payload: bytes
) -> BinaryRequest:
    _, samples, features = _PREDICT_HEAD.unpack(head)
    packed = np.frombuffer(payload, dtype=_WORD).reshape(
        features, n_words(samples)
    )
    return BinaryRequest(
        request_id=request_id,
        model=name.decode("utf-8") if name else None,
        packed=packed,
        n_samples=samples,
        return_scores=bool(flags & FLAG_SCORES),
    )


def _parse_reply(
    flags: int, request_id: int, head: bytes, body: bytes
) -> BinaryReply:
    samples, n_classes = _REPLY_HEAD.unpack(head)
    labels_bytes, _ = _reply_sizes(samples, n_classes, flags)
    labels = np.frombuffer(body[:labels_bytes], dtype=_LABEL).astype(
        np.int64, copy=False
    )
    scores = None
    if flags & FLAG_SCORES:
        scores = np.frombuffer(body[labels_bytes:], dtype=_SCORE).reshape(
            samples, n_classes
        )
    return BinaryReply(request_id=request_id, labels=labels, scores=scores)


def _frame_part(frame: bytes, start: int, n_bytes: int, what: str) -> bytes:
    """``frame[start:start + n_bytes]``, or a typed error if the frame ends
    first — the in-memory counterpart of :func:`_recv_or_raise`."""
    part = frame[start: start + n_bytes]
    if len(part) < n_bytes:
        raise BinaryProtocolError(f"frame truncated mid-{what}")
    return part


def decode_reply(frame: bytes) -> BinaryReply:
    """Fully parse one OP_REPLY frame held in memory (raises typed errors
    for OP_ERROR frames, exactly like :func:`recv_reply`)."""
    magic, version, opcode, flags, request_id = _COMMON.unpack(
        _frame_part(frame, 0, _COMMON.size, "header")
    )
    if magic != BINARY_MAGIC:
        raise BinaryProtocolError(
            f"expected a binary reply, got leading byte 0x{magic:02x}"
        )
    _check_version(version)
    if opcode == OP_ERROR:
        code, msg_len = _ERROR_HEAD.unpack(
            _frame_part(frame, _COMMON.size, _ERROR_HEAD.size, "error header")
        )
        message = _frame_part(
            frame, _COMMON.size + _ERROR_HEAD.size, msg_len, "error message"
        ).decode("utf-8", errors="replace")
        raise wire_exception(ERROR_CODES.get(code, "internal"), message)
    if opcode != OP_REPLY:
        raise BinaryProtocolError(
            f"unexpected opcode 0x{opcode:02x} in a reply"
        )
    head = _frame_part(frame, _COMMON.size, _REPLY_HEAD.size, "reply header")
    samples, n_classes = _REPLY_HEAD.unpack(head)
    labels_bytes, scores_bytes = _reply_sizes(samples, n_classes, flags)
    body = _frame_part(
        frame,
        _COMMON.size + _REPLY_HEAD.size,
        labels_bytes + scores_bytes,
        "reply body",
    )
    return _parse_reply(flags, request_id, head, body)


# ----------------------------------------------- unified readers (both sides)
async def read_frame(
    reader: asyncio.StreamReader,
) -> Union[None, Dict[str, Any], BinaryRequest, BinaryControlRequest]:
    """Read one *request* frame of either protocol from a shared listener.

    Returns ``None`` on clean EOF before a frame, a ``dict`` for a JSON
    frame, a :class:`BinaryRequest` for a binary predict frame, or a
    :class:`BinaryControlRequest` for a binary-framed control op.  The
    first byte discriminates: :data:`BINARY_MAGIC` can never open a JSON
    length header (the 64 MiB cap keeps that byte <= 0x04).
    """
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError:
        return None  # clean EOF between frames
    if first[0] != BINARY_MAGIC:
        return await _read_json_after_first(reader, first)
    try:
        version, opcode, flags, request_id = struct.unpack(
            "<BBBI", await reader.readexactly(_COMMON.size - 1)
        )
        _check_version(version)
        if opcode == OP_CONTROL:
            head = await reader.readexactly(_CONTROL_HEAD.size)
            (length,) = _CONTROL_HEAD.unpack(head)
            try:
                _check_length(length)
            except ProtocolError as error:
                raise BinaryProtocolError(str(error)) from error
            body = await reader.readexactly(length) if length else b""
            try:
                payload = _decode_body(body)
            except ProtocolError as error:
                raise BinaryProtocolError(str(error)) from error
            return BinaryControlRequest(
                request_id=request_id, payload=payload
            )
        if opcode != OP_PREDICT:
            raise BinaryProtocolError(
                f"unexpected opcode 0x{opcode:02x} from a client "
                "(only OP_PREDICT and OP_CONTROL cross this direction)"
            )
        head = await reader.readexactly(_PREDICT_HEAD.size)
        name_len, samples, features = _PREDICT_HEAD.unpack(head)
        payload_len = _predict_sizes(name_len, samples, features)
        name = await reader.readexactly(name_len) if name_len else b""
        payload = await reader.readexactly(payload_len)
    except asyncio.IncompleteReadError as error:
        raise BinaryProtocolError(
            "connection closed mid-binary-frame"
        ) from error
    return _parse_predict(flags, request_id, head, name, payload)


async def read_reply_frame(
    reader: asyncio.StreamReader,
) -> Union[None, Dict[str, Any], RawBinaryReply]:
    """Read one *reply* frame of either protocol (the client direction).

    The router's backend connections use this: JSON replies come back as
    dicts (re-associated by their ``id``), binary replies come back as
    :class:`RawBinaryReply` — validated and sized, payload untouched — so
    forwarding to the client is an id splice, not a decode/re-encode.
    ``None`` means clean EOF.
    """
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError:
        return None
    if first[0] != BINARY_MAGIC:
        return await _read_json_after_first(reader, first)
    try:
        rest_common = await reader.readexactly(_COMMON.size - 1)
        version, opcode, flags, request_id = struct.unpack(
            "<BBBI", rest_common
        )
        _check_version(version)
        if opcode == OP_ERROR:
            head = await reader.readexactly(_ERROR_HEAD.size)
            code, msg_len = _ERROR_HEAD.unpack(head)
            body = await reader.readexactly(msg_len) if msg_len else b""
            return RawBinaryReply(
                request_id=request_id,
                opcode=OP_ERROR,
                error_type=ERROR_CODES.get(code, "internal"),
                frame=first + rest_common + head + body,
            )
        if opcode == OP_CONTROL_REPLY:
            head = await reader.readexactly(_CONTROL_HEAD.size)
            (length,) = _CONTROL_HEAD.unpack(head)
            try:
                _check_length(length)
            except ProtocolError as error:
                raise BinaryProtocolError(str(error)) from error
            body = await reader.readexactly(length) if length else b""
            return RawBinaryReply(
                request_id=request_id,
                opcode=OP_CONTROL_REPLY,
                error_type=None,
                frame=first + rest_common + head + body,
            )
        if opcode != OP_REPLY:
            raise BinaryProtocolError(
                f"unexpected opcode 0x{opcode:02x} in a reply"
            )
        head = await reader.readexactly(_REPLY_HEAD.size)
        samples, n_classes = _REPLY_HEAD.unpack(head)
        labels_bytes, scores_bytes = _reply_sizes(samples, n_classes, flags)
        body = await reader.readexactly(labels_bytes + scores_bytes)
    except asyncio.IncompleteReadError as error:
        raise BinaryProtocolError(
            "connection closed mid-binary-frame"
        ) from error
    return RawBinaryReply(
        request_id=request_id,
        opcode=OP_REPLY,
        error_type=None,
        frame=first + rest_common + head + body,
    )


# ------------------------------------------------------------------- blocking
def _recv_or_raise(sock: socket.socket, n_bytes: int, what: str) -> bytes:
    data = _recv_exactly(sock, n_bytes)
    if len(data) < n_bytes:
        raise BinaryProtocolError(f"connection closed mid-{what}")
    return data


def recv_reply(sock: socket.socket) -> BinaryReply:
    """Blocking read of one binary reply; typed errors raise client-side.

    An OP_ERROR frame raises the exception class registered for its code in
    :data:`WIRE_ERROR_TYPES` — the same mapping the JSON client uses — so
    callers cannot tell which transport carried the error.
    """
    header = _recv_or_raise(sock, _COMMON.size, "header")
    magic, version, opcode, flags, request_id = _COMMON.unpack(header)
    if magic != BINARY_MAGIC:
        raise BinaryProtocolError(
            f"expected a binary reply, got leading byte 0x{magic:02x}"
        )
    _check_version(version)
    if opcode == OP_ERROR:
        head = _recv_or_raise(sock, _ERROR_HEAD.size, "error header")
        code, msg_len = _ERROR_HEAD.unpack(head)
        message = _recv_or_raise(sock, msg_len, "error message").decode(
            "utf-8", errors="replace"
        )
        raise wire_exception(ERROR_CODES.get(code, "internal"), message)
    if opcode != OP_REPLY:
        raise BinaryProtocolError(
            f"unexpected opcode 0x{opcode:02x} in a reply"
        )
    head = _recv_or_raise(sock, _REPLY_HEAD.size, "reply header")
    samples, n_classes = _REPLY_HEAD.unpack(head)
    labels_bytes, scores_bytes = _reply_sizes(samples, n_classes, flags)
    body = _recv_or_raise(sock, labels_bytes + scores_bytes, "reply body")
    return _parse_reply(flags, request_id, head, body)


def decode_control_reply(frame: bytes) -> Tuple[int, Dict[str, Any]]:
    """Parse one OP_CONTROL_REPLY frame held in memory → ``(id, payload)``."""
    magic, version, opcode, _flags, request_id = _COMMON.unpack(
        _frame_part(frame, 0, _COMMON.size, "header")
    )
    if magic != BINARY_MAGIC:
        raise BinaryProtocolError(
            f"expected a binary control reply, got leading byte 0x{magic:02x}"
        )
    _check_version(version)
    if opcode != OP_CONTROL_REPLY:
        raise BinaryProtocolError(
            f"unexpected opcode 0x{opcode:02x} in a control reply"
        )
    (length,) = _CONTROL_HEAD.unpack(
        _frame_part(frame, _COMMON.size, _CONTROL_HEAD.size, "control header")
    )
    body = _frame_part(
        frame, _COMMON.size + _CONTROL_HEAD.size, length, "control body"
    )
    return request_id, _decode_body(body)


def recv_control_reply(sock: socket.socket) -> Dict[str, Any]:
    """Blocking read of one OP_CONTROL_REPLY frame's JSON payload.

    Error semantics match the JSON protocol: the payload itself carries
    ``ok``/``error``, so this only raises on transport/framing failures —
    the caller maps typed wire errors exactly like a JSON response.
    """
    header = _recv_or_raise(sock, _COMMON.size, "header")
    magic, version, opcode, _flags, _request_id = _COMMON.unpack(header)
    if magic != BINARY_MAGIC:
        raise BinaryProtocolError(
            f"expected a binary control reply, got leading byte 0x{magic:02x}"
        )
    _check_version(version)
    if opcode != OP_CONTROL_REPLY:
        raise BinaryProtocolError(
            f"unexpected opcode 0x{opcode:02x} in a control reply"
        )
    head = _recv_or_raise(sock, _CONTROL_HEAD.size, "control header")
    (length,) = _CONTROL_HEAD.unpack(head)
    _check_length(length)
    body = _recv_or_raise(sock, length, "control body") if length else b""
    return _decode_body(body)


# --------------------------------------------------------- listener machinery
class CorkedWriter:
    """Per-connection response writer that coalesces same-tick writes.

    When a batch completes, every request of that batch resolves in the same
    event-loop pass — so their responses can share one ``send`` syscall
    instead of paying one each (under load, each small send costs a GIL
    round trip on top of the syscall).  ``send`` appends the encoded frame
    and schedules a single flush with ``call_soon``; the flush runs after
    all same-tick completions and writes the concatenation.  Loop-confined,
    so no lock is needed.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._frames: list = []
        self._flush_scheduled = False

    def send(self, payload: Dict[str, Any]) -> None:
        self.send_raw(encode_message(payload))

    def send_raw(self, frame: bytes) -> None:
        """Queue an already-encoded frame (either protocol) for the next
        corked flush — binary and JSON responses share one send."""
        self._frames.append(frame)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._frames or self._writer.is_closing():
            self._frames.clear()
            return
        data = b"".join(self._frames)
        self._frames.clear()
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()


class FrameServer:
    """The dual-protocol asyncio listener with an explicit lifecycle.

    Subclasses (:class:`~repro.serving.server.InferenceServer`, the cluster
    :class:`~repro.serving.router.RouterServer`) implement request
    semantics through two hooks — :meth:`_dispatch` for JSON requests and
    :meth:`_dispatch_binary` for binary predicts — while this base owns
    everything transport-shaped: the listener, per-connection pipelined
    dispatch with id echo, corked writes, protocol discrimination, and the
    connection teardown rules (an abortive disconnect *cancels* that
    connection's in-flight requests, so their queued work is discarded and
    their admission reservations released; a clean EOF lets them finish).

    Lifecycle states::

        starting --start()--> serving --drain()--> draining --stop()--> stopped
                                 \\________________stop()_______________/

    ``drain()`` is the graceful half of shutdown: the listener stays up and
    control ops keep answering (so orchestration can watch the drain), but
    admissions stop — subclasses reject new predicts with the typed
    ``unavailable`` error — and :meth:`_on_drain` flushes whatever is
    already admitted.  ``/healthz`` (when a subclass serves HTTP) flips to
    503 the moment the state leaves ``serving``, which is what load
    balancers and the cluster router key off.
    """

    STARTING = "starting"
    SERVING = "serving"
    DRAINING = "draining"
    STOPPED = "stopped"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 512,
    ) -> None:
        self.host = host
        self.port = port
        self._backlog = backlog
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._state = self.STARTING

    # ------------------------------------------------------------- lifecycle
    @property
    def state(self) -> str:
        """One of ``starting`` / ``serving`` / ``draining`` / ``stopped``."""
        return self._state

    async def start(self) -> Tuple[str, int]:
        """Bind the listener (running :meth:`_on_start` first); returns the
        bound address and flips the state to ``serving``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        await self._on_start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            backlog=self._backlog,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._state = self.SERVING
        try:
            await self._post_bind()
        except BaseException:
            await self.stop()
            raise
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Run until cancelled (convenience for ``asyncio.run`` scripts)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Stop admitting new work; flush what is already admitted.

        Idempotent.  The listener keeps answering control ops (``ping``
        reports the ``draining`` state, ``stats`` still renders) so an
        orchestrator can poll the drain's progress; subclasses reject new
        predict admissions while draining and :meth:`_on_drain` completes
        once everything admitted before the flip has been evaluated.
        """
        if self._state in (self.DRAINING, self.STOPPED):
            return
        self._state = self.DRAINING
        await self._on_drain()

    async def stop(self) -> None:
        """Stop accepting, hang up open connections, release resources."""
        await self._pre_stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # wait_closed() does not wait for in-flight connection handlers
        # (pre-3.12 asyncio); cancel them so shutdown never leaks a task
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self._on_stop()
        self._state = self.STOPPED

    # ------------------------------------------------------- subclass hooks
    async def _on_start(self) -> None:
        """Runs before the listener binds (warm-up work)."""

    async def _post_bind(self) -> None:
        """Runs after the listener binds (e.g. start an HTTP sidecar
        listener); raising here triggers a full :meth:`stop`."""

    async def _on_drain(self) -> None:
        """Flush everything admitted before the state flipped."""

    async def _pre_stop(self) -> None:
        """Runs first in :meth:`stop` (e.g. stop sidecar listeners)."""

    async def _on_stop(self) -> None:
        """Runs last in :meth:`stop` (e.g. close queues and registries)."""

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    async def _dispatch_binary(self, request: BinaryRequest) -> bytes:
        raise NotImplementedError

    # ----------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        # Pipelined dispatch: every request on this connection is handled in
        # its own task, so a stream of requests from one client coalesces
        # into shared batches exactly like requests from many clients —
        # including requests for *different models* interleaved on one
        # socket, each routed to its own queue.  A request carrying an
        # ``"id"`` gets it echoed in the response, which is how pipelining
        # clients re-associate out-of-order completions; the corked writer
        # turns all completions of one batch into a single frame-atomic
        # send.
        corked = CorkedWriter(writer)
        in_flight: set = set()

        async def respond(request: Dict[str, Any]) -> None:
            response = await self._dispatch(request)
            if "id" in request:
                response["id"] = request["id"]
            try:
                corked.send(response)
            except ProtocolError as error:
                # e.g. a model emitted NaN/Inf scores: JSON cannot carry
                # them (encode_message enforces allow_nan=False), so the
                # client gets the typed internal error instead of a frame
                # its parser rejects — the connection stays usable
                fallback = error_response(
                    "internal", f"response not representable in JSON: {error}"
                )
                if "id" in request:
                    fallback["id"] = request["id"]
                corked.send(fallback)
            await corked.drain()

        async def respond_binary(request: BinaryRequest) -> None:
            corked.send_raw(await self._dispatch_binary(request))
            await corked.drain()

        async def respond_control(request: BinaryControlRequest) -> None:
            # a binary-framed control op dispatches through the JSON op
            # table; the response rides back inside the binary framing so
            # the client's pipelined stream stays single-codec
            response = await self._dispatch(request.payload)
            try:
                frame = encode_control_reply(
                    response, request_id=request.request_id
                )
            except ProtocolError as error:
                frame = encode_control_reply(
                    error_response(
                        "internal",
                        f"response not representable in JSON: {error}",
                    ),
                    request_id=request.request_id,
                )
            corked.send_raw(frame)
            await corked.drain()

        try:
            while True:
                try:
                    request = await read_frame(reader)
                except BinaryProtocolError as error:
                    corked.send_raw(encode_error("bad_request", str(error)))
                    break
                except ProtocolError as error:
                    corked.send(error_response("bad_request", str(error)))
                    break
                if request is None:  # client closed cleanly
                    break
                if isinstance(request, BinaryRequest):
                    request_task = asyncio.create_task(respond_binary(request))
                elif isinstance(request, BinaryControlRequest):
                    request_task = asyncio.create_task(
                        respond_control(request)
                    )
                else:
                    request_task = asyncio.create_task(respond(request))
                in_flight.add(request_task)
                request_task.add_done_callback(in_flight.discard)
            # clean close: let in-flight requests finish (their replies may
            # still be deliverable on a half-open socket)
            if in_flight:
                await asyncio.gather(*list(in_flight))
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            # abortive disconnect: nobody is listening for these responses,
            # so the finally below *cancels* the in-flight requests — the
            # batching queue discards their still-queued entries and
            # releases their admission reservations (see BatchingQueue)
            pass
        except asyncio.CancelledError:
            pass  # server shutting down with the connection open
        finally:
            for request_task in list(in_flight):
                request_task.cancel()
            corked._flush()  # anything still corked goes out before the FIN
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass
            # deregister only once fully torn down, so stop() still awaits
            # a handler that is draining its transport
            self._connections.discard(task)
