"""The unified transport layer: one wire grammar, one request path.

The length-prefixed JSON framing, the ``0xBF`` binary framing, the
first-byte protocol discrimination and the typed error mapping all live
here — the single implementation the client, the server and the cluster
router consume.  ``docs/serving.md`` describes both wire formats.

Layout:

* **Grammar** — :data:`_FRAMES` declares every binary opcode once (head
  ``struct``, a size rule ``(flags, head fields) → body part sizes`` that
  enforces the caps, parser), and :func:`_walk` is the one sans-IO walk
  over it and over the JSON framing (a 4-byte big-endian length, then one
  UTF-8 JSON object, capped at :data:`MAX_MESSAGE_BYTES`).  It asks a
  ``fetch(n)`` for bytes: the asyncio readers await it over
  ``readexactly``, a blocking socket and a frame held in memory step it
  through :func:`_drive`, a server connection steps it over the chunks its
  socket delivers (:class:`_ChunkedWalk`) — four views of one decoder, out
  of which every failure reachable from bytes comes as a
  :class:`ProtocolError`.
* **Readers** — each a byte-fetcher composed with a :class:`_Direction`
  (which frames may arrive): :func:`read_frame` (server side: requests of
  either protocol), :func:`read_reply_frame` (client side: replies of
  either protocol, returned *raw* so a router can forward the bytes
  untouched after :func:`replace_request_id`), :func:`read_message` /
  :func:`recv_message`, :func:`recv_reply` / :func:`decode_reply`,
  :func:`recv_control_reply` / :func:`decode_control_reply`.
* **Encoders** — :func:`encode_message` / :func:`write_message` /
  :func:`send_message`, :func:`encode_predict_request`,
  :func:`encode_reply`, :func:`encode_error`, and, sharing one body
  encoder with the JSON frames and one framer with each other,
  :func:`encode_control_request` / :func:`encode_control_reply`.  Binary
  frames lead with :data:`BINARY_MAGIC` (0xBF), which a JSON length header
  under the 64 MiB cap (first byte <= 0x04) can never produce.
* **Error mapping** — :data:`WIRE_ERROR_TYPES` (wire ``error.type`` string
  → typed exception) and :data:`ERROR_CODES` (binary error code → string),
  the one table both protocols and both directions share.
* **Listener machinery** — :class:`CorkedWriter`, :func:`answer_batch` and
  :class:`FrameServer`, the dual-protocol asyncio front end with the
  explicit ``starting → serving → draining → stopped`` lifecycle that
  :class:`~repro.serving.server.InferenceServer` and
  :class:`~repro.serving.router.RouterServer` both subclass with their
  ``_predict``; the base encodes each wire-neutral result — a whole batch's
  at once — for the wire its request arrived on.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import struct
import types
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.bitpack import n_words
from repro.serving.metrics_http import HttpMetricsListener
from repro.serving.queue import (
    BadRequestError,
    ServerOverloadedError,
    ServerUnavailableError,
    ServingError,
    pack_rows,
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
    "JsonPredictRequest",
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
    "model_field",
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


# ------------------------------------------------------------- wire constants
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


def model_field(payload: Dict[str, Any]) -> Optional[str]:
    """A JSON-bodied op's optional ``model`` field (``None`` = the default
    model); anything but a string is the typed ``bad_request``."""
    model = payload.get("model")
    if model is not None and not isinstance(model, str):
        raise BadRequestError("the model field must be a string")
    return model


@dataclass
class JsonPredictRequest:
    """The JSON protocol's ``predict`` op, decoded to :class:`BinaryRequest`'s
    shape, so a server's one predict routine takes either.  ``packed`` is
    the rows validated and packed (:func:`~repro.serving.queue.pack_rows`)
    on first read — at admission, after the model resolved, so the error
    a malformed matrix earns comes after the model's own."""

    model: Optional[str]
    rows: np.ndarray  # (n_samples, n_features), values as the client sent them
    n_samples: int
    return_scores: bool

    @cached_property
    def packed(self) -> np.ndarray:
        return pack_rows(self.rows)[0]

    @classmethod
    def decode(cls, payload: Dict[str, Any]) -> "JsonPredictRequest":
        model = model_field(payload)
        try:
            # no dtype coercion here: pack_rows must see the raw values so
            # 0.5 is rejected, not truncated to 0
            rows = np.asarray(payload.get("features"))
        except (TypeError, ValueError):
            raise BadRequestError(
                "features must be a rectangular 0/1 matrix"
            ) from None
        return cls(
            model=model,
            rows=rows,
            n_samples=len(rows) if rows.ndim else 0,
            return_scores=bool(payload.get("return_scores", False)),
        )


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


# ----------------------------------------------------------------- JSON bodies
def _encode_json(payload: Dict[str, Any], what: str) -> bytes:
    """The one JSON body encoder (JSON frames and both control ops)."""
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
            f"{what} of {len(body)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte cap"
        )
    return body


def _decode_json(body: bytes) -> Dict[str, Any]:
    """The one JSON body decoder (JSON frames and both control ops)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and an integer literal past
        # the interpreter's digit limit; a body of 200 000 '[' overflows
        # the scanner's recursion instead
        raise ProtocolError(f"invalid JSON payload: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_length(length: int, error: type = ProtocolError) -> int:
    if length > MAX_MESSAGE_BYTES:
        raise error(
            f"frame announces {length} bytes, cap is {MAX_MESSAGE_BYTES}"
        )
    return length


# ------------------------------------------------------------- binary grammar
def _capped(payload: int) -> int:
    if payload > MAX_PAYLOAD_BYTES:
        raise BinaryProtocolError(
            f"frame announces {payload} payload bytes, "
            f"cap is {MAX_PAYLOAD_BYTES}"
        )
    return payload


def _predict_body(
    flags: int, name_len: int, samples: int, features: int
) -> Tuple[int, int]:
    if name_len > MAX_MODEL_NAME_BYTES:
        raise BinaryProtocolError(
            f"model name of {name_len} bytes exceeds the "
            f"{MAX_MODEL_NAME_BYTES}-byte cap"
        )
    # two parts, two reads: the words keep a buffer of their own, 8-byte
    # aligned and never joined into (or sliced out of) a larger ``bytes``
    return name_len, _capped(features * n_words(samples) * 8)


def _reply_body(flags: int, samples: int, n_classes: int) -> Tuple[int]:
    per_sample = 1 + (n_classes if flags & FLAG_SCORES else 0)
    return (_capped(samples * per_sample * 8),)


def _error_body(flags: int, code: int, msg_len: int) -> Tuple[int]:
    return (msg_len,)  # a u16: at most 65535, no cap to enforce


def _control_body(flags: int, length: int) -> Tuple[int]:
    return (_check_length(length, BinaryProtocolError),)


def _parse_predict(
    flags: int,
    request_id: int,
    fields: Tuple[int, int, int],
    name: bytes,
    payload: bytes,
) -> BinaryRequest:
    _, samples, features = fields
    return BinaryRequest(
        request_id,
        name.decode("utf-8") if name else None,
        np.frombuffer(payload, dtype=_WORD).reshape(features, n_words(samples)),
        samples,
        bool(flags & FLAG_SCORES),
    )


def _parse_reply(
    flags: int, request_id: int, fields: Tuple[int, int], body: bytes
) -> BinaryReply:
    samples, n_classes = fields
    labels = np.frombuffer(body, dtype=_LABEL, count=samples).astype(
        np.int64, copy=False
    )
    scores = None
    if flags & FLAG_SCORES:
        scores = np.frombuffer(
            body, dtype=_SCORE, count=samples * n_classes, offset=samples * 8
        ).reshape(samples, n_classes)
    return BinaryReply(request_id, labels, scores)


def _parse_error(
    flags: int, request_id: int, fields: Tuple[int, int], body: bytes
) -> None:
    """An OP_ERROR frame *raises* — the exception class registered for its
    code in :data:`WIRE_ERROR_TYPES`, the same mapping the JSON client
    uses — whichever reply the caller was waiting for."""
    raise wire_exception(
        ERROR_CODES.get(fields[0], "internal"),
        body.decode("utf-8", errors="replace"),
    )


def _parse_control(
    flags: int, request_id: int, fields: Tuple[int], body: bytes
) -> BinaryControlRequest:
    return BinaryControlRequest(request_id, _decode_json(body))


def _parse_control_reply(
    flags: int, request_id: int, fields: Tuple[int], body: bytes
) -> Tuple[int, Dict[str, Any]]:
    return request_id, _decode_json(body)


class _Frame(NamedTuple):
    """One opcode's row of the binary grammar."""

    head: struct.Struct  # the fixed fields that follow the common header
    body: Callable[..., Tuple[int, ...]]  # (flags, *head fields) → part sizes
    parse: Callable[..., Any]  # (flags, request id, head fields, *parts)


#: The binary wire grammar, declared once.  Every frame is the common
#: header (magic, version, opcode, flags, request id), the opcode's fixed
#: ``head``, then the body parts whose sizes ``body`` derives from the
#: flags and head fields — raising :class:`BinaryProtocolError` past
#: :data:`MAX_PAYLOAD_BYTES` / :data:`MAX_MODEL_NAME_BYTES` /
#: :data:`MAX_MESSAGE_BYTES` *before* anything of that size is read.
_FRAMES: Dict[int, _Frame] = {
    OP_PREDICT: _Frame(_PREDICT_HEAD, _predict_body, _parse_predict),
    OP_REPLY: _Frame(_REPLY_HEAD, _reply_body, _parse_reply),
    OP_ERROR: _Frame(_ERROR_HEAD, _error_body, _parse_error),
    OP_CONTROL: _Frame(_CONTROL_HEAD, _control_body, _parse_control),
    OP_CONTROL_REPLY: _Frame(
        _CONTROL_HEAD, _control_body, _parse_control_reply
    ),
}


class _Direction(NamedTuple):
    """Which frames a reader accepts, and how it wants them."""

    ops: Tuple[int, ...]  # binary opcodes that may arrive; () = JSON only
    json: bool  # may JSON frames arrive (and clean EOF mean ``None``)?
    where: str  # finishes "unexpected opcode 0x.. "
    raw: bool = False  # keep binary frames as RawBinaryReply, unparsed


_JSON_ONLY = _Direction((), True, "")
_REQUESTS = _Direction(
    (OP_PREDICT, OP_CONTROL),
    True,
    "from a client (only OP_PREDICT and OP_CONTROL cross this direction)",
)
_REPLIES = _Direction(
    (OP_REPLY, OP_ERROR, OP_CONTROL_REPLY), True, "in a reply", raw=True
)
_PREDICT_REPLY = _Direction((OP_REPLY, OP_ERROR), False, "in a reply")
_CONTROL_REPLY = _Direction(
    (OP_CONTROL_REPLY, OP_ERROR), False, "in a control reply"
)

_MAGIC = bytes([BINARY_MAGIC])


def _check_version(version: int) -> None:
    if version != BINARY_VERSION:
        raise BinaryProtocolError(
            f"unsupported binary protocol version {version} "
            f"(this side speaks {BINARY_VERSION})"
        )


async def _walk(
    fetch: Callable[[int], Awaitable[bytes]], direction: _Direction, lost: str
):
    """Decode one frame: the single walk over the wire grammar.

    ``fetch(n)`` awaits exactly ``n`` bytes or raises
    :class:`asyncio.IncompleteReadError` where the stream ends (``lost``
    words the error).  That is ``StreamReader.readexactly`` as it stands, so
    the asyncio readers await this coroutine with nothing in between; the
    blocking views run the very same coroutine through :func:`_drive`.  The
    result is ``None`` on clean EOF before a frame, a ``dict`` for a JSON
    frame, and for a binary frame the opcode's parsed object — or a
    :class:`RawBinaryReply` when ``direction.raw``.  No read is ever
    requested beyond a size the grammar has announced and capped.
    """
    ops, json_ok, where, raw = direction
    try:  # a JSON length, or magic/version/opcode/flags
        prefix = await fetch(_HEADER.size)
    except asyncio.IncompleteReadError as short:
        prefix = short.partial
    if not (ops and prefix[:1] == _MAGIC):
        if json_ok:
            if not prefix:
                return None  # clean EOF between frames
            if len(prefix) < _HEADER.size:
                raise ProtocolError(f"{lost} mid-header")
            length = _check_length(_HEADER.unpack(prefix)[0])
            try:
                body = await fetch(length) if length else b""
            except asyncio.IncompleteReadError:
                raise ProtocolError(f"{lost} mid-message") from None
            return _decode_json(body)
        if prefix:
            raise BinaryProtocolError(
                f"expected a binary reply, got leading byte 0x{prefix[0]:02x}"
            )
    if len(prefix) < _HEADER.size:
        raise BinaryProtocolError(f"{lost} mid-binary-frame")
    _, version, opcode, flags = prefix
    _check_version(version)
    if opcode not in ops:
        raise BinaryProtocolError(f"unexpected opcode 0x{opcode:02x} {where}")
    head, body_sizes, parse = _FRAMES[opcode]
    try:
        rest = await fetch(_REQUEST_ID.size + head.size)
        (request_id,) = _REQUEST_ID.unpack_from(rest)
        fields = head.unpack_from(rest, _REQUEST_ID.size)
        parts: List[bytes] = []
        for size in body_sizes(flags, *fields):
            parts.append(await fetch(size) if size else b"")
    except asyncio.IncompleteReadError:
        raise BinaryProtocolError(f"{lost} mid-binary-frame") from None
    if raw:
        error_type = None
        if opcode == OP_ERROR:
            error_type = ERROR_CODES.get(fields[0], "internal")
        return RawBinaryReply(
            request_id, opcode, error_type, b"".join((prefix, rest, *parts))
        )
    try:
        return parse(flags, request_id, fields, *parts)
    except BinaryProtocolError:
        raise
    except (ProtocolError, UnicodeDecodeError) as error:
        # a control body that is not a JSON object, a model name that is not
        # UTF-8: still this frame's fault, so still a typed binary error —
        # the peer is answered on the wire it spoke
        raise BinaryProtocolError(str(error)) from error


def _drive(fetch: Callable[[int], bytes], direction: _Direction, lost: str):
    """Run the walk over a blocking ``fetch(n) -> up to n bytes``.

    Its reads never suspend, so a single step runs the coroutine to its
    end — the blocking socket and the in-memory frame are views of the same
    walk the asyncio readers await, not a second decoder.
    """

    async def exactly(n_bytes: int) -> bytes:
        data = fetch(n_bytes)
        if len(data) < n_bytes:
            raise asyncio.IncompleteReadError(data, n_bytes)
        return data

    try:
        _walk(exactly, direction, lost).send(None)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a blocking fetch suspended the walk")


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


def _recv(sock: socket.socket, direction: _Direction):
    return _drive(partial(_recv_exactly, sock), direction, "connection closed")


def _slice(frame: bytes, direction: _Direction):
    return _drive(io.BytesIO(frame).read, direction, "frame truncated")


class _ChunkedWalk:
    """The walk over a stream taken in whatever chunks arrive — the fourth
    view, beside ``readexactly``, the blocking socket and the frame in
    memory.

    :meth:`frames` steps the same :func:`_walk` over the chunks fed so far:
    its fetch answers from them while they last, *suspends* the walk where
    they run short and resumes it on the next chunk.  A burst of pipelined
    frames therefore costs its reader one ``await`` per chunk instead of
    four per frame, under the one grammar and the one set of caps.

    Every part comes out as ``bytes`` of its own — a slice of one chunk, or
    one join of the pieces when it spans several — so payload words never
    alias a receive buffer and sit at the alignment ``bytes`` guarantees,
    exactly as ``readexactly`` hands them over.
    """

    def __init__(self, direction: _Direction, lost: str) -> None:
        self._direction = direction
        self._lost = lost
        self._chunks: deque = deque()  # received, not yet consumed
        self._offset = 0  # consumed bytes of ``_chunks[0]``
        self._unread = 0
        self._eof = False
        self._walk = None  # the walk of a frame some chunk boundary cut

    def _take(self, n_bytes: int) -> bytes:
        self._unread -= n_bytes
        chunks = self._chunks
        if chunks:
            end = self._offset + n_bytes
            if end < len(chunks[0]):  # the usual case: inside one chunk
                start, self._offset = self._offset, end
                return chunks[0][start:end]
        pieces = []
        while n_bytes:
            piece = memoryview(chunks[0])[self._offset:self._offset + n_bytes]
            n_bytes -= len(piece)
            self._offset += len(piece)
            if self._offset == len(chunks[0]):
                self._offset = 0
                chunks.popleft()
            pieces.append(piece)
        return b"".join(pieces)

    @types.coroutine
    def _fetch(self, n_bytes: int):
        while self._unread < n_bytes:
            if self._eof:
                raise asyncio.IncompleteReadError(
                    self._take(self._unread), n_bytes
                )
            yield  # to :meth:`frames`, which returns; the next chunk resumes
        return self._take(n_bytes)

    def frames(self, chunk: bytes):
        """Feed ``chunk`` and generate every frame it completes, decoded as
        :func:`_walk` decodes them.  ``b""`` is the end of the stream: the
        last item is then ``None`` (clean EOF between frames).  A malformed
        frame raises its :class:`ProtocolError` after the good frames in
        front of it were generated."""
        if chunk:
            self._chunks.append(chunk)
            self._unread += len(chunk)
        else:
            self._eof = True
        while self._unread or self._eof:
            walk = self._walk or _walk(self._fetch, self._direction, self._lost)
            self._walk = None
            try:
                walk.send(None)
            except StopIteration as done:
                yield done.value
                if done.value is None:
                    return
            else:
                self._walk = walk
                return


# -------------------------------------------------------------------- readers
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
    return await _walk(reader.readexactly, _REQUESTS, "connection closed")


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
    return await _walk(reader.readexactly, _REPLIES, "connection closed")


async def read_message(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Read one framed JSON message; ``None`` on clean EOF before a header."""
    return await _walk(reader.readexactly, _JSON_ONLY, "connection closed")


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Blocking counterpart of :func:`read_message` (``None`` on clean EOF)."""
    return _recv(sock, _JSON_ONLY)


def recv_reply(sock: socket.socket) -> BinaryReply:
    """Blocking read of one binary reply; typed errors raise client-side.

    An OP_ERROR frame raises the exception class registered for its code in
    :data:`WIRE_ERROR_TYPES` — the same mapping the JSON client uses — so
    callers cannot tell which transport carried the error.
    """
    return _recv(sock, _PREDICT_REPLY)


def decode_reply(frame: bytes) -> BinaryReply:
    """Fully parse one OP_REPLY frame held in memory (raises typed errors
    for OP_ERROR frames, exactly like :func:`recv_reply`)."""
    return _slice(frame, _PREDICT_REPLY)


def recv_control_reply(sock: socket.socket) -> Dict[str, Any]:
    """Blocking read of one OP_CONTROL_REPLY frame's JSON payload.

    Error semantics match the JSON protocol: the payload itself carries
    ``ok``/``error``, and the caller maps it exactly like a JSON response.
    A server that could not even decode the control frame (a version
    mismatch, say) answers OP_ERROR instead; that raises its typed
    exception here, as it does from :func:`recv_reply`.
    """
    return _recv(sock, _CONTROL_REPLY)[1]


def decode_control_reply(frame: bytes) -> Tuple[int, Dict[str, Any]]:
    """Parse one OP_CONTROL_REPLY frame held in memory → ``(id, payload)``."""
    return _slice(frame, _CONTROL_REPLY)


# ------------------------------------------------------------------- encoders
def encode_message(payload: Dict[str, Any]) -> bytes:
    """Serialise one message to its framed wire form.

    Non-finite floats raise :class:`ProtocolError`: the encoder would
    otherwise emit the bare ``NaN``/``Infinity`` tokens, which are not JSON
    — a strict peer rejects the whole frame.  The server converts this
    failure into the typed ``internal`` wire error; the binary protocol
    carries non-finite scores losslessly instead.
    """
    body = _encode_json(payload, "message")
    return _HEADER.pack(len(body)) + body


async def write_message(
    writer: asyncio.StreamWriter, payload: Dict[str, Any]
) -> None:
    """Frame and send one message, draining the transport buffer."""
    writer.write(encode_message(payload))
    await writer.drain()


def send_message(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Blocking counterpart of :func:`write_message`."""
    sock.sendall(encode_message(payload))


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


def _control_frame(
    opcode: int, payload: Dict[str, Any], request_id: int
) -> bytes:
    """The one framer of a JSON body inside a binary frame."""
    body = _encode_json(payload, "control payload")
    return b"".join(
        (
            _COMMON.pack(BINARY_MAGIC, BINARY_VERSION, opcode, 0, request_id),
            _CONTROL_HEAD.pack(len(body)),
            body,
        )
    )


def encode_control_request(
    payload: Dict[str, Any], *, request_id: int = 0
) -> bytes:
    """Frame one JSON control op for the binary wire (OP_CONTROL)."""
    return _control_frame(OP_CONTROL, payload, request_id)


def encode_control_reply(
    payload: Dict[str, Any], *, request_id: int = 0
) -> bytes:
    """Frame one JSON control response (OP_CONTROL_REPLY)."""
    return _control_frame(OP_CONTROL_REPLY, payload, request_id)


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


# --------------------------------------------------------- listener machinery
#: most bytes one ``await`` of a connection's read loop takes off its socket
_CHUNK_BYTES = 1 << 16

_REPLY_FRAME = struct.Struct(_COMMON.format + _REPLY_HEAD.format[1:])


def _encode_response(request: Any, result: Any) -> bytes:
    """Encode a handler's wire-neutral ``result`` for the wire ``request``
    (a frame as :func:`read_frame` returned it) arrived on.

    OP_PREDICT is answered by OP_ERROR or a forwarded reply carrying its
    request id (its own results are encoded per batch, by
    :func:`answer_batch`); the JSON-bodied wires get the same response
    ``dict`` — as a JSON frame echoing the request's ``"id"`` when it sent
    one (how pipelining clients re-associate out-of-order completions), or
    inside OP_CONTROL_REPLY.
    """
    if isinstance(request, BinaryRequest):
        rid = request.request_id
        if isinstance(result, ServingError):
            return encode_error(result.error_type, str(result), request_id=rid)
        # zero-copy forward: splice the client's id into the raw frame
        return replace_request_id(result.frame, rid)
    if isinstance(result, ServingError):
        result = error_response(result.error_type, str(result))
    elif isinstance(result, tuple):
        labels, scores = result
        result = {"ok": True, "labels": labels.tolist()}
        if scores is not None:
            result["scores"] = scores.tolist()

    def frame(response: Dict[str, Any]) -> bytes:
        if isinstance(request, BinaryControlRequest):
            return encode_control_reply(
                response, request_id=request.request_id
            )
        if "id" in request:
            response["id"] = request["id"]
        return encode_message(response)

    try:
        return frame(result)
    except ProtocolError as error:
        # e.g. a model emitted NaN/Inf scores: JSON cannot carry them
        # (allow_nan=False), so the client gets the typed internal error
        # instead of a frame its parser rejects — the connection stays usable
        return frame(
            error_response(
                "internal", f"response not representable in JSON: {error}"
            )
        )


class CorkedWriter:
    """One connection's reply sink: it coalesces same-tick writes and counts
    the answers still owed.

    A batch's completion answers every request it carried in one event-loop
    pass, and whatever else resolves in that pass (another model's batch, a
    shed, forwarded replies) joins them: ``send_raw`` appends and schedules
    a single flush with ``call_soon``, the flush writes the concatenation —
    one ``send`` syscall, frame-atomic.  ``pending`` counts the requests
    admitted synchronously and not yet answered through :meth:`reply`,
    which is what a clean EOF waits out (:meth:`settled`).  Loop-confined,
    so no lock is needed.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._frames: list = []
        self._flush_scheduled = False
        self.pending = 0
        self._settled: Optional[asyncio.Future] = None

    def send(self, payload: Dict[str, Any]) -> None:
        self.send_raw(encode_message(payload))

    def send_raw(self, *frames: bytes) -> None:
        """Queue already-encoded frames (either protocol), or the parts of
        one, for the next corked flush — binary and JSON responses share
        one send."""
        self._frames += frames
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def reply(self, *frames: bytes) -> None:
        """:meth:`send_raw` the answer to one synchronously admitted
        request."""
        self.send_raw(*frames)
        self.pending -= 1
        if not self.pending and self._settled is not None:
            self._settled.set_result(None)
            self._settled = None

    async def settled(self) -> None:
        """Return once nothing admitted on this connection is unanswered."""
        if self.pending:
            self._settled = asyncio.get_running_loop().create_future()
            await self._settled

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._frames or self._writer.is_closing():
            self._frames.clear()
            return
        data = b"".join(self._frames)
        self._frames.clear()
        self._writer.write(data)


def answer_batch(
    replies: List[Tuple[CorkedWriter, Any, int, int, bool]],
    labels: np.ndarray,
    scores: Optional[np.ndarray],
) -> None:
    """Answer the predicts of one evaluated batch.

    ``replies`` lists ``(connection, request, lo, hi, return scores?)`` in
    completion order — ``request`` the frame as :func:`read_frame` returned
    it, ``labels[lo:hi]`` (and ``scores[lo:hi]``) its rows of the batch.
    Each connection is handed exactly the bytes of one :func:`encode_reply`
    frame per OP_PREDICT and of one JSON / OP_CONTROL_REPLY frame per
    JSON-bodied predict, in that order.  The arrays become wire bytes once
    for the whole batch — one :func:`encode_reply` frame, cut per request —
    not once per request, the scores only when a reply carries them; a
    result the binary wire cannot carry (labels that are not one integer
    per sample) is the typed ``internal`` error for the binary requests
    only.
    """
    body = None
    if not any(reply[4] for reply in replies):
        scores = None
    for connection, request, lo, hi, return_scores in replies:
        if not isinstance(request, BinaryRequest):
            connection.reply(
                _encode_response(
                    request,
                    (labels[lo:hi], scores[lo:hi] if return_scores else None),
                )
            )
            continue
        if body is None:
            try:
                body = encode_reply(labels, scores)
                n_classes = 0 if scores is None else scores.shape[1]
            except (ProtocolError, TypeError, ValueError) as error:
                body = ServingError(
                    f"result not representable in a binary reply: {error}"
                )
            labels_at = _REPLY_FRAME.size
            scores_at = labels_at + 8 * len(labels)
        if isinstance(body, ServingError):
            connection.reply(_encode_response(request, body))
        elif return_scores:
            connection.reply(
                _REPLY_FRAME.pack(
                    BINARY_MAGIC, BINARY_VERSION, OP_REPLY, FLAG_SCORES,
                    request.request_id, hi - lo, n_classes,
                ),
                body[labels_at + 8 * lo:labels_at + 8 * hi],
                body[scores_at + 8 * n_classes * lo:
                     scores_at + 8 * n_classes * hi],
            )
        else:
            connection.reply(
                _REPLY_FRAME.pack(
                    BINARY_MAGIC, BINARY_VERSION, OP_REPLY, 0,
                    request.request_id, hi - lo, 0,
                ),
                body[labels_at + 8 * lo:labels_at + 8 * hi],
            )


class FrameServer:
    """The dual-protocol asyncio listener with an explicit lifecycle.

    Subclasses (:class:`~repro.serving.server.InferenceServer`, the cluster
    :class:`~repro.serving.router.RouterServer`) implement what differs —
    :meth:`_predict`, :meth:`_control_op` and :meth:`render_metrics` — and
    this base owns the rest: the listener, per-connection pipelined
    dispatch, the ``ping`` / ``stats_text`` / ``drain`` ops, encoding each
    result for the wire its request arrived on (:func:`_encode_response` /
    :func:`answer_batch`), corked writes, read-side backpressure, the
    connection teardown rules (an abortive disconnect *abandons* that
    connection's unanswered requests, discarding their queued work and
    releasing their admission reservations; a clean EOF lets them finish),
    and the ``http_port=`` listener serving ``GET /metrics`` and ``GET
    /healthz``.

    Lifecycle states::

        starting --start()--> serving --drain()--> draining --stop()--> stopped
                                 \\________________stop()_______________/

    ``drain()`` is the graceful half of shutdown: the listener stays up and
    control ops keep answering (so orchestration can watch the drain), but
    admissions stop — subclasses reject new predicts with the typed
    ``unavailable`` error — and :meth:`_on_drain` flushes whatever is
    already admitted.  ``/healthz`` flips to 503 the moment the state
    leaves ``serving``, which is what load balancers and the cluster router
    key off.
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
        http_port: Optional[int] = None,
        backlog: int = 512,
    ) -> None:
        self.host = host
        self.port = port
        self.http_port = http_port
        self._backlog = backlog
        self._server: Optional[asyncio.base_events.Server] = None
        self._http: Optional[HttpMetricsListener] = None
        self._connections: set = set()
        self._state = self.STARTING

    # ------------------------------------------------------------- lifecycle
    @property
    def state(self) -> str:
        """One of ``starting`` / ``serving`` / ``draining`` / ``stopped``."""
        return self._state

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """The HTTP listener's bound ``(host, port)``; ``None`` when the
        server was built without ``http_port`` or is not running."""
        if self._http is None:
            return None
        return self._http.host, self._http.port

    async def start(self) -> Tuple[str, int]:
        """Bind the listener (running :meth:`_on_start` first), then any
        HTTP listener; returns the bound address and flips the state to
        ``serving``."""
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
            if self.http_port is not None:
                self._http = HttpMetricsListener(
                    self.render_metrics,
                    lambda: self._state,
                    host=self.host,
                    port=self.http_port,
                )
                _, self.http_port = await self._http.start()
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
        if self._http is not None:
            await self._http.stop()
            self._http = None
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
        """Runs after the listener binds (e.g. start background loops);
        raising here, or in the HTTP bind, triggers a full :meth:`stop`."""

    async def _on_drain(self) -> None:
        """Flush everything admitted before the state flipped."""

    async def _on_stop(self) -> None:
        """Runs last in :meth:`stop` (e.g. close queues and registries)."""

    def render_metrics(self) -> str:
        """The Prometheus exposition text behind ``GET /metrics`` and the
        ``stats_text`` op."""
        raise NotImplementedError

    def _predict(
        self,
        request: Union[Dict[str, Any], BinaryRequest],
        reply_to: Tuple[CorkedWriter, Any],
    ) -> Optional[Awaitable[Any]]:
        """Take one predict, called in the connection reader's own stack
        frame.

        ``request`` is a :class:`BinaryRequest` (OP_PREDICT) or the ``dict``
        of a JSON ``predict`` op; ``reply_to`` is ``(connection, frame)``,
        the frame as :func:`read_frame` returned it.  Two ways to take it:

        * *admit* it and return ``None`` — no task is made for it, and the
          subclass owes ``connection`` exactly one :meth:`CorkedWriter.reply`
          (:func:`answer_batch` pays a whole batch of them);
        * return an awaitable of its wire-neutral result — a response
          ``dict``, a backend's :class:`RawBinaryReply` to forward — which
          the base runs as a task and encodes for the frame's wire.

        A raised :class:`~repro.serving.queue.ServingError` (here, or out of
        the awaitable) is the typed failure.
        """
        raise NotImplementedError

    def _control_op(self, op: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer a control op the base does not (``stats``, ...)."""
        raise BadRequestError(f"unknown op {op!r}")

    #: extra fields of the ``ping`` reply, after ``ok`` and ``state``
    _PING_FIELDS: Dict[str, Any] = {}

    def _dispatch(self, request, reply_to):
        """Route one decoded request: a binary frame or a JSON ``predict``
        goes to :meth:`_predict`; every other JSON-bodied op (a JSON frame
        or OP_CONTROL carried it) runs as :meth:`_control`'s task."""
        if (
            isinstance(request, BinaryRequest)
            or request.get("op", "predict") == "predict"
        ):
            return self._predict(request, reply_to)
        return self._control(request)

    async def _control(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The control ops every server answers alike; the rest go to
        :meth:`_control_op`."""
        op = request["op"]
        if op == "ping":
            return {"ok": True, "state": self._state, **self._PING_FIELDS}
        if op == "stats_text":
            return {"ok": True, "text": self.render_metrics()}
        if op == "drain":
            await self.drain()
            return {"ok": True, "state": self._state}
        return self._control_op(op, request)

    def _abandon(self, connection: CorkedWriter) -> None:
        """``connection`` is gone with admitted requests unanswered: drop
        the ones no batch has taken yet (nobody reads their answers)."""

    # ----------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        # Pipelined dispatch without a task per request: the loop below takes
        # whatever the socket delivered, decodes every frame the chunk
        # completes and hands each to _dispatch right here, so a stream of
        # requests from one client coalesces into shared batches exactly
        # like requests from many clients — including requests for
        # *different models* interleaved on one socket, each routed to its
        # own queue.  A request carrying an ``"id"`` gets it echoed in the
        # response, which is how pipelining clients re-associate
        # out-of-order completions; the corked writer turns all completions
        # of one batch into a single frame-atomic send.
        corked = CorkedWriter(writer)
        walk = _ChunkedWalk(_REQUESTS, "connection closed")
        in_flight: set = set()

        async def respond(frame, result) -> None:
            try:
                result = await result
            except ServingError as error:
                result = error
            corked.send_raw(_encode_response(frame, result))

        try:
            if self._server is None or not self._server.is_serving():
                # accepted in the listener's last moment, started only after
                # stop() swept _connections: nobody would ever cancel this
                # handler, so it hangs up by itself
                return
            while True:
                # b"" is EOF, and the walk has to hear of that too
                chunk = await reader.read(_CHUNK_BYTES)
                try:
                    for frame in walk.frames(chunk):
                        if frame is None:  # client closed cleanly
                            break
                        try:
                            result = self._dispatch(
                                frame.payload
                                if isinstance(frame, BinaryControlRequest)
                                else frame,
                                (corked, frame),
                            )
                        except ServingError as error:
                            corked.send_raw(_encode_response(frame, error))
                            continue
                        if result is None:  # admitted: answered with its batch
                            corked.pending += 1
                            continue
                        request_task = asyncio.create_task(
                            respond(frame, result)
                        )
                        in_flight.add(request_task)
                        request_task.add_done_callback(in_flight.discard)
                except BinaryProtocolError as error:
                    corked.send_raw(encode_error("bad_request", str(error)))
                    break
                except ProtocolError as error:
                    corked.send(error_response("bad_request", str(error)))
                    break
                if not chunk:
                    break
                # backpressure: a peer that does not read its replies stops
                # being read from while its transport sits above the
                # high-water mark, so neither buffer grows with its pipeline
                await writer.drain()
                if len(chunk) == _CHUNK_BYTES:
                    # a full chunk: more is buffered and the next read would
                    # not wait, so let completions (and other connections)
                    # run first — they are what fills the transport
                    await asyncio.sleep(0)
            # clean close: let in-flight requests finish (their replies may
            # still be deliverable on a half-open socket)
            if in_flight:
                await asyncio.gather(*list(in_flight))
            await corked.settled()
        except (ConnectionResetError, BrokenPipeError):
            # abortive disconnect: nobody is listening for these responses,
            # so the finally below cancels the in-flight tasks and abandons
            # the admitted requests — the batching queue discards their
            # still-queued entries and releases their admission
            # reservations (see BatchingQueue.discard)
            pass
        except asyncio.CancelledError:
            pass  # server shutting down with the connection open
        finally:
            for request_task in list(in_flight):
                request_task.cancel()
            if corked.pending:
                self._abandon(corked)
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
