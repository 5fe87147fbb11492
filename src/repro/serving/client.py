"""Blocking client for the inference server (tests, examples, load drivers).

:class:`ServingClient` wraps one TCP connection speaking the length-prefixed
JSON protocol — or, with ``binary=True``, the zero-copy binary protocol for
``predict`` (control ops stay JSON; both coexist on the one socket).  It is
intentionally synchronous — the server is where the concurrency lives; a
client thread (or 256 of them in the latency benchmark) just sends a
request and blocks on the response.  Server-side typed errors are re-raised
as the matching exception:
:class:`~repro.serving.queue.ServerOverloadedError` for sheds,
:class:`~repro.serving.queue.BadRequestError` for malformed requests,
:class:`~repro.serving.registry.ModelNotFoundError` for requests naming a
model the server does not host, and
:class:`~repro.serving.queue.ServingError` for internal model failures, so
callers can implement backoff with an ``except ServerOverloadedError``.

Against a multi-model server, every request-level method takes ``model=``
(``None`` routes to the server's default model), and :meth:`list_models` /
:meth:`stats` / :meth:`stats_text` cover discovery and scraping.

Retrying is opt-in: pass a :class:`~repro.serving.retry.RetryPolicy` and
the client retries *connect failures* (at construction) and *shed
requests* (``ServerOverloadedError`` from ``predict``) with bounded
exponential backoff and jitter.  Nothing else is retried — a typed
``bad_request`` will fail identically forever, and silently resubmitting
after an ``internal`` error could double-evaluate a request the server
half-processed.

Stream discipline
=================

The protocols are strictly request/response over one byte stream, so any
failure that can leave a *half-consumed frame* on the socket — a timeout
mid-read, a :class:`~repro.serving.transport.ProtocolError`, a connection
error mid-frame — poisons every later exchange: the next read would parse
the stale frame's remaining bytes as a fresh header and return garbage.
The client therefore marks the connection **dead** at the first such
failure; any further request raises :class:`StaleConnectionError`
immediately instead of desyncing.  Typed server errors (shed, bad request,
unknown model, internal) arrive as complete frames and do *not* kill the
connection.

A dead client cannot be resurrected — there is no "reconnect" method on
purpose, because the failed request's fate is unknown (the server may have
half-processed it) and only the caller can decide whether resubmitting is
safe.  Replace the client: ``close()`` it (idempotent, also what the
``with`` block does) and construct a new one.  A closed client likewise
refuses further requests with :class:`StaleConnectionError`.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.engine.bitpack import pack_bits
from repro.serving.queue import BadRequestError, ServerOverloadedError
from repro.serving.retry import RetryPolicy
from repro.serving.transport import (
    ProtocolError,
    WIRE_ERROR_TYPES,
    encode_control_request,
    encode_message,
    encode_predict_request,
    recv_control_reply,
    recv_message,
    recv_reply,
    wire_exception,
)

__all__ = ["ServingClient", "StaleConnectionError"]

#: kept as a module name for back-compat; the table itself lives in
#: :mod:`repro.serving.transport`, shared by both protocols and the router
_ERROR_TYPES = WIRE_ERROR_TYPES


class StaleConnectionError(ConnectionError):
    """This client's stream may hold a half-consumed frame; reuse refused.

    Raised by every request method after an earlier ``socket.timeout``,
    :class:`~repro.serving.transport.ProtocolError` or mid-frame connection
    failure.  The fix is always the same: close this client and open a new
    one (with a :class:`~repro.serving.retry.RetryPolicy` for the
    reconnect, if you want backoff).
    """


class ServingClient:
    """One blocking connection to an :class:`~repro.serving.server.InferenceServer`.

    Usage::

        with ServingClient(host, port) as client:
            labels = client.predict(rows)                 # (k,) int64
            labels, scores = client.predict(rows, return_scores=True)
            labels_b = client.predict(rows_b, model="variant-b")
            print(client.list_models()["models"])
            print(client.stats(model="variant-b")["latency_us"])

    ``binary=True`` sends ``predict`` over the zero-copy binary protocol:
    the client packs the rows once (:func:`~repro.engine.bitpack.pack_bits`)
    and ships the uint64 bit-planes; the server feeds them straight to the
    engine — no JSON encode/decode on either side, no re-pack.  Control
    ops (``stats``, ``list_models``, ``ping``) stay on the JSON protocol
    over the same socket.

    ``retry=RetryPolicy(...)`` opts in to backoff on connect failures and
    on shed (``overloaded``) predictions; the default is no retrying.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        *,
        binary: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._retry = retry
        self._binary = binary
        self._dead: Optional[str] = None
        self._closed = False
        if retry is None:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        else:
            self._sock = retry.call(
                lambda: socket.create_connection((host, port), timeout=timeout),
                retry_on=(OSError,),
            )

    # -------------------------------------------------------------- request
    def _check_usable(self) -> None:
        if self._closed:
            raise StaleConnectionError(
                "this client has been closed; open a new one"
            )
        if self._dead is not None:
            raise StaleConnectionError(
                "refusing to reuse this connection: its stream may hold a "
                f"half-consumed frame after {self._dead}; open a new client"
            )

    def _mark_dead(self, error: BaseException) -> None:
        self._dead = f"{type(error).__name__}: {error}"

    def _exchange(self, frame: bytes, recv: Callable[[socket.socket], Any]):
        """Send one frame, read its reply with ``recv`` — the one exchange
        every op goes through, and the owner of the dead-connection rule.

        A typed :class:`~repro.serving.queue.ServingError` from ``recv``
        (an OP_ERROR frame) propagates without killing the connection: the
        frame was consumed whole.
        """
        self._check_usable()
        try:
            self._sock.sendall(frame)
            reply = recv(self._sock)
        except (ProtocolError, OSError) as error:
            # timeout (a mid-read one leaves a partial frame), framing
            # error, or transport failure: the stream position is unknown
            self._mark_dead(error)
            raise
        if reply is None:
            error = ConnectionError("server closed the connection")
            self._mark_dead(error)
            raise error
        return reply

    def _request(
        self, payload: Dict[str, Any], *, control: bool = False
    ) -> Dict[str, Any]:
        """One JSON-bodied op; typed server errors raise.

        ``control=True`` marks a lifecycle op, which rides this client's
        native protocol: a ``binary=True`` client ships it inside an
        OP_CONTROL binary frame (so its pipelined stream stays
        single-codec), a JSON client sends the plain JSON frame.
        """
        if control and self._binary:
            response = self._exchange(
                encode_control_request(payload), recv_control_reply
            )
        else:
            response = self._exchange(encode_message(payload), recv_message)
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        raise wire_exception(
            error.get("type"), error.get("message", "unknown server error")
        )

    @staticmethod
    def _as_rows(features: np.ndarray) -> np.ndarray:
        rows = np.asarray(features)
        if rows.ndim == 1:
            rows = rows[np.newaxis, :]
        if rows.ndim != 2:
            raise BadRequestError(
                f"features must be 1-D or 2-D, got shape {rows.shape}"
            )
        return rows

    # ------------------------------------------------------------------ ops
    def predict(
        self,
        features: np.ndarray,
        return_scores: bool = False,
        model: Optional[str] = None,
    ):
        """Labels for a ``(k, F)`` (or single ``(F,)``) 0/1 feature matrix.

        ``model`` routes to a named model on a multi-model server (``None``
        → the server's default).  Returns ``labels`` of shape ``(k,)``, or
        ``(labels, scores)`` with ``scores`` of shape ``(k, n_classes)``
        when ``return_scores`` is set (requires a model with a scores
        path).  With a retry policy, shed requests are resubmitted under
        backoff before the ``ServerOverloadedError`` is allowed through.
        On a ``binary=True`` client the request crosses the wire as packed
        uint64 bit-planes instead of JSON.
        """
        rows = self._as_rows(features)
        if self._binary:
            self._check_usable()
            try:
                packed = pack_bits(rows)
            except ValueError as error:
                raise BadRequestError(str(error)) from error
            frame = encode_predict_request(
                packed, rows.shape[0], model=model, return_scores=return_scores
            )

            def attempt() -> Tuple[Any, Any]:
                reply = self._exchange(frame, recv_reply)
                return reply.labels, reply.scores

        else:
            # no dtype coercion: the server validates the raw values, so a
            # 0.5 is rejected with BadRequestError instead of truncating to 0
            payload = {
                "op": "predict",
                "features": rows.tolist(),
                "return_scores": bool(return_scores),
            }
            if model is not None:
                payload["model"] = model

            def attempt() -> Tuple[Any, Any]:
                response = self._request(payload)
                return (
                    response["labels"],
                    response["scores"] if return_scores else None,
                )

        if self._retry is None:
            labels, scores = attempt()
        else:
            labels, scores = self._retry.call(
                attempt, retry_on=(ServerOverloadedError,)
            )
        labels = np.asarray(labels, dtype=np.int64)
        if return_scores:
            return labels, np.asarray(scores, dtype=np.float64)
        return labels

    def stats(self, model: Optional[str] = None) -> Dict[str, Any]:
        """One model's :meth:`~repro.serving.stats.ServerStats.snapshot`
        (``None`` → the default model)."""
        payload: Dict[str, Any] = {"op": "stats"}
        if model is not None:
            payload["model"] = model
        return self._request(payload)["stats"]

    def stats_text(self) -> str:
        """Prometheus-style plain-text stats for every hosted model (see
        :func:`~repro.serving.stats.render_stats_text`)."""
        return self._request({"op": "stats_text"})["text"]

    def list_models(self) -> Dict[str, Any]:
        """``{"default": name, "models": [{name, scores, knobs...}, ...]}``."""
        response = self._request({"op": "list_models"})
        return {"default": response["default"], "models": response["models"]}

    def ping(self) -> bool:
        """Liveness probe; True when the server answers."""
        return bool(self._request({"op": "ping"})["ok"])

    # ------------------------------------------------------------- lifecycle
    def promote(self, model: str, version: int) -> Dict[str, Any]:
        """Atomically flip ``model``'s serving pointer to ``version``; the
        displaced version drains and retires.  Returns the flip record
        (``{"model", "version", "previous", "changed"}``)."""
        return self._request(
            {"op": "promote", "model": model, "version": int(version)},
            control=True,
        )

    def set_shadow(
        self, model: str, version: int, fraction: float = 1.0
    ) -> Dict[str, Any]:
        """Mirror ``fraction`` of ``model``'s traffic to standby
        ``version``; divergences land in the server's shadow report."""
        return self._request(
            {
                "op": "set_shadow",
                "model": model,
                "version": int(version),
                "fraction": float(fraction),
            },
            control=True,
        )

    def clear_shadow(self, model: str) -> Dict[str, Any]:
        """Stop mirroring ``model``'s traffic (idempotent)."""
        return self._request(
            {"op": "clear_shadow", "model": model}, control=True
        )

    def promote_canary(
        self,
        model: str,
        version: int,
        *,
        min_requests: int = 32,
        max_divergence_rate: float = 0.0,
        max_p99_ratio: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Auto-promote or auto-roll-back ``version`` on shadow evidence.

        Returns the verdict dict: ``status`` is ``"promoted"``,
        ``"rolled_back"`` (with a ``reason``) or ``"watching"`` when the
        policy's ``min_requests`` of mirrored traffic has not accumulated
        yet — the eventual decision then lands in :meth:`lifecycle` and
        :meth:`shadow_report`.
        """
        payload: Dict[str, Any] = {
            "op": "promote_canary",
            "model": model,
            "version": int(version),
            "min_requests": int(min_requests),
            "max_divergence_rate": float(max_divergence_rate),
        }
        if max_p99_ratio is not None:
            payload["max_p99_ratio"] = float(max_p99_ratio)
        return self._request(payload, control=True)

    def shadow_report(self, model: Optional[str] = None) -> Dict[str, Any]:
        """The model family's divergence evidence: counters, divergence
        rate, latency-ratio p99 and the recent divergent records."""
        payload: Dict[str, Any] = {"op": "shadow_report"}
        if model is not None:
            payload["model"] = model
        return self._request(payload, control=True)["report"]

    def lifecycle(self, model: Optional[str] = None) -> list:
        """The model family's lifecycle event history, oldest first."""
        payload: Dict[str, Any] = {"op": "lifecycle"}
        if model is not None:
            payload["model"] = model
        return self._request(payload, control=True)["events"]

    # -------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Close the connection.  Idempotent: a second (third, ...) call is
        a no-op, so ``close()`` is safe from both an explicit call *and* the
        context-manager exit.  After closing, every request method raises
        :class:`StaleConnectionError` — a closed client, like a dead one,
        must be replaced, never reused."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
