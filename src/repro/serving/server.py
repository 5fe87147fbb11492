"""The asyncio inference server: sockets in, coalesced packed batches out.

:class:`InferenceServer` ties the pieces together: a TCP listener speaking
*both* wire protocols on one port — the length-prefixed JSON protocol
and the zero-copy binary protocol (both in
:mod:`repro.serving.transport`), discriminated by each frame's
first byte, with binary predict requests feeding their packed words
straight into the model's queue (the listener, the shared control ops and
the optional ``http_port=`` listener serving ``GET /metrics`` and ``GET
/healthz`` are the :class:`~repro.serving.transport.FrameServer` base's) —
plus a :class:`~repro.serving.registry.ModelRegistry` mapping model names to
per-model :class:`~repro.serving.queue.BatchingQueue`\\ s (each coalescing
its model's concurrent requests into joint packed evaluations, under its
own ``max_batch``/``max_wait_us``/``max_queue`` policy), an optional
shared :class:`~repro.serving.queue.AdmissionBudget` bounding total
in-flight samples across all models, and per-model
:class:`~repro.serving.stats.ServerStats` exposed through the ``stats``
and ``stats_text`` ops.  Each connection is an independent asyncio task;
requests route to their model's queue by the protocol's ``model`` field
(absent → the default model), so concurrency across sockets becomes batch
occupancy inside each model's engine.

Multi-tenancy is a config knob, not an architecture change: a single-model
server is just a registry of one.  The constructor takes server knobs
only; ``InferenceServer.register_model`` — the registry's own
:meth:`~repro.serving.registry.ModelRegistry.register`, bound — hosts every
model, each evaluating either a *labels* function or a *scores* function
(per-class decision scores, labels derived by ``argmax``).  A model with
``compiled_netlist()`` — :class:`~repro.core.poetbin.PoETBiNClassifier` —
is registered with ``model=`` and serves straight from its engine's
``run_scores``: RINC bank and table-lookup read-out in one call, nothing
unpacked in between.  Registration resolves that *engine* once, in this
process, for ``backend=``, and the registration owns it: it serves from
it, advertises its ``backend``/``threads``/``unroll``, and closes it on
retire.  ``unregister_model`` is the registry's ``unregister``; it, server
stop and the lifecycle ops all retire a version the registry's one way.

:class:`BackgroundServer` runs the whole thing on a dedicated event-loop
thread, which is how the tests, the benchmark and the demo drive it from
blocking code.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.serving.lifecycle import CanaryPolicy
from repro.serving.queue import (
    AdmissionBudget,
    BadRequestError,
    ServerUnavailableError,
    ServingError,
)
from repro.serving.registry import ModelRegistry
from repro.serving.stats import render_stats_text
from repro.serving.transport import (
    BinaryRequest,
    CorkedWriter,
    FrameServer,
    JsonPredictRequest,
    _encode_response,
    answer_batch,
    model_field,
)

__all__ = ["BackgroundServer", "InferenceServer"]


class InferenceServer(FrameServer):
    """Serve one or many batch-evaluable models over TCP with coalescing.

    The transport half — dual-protocol listener, pipelined per-connection
    dispatch, corked writes, the shared control ops, the HTTP listener and
    the explicit ``starting → serving → draining → stopped`` lifecycle with
    :meth:`~FrameServer.drain` — lives in the
    :class:`~repro.serving.transport.FrameServer` base; this class owns the
    *model* half: the registry, the queues, and the request semantics of
    both protocols.  While draining, new predicts are rejected
    with the typed ``unavailable`` error (control ops keep answering so the
    drain can be observed) and ``/healthz`` answers 503.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    http_port:
        ``None`` (default) disables the HTTP listener; any port (0 for
        ephemeral) additionally serves ``GET /metrics`` (Prometheus
        exposition of every model's stats) and ``GET /healthz`` over plain
        HTTP on the same host — no scrape sidecar needed.  Read the bound
        address back from :attr:`http_address` after :meth:`start`.
    max_batch, max_wait_us, max_queue:
        Default per-model coalescing and admission-control policy — see
        :class:`~repro.serving.queue.BatchingQueue`.  ``register_model``
        can override any of them per model.  ``max_wait_us`` bounds only
        the models that evaluate on their queue's executor thread; a
        single-thread ``"native"`` model evaluates on the loop and flushes
        a partial batch at the end of the next loop pass instead.
    max_total_queue:
        Optional *shared* admission bound in samples across every hosted
        model (see :class:`~repro.serving.queue.AdmissionBudget`); ``None``
        leaves only the per-model bounds.
    warm_up:
        Optional zero-argument callable run once at :meth:`start` (e.g. a
        one-sample evaluation per model to populate caches) so the cost
        lands at startup, not in the first request's latency.
    backlog:
        Listen-queue depth; sized for hundreds of simultaneous connects
        (the whole point of a coalescing server is bursty many-client
        traffic, and a dropped SYN costs a full retransmit timeout).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = None,
        max_batch: int = 64,
        max_wait_us: float = 2000.0,
        max_queue: int = 1024,
        max_total_queue: Optional[int] = None,
        warm_up: Optional[Callable[[], Any]] = None,
        backlog: int = 512,
    ) -> None:
        budget = (
            AdmissionBudget(max_total_queue)
            if max_total_queue is not None
            else None
        )
        self._registry = ModelRegistry(
            budget=budget,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            max_queue=max_queue,
        )
        super().__init__(
            host=host, port=port, http_port=http_port, backlog=backlog
        )
        self._warm_up = warm_up
        #: a version's one way in and its family's way out are the
        #: registry's own (see :class:`~repro.serving.registry.ModelRegistry`)
        self.register_model = self._registry.register
        self.unregister_model = self._registry.unregister

    # ------------------------------------------------------- model hosting
    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    def render_metrics(self) -> str:
        """Every hosted model's stats in Prometheus exposition format —
        the payload behind both ``GET /metrics`` and the ``stats_text``
        wire op.  Includes the serving-version gauge and the cumulative
        shadow-traffic counters (``repro_serving_shadow_requests`` /
        ``repro_serving_shadow_divergences``)."""
        entries = self._registry.entries()
        return render_stats_text(
            {entry.name: entry.stats.snapshot() for entry in entries},
            backends={entry.name: entry.backend for entry in entries},
            threads={entry.name: entry.threads for entry in entries},
            versions=self._registry.serving_versions(),
            shadows=self._registry.shadow_totals(),
        )

    # ------------------------------------------------------------ lifecycle
    # start/serve_forever/drain/stop and the connection handler live in
    # FrameServer; the hooks below plug in the model layer's pieces.
    async def _on_start(self) -> None:
        if self._warm_up is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._warm_up
            )

    async def _on_drain(self) -> None:
        # admissions already stopped (state is draining, the predict paths
        # reject); everything admitted before the flip completes here
        await self._registry.flush_all()

    async def _on_stop(self) -> None:
        await self._registry.close()

    # ------------------------------------------------------------- dispatch
    def _predict(
        self,
        request: Union[BinaryRequest, Dict[str, Any]],
        reply_to: Tuple[CorkedWriter, Any],
    ) -> None:
        """Admit one predict, whichever wire carried it, in the connection
        reader's stack frame: no task, no future — :meth:`_complete`
        answers it with the rest of its batch.

        Each wire contributes only its decode (a JSON request becomes a
        :class:`JsonPredictRequest`); either wire's packed words go into the
        model's queue (a JSON request's rows are packed on that first
        read); failures are typed
        :class:`~repro.serving.queue.ServingError`\\ s the base encodes for
        the requester's wire.  Nothing between resolving the model and
        entering its queue can yield, which is what makes a promotion
        atomic between batches.
        """
        if isinstance(request, dict):
            request = JsonPredictRequest.decode(request)
        if self._state != self.SERVING:
            raise ServerUnavailableError(
                f"this server is {self._state} and admits no new work"
            )
        entry = self._registry.resolve(request.model)
        if request.return_scores and not entry.scores_mode:
            raise BadRequestError(f"model {entry.name!r} has no scores path")
        try:
            entry.submit(request, self._complete, (*reply_to, request, entry))
        except ServingError:
            raise
        except Exception as error:  # noqa: BLE001 - e.g. a queue just closed
            raise ServingError(f"{type(error).__name__}: {error}") from error

    def _complete(
        self, entries: list, result: Optional[np.ndarray], error
    ) -> None:
        """One batch of admitted predicts is done (the queue's completion
        call, see :meth:`BatchingQueue.admit_packed`): ``argmax`` once, every
        connection's replies in one block, the shadow question asked once.
        """
        model = entries[0].tag[3]  # a queue serves one model version
        labels, scores = result, None
        if error is None and model.scores_mode:
            try:
                labels, scores = np.argmax(result, axis=1), result
            except ValueError as failure:  # scores without a class axis
                error = failure
        if error is not None:
            if not isinstance(error, ServingError):  # model failure
                error = ServingError(f"{type(error).__name__}: {error}")
            for entry in entries:
                connection, frame = entry.tag[:2]
                connection.reply(_encode_response(frame, error))
            return
        replies = []
        for entry in entries:
            connection, frame, request, _ = entry.tag
            replies.append(
                (
                    connection,
                    frame,
                    entry.lo,
                    entry.lo + entry.n_samples,
                    request.return_scores,
                )
            )
        answer_batch(replies, labels, scores)
        # mirror to the shadow candidate (if any) *after* the primary
        # replies are on their way — fire-and-forget, no client is delayed
        candidate = self._registry.shadow_candidate(model)
        if candidate is not None:
            finished = time.perf_counter()
            for entry in entries:
                self._registry.spawn_shadow(
                    candidate,
                    entry.tag[2],
                    result[entry.lo:entry.lo + entry.n_samples],
                    (finished - entry.enqueued_at) * 1e6,
                )

    def _abandon(self, connection: CorkedWriter) -> None:
        for entry in self._registry.all_records():
            entry.queue.discard(  # a shadow mirror's tag is its future
                lambda tag: isinstance(tag, tuple) and tag[0] is connection
            )

    def _control_op(self, op: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        if op == "stats":
            entry = self._registry.resolve(model_field(request))
            return {
                "ok": True,
                "model": entry.name,
                # live queue depth alongside the counter snapshot — the
                # rebalancer's per-model demand signal
                "backlog_samples": entry.queue.backlog_samples,
                "stats": entry.stats.snapshot(),
            }
        if op == "list_models":
            return {
                "ok": True,
                "default": self._registry.default_name,
                "models": [
                    self._registry.describe_family(name)
                    for name in self._registry.names
                ],
            }
        if op == "set_admission_weights":
            return self._handle_set_weights(request)
        if op in (
            "promote",
            "set_shadow",
            "clear_shadow",
            "promote_canary",
            "shadow_report",
            "lifecycle",
        ):
            return self._handle_lifecycle(op, request)
        return super()._control_op(op, request)

    def _handle_lifecycle(
        self, op: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The lifecycle control ops, shared by both wire protocols (JSON
        frames and binary OP_CONTROL frames dispatch identically)."""
        model = model_field(request)
        try:
            if op == "shadow_report":
                return {
                    "ok": True,
                    "report": self._registry.shadow_report(model),
                }
            if op == "lifecycle":
                family = self._registry.resolve(model).name
                return {
                    "ok": True,
                    "model": family,
                    "events": self._registry.lifecycle_events(family),
                }
            if op == "clear_shadow":
                return {"ok": True, **self._registry.clear_shadow(model)}
            version = request.get("version")
            if not isinstance(version, int) or isinstance(version, bool):
                raise BadRequestError(f"op {op!r} needs an integer version")
            if op == "promote":
                return {"ok": True, **self._registry.promote(model, version)}
            if op == "set_shadow":
                fraction = request.get("fraction", 1.0)
                if not isinstance(fraction, (int, float)) or isinstance(
                    fraction, bool
                ):
                    raise BadRequestError(
                        "fraction must be a number in (0, 1]"
                    )
                return {
                    "ok": True,
                    **self._registry.set_shadow(
                        model, version, float(fraction)
                    ),
                }
            # op == "promote_canary"
            policy = CanaryPolicy.from_wire(request)
            return {
                "ok": True,
                **self._registry.promote_canary(model, version, policy),
            }
        except (TypeError, ValueError) as error:
            raise BadRequestError(str(error)) from error

    def _handle_set_weights(self, request: Dict[str, Any]) -> Dict[str, Any]:
        budget = self._registry.budget
        if budget is None:
            raise BadRequestError(
                "this server has no shared admission budget to partition; "
                "start it with max_total_queue="
            )
        weights = request.get("weights")
        if not isinstance(weights, dict):
            raise BadRequestError("weights must be a {model: weight} object")
        try:
            budget.set_weights(weights)
        except ValueError as error:
            raise BadRequestError(str(error)) from error
        return {
            "ok": True,
            "weights": budget.weights,
            "shares": {
                name: budget.share_of(name) for name in budget.weights
            },
        }


class BackgroundServer:
    """Run an :class:`InferenceServer` on its own event-loop thread.

    Blocking code (tests, benchmarks, the demo) starts the server with::

        server = InferenceServer()
        server.register_model("default", model=clf)
        with BackgroundServer(server) as handle:
            with ServingClient(*handle.address) as client:
                labels = client.predict(rows)

    The thread owns the loop: ``start`` returns once the listener is bound
    (re-raising any startup failure), ``stop`` schedules a clean shutdown —
    drain, close, loop teardown — and joins the thread.
    """

    def __init__(self, server: InferenceServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.host, self.server.port

    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        started = threading.Event()
        failure: list = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except Exception as error:  # noqa: BLE001 - surfaced in start()
                failure.append(error)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.run_until_complete(self._settle())
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serving-loop", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self.address

    @staticmethod
    async def _settle(grace: float = 1.0) -> None:
        """Leave no task pending when the loop closes, as ``asyncio.run``
        ensures — a pending task destroyed with its loop logs "Task was
        destroyed but it is pending!", and its coroutine's ``finally`` then
        trips over "Event loop is closed".

        What can outlive ``stop()`` are connections accepted in the
        listener's last moment: asyncio's accept tasks and the handlers
        they start, which hang up by themselves once they run.  They get
        ``grace`` seconds to do that before anything is cancelled —
        cancelling an accept in flight logs an error of its own in debug
        mode.
        """
        loop = asyncio.get_running_loop()
        me = asyncio.current_task()
        deadline = loop.time() + grace
        while others := asyncio.all_tasks() - {me}:
            if loop.time() >= deadline:
                for task in others:
                    task.cancel()
                await asyncio.gather(*others, return_exceptions=True)
                return
            await asyncio.wait(others, timeout=deadline - loop.time())

    def run(self, coro, timeout: float = 30.0):
        """Run ``coro`` on the server's event loop and return its result.

        The blocking-side door to loop-confined state: lifecycle mutators
        (``register_model`` on a live server, ``unregister_model``,
        ``registry.promote``, ``registry.wait_idle``) run on the loop by
        design — one that retires a version raises ``RuntimeError`` with
        no loop running — so off-thread callers route them through here
        instead of mutating the registry from a foreign thread.
        """
        if self._loop is None or self._thread is None:
            raise RuntimeError("server thread not started")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
