"""The asyncio inference server: sockets in, coalesced packed batches out.

:class:`InferenceServer` ties the pieces together: a TCP listener speaking
*both* wire protocols on one port — the length-prefixed JSON protocol
and the zero-copy binary protocol (both in
:mod:`repro.serving.transport`), discriminated by each frame's
first byte, with binary predict requests feeding their packed words
straight into the model's queue — plus an optional plain-HTTP listener
(``http_port=``) serving ``GET /metrics`` and ``GET /healthz``
(:mod:`repro.serving.metrics_http`), a
:class:`~repro.serving.registry.ModelRegistry` mapping model names to
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
server is just a registry of one.  The constructor's ``batch_fn``/
``scores_fn`` shortcut registers that one model under the name
``"default"`` — the PR-4 API unchanged — while :meth:`register_model`
adds more, each evaluating either a *labels* function or a *scores*
function (per-class decision scores, labels derived by ``argmax``).
:meth:`InferenceServer.for_model` picks the best entry point a model
offers — for :class:`~repro.core.poetbin.PoETBiNClassifier` that is
``decision_scores_batch``, the path that serves straight from the
engine's ``run_scores`` — RINC bank and table-lookup read-out in one call,
nothing unpacked in between.  Registration resolves the model's *engine*
once — built for ``backend=``, or attached to a shared
:class:`~repro.engine.parallel.WorkerPool` with ``pool=`` so every hosted
model's big batches fan out over one set of worker processes — and the
registration owns that engine: it serves from it, advertises its
``backend``/``threads``/``unroll``, and closes it on retire.

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

from repro.engine.parallel import ShardedEngine
from repro.serving.lifecycle import CanaryPolicy
from repro.serving.metrics_http import HttpMetricsListener
from repro.serving.queue import (
    AdmissionBudget,
    BadRequestError,
    ServerUnavailableError,
    ServingError,
)
from repro.serving.registry import ModelRegistry, RegisteredModel
from repro.serving.stats import ServerStats, render_stats_text
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


def _bind_model(
    model: Any, backend: Optional[str], pool: Optional[Any]
) -> Tuple[Any, Optional[Callable], Optional[Callable], Optional[Callable]]:
    """``(engine, batch_fn, scores_fn, packed_fn)`` for serving ``model``.

    A model that serves from a compiled LUT netlist — it offers
    ``to_netlist()``, ``compiled_netlist(backend)`` and batch methods taking
    ``engine=``, like :class:`~repro.core.poetbin.PoETBiNClassifier` — gets
    its engine resolved here, once: attached to ``pool`` as a
    :class:`~repro.engine.parallel.ShardedEngine` the registration owns, or
    the model's own engine for ``backend``.  Its scores and zero-copy packed
    entry points are bound to that engine object.

    Anything else is served as it is — ``decision_scores_batch`` (with
    ``decision_scores_packed_batch`` as the binary protocol's packed path
    when offered), then ``predict_batch``, then the model as a plain
    callable — with no engine the server could select: ``backend``/``pool``
    raise instead of being dropped.
    """
    if hasattr(model, "compiled_netlist"):
        if pool is not None:
            engine = ShardedEngine(
                model.to_netlist(), pool=pool, engine_backend=backend or "numpy"
            )
        else:
            engine = model.compiled_netlist(backend or "numpy")
        return (
            engine,
            None,
            lambda X: model.decision_scores_batch(X, engine=engine),
            lambda words, n: model.decision_scores_packed_batch(
                words, n, engine=engine
            ),
        )
    if backend is not None or pool is not None:
        raise ValueError(
            f"{type(model).__name__} has no compiled_netlist() to select an "
            "engine for, so it cannot honour backend=/pool=; build the "
            "engine yourself and register its function"
        )
    if hasattr(model, "decision_scores_batch"):
        return (
            None,
            None,
            model.decision_scores_batch,
            getattr(model, "decision_scores_packed_batch", None),
        )
    if hasattr(model, "predict_batch"):
        return None, model.predict_batch, None, None
    if callable(model):
        return None, model, None, None
    raise TypeError(
        f"{type(model).__name__} offers neither decision_scores_batch, "
        "predict_batch nor __call__"
    )


class InferenceServer(FrameServer):
    """Serve one or many batch-evaluable models over TCP with coalescing.

    The transport half — dual-protocol listener, pipelined per-connection
    dispatch, corked writes, and the explicit ``starting → serving →
    draining → stopped`` lifecycle with :meth:`~FrameServer.drain` — lives
    in the :class:`~repro.serving.transport.FrameServer` base; this class
    owns the *model* half: the registry, the queues, and the request
    semantics of both protocols.  While draining, new predicts are rejected
    with the typed ``unavailable`` error (control ops keep answering so the
    drain can be observed) and ``/healthz`` answers 503.

    Parameters
    ----------
    batch_fn:
        ``(n, F) -> (n,)`` label function, registered as the model named
        ``"default"``.  Mutually exclusive with ``scores_fn``; omit both to
        start an empty server and populate it with :meth:`register_model`.
    scores_fn:
        ``(n, F) -> (n, n_classes)`` decision-score function; labels are
        derived by ``argmax`` so one evaluation yields both.
    packed_fn:
        Optional ``(packed_words, n_samples) -> array`` zero-copy path for
        binary-protocol requests on the default model: the coalesced
        ``(F, n_words(n))`` uint64 bit-planes reach the model as words —
        no unpack, no re-pack.  Output semantics must match the given
        evaluation function's (scores with ``scores_fn``, labels with
        ``batch_fn``).  Like them it runs on the queue's executor thread,
        so it may block.
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
        :class:`~repro.serving.queue.BatchingQueue`.  :meth:`register_model`
        can override any of them per model.  ``max_wait_us`` bounds only
        the models that evaluate on their queue's executor thread; an
        unpooled single-thread ``"native"`` model evaluates on the loop and
        flushes a partial batch at the end of the next loop pass instead.
    max_total_queue:
        Optional *shared* admission bound in samples across every hosted
        model (see :class:`~repro.serving.queue.AdmissionBudget`); ``None``
        leaves only the per-model bounds.
    stats:
        Optional collector for the constructor-registered default model; a
        private one per model is created otherwise.
    warm_up:
        Optional zero-argument callable run once at :meth:`start` (e.g.
        ``pool.warm_up`` to pre-fork the shared worker pool, or a one-sample
        evaluation per model to populate caches) so the cost lands at
        startup, not in the first request's latency.
    backlog:
        Listen-queue depth; sized for hundreds of simultaneous connects
        (the whole point of a coalescing server is bursty many-client
        traffic, and a dropped SYN costs a full retransmit timeout).
    """

    def __init__(
        self,
        batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        *,
        scores_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        packed_fn: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = None,
        max_batch: int = 64,
        max_wait_us: float = 2000.0,
        max_queue: int = 1024,
        max_total_queue: Optional[int] = None,
        stats: Optional[ServerStats] = None,
        warm_up: Optional[Callable[[], Any]] = None,
        backlog: int = 512,
    ) -> None:
        if batch_fn is not None and scores_fn is not None:
            raise ValueError("provide at most one of batch_fn and scores_fn")
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
        if batch_fn is not None or scores_fn is not None:
            self._registry.register(
                "default",
                batch_fn,
                scores_fn=scores_fn,
                packed_fn=packed_fn,
                stats=stats,
            )
        else:
            if stats is not None:
                raise ValueError(
                    "stats= applies to the constructor-registered default "
                    "model; pass it to register_model instead"
                )
            if packed_fn is not None:
                raise ValueError(
                    "packed_fn= applies to the constructor-registered "
                    "default model; pass it to register_model instead"
                )
        super().__init__(host=host, port=port, backlog=backlog)
        self._warm_up = warm_up
        self._empty_stats: Optional[ServerStats] = None
        self.http_port = http_port
        self._http: Optional[HttpMetricsListener] = None

    @classmethod
    def for_model(
        cls,
        model: Any,
        *,
        pool: Optional[Any] = None,
        backend: Optional[str] = None,
        stats: Optional[ServerStats] = None,
        **kwargs,
    ):
        """A single-model server: construct, then
        ``register_model("default", model=model, pool=pool, backend=backend,
        stats=stats)`` (which see); ``kwargs`` go to the constructor."""
        server = cls(**kwargs)
        server.register_model(
            "default", model=model, pool=pool, backend=backend, stats=stats
        )
        return server

    # ------------------------------------------------------- model hosting
    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def stats(self) -> ServerStats:
        """The default model's stats collector (single-model back-compat).

        An empty server returns an inert placeholder collector rather than
        raising — pre-PR callers could always read this attribute.
        """
        if len(self._registry) == 0:
            if self._empty_stats is None:
                self._empty_stats = ServerStats()
            return self._empty_stats
        return self._registry.resolve(None).stats

    def register_model(
        self,
        name: str,
        batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        *,
        scores_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        packed_fn: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
        model: Any = None,
        pool: Optional[Any] = None,
        max_batch: Optional[int] = None,
        max_wait_us: Optional[float] = None,
        max_queue: Optional[int] = None,
        stats: Optional[ServerStats] = None,
        default: bool = False,
        backend: Optional[str] = None,
        version: Optional[int] = None,
        on_retire: Optional[Callable[[], Any]] = None,
    ) -> RegisteredModel:
        """Host another model under ``name``, with its own queue and knobs.

        Give either an evaluation function (``batch_fn``/``scores_fn``,
        plus optionally the binary protocol's zero-copy ``packed_fn``) or
        ``model=`` to pick the object's best entry point (see
        :func:`_bind_model`).  With ``model=``, the engine is resolved
        *here*: ``backend`` names it (``"numpy"``, ``"native"`` for
        generated C, ``"native-mt"`` for the same build threaded up to the
        core count, ``"auto"`` for native-if-toolchain) and ``pool`` attaches
        it to a shared :class:`~repro.engine.parallel.WorkerPool` — pass
        the same pool to every model so they share one set of worker
        processes, attached before ``warm_up=pool.warm_up`` forks them.  A
        native build happens in this call; on a live server build it
        off-loop first (``clf.compiled_netlist("native")`` caches it) so
        the loop pays a cache hit.  The registration owns the engine:
        ``list_models``, ``repro_serving_model_backend`` and
        ``repro_serving_model_threads`` report what it actually runs with,
        and it is closed — detached from the pool — exactly once, when this
        version retires.  An unpooled single-thread ``"native"`` engine
        evaluates its batches on the event loop, flushing a partial batch
        at the end of the next loop pass rather than after ``max_wait_us``;
        every other engine, and every explicit function, on the queue's
        executor thread, under the wait budget (see
        :mod:`repro.serving.queue`; ``list_models`` reports which as
        ``on_loop``).  With explicit functions ``backend`` is a
        descriptive label only and ``pool`` does not apply.  Knobs left
        ``None`` inherit the server-level defaults.  Safe while serving:
        requests naming ``name`` route to the new queue from the next
        dispatch.

        ``version=`` on an already-hosted name adds a *standby* version to
        the family — traffic moves only on ``promote``/``promote_canary``
        (see :class:`~repro.serving.registry.ModelRegistry`).  When the
        version eventually retires (displaced by a promotion, rolled back
        by a canary, or unregistered), ``on_retire`` runs once, after the
        engine is closed.
        """
        engine = None
        if model is not None:
            if batch_fn is not None or scores_fn is not None or packed_fn is not None:
                raise ValueError("provide model= or an evaluation fn, not both")
            engine, batch_fn, scores_fn, packed_fn = _bind_model(
                model, backend, pool
            )
        elif pool is not None:
            raise ValueError(
                "pool applies to model=; with an explicit "
                "batch_fn/scores_fn, bind the engine into the function"
            )
        try:
            return self._registry.register(
                name,
                batch_fn,
                scores_fn=scores_fn,
                packed_fn=packed_fn,
                max_batch=max_batch,
                max_wait_us=max_wait_us,
                max_queue=max_queue,
                stats=stats,
                default=default,
                engine=engine,
                backend=backend,
                version=version,
                on_retire=on_retire,
            )
        except BaseException:
            if engine is not None:
                engine.close()  # a rejected registration must not leak an attach
            raise

    async def unregister_model(self, name: str) -> None:
        """Stop hosting ``name`` — every version: new requests get
        ``model_not_found``, already-admitted ones drain through the
        closing queues, and each version's retire hook fires."""
        for entry in self._registry.unregister(name):
            await entry.queue.close()
            self._registry.retire_record(entry)

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """The HTTP listener's bound ``(host, port)``; ``None`` when the
        server was built without ``http_port`` or has not started yet."""
        if self._http is None:
            return None
        return self._http.host, self._http.port

    def render_metrics(self) -> str:
        """Every hosted model's stats in Prometheus exposition format —
        the payload behind both ``GET /metrics`` and the ``stats_text``
        wire op.  Includes the serving-version gauge and the cumulative
        shadow-traffic counters (``repro_serving_shadow_requests`` /
        ``repro_serving_shadow_divergences``)."""
        return render_stats_text(
            {
                entry.name: entry.stats.snapshot()
                for entry in self._registry.entries()
            },
            backends={
                entry.name: entry.backend
                for entry in self._registry.entries()
            },
            threads={
                entry.name: entry.threads
                for entry in self._registry.entries()
            },
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

    async def _post_bind(self) -> None:
        if self.http_port is not None:
            self._http = HttpMetricsListener(
                self.render_metrics,
                host=self.host,
                port=self.http_port,
                state=lambda: self.state,
            )
            try:
                _, self.http_port = await self._http.start()
            except BaseException:
                self._http = None
                raise  # FrameServer.start runs full stop() and re-raises

    async def _on_drain(self) -> None:
        # admissions already stopped (state is draining, the predict paths
        # reject); everything admitted before the flip completes here
        await self._registry.flush_all()

    async def _pre_stop(self) -> None:
        if self._http is not None:
            await self._http.stop()
            self._http = None

    async def _on_stop(self) -> None:
        await self._registry.close()

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, request, reply_to):
        """The :class:`FrameServer` hook: a predict of either wire is
        admitted on the spot by :meth:`_predict` — each wire contributes
        only its decode — and every other JSON-bodied op runs as
        :meth:`_control`'s task."""
        if isinstance(request, BinaryRequest):
            return self._predict(request, reply_to)
        if request.get("op", "predict") == "predict":
            return self._predict(JsonPredictRequest.decode(request), reply_to)
        return self._control(request)

    def _predict(
        self,
        request: Union[BinaryRequest, JsonPredictRequest],
        reply_to: Tuple[CorkedWriter, Any],
    ) -> None:
        """Admit one predict, whichever wire carried it, in the connection
        reader's stack frame: no task, no future — :meth:`_complete`
        answers it with the rest of its batch.

        Either wire's packed words go into the model's queue (a JSON
        request's rows are packed on that first read); failures are typed
        :class:`~repro.serving.queue.ServingError`\\ s the base encodes for
        the requester's wire.  Nothing between resolving the model and
        entering its queue can yield, which is what makes a promotion
        atomic between batches.
        """
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

    async def _control(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
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
        if op == "stats_text":
            return {"ok": True, "text": self.render_metrics()}
        if op == "list_models":
            return {
                "ok": True,
                "default": self._registry.default_name,
                "models": [
                    self._registry.describe_family(name)
                    for name in self._registry.names
                ],
            }
        if op == "ping":
            return {"ok": True, "state": self.state}
        if op == "drain":
            await self.drain()
            return {"ok": True, "state": self.state}
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
        raise BadRequestError(f"unknown op {op!r}")

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

        with BackgroundServer(InferenceServer.for_model(clf)) as handle:
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
        (``register_model`` on a live server, ``registry.promote``,
        ``registry.wait_idle``) are synchronous-on-the-loop by design, so
        off-thread callers route them through here instead of mutating the
        registry from a foreign thread.
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
