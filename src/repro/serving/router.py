"""The cluster router: one front door over N replicated backend boxes.

:class:`RouterServer` is a :class:`~repro.serving.transport.FrameServer`
like the backends it fronts — it speaks both wire protocols *unchanged*, so
any existing :class:`~repro.serving.client.ServingClient` (JSON or binary)
points at the router instead of a backend and notices nothing, and it
answers ``ping``, ``stats_text``, ``drain`` and the optional ``http_port=``
``/metrics`` + ``/healthz`` listener through the same base.  What it adds
is the cluster layer the ROADMAP's many-boxes story needs:

Placement
    A static map ``model name → [(host, port), ...]`` of which backend
    replicas host which model.  The same endpoint may appear under many
    models (a multi-model box); the router keeps exactly one link (one
    multiplexed connection, one health state) per distinct endpoint.

Balancing
    Least-outstanding-requests: each predict goes to the healthy replica
    with the fewest requests currently in flight *through this router* —
    the cheapest load signal that still tracks real occupancy (a slow or
    draining box accumulates outstanding work and stops attracting more).

Health
    Active checks — a JSON ``ping`` per link every ``health_interval``
    seconds — eject a dead replica and reinstate it after
    ``reinstate_after`` consecutive successful probes; a probe answering
    with a non-``serving`` lifecycle state parks the link as *draining*
    (no new work, no ejection).  Failures observed on the request path
    eject immediately (passive), so the first lost request after a crash
    is also the last one that ever waits on that box.

Failover
    A predict that fails on one replica — connection refused, connection
    dropped mid-request, request timeout — is transparently resubmitted to
    the next-best replica (safe: predicts are pure evaluations).  A
    ``draining`` (typed ``unavailable``) rejection re-routes immediately
    with **no backoff** — the box told us it will never take the request,
    waiting is pure loss.  A shed (typed ``overloaded``) tries the other
    replicas first and only then backs off under the
    :class:`~repro.serving.retry.RetryPolicy`, because every replica
    shedding means the *cluster* is saturated and retrying instantly would
    only feed the overload.  Other typed errors (``bad_request``,
    ``model_not_found``, ``internal``) forward to the client untouched —
    they would fail identically on every replica.

Forwarding cost
    Binary replies are *not* decoded: the backend's raw reply frame is
    forwarded after an 8-byte request-id splice
    (:func:`~repro.serving.transport.replace_request_id`), so the packed
    protocol's zero-copy property survives the extra hop.

:class:`Rebalancer` closes the loop that the dynamically-partitioned
sharing paper (PAPERS.md) argues for: it periodically scrapes each
backend's per-model queue depth and latency, turns them into per-model
demand estimates (EWMA-smoothed), and pushes the resulting weights to
every backend's ``set_admission_weights`` op — re-partitioning each box's
shared :class:`~repro.serving.queue.AdmissionBudget` so admission capacity
follows the live traffic mix instead of a static split.
"""

from __future__ import annotations

import asyncio
import itertools
from operator import attrgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.serving.queue import ServerOverloadedError, ServerUnavailableError
from repro.serving.registry import ModelNotFoundError, ModelRegistry
from repro.serving.retry import RetryPolicy
from repro.serving.stats import render_exposition
from repro.serving.transport import (
    BinaryRequest,
    FrameServer,
    RawBinaryReply,
    encode_message,
    encode_predict_request,
    model_field,
    read_reply_frame,
)

__all__ = ["BackendFailedError", "Rebalancer", "RouterServer"]

Endpoint = Tuple[str, int]


class BackendFailedError(ConnectionError):
    """A backend connection failed mid-request (router-internal signal).

    Never crosses the wire: the routing loop catches it, ejects the link,
    and fails the request over to the next replica.
    """


class _BackendConnection:
    """One multiplexed connection to a backend, demuxing replies by id.

    Many router-side requests share this socket (the backends pipeline);
    each request registers a future under its request id, the single read
    loop resolves them as replies arrive — JSON replies by their ``id``
    field, binary replies by the frame's request id, interleaved freely.
    Any read failure aborts every pending future with
    :class:`BackendFailedError`: a broken stream's remaining replies are
    undeliverable, and the fast collective failure is what lets the router
    re-route them before the client notices.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def open(
        cls, endpoint: Endpoint, connect_timeout: float
    ) -> "_BackendConnection":
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*endpoint), connect_timeout
            )
        except (OSError, asyncio.TimeoutError) as error:
            raise BackendFailedError(
                f"connect to {endpoint[0]}:{endpoint[1]} failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        return cls(reader, writer)

    @property
    def alive(self) -> bool:
        return not self._closed

    async def request(
        self, request_id: int, frame: bytes
    ) -> Union[Dict[str, Any], RawBinaryReply]:
        """Send an already-framed request and await its demuxed reply."""
        if self._closed:
            raise BackendFailedError("backend connection already closed")
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(frame)
            await self._writer.drain()
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def _read_loop(self) -> None:
        try:
            while True:
                reply = await read_reply_frame(self._reader)
                if reply is None:  # backend hung up cleanly
                    break
                if isinstance(reply, RawBinaryReply):
                    rid = reply.request_id
                else:
                    rid = reply.get("id")
                future = self._pending.get(rid)
                if future is not None and not future.done():
                    future.set_result(reply)
        except Exception:  # noqa: BLE001 - any stream failure kills the link
            pass
        finally:
            self.abort("backend connection lost")

    def abort(self, reason: str = "backend connection aborted") -> None:
        """Close the socket and fail every pending request immediately."""
        if self._closed:
            return
        self._closed = True
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(BackendFailedError(reason))
        self._pending.clear()
        if not self._read_task.done():
            self._read_task.cancel()
        try:
            self._writer.close()
        except Exception:  # noqa: BLE001 - teardown best-effort
            pass


class _BackendLink:
    """One backend endpoint's routing state: connection, health, counters."""

    HEALTHY = "healthy"
    EJECTED = "ejected"
    DRAINING = "draining"

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        self.state = self.HEALTHY
        self.outstanding = 0  # requests in flight through this router
        self.forwarded = 0
        self.failures = 0
        self.ejections = 0
        self.probe_successes = 0
        self._conn: Optional[_BackendConnection] = None
        self._conn_lock = asyncio.Lock()

    @property
    def name(self) -> str:
        return f"{self.endpoint[0]}:{self.endpoint[1]}"

    async def connection(self, connect_timeout: float) -> _BackendConnection:
        """The live multiplexed connection, opened lazily (one opener at a
        time — concurrent requests wait on the lock and share the result)."""
        if self._conn is not None and self._conn.alive:
            return self._conn
        async with self._conn_lock:
            if self._conn is None or not self._conn.alive:
                self._conn = await _BackendConnection.open(
                    self.endpoint, connect_timeout
                )
        return self._conn

    def eject(self, reason: str) -> None:
        """Passively or actively mark this replica dead; kill its socket so
        every request still waiting on it fails over *now*."""
        if self.state != self.EJECTED:
            self.state = self.EJECTED
            self.ejections += 1
        self.probe_successes = 0
        if self._conn is not None:
            self._conn.abort(reason)
            self._conn = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.abort("router shutting down")
            self._conn = None


class RouterServer(FrameServer):
    """Route both wire protocols across replicated backend servers.

    Parameters
    ----------
    placement:
        ``{model name: [(host, port), ...]}`` — which replicas host which
        model.  The first listed model is the router's default (requests
        that name no model go there).
    retry:
        :class:`~repro.serving.retry.RetryPolicy` applied when *every*
        replica of a model sheds (``overloaded``); ``None`` forwards the
        shed to the client after one pass over the replicas.
    connect_timeout, request_timeout:
        Per-attempt bounds; a request that outlives ``request_timeout`` on
        one replica is failed over like a connection loss.
    health_interval, health_timeout, reinstate_after:
        Active health checking: probe every link each ``health_interval``
        seconds (0 disables the loop), treat a probe slower than
        ``health_timeout`` as failed, and put an ejected replica back after
        this many consecutive probe successes.
    rebalance_interval:
        When set, run a :class:`Rebalancer` pass every this many seconds.
    http_port:
        Optional ``/metrics`` + ``/healthz`` HTTP listener, exactly like
        the backend server's.
    """

    def __init__(
        self,
        placement: Mapping[str, Sequence[Endpoint]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        connect_timeout: float = 2.0,
        request_timeout: float = 30.0,
        health_interval: float = 0.5,
        health_timeout: float = 2.0,
        reinstate_after: int = 2,
        rebalance_interval: Optional[float] = None,
        backlog: int = 512,
    ) -> None:
        super().__init__(
            host=host, port=port, http_port=http_port, backlog=backlog
        )
        if not placement:
            raise ValueError("placement must map at least one model")
        self._links: Dict[Endpoint, _BackendLink] = {}
        self._placement: Dict[str, List[_BackendLink]] = {}
        for model, endpoints in placement.items():
            if not endpoints:
                raise ValueError(f"model {model!r} lists no replicas")
            replicas = []
            for endpoint in endpoints:
                endpoint = (str(endpoint[0]), int(endpoint[1]))
                link = self._links.get(endpoint)
                if link is None:
                    link = self._links[endpoint] = _BackendLink(endpoint)
                replicas.append(link)
            self._placement[model] = replicas
        self._default_model = next(iter(self._placement))
        self._retry = retry
        self._connect_timeout = connect_timeout
        self._request_timeout = request_timeout
        self._health_interval = health_interval
        self._health_timeout = health_timeout
        self._reinstate_after = max(1, int(reinstate_after))
        self._rebalance_interval = rebalance_interval
        self._rebalancer = Rebalancer(self)
        self._loops: List[asyncio.Task] = []  # health and rebalance
        self._ids = itertools.count(1)
        # router-level counters (per-link ones live on the links)
        self.routed = 0
        self.failovers = 0
        self.rejected = 0

    # ------------------------------------------------------------ lifecycle
    async def _post_bind(self) -> None:
        if self._health_interval > 0:
            self._loops.append(asyncio.create_task(
                self._every(self._health_interval, self.check_health_once)
            ))
        if self._rebalance_interval is not None:
            self._loops.append(asyncio.create_task(
                self._every(self._rebalance_interval, self.rebalance_once)
            ))

    async def _on_stop(self) -> None:
        for task in self._loops:
            task.cancel()
        await asyncio.gather(*self._loops, return_exceptions=True)
        self._loops.clear()
        for link in self._links.values():
            link.close()

    # ------------------------------------------------------------ inventory
    @property
    def models(self) -> List[str]:
        return list(self._placement)

    @property
    def default_model(self) -> str:
        return self._default_model

    def links(self) -> List[_BackendLink]:
        return list(self._links.values())

    def healthy_replicas(self, model: str) -> List[_BackendLink]:
        """The model's routable replicas, best (fewest outstanding) first."""
        return sorted(
            (
                link
                for link in self._placement.get(model, ())
                if link.state == _BackendLink.HEALTHY
            ),
            key=lambda link: link.outstanding,
        )

    def _resolve_model(self, name: Optional[str]) -> str:
        """The placement key ``name`` routes to.

        A version-pinned request (``"mnist@2"``) routes by its family name
        when the pin itself has no placement entry — the backend hosting
        the family resolves (or rejects) the specific version, so clients
        can pin versions through the router without the operator placing
        every version separately.  The forwarded request keeps the
        client's original (pinned) model name.
        """
        if name is None:
            return self._default_model
        if name not in self._placement:
            base, version = ModelRegistry.split_versioned(name)
            if version is not None and base in self._placement:
                return base
            raise ModelNotFoundError(
                f"unknown model {name!r} "
                f"(routed: {sorted(self._placement)})"
            )
        return name

    def snapshot(self) -> Dict[str, Any]:
        """Router-level state for the ``stats`` op and the tests."""
        return {
            "state": self.state,
            "models": {
                model: [link.name for link in replicas]
                for model, replicas in self._placement.items()
            },
            "routed": self.routed,
            "failovers": self.failovers,
            "rejected": self.rejected,
            "backends": [
                {
                    "backend": link.name,
                    "state": link.state,
                    "outstanding": link.outstanding,
                    "forwarded": link.forwarded,
                    "failures": link.failures,
                    "ejections": link.ejections,
                }
                for link in self._links.values()
            ],
        }

    def render_metrics(self) -> str:
        """Router counters in Prometheus exposition format, one sample per
        backend link."""
        links = self.links()

        def per_link(metric, kind, read):
            return (
                metric,
                kind,
                [((("backend", link.name),), read(link)) for link in links],
            )

        return render_exposition(
            "repro_router",
            [
                per_link("forwarded_total", "counter", attrgetter("forwarded")),
                per_link("failures_total", "counter", attrgetter("failures")),
                per_link("ejections_total", "counter", attrgetter("ejections")),
                per_link("outstanding", "gauge", attrgetter("outstanding")),
                per_link(
                    "healthy",
                    "gauge",
                    lambda link: int(link.state == _BackendLink.HEALTHY),
                ),
            ],
        )

    # -------------------------------------------------------------- routing
    def _next_id(self) -> int:
        return next(self._ids) & 0xFFFFFFFF

    @staticmethod
    def _reply_error_type(
        reply: Union[Dict[str, Any], RawBinaryReply],
    ) -> Optional[str]:
        if isinstance(reply, RawBinaryReply):
            return reply.error_type
        if reply.get("ok"):
            return None
        return (reply.get("error") or {}).get("type", "internal")

    async def _attempt(
        self, link: _BackendLink, frame_for: Any
    ) -> Union[Dict[str, Any], RawBinaryReply]:
        """One try on one replica; raises :class:`BackendFailedError`,
        :class:`ServerUnavailableError` (backend draining) or
        :class:`ServerOverloadedError` (backend shed) for the routing loop
        to act on.  Everything else — success or a typed error that would
        fail identically elsewhere — is returned for forwarding."""
        # outstanding covers the *whole* attempt, connection dial included:
        # concurrent first requests must not all see a zero count and pile
        # onto one replica while its connection is still being opened
        link.outstanding += 1
        try:
            conn = await link.connection(self._connect_timeout)
            rid = self._next_id()
            try:
                reply = await asyncio.wait_for(
                    conn.request(rid, frame_for(rid)), self._request_timeout
                )
            except asyncio.TimeoutError:
                # the reply may still arrive someday, but this stream has an
                # unknown number of stragglers now — treat like a lost link
                conn.abort("request timed out through the router")
                raise BackendFailedError(
                    f"request to {link.name} timed out "
                    f"after {self._request_timeout}s"
                ) from None
        finally:
            link.outstanding -= 1
        error_type = self._reply_error_type(reply)
        if error_type == ServerUnavailableError.error_type:
            raise ServerUnavailableError(f"{link.name} is draining")
        if error_type == ServerOverloadedError.error_type:
            raise ServerOverloadedError(f"{link.name} shed the request")
        link.forwarded += 1
        return reply

    async def _route(
        self, model: str, frame_for: Any
    ) -> Union[Dict[str, Any], RawBinaryReply]:
        """Least-outstanding routing with failover, the router's heart.

        ``frame_for(rid)`` builds the wire frame carrying the router-side
        request id; it is called per attempt, so each replica sees a fresh
        id.  Loop structure: one pass tries every currently-healthy replica
        (best first); replicas that *fail* are ejected on the spot, ones
        that *shed* are remembered; after a pass where every answer was a
        shed, back off under the retry policy and re-pass — the cluster is
        saturated, and the bounded backoff is the router shedding load for
        it.  No routable replica at all is the typed ``unavailable`` error.
        """
        self.routed += 1
        attempts = 0
        delays = self._retry.delays() if self._retry is not None else iter(())
        while True:
            shed: Optional[ServerOverloadedError] = None
            candidates = self.healthy_replicas(model)
            for link in candidates:
                if link.state != _BackendLink.HEALTHY:
                    continue  # ejected by a concurrent request mid-pass
                attempts += 1
                try:
                    return await self._attempt(link, frame_for)
                except BackendFailedError:
                    link.failures += 1
                    link.eject("request-path failure")
                    self.failovers += 1
                    continue  # immediate failover, no backoff
                except ServerUnavailableError:
                    # the backend said "draining": it will answer control
                    # ops but never this predict — park it for the health
                    # loop and re-route with no backoff
                    link.state = _BackendLink.DRAINING
                    link.probe_successes = 0
                    self.failovers += 1
                    continue
                except ServerOverloadedError as error:
                    shed = error
                    continue
            if shed is not None:
                delay = next(delays, None)
                if delay is None:  # retry budget spent: forward the shed
                    raise shed
                await asyncio.sleep(delay)
                continue
            self.rejected += 1
            raise ServerUnavailableError(
                f"no routable replica for model {model!r} after "
                f"{attempts} attempt(s)"
            )

    # ------------------------------------------------------------- dispatch
    _PING_FIELDS = {"role": "router"}

    def _control_op(self, op: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        if op == "stats":
            return {"ok": True, "router": self.snapshot()}
        if op == "list_models":
            models = []
            for model, replicas in self._placement.items():
                entry: Dict[str, Any] = {
                    "name": model,
                    "replicas": [link.name for link in replicas],
                }
                base, version = ModelRegistry.split_versioned(model)
                if version is not None:
                    entry["family"] = base
                    entry["version"] = version
                models.append(entry)
            return {
                "ok": True,
                "default": self._default_model,
                "models": models,
            }
        return super()._control_op(op, request)

    async def _predict(
        self, request: Union[Dict[str, Any], BinaryRequest], reply_to: Any
    ) -> Union[Dict[str, Any], RawBinaryReply]:
        """One predict, whichever wire carried it, to the best replica; it
        waits on a backend, so it runs as the base's task.

        The wire contributes only how the forwarded request is framed and
        what comes back: a binary reply stays a raw frame (the base splices
        the client's id in — zero-copy), a JSON reply is the backend's dict.
        """
        if self.state != self.SERVING:
            raise ServerUnavailableError(
                f"this router is {self.state} and admits no new work"
            )
        binary = isinstance(request, BinaryRequest)
        model = request.model if binary else model_field(request)
        resolved = self._resolve_model(model)
        # preserve a client's version pin ("m@2"); only fill in the
        # resolved name when the client named no model at all
        forwarded_model = resolved if model is None else model

        def frame_for(rid: int) -> bytes:
            if binary:
                return encode_predict_request(
                    request.packed,
                    request.n_samples,
                    model=forwarded_model,
                    return_scores=request.return_scores,
                    request_id=rid,
                )
            # the router's id, not the client's
            return encode_message(
                {**request, "id": rid, "model": forwarded_model}
            )

        reply = await self._route(resolved, frame_for)
        if not binary:
            # the base FrameServer echoes the *client's* id; the router-side
            # id must not leak through (nor appear when the client sent none)
            reply = dict(reply)
            reply.pop("id", None)
        return reply

    # --------------------------------------------------------------- health
    async def _ask(
        self, link: _BackendLink, payload: Dict[str, Any], connect_timeout: float
    ) -> Optional[Dict[str, Any]]:
        """One JSON control op to one backend — the exchange behind health
        probes and the rebalancer; ``None`` when the link, the
        ``health_timeout`` deadline or the op itself failed."""
        try:
            conn = await link.connection(connect_timeout)
            rid = self._next_id()
            reply = await asyncio.wait_for(
                conn.request(rid, encode_message({**payload, "id": rid})),
                self._health_timeout,
            )
        except (BackendFailedError, asyncio.TimeoutError):
            return None
        if not isinstance(reply, dict) or not reply.get("ok"):
            return None
        return reply

    async def _probe(self, link: _BackendLink) -> Optional[str]:
        """One active health probe; the backend's lifecycle state, or
        ``None`` when the probe failed."""
        reply = await self._ask(link, {"op": "ping"}, self._health_timeout)
        return None if reply is None else reply.get("state", "serving")

    async def check_health_once(self) -> None:
        """Probe every link once and apply ejection/reinstatement."""
        for link in self.links():
            state = await self._probe(link)
            if state is None:
                link.failures += 1
                link.eject("health probe failed")
                continue
            if state != "serving":
                link.state = _BackendLink.DRAINING
                link.probe_successes = 0
                continue
            if link.state == _BackendLink.HEALTHY:
                continue
            link.probe_successes += 1
            if link.probe_successes >= self._reinstate_after:
                link.state = _BackendLink.HEALTHY
                link.probe_successes = 0

    @staticmethod
    async def _every(interval: float, run) -> None:
        """Await ``run()`` every ``interval`` seconds until cancelled."""
        while True:
            await asyncio.sleep(interval)
            try:
                await run()
            except Exception:  # noqa: BLE001 - the loop must survive
                pass

    async def rebalance_once(self) -> Dict[str, float]:
        """Run one :class:`Rebalancer` pass (also used by the demo/tests)."""
        return await self._rebalancer.rebalance_once()


class Rebalancer:
    """Re-weight per-model admission shares from scraped backend stats.

    Each pass scrapes every healthy link's per-model ``stats`` op and folds
    the signals into a per-model *demand* estimate::

        demand_m = (backlog_samples + completed since last pass)
                   * (1 + p95 latency share)

    — queued-plus-served traffic measures volume, the latency factor leans
    extra capacity toward the model whose requests currently wait longest
    (the dynamically-partitioned sharing argument: give the squeezed
    tenant headroom *before* its queue melts down).  Demands are smoothed
    with an EWMA (``smoothing`` is the weight of the new observation),
    floored at ``min_share`` of the total so a quiet model is never
    starved to zero, normalised, and pushed to every healthy backend's
    ``set_admission_weights`` op — turning each box's shared
    :class:`~repro.serving.queue.AdmissionBudget` into a live, traffic-
    tracking partition.
    """

    def __init__(
        self,
        router: RouterServer,
        *,
        smoothing: float = 0.5,
        min_share: float = 0.05,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if not 0.0 <= min_share < 1.0:
            raise ValueError("min_share must be in [0, 1)")
        self._router = router
        self._smoothing = smoothing
        self._min_share = min_share
        self._demand: Dict[str, float] = {}
        self._completed: Dict[Tuple[str, str], float] = {}

    async def rebalance_once(self) -> Dict[str, float]:
        """One scrape → demand → push cycle; returns the pushed weights."""
        router = self._router
        observed: Dict[str, float] = {}
        max_p95 = 0.0
        p95: Dict[str, float] = {}
        for model in router.models:
            volume = 0.0
            worst_p95 = 0.0
            for link in router.healthy_replicas(model):
                reply = await router._ask(
                    link,
                    {"op": "stats", "model": model},
                    router._connect_timeout,
                )
                if reply is None:
                    continue
                stats = reply.get("stats") or {}
                completed = float(stats.get("samples_completed", 0))
                key = (model, link.name)
                delta = max(0.0, completed - self._completed.get(key, 0.0))
                self._completed[key] = completed
                volume += float(reply.get("backlog_samples", 0)) + delta
                latency = stats.get("latency_us") or {}
                worst_p95 = max(worst_p95, float(latency.get("p95", 0.0)))
            observed[model] = volume
            p95[model] = worst_p95
            max_p95 = max(max_p95, worst_p95)
        if not observed:
            return {}
        for model, volume in observed.items():
            latency_share = p95[model] / max_p95 if max_p95 > 0 else 0.0
            demand = volume * (1.0 + latency_share)
            previous = self._demand.get(model)
            if previous is None:
                self._demand[model] = demand
            else:
                self._demand[model] = (
                    self._smoothing * demand
                    + (1.0 - self._smoothing) * previous
                )
        total = sum(self._demand.values())
        if total <= 0:  # no traffic anywhere: even split
            weights = {model: 1.0 for model in self._demand}
        else:
            floor = self._min_share * total
            weights = {
                model: max(floor, demand)
                for model, demand in self._demand.items()
            }
        norm = sum(weights.values())
        weights = {model: w / norm for model, w in weights.items()}
        await self._push(weights)
        return weights

    async def _push(self, weights: Dict[str, float]) -> None:
        router = self._router
        for link in router.links():
            if link.state == _BackendLink.HEALTHY:
                # a lost push self-heals on the next pass
                await router._ask(
                    link,
                    {"op": "set_admission_weights", "weights": weights},
                    router._connect_timeout,
                )
