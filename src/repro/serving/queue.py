"""Request coalescing: many small requests, one packed evaluation.

:class:`BatchingQueue` is the asyncio heart of the serving layer.  A
request is a row range in a batch, not a task:
:meth:`BatchingQueue.admit_packed` validates and admits it synchronously,
in the caller's own stack frame, with a *reply sink* where a future used to
be; the queue holds requests until a flush (see *Flush policy*),
merges whatever has accumulated into a single word matrix
(:func:`~repro.engine.bitpack.concat_packed`), evaluates it **once** (see
*Where evaluation runs*), and completes the batch **once**:
one stats record, then one call per distinct sink with the whole result, in
which every entry knows its row range.  The awaitable ``submit(rows)`` /
``submit_packed(words, n)`` are that same core with a sink that resolves a
future.  64 one-sample requests thus cost one packed word of engine work
and one completion instead of 64 of each.

Flush policy
============

A batch is evaluated when the first of these happens:

* the queued sample count reaches ``max_batch`` (flush immediately — the
  batch is as good as it gets), or
* the partial-batch timer armed when the queue went non-empty fires.

Where the timer fires depends on where the batch will evaluate.  A queue
that evaluates on its executor thread waits out ``max_wait_us`` (latency
bound: a lone request never waits longer than the wait budget).  An
``on_loop`` queue ignores ``max_wait_us`` and arms the timer at zero: the
flush runs at the end of the next loop pass, never inside
:meth:`BatchingQueue.admit_packed`'s stack.  The loop runs a due timer
only after the callbacks already queued for that pass, so a connection
reader that yielded between two chunks of requests admits its next chunk
first, and batches still fill under load; a ``call_soon`` flush would run
before it and cut them in two.  An idle request thus waits one loop pass
instead of the wait budget.  The price is more, smaller batches at low
load (a batch per pass rather than per budget), so more per-batch work —
coalesce, evaluate, complete — per request.

A single request larger than ``max_batch`` is *not* split: it is admitted
whole and triggers an immediate flush, forming its own oversized batch (the
engine handles any batch size; splitting would only add scatter work).  A
timer that fires after a size-triggered flush already drained the queue is
a no-op — the empty-batch timeout never reaches the engine.

Admission control
=================

The queue is bounded at ``max_queue`` *samples*, counting everything
admitted but not yet completed — both requests waiting for a flush and
batches flushed but not yet answered.  (Counting only the pre-flush
backlog would make the bound unreachable: every flush would reset it while
unfinished batches piled up behind the evaluation.)  A
request that would push that backlog past the bound is shed at admission
with :class:`ServerOverloadedError` — a typed, cheap rejection that never
touches the engine — so overload degrades into explicit client-visible
errors and bounded memory rather than unbounded latency (the bounded queue
is the backpressure signal: clients seeing sheds are expected to back
off).  The one exception: a request larger than ``max_queue`` itself is
admitted when the queue is idle, because shedding it could never succeed
on retry.

A multi-model server hosts one queue per model; the per-queue bound alone
would let N models admit ``N * max_queue`` samples against one box.
:class:`AdmissionBudget` is the shared second bound: every queue holding a
reference reserves its admitted samples from the common budget and releases
them at completion, so total in-flight work is capped however traffic is
distributed across models (with the same idle-oversized exception, applied
to the budget as a whole).

Where evaluation runs
=====================

By default a queue evaluates its batches on one executor thread of its
own, started by the first batch.  The event loop meanwhile keeps
admitting, shedding and answering every other model, the health checks
and the control ops, however long an evaluation takes, so ``batch_fn``
and ``packed_fn`` may block: sleep, do I/O, or wait on another process.
Two models' batches evaluate on two threads and overlap.

With ``on_loop=True`` each batch instead evaluates **on the event-loop
thread**, in a loop callback scheduled at flush: no executor hop, no task,
no thread, and no wait budget (see *Flush policy*).  It is meant for
engine work known to take microseconds and never to wait: the registry
passes the engine's own ``on_loop``, asked again at each flush and each
timer arm, which only a single-thread native engine whose build has
landed reports — its 64-sample batch costs tens of microseconds of C,
less than a round trip to a thread and back under the GIL.  Until the
build lands the same queue evaluates on its executor thread under
``max_wait_us``.  The callback
never runs inside :meth:`BatchingQueue.admit_packed`'s own stack, not even
when that admission fills the batch: a caller that admits a request and
only then counts the answer it owes (a server connection does, after its
dispatch returns) is never answered first.  This has two costs.  While a
batch evaluates, the loop reads no socket.  And two such models' batches
run one after the other, never overlapping.

Either way a model's calls run one at a time, except across a swap: a
batch still evaluating on the executor thread can overlap the first ones
on the loop (the engine's lock serialises its NumPy program), and the
executor outlives any one call.

One payload: packed words
=========================

Everything a queue holds is the engine's own ``(F, n_words(k))`` uint64
bit-plane matrix.  The binary wire protocol carries it as is; JSON rows
(and :meth:`BatchingQueue.submit`'s) are validated and packed once, at
admission, by :func:`pack_rows`.  Co-travellers from either wire coalesce
*in the packed domain* — :func:`~repro.engine.bitpack.concat_packed`
merges their words with a few shifts per request — and the batch evaluates
through the model's ``packed_fn`` as words.  A request of another feature
width flushes the pending batch and starts its own; a model without a
``packed_fn`` gets one ``unpack_bits`` of the coalesced words per batch and
its ``batch_fn`` sees ``(n, F)`` uint8 rows.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.engine.bitpack import (
    concat_packed,
    mask_padding,
    n_words,
    pack_bits,
    unpack_bits,
)
from repro.serving.stats import ServerStats
from repro.utils.validation import check_binary_matrix

__all__ = [
    "AdmissionBudget",
    "BadRequestError",
    "BatchingQueue",
    "ServerOverloadedError",
    "ServerUnavailableError",
    "ServingError",
    "pack_rows",
]


class ServingError(RuntimeError):
    """Base of the typed serving errors carried over the wire."""

    #: value of ``error.type`` in the protocol's error responses
    error_type = "internal"


class ServerOverloadedError(ServingError):
    """Admission control shed this request; retry later with backoff."""

    error_type = "overloaded"


class BadRequestError(ServingError):
    """The request was malformed (shape, dtype, unknown op)."""

    error_type = "bad_request"


class ServerUnavailableError(ServingError):
    """This server is draining (or stopped) and admits no new work.

    Unlike :class:`ServerOverloadedError`, backing off and retrying the
    *same* endpoint is pointless — a draining server never recovers, so a
    client behind a router should be re-routed to another replica
    immediately.  The router does exactly that.
    """

    error_type = "unavailable"


class AdmissionBudget:
    """A sample budget shared by every queue of a multi-model server.

    Loop-confined by design: all of a server's queues live on one event
    loop, and both :meth:`try_reserve` (at admission) and :meth:`release`
    (at batch completion) run on it, so plain integers suffice — no lock.

    The idle-oversized exception mirrors the per-queue one: a request
    larger than the whole budget is admitted when *nothing* is in flight
    anywhere, because shedding it could never succeed on retry.

    Weighted-fair shares
    ====================

    ``weights`` (settable live through :meth:`set_weights` — this is the
    rebalancer's knob) splits the budget between *keys*, one per hosted
    model.  A keyed reservation is bounded both by the whole budget and by
    its key's share ``max(1, round(max_samples * w / sum(w)))``; keys
    absent from the mapping (and key-less reservations) see only the total
    bound.  Shares are soft in one direction — the idle-oversized
    exception applies per key, so a request bigger than its model's share
    is admitted when that model has nothing in flight — and hard in the
    other: a model at its share sheds even while the box is idle
    elsewhere, which is precisely what lets the rebalancer *reserve*
    headroom for a latency-sensitive tenant.
    """

    def __init__(
        self,
        max_samples: int,
        weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        self._outstanding = 0
        self._per_key: Dict[str, int] = {}
        self._shares: Dict[str, int] = {}
        self._weights: Dict[str, float] = {}
        if weights:
            self.set_weights(weights)

    @property
    def outstanding(self) -> int:
        """Samples currently reserved across every participating queue."""
        return self._outstanding

    def outstanding_for(self, key: str) -> int:
        """Samples currently reserved under ``key``."""
        return self._per_key.get(key, 0)

    @property
    def weights(self) -> Dict[str, float]:
        """The live per-key weight mapping (a copy)."""
        return dict(self._weights)

    def set_weights(self, weights: Dict[str, float]) -> None:
        """Re-partition the budget between keys (the rebalancer's knob).

        Weights are relative; each listed key's share becomes
        ``max(1, round(max_samples * w / sum(w)))``.  Takes effect at the
        next reservation — samples already reserved are never clawed back,
        an over-share key simply sheds until it drains below its new
        share.  An empty mapping removes all per-key bounds.  The mapping is
        validated whole before anything changes: a rejected call leaves the
        weights and shares exactly as they were.
        """
        cleaned = {}
        for key, weight in weights.items():
            if not isinstance(key, str):
                raise ValueError("weight keys must be model-name strings")
            try:
                weight = float(weight)
            except (TypeError, ValueError, OverflowError):
                weight = math.nan  # not a number: rejected just below
            if not 0 <= weight < math.inf:  # negative, NaN or infinite
                raise ValueError(
                    f"weight for {key!r} must be a finite non-negative number"
                )
            cleaned[key] = weight
        total = sum(cleaned.values())
        if total == math.inf:
            raise ValueError(
                "weights must have a finite sum (these overflow a float)"
            )
        shares = {}
        if total > 0:
            shares = {
                key: max(1, round(self.max_samples * (weight / total)))
                for key, weight in cleaned.items()
            }
        self._weights = cleaned
        self._shares = shares

    def share_of(self, key: Optional[str]) -> int:
        """The sample bound ``key`` reserves under (the whole budget for
        key-less reservations and keys without a configured weight)."""
        if key is None:
            return self.max_samples
        return self._shares.get(key, self.max_samples)

    def try_reserve(self, k: int, key: Optional[str] = None) -> bool:
        """Reserve ``k`` samples; False when the shared budget — or, for a
        weighted ``key``, its share — is exhausted."""
        if self._outstanding + k > self.max_samples and self._outstanding > 0:
            return False
        if key is not None and key in self._shares:
            held = self._per_key.get(key, 0)
            # per-key idle-oversized mirror: a request larger than its
            # model's share is admitted while that model holds nothing
            if held + k > self._shares[key] and held > 0:
                return False
        self._outstanding += k
        if key is not None:
            self._per_key[key] = self._per_key.get(key, 0) + k
        return True

    def release(self, k: int, key: Optional[str] = None) -> None:
        self._outstanding -= k
        if key is not None and key in self._per_key:
            held = self._per_key[key] - k
            if held <= 0:
                del self._per_key[key]
            else:
                self._per_key[key] = held


def pack_rows(rows) -> Tuple[np.ndarray, int]:
    """Validate a request's ``(k, F)`` 0/1 rows (``k >= 1``) and pack them:
    ``(words, k)``, the queue's one payload.  Malformed rows are the typed
    :class:`BadRequestError`."""
    try:
        rows = check_binary_matrix(rows, "rows")
    except ValueError as error:
        raise BadRequestError(str(error)) from error
    if rows.shape[0] == 0:
        raise BadRequestError("a request must carry at least one sample")
    return pack_bits(rows), rows.shape[0]


class _Pending:
    """One admitted request waiting for (or riding in) a batch.

    ``complete`` and ``tag`` are its reply sink: when the batch is done the
    queue calls ``complete(entries, result, error)`` once for all entries of
    the batch that share it (``result`` the whole batch's, ``error`` the
    exception that replaces it), and each entry finds its rows at
    ``result[entry.lo:entry.lo + entry.n_samples]`` and whom to answer in
    its ``tag``, which the queue never looks into.
    """

    __slots__ = (
        "payload", "n_samples", "lo", "complete", "tag", "enqueued_at"
    )

    def __init__(self, payload, n_samples, lo, complete, tag) -> None:
        self.payload = payload  # (F, n_words(k)) packed words
        self.n_samples = n_samples
        self.lo = lo  # its first row in the batch (and in the batch's result)
        self.complete = complete
        self.tag = tag
        self.enqueued_at = time.perf_counter()


def _resolve_futures(entries, result, error) -> None:
    """The completion behind the awaitable ``submit`` / ``submit_packed``:
    each entry's ``tag`` is the caller's future."""
    for entry in entries:
        future = entry.tag
        if future.done():
            continue  # the caller was cancelled after its batch flushed
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result[entry.lo:entry.lo + entry.n_samples])


class BatchingQueue:
    """Coalesce concurrent ``submit`` calls into shared batch evaluations.

    Parameters
    ----------
    batch_fn:
        ``(n, F) -> array with first axis n`` — labels, scores, anything
        sliceable along the sample axis — over uint8 rows, used when there
        is no ``packed_fn``.  Runs on the queue's executor thread unless
        ``on_loop`` is set.
    max_batch:
        Flush as soon as this many samples are queued.
    max_wait_us:
        Longest time (microseconds) a request waits for co-travellers on
        a queue that evaluates on its executor thread; finite and
        non-negative.  An ``on_loop`` queue does not wait it out (see
        *Flush policy*).
    max_queue:
        Admission bound in admitted-but-uncompleted samples (queued plus
        evaluating); beyond it requests are shed with
        :class:`ServerOverloadedError`.
    stats:
        Optional shared :class:`~repro.serving.stats.ServerStats`; a private
        one is created otherwise.
    budget:
        Optional :class:`AdmissionBudget` shared with other queues; admitted
        samples also reserve from it, so a multi-model server's total
        in-flight work stays bounded whatever the per-model traffic mix.
    budget_key:
        The key this queue's reservations carry into the shared budget —
        the model's name, in a registry — so weighted-fair shares
        (:meth:`AdmissionBudget.set_weights`) can bound each model
        individually.  ``None`` reserves against only the total bound.
    packed_fn:
        Optional ``(packed_words, n_samples) -> array with first axis
        n_samples`` fast path: the coalesced ``(F, n_words(n))`` uint64
        matrix goes to the model *as words* — no unpack, no re-pack.  Its
        output must mean the same thing as ``batch_fn``'s (labels with
        labels, scores with scores).  Without it, every batch falls back
        to one ``unpack_bits`` plus ``batch_fn``.
    on_loop:
        Evaluate each batch on the event-loop thread instead of the
        executor thread (see *Where evaluation runs*), and flush a
        partial batch at the end of the next loop pass instead of after
        ``max_wait_us`` (see *Flush policy*): lower latency at low load,
        for more, smaller batches.  Only for work that takes microseconds
        and never waits: while it runs no socket is read.  A callable
        returning that flag is asked at each flush and each timer arm, so
        a batch goes where the answer says at the time.
    """

    def __init__(
        self,
        batch_fn: Callable[[np.ndarray], np.ndarray],
        *,
        max_batch: int = 64,
        max_wait_us: float = 2000.0,
        max_queue: int = 1024,
        stats: Optional[ServerStats] = None,
        budget: Optional[AdmissionBudget] = None,
        budget_key: Optional[str] = None,
        packed_fn: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
        on_loop: Union[bool, Callable[[], bool]] = False,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if not 0 <= max_wait_us < math.inf:  # negative, NaN or infinite
            raise ValueError("max_wait_us must be finite and non-negative")
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        self._batch_fn = batch_fn
        self._packed_fn = packed_fn
        self._on_loop = on_loop if callable(on_loop) else lambda: on_loop
        self.max_batch = max_batch
        self.max_wait_us = max_wait_us
        self.max_queue = max_queue
        self.stats = stats if stats is not None else ServerStats()
        self._budget = budget
        self._budget_key = budget_key
        self._pending: List[_Pending] = []
        #: the feature width every pending entry shares
        self._pending_width = 0
        self._queued_samples = 0
        self._inflight_samples = 0
        self._depth_hwm = 0  # loop-confined; reaches the stats once per batch
        self._timer: Optional[asyncio.TimerHandle] = None
        #: batches evaluating on the executor thread
        self._inflight: set = set()
        # starts no thread until the first submit
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving"
        )
        self._closed = False

    # ------------------------------------------------------------ admission
    @property
    def on_loop(self) -> bool:
        """Whether a batch flushed now evaluates on the event loop."""
        return bool(self._on_loop())

    @property
    def packed_path(self) -> bool:
        """Whether batches evaluate as words (a ``packed_fn`` was given)
        rather than through the unpack fallback."""
        return self._packed_fn is not None

    @property
    def queued_samples(self) -> int:
        """Samples currently waiting for a flush (not yet evaluating)."""
        return self._queued_samples

    @property
    def backlog_samples(self) -> int:
        """Admitted-but-uncompleted samples — what ``max_queue`` bounds."""
        return self._queued_samples + self._inflight_samples

    def _admit(self, k: int) -> None:
        """Admission control for ``k`` samples."""
        backlog = self._queued_samples + self._inflight_samples
        if backlog + k > self.max_queue and backlog > 0:
            self.stats.observe_shed()
            raise ServerOverloadedError(
                f"server backlog holds {backlog} samples; admitting {k} "
                f"more would exceed the bound of {self.max_queue}"
            )
        if self._budget is not None and not self._budget.try_reserve(
            k, self._budget_key
        ):
            self.stats.observe_shed()
            key = self._budget_key
            share = self._budget.share_of(key)
            if key is not None and share < self._budget.max_samples:
                raise ServerOverloadedError(
                    f"model {key!r} holds "
                    f"{self._budget.outstanding_for(key)} of its "
                    f"{share}-sample admission share "
                    f"(box total {self._budget.outstanding}/"
                    f"{self._budget.max_samples}); admitting {k} more "
                    "would exceed it"
                )
            raise ServerOverloadedError(
                f"shared admission budget holds "
                f"{self._budget.outstanding} samples across all models; "
                f"admitting {k} more would exceed the bound of "
                f"{self._budget.max_samples}"
            )

    def admit_packed(
        self, packed: np.ndarray, n_samples: int, complete: Callable, tag: Any
    ) -> None:
        """Validate and admit one request in the caller's own stack frame;
        the answer goes to the reply sink ``complete`` / ``tag`` (see
        :class:`_Pending`) when its batch is done.

        ``packed`` is the ``(F, n_words(n_samples))`` uint64 bit-plane
        matrix of :func:`~repro.engine.bitpack.pack_bits` — what the binary
        wire protocol carries, and what :func:`pack_rows` makes of rows.
        The queue keeps ``packed`` until the batch evaluates, so it must be
        a buffer the caller will not write to again.

        Raises :class:`BadRequestError` for malformed input and
        :class:`ServerOverloadedError` when admission control sheds the
        request — in both cases nothing was queued and ``complete`` will
        not be called for it.
        """
        if self._closed:
            raise RuntimeError("this BatchingQueue has been closed")
        words = np.asarray(packed)
        if words.ndim != 2:
            raise BadRequestError(
                f"packed payload must be 2-D, got shape {words.shape}"
            )
        if words.dtype != np.uint64:
            raise BadRequestError(
                f"packed payload must be uint64 words, got {words.dtype}"
            )
        if n_samples < 1:
            raise BadRequestError("a request must carry at least one sample")
        if words.shape[1] != n_words(n_samples):
            raise BadRequestError(
                f"{n_samples} samples need {n_words(n_samples)} words per "
                f"signal, got {words.shape[1]}"
            )
        self._admit(n_samples)
        # A request that can never share the pending batch's word matrix (a
        # different feature width) flushes what is queued and starts a fresh
        # batch, so a client with the wrong shape fails alone instead of
        # wedging co-travellers.
        if self._pending and words.shape[0] != self._pending_width:
            self._flush_now()
        self._pending_width = words.shape[0]
        self._pending.append(
            _Pending(words, n_samples, self._queued_samples, complete, tag)
        )
        self._queued_samples = queued = self._queued_samples + n_samples
        if queued + self._inflight_samples > self._depth_hwm:
            self._depth_hwm = queued + self._inflight_samples
        if queued >= self.max_batch:
            self._flush_now()
        elif self._timer is None:
            # on the loop: flush at the end of the next pass, after the
            # callbacks already queued for it (see *Flush policy*)
            wait_s = 0 if self.on_loop else self.max_wait_us / 1e6
            self._timer = asyncio.get_running_loop().call_later(
                wait_s, self._flush_now
            )

    def discard(self, abandoned: Callable[[Any], bool]) -> None:
        """Drop every still-queued entry whose ``tag`` satisfies
        ``abandoned`` — its caller is gone (an abortive disconnect, a
        cancelled ``submit``).

        A dead entry must not stay behind: it would hold queue backlog and
        its shared-budget reservation until a batch happened to evaluate
        it, and the engine would burn a batch slot computing answers nobody
        reads.  Entries already flushed into a batch are out of reach here;
        the batch releases them as always, and their sink drops the answer.
        """
        kept = [entry for entry in self._pending if not abandoned(entry.tag)]
        if len(kept) == len(self._pending):
            return
        self._pending = kept
        queued = 0
        for entry in kept:
            entry.lo = queued
            queued += entry.n_samples
        released = self._queued_samples - queued
        self._queued_samples = queued
        if self._budget is not None:
            self._budget.release(released, self._budget_key)

    async def submit(self, rows: np.ndarray) -> np.ndarray:
        """:func:`pack_rows` ``rows`` (a ``(k, F)`` 0/1 matrix) and
        :meth:`submit_packed` the words."""
        return await self.submit_packed(*pack_rows(rows))

    async def submit_packed(
        self, packed: np.ndarray, n_samples: int
    ) -> np.ndarray:
        """:meth:`admit_packed` a pre-packed request with a sink that
        resolves a future, and await its slice of the result (raises what
        :meth:`admit_packed` raises, and whatever the batch's evaluation
        raised)."""
        future = asyncio.get_running_loop().create_future()
        self.admit_packed(packed, n_samples, _resolve_futures, future)
        try:
            return await future
        except asyncio.CancelledError:  # its rows need no evaluation now
            self.discard(lambda tag: tag is future)
            raise

    # ------------------------------------------------------------- flushing
    def _flush_now(self) -> None:
        """Hand the pending entries on as one batch: to a loop callback
        with ``on_loop``, to the executor thread without.  Also the
        timer's callback: a size-triggered flush may already have drained
        the queue between scheduling and firing, and flushing an empty
        queue is a no-op."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        entries = self._pending
        self._pending = []
        n_samples = self._queued_samples
        self._inflight_samples += n_samples
        self._queued_samples = 0
        self.stats.observe_queue_depth(self._depth_hwm)
        loop = asyncio.get_running_loop()
        if self.on_loop:
            # never now: this may be admit_packed's own stack
            loop.call_soon(
                self._finish,
                entries,
                n_samples,
                partial(self._run_batch, entries, n_samples),
            )
            return
        future = loop.run_in_executor(
            self._executor, self._run_batch, entries, n_samples
        )
        self._inflight.add(future)
        future.add_done_callback(
            lambda done: self._finish(entries, n_samples, done.result)
        )
        future.add_done_callback(self._inflight.discard)

    def _run_batch(
        self, entries: List[_Pending], n_samples: int
    ) -> np.ndarray:
        """Coalesce the entries and evaluate them once."""
        payloads = [entry.payload for entry in entries]
        if len(entries) == 1:
            # mask so a model's packed path never sees a client's padding
            # garbage (concat_packed masks internally for the multi case)
            words = mask_padding(payloads[0], n_samples)
        else:
            words = concat_packed(
                payloads, [entry.n_samples for entry in entries]
            )
        if self._packed_fn is not None:
            return self._packed_fn(words, n_samples)
        return self._batch_fn(unpack_bits(words, n_samples))

    def _finish(
        self,
        entries: List[_Pending],
        n_samples: int,
        outcome: Callable[[], np.ndarray],
    ) -> None:
        """Book one batch and complete it — once, not once per request.
        ``outcome()`` returns the batch's result or raises its failure."""
        result = error = None
        # Any failure must still reach every entry's sink (a caller left
        # unanswered blocks a client until its socket timeout) and must
        # release the admission backlog, or one bad batch wedges the queue
        # forever.
        try:
            result = np.asarray(outcome())
            if result.shape[:1] != (n_samples,):
                raise ValueError(
                    f"the batch function answered {n_samples} samples with "
                    f"a result of shape {result.shape}"
                )
        except Exception as failure:  # noqa: BLE001 - forwarded to callers
            result, error = None, failure
            self.stats.observe_error(len(entries))
        finally:
            self._inflight_samples -= n_samples
            if self._budget is not None:
                self._budget.release(n_samples, self._budget_key)
        if error is None:
            finished = time.perf_counter()
            self.stats.observe_latencies(
                [(finished - entry.enqueued_at) * 1e6 for entry in entries]
            )
            self.stats.observe_batch(len(entries), n_samples)
        sinks: Dict[Callable, List[_Pending]] = {}
        for entry in entries:
            sinks.setdefault(entry.complete, []).append(entry)
        for complete, group in sinks.items():
            complete(group, result, error)

    async def flush(self) -> None:
        """Force-evaluate whatever is queued and wait for it to finish."""
        self._flush_now()
        # one loop pass: ready callbacks run in FIFO order, so every batch
        # already scheduled on the loop finishes before this resumes
        await asyncio.sleep(0)
        if self._inflight:
            await asyncio.wait(list(self._inflight))

    # -------------------------------------------------------------- cleanup
    async def close(self) -> None:
        """Drain queued work, reject new submits, release the executor."""
        if self._closed:
            return
        self._closed = True
        await self.flush()
        self._executor.shutdown(wait=True)
