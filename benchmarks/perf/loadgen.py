"""Single-threaded asyncio load generator for the ``serve_*`` workloads.

One event loop, a few pipelined binary connections, no task per request:
each connection has one reader task, and sending is a plain ``write`` of a
frame encoded before the run (the client's "pack once" share is measured
separately as ``transport.bin_encode_request_us``).  Replies are kept as
raw frames and decoded and checked — every one — after the timed region.

A **closed** loop keeps a fixed number of requests in flight: a reply
triggers the next send, so a slower server receives less load and the
result is a capacity.  An **open** loop sends on a seeded Poisson schedule
whatever the server does, and times each request from when it was *due*, so
a stall is charged to every request that had to wait behind it.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from benchmarks.perf import adapters
from benchmarks.perf.measure import Windowed, now
from benchmarks.perf.registry import DEADLINE_S


class Load(NamedTuple):
    """What can be sent: request ``e`` is ``frames[e]`` and must yield ``labels[e]``."""

    frames: Sequence[bytes]
    labels: Sequence[np.ndarray]
    packed: Sequence[np.ndarray]  # the words inside each frame
    samples_per_request: int


class RunLog:
    """Per-request record, indexed by request id (= send order)."""

    def __init__(self) -> None:
        self.entry: List[int] = []
        self.t_due: List[float] = []
        self.t_sent: List[float] = []
        self.t_done: List[float] = []  # nan until the reply arrives
        self.reply: List[Optional[bytes]] = []
        self.t_begin = 0.0  # timed region
        self.t_end = 0.0
        self.cpu_share = 0.0  # generator CPU seconds per wall second

    def sent(self, entry: int, t_due: float, t_sent: float) -> int:
        self.entry.append(entry)
        self.t_due.append(t_due)
        self.t_sent.append(t_sent)
        self.t_done.append(math.nan)
        self.reply.append(None)
        return len(self.entry) - 1


class _Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.outstanding = 0


async def _connect(address: Tuple[str, int], n: int) -> List[_Connection]:
    return [
        _Connection(*await asyncio.open_connection(*address)) for _ in range(n)
    ]


async def _close(connections: Sequence[_Connection]) -> None:
    for conn in connections:
        conn.writer.close()
    for conn in connections:
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read_replies(conn: _Connection, log: RunLog, on_reply) -> None:
    while True:
        raw = await adapters.read_reply_frame(conn.reader)
        if raw is None:
            return
        t = now()
        rid = raw.request_id
        log.t_done[rid] = t
        log.reply[rid] = raw.frame
        conn.outstanding -= 1
        on_reply(conn, t)


async def _run(connections, log, on_reply, driver) -> None:
    """Run ``driver`` with reader tasks alive; always cancels and closes."""
    readers = [
        asyncio.ensure_future(_read_replies(c, log, on_reply)) for c in connections
    ]
    cpu0, wall0 = time.process_time(), now()
    gc.disable()  # a collection over the growing log would stall every request
    try:
        await driver
    finally:
        gc.enable()
        log.cpu_share = (time.process_time() - cpu0) / (now() - wall0)
        for task in readers:
            task.cancel()
        results = await asyncio.gather(*readers, return_exceptions=True)
        await _close(connections)
    for result in results:
        if isinstance(result, Exception):
            raise result  # a reader died on a malformed frame: not a result


async def closed_loop(
    address: Tuple[str, int],
    load: Load,
    order: np.ndarray,
    *,
    n_connections: int,
    n_inflight: int,
    warmup_s: float,
    seconds: float,
) -> RunLog:
    log = RunLog()
    connections = await _connect(address, n_connections)
    idle = asyncio.Event()
    log.t_begin = now() + warmup_s
    log.t_end = log.t_begin + seconds
    n_order = len(order)

    def send(conn: _Connection) -> None:
        t = now()
        entry = int(order[len(log.entry) % n_order])
        rid = log.sent(entry, t, t)
        conn.outstanding += 1
        conn.writer.write(adapters.replace_request_id(load.frames[entry], rid))

    def on_reply(conn: _Connection, t: float) -> None:
        if t < log.t_end:
            send(conn)
        elif not any(c.outstanding for c in connections):
            idle.set()

    async def driver() -> None:
        for i in range(n_inflight):
            send(connections[i % n_connections])
        try:
            await asyncio.wait_for(
                idle.wait(), timeout=warmup_s + seconds + DEADLINE_S
            )
        except asyncio.TimeoutError:
            pass  # unanswered requests stay nan and count as failed

    await _run(connections, log, on_reply, driver())
    return log


def poisson_schedule(seed: int, rate: float, duration_s: float) -> np.ndarray:
    """Arrival offsets (s) of a seeded Poisson process over ``duration_s``."""
    rng = np.random.default_rng([seed, int(rate)])
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration_s * 1.2) + 16)
    times = np.cumsum(gaps)
    return times[times < duration_s]


async def open_loop(
    address: Tuple[str, int],
    load: Load,
    order: np.ndarray,
    schedule: np.ndarray,
    *,
    n_connections: int,
    warmup_s: float,
    seconds: float,
) -> RunLog:
    log = RunLog()
    connections = await _connect(address, n_connections)
    t0 = now()
    log.t_begin = t0 + warmup_s
    log.t_end = log.t_begin + seconds
    due = t0 + schedule
    n_order = len(order)

    async def driver() -> None:
        i = 0
        while i < len(due):
            t = now()
            while i < len(due) and due[i] <= t:
                conn = connections[i % n_connections]
                entry = int(order[i % n_order])
                rid = log.sent(entry, float(due[i]), t)
                conn.outstanding += 1
                conn.writer.write(
                    adapters.replace_request_id(load.frames[entry], rid)
                )
                i += 1
                t = now()
            if i < len(due):
                await asyncio.sleep(max(0.0, due[i] - now()))
        deadline = now() + DEADLINE_S
        while any(c.outstanding for c in connections) and now() < deadline:
            await asyncio.sleep(0.005)

    await _run(connections, log, lambda conn, t: None, driver())
    return log


class LoadResult(NamedTuple):
    timing: Dict[str, Windowed]  # throughput in items (requests x samples) per s
    attempted: int
    failed: int
    replies: int  # correct-or-not replies inside the timed region
    late_p99_us: float
    cpu_share: float


def evaluate(log: RunLog, load: Load, n_windows: int, tail_q: float) -> LoadResult:
    """Check every reply and summarise the timed region, window by window.

    A request belongs to the window its reply arrived in.  Failed: no reply
    by the deadline, a typed error frame, or labels that differ from the
    reference; failures carry no latency, they count against ``attempted``.
    """
    t_due = np.asarray(log.t_due)
    t_done = np.asarray(log.t_done)
    latency = t_done - t_due
    ok = np.zeros(len(log.entry), dtype=bool)
    for rid, frame in enumerate(log.reply):
        if frame is None or latency[rid] > DEADLINE_S:
            continue
        try:
            reply = adapters.decode_reply(frame)
        except Exception:  # noqa: BLE001 - a typed wire error is a failed request
            continue
        ok[rid] = np.array_equal(reply.labels, load.labels[log.entry[rid]])
    timed = (t_due >= log.t_begin) & (t_due < log.t_end)
    edges = np.linspace(log.t_begin, log.t_end, n_windows + 1)
    rates, p50s, tails = [], [], []
    for lo, hi in zip(edges, edges[1:]):
        inside = ok & (t_done >= lo) & (t_done < hi)
        if not inside.any():
            raise RuntimeError("a measurement window saw no correct reply")
        rates.append(inside.sum() * load.samples_per_request / (hi - lo))
        p50s.append(np.percentile(latency[inside], 50) * 1e6)
        tails.append(np.percentile(latency[inside], tail_q) * 1e6)
    replies = int((ok & (t_done >= log.t_begin) & (t_done < log.t_end)).sum())
    lateness = (np.asarray(log.t_sent) - t_due)[timed]
    return LoadResult(
        {
            "throughput_per_s": Windowed(rates, replies, max),
            "latency_p50_us": Windowed(p50s, replies),
            "latency_tail_us": Windowed(tails, replies),
        },
        attempted=int(timed.sum()),
        failed=int((timed & ~ok).sum()),
        replies=replies,
        late_p99_us=float(np.percentile(lateness, 99) * 1e6) if timed.any() else 0.0,
        cpu_share=log.cpu_share,
    )
