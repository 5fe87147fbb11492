"""Where a served one-sample predict spends its time (``make profile-serve``).

Report only.  The benchmark's ``clf_p6`` (cached under ``benchmarks/perf/out``,
refitted in ~12 s when absent; the native engine is built into a cache beside
it) behind an in-process ``InferenceServer`` with ``serve_host``'s settings,
under the benchmark's own closed loop — 2 connections, 256 one-sample binary
requests always in flight — run from a child process, so the server's loop
thread shares its interpreter with nobody.  First pass: CPU µs per request by
stage and per thread — the loop thread, which also evaluates the native
engine's batches, and an executor thread only where the queue started one —
the timers' own cost included, frames per chunk, replies per
``write``, and the tasks and loop handles
(``call_soon`` / ``call_soon_threadsafe`` / ``call_at``) the loop created per
request.  Second pass: a ``cProfile`` top 15 of the loop thread.
"""

import asyncio
import cProfile
import multiprocessing
import os
import pstats
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from benchmarks.perf import fixtures, loadgen, serve_host
from benchmarks.perf.procs import OUT_DIR
from repro.engine import pack_bits
from repro.serving import BackgroundServer, InferenceServer
from repro.serving import queue as queue_module
from repro.serving import transport
from repro.serving.transport import encode_predict_request

SECONDS = 2.0
N_CONNECTIONS, N_INFLIGHT = 2, 256


def drive(address, load, seconds, out) -> None:
    """The load generator child: one closed loop, every reply checked."""
    order = np.random.default_rng(7).integers(0, len(load.frames), size=1 << 16)
    log = asyncio.run(
        loadgen.closed_loop(
            address, load, order, n_connections=N_CONNECTIONS,
            n_inflight=N_INFLIGHT, warmup_s=0.0, seconds=seconds,
        )
    )
    outcome = loadgen.evaluate(log, load, 1, 99.0)
    out.send((outcome.replies, outcome.failed, outcome.cpu_share))


def run_load(address, load, seconds):
    spawn = multiprocessing.get_context("spawn")
    ours, theirs = spawn.Pipe(duplex=False)
    child = spawn.Process(target=drive, args=(address, load, seconds, theirs))
    child.start()
    try:
        if not ours.poll(seconds + 60.0):
            raise RuntimeError("the load generator child did not report")
        return ours.recv()
    finally:
        child.join(10.0)
        if child.is_alive():
            child.kill()


class Stages:
    """CPU time of the calling thread, summed per stage name."""

    def __init__(self) -> None:
        self.seconds = Counter()
        self.calls = Counter()

    def timed(self, name, call):
        def wrapper(*args, **kwargs):
            t0 = time.thread_time()
            try:
                return call(*args, **kwargs)
            finally:
                self.seconds[name] += time.thread_time() - t0
                self.calls[name] += 1

        return wrapper

    def timed_frames(self, frames):
        """``_ChunkedWalk.frames``: time inside the generator only, not in
        the loop body that consumes each frame."""

        def wrapper(walk, chunk):
            produced = frames(walk, chunk)
            self.calls["chunks"] += 1
            while True:
                t0 = time.thread_time()
                try:
                    frame = next(produced)
                except StopIteration:
                    return
                finally:
                    self.seconds["decode"] += time.thread_time() - t0
                self.calls["decode"] += 1
                yield frame

        return wrapper


@contextmanager
def instrumented(server, handle, stages):
    """Wrap each stage's function on this server for the block's duration."""
    entry = server.registry.resolve(serve_host.MODEL_NAME)
    queue = entry.queue
    loop = handle.run(_on_loop(asyncio.get_running_loop))
    patches = [
        (transport._ChunkedWalk, "frames",
         stages.timed_frames(transport._ChunkedWalk.frames)),
        (server, "_dispatch", stages.timed("admit", server._dispatch)),
        (queue_module, "concat_packed",
         stages.timed("coalesce", queue_module.concat_packed)),
        (queue, "_packed_fn", stages.timed("evaluate", queue._packed_fn)),
        (entry.stats, "observe_latencies",
         stages.timed("book", entry.stats.observe_latencies)),
        (server, "_complete", stages.timed("complete/encode", server._complete)),
        (transport.CorkedWriter, "_flush",
         stages.timed("write", transport.CorkedWriter._flush)),
        *((loop, name, stages.timed("handles", getattr(loop, name)))
          for name in ("call_soon", "call_soon_threadsafe", "call_at")),
    ]

    def task_factory(loop, coro, **kwargs):
        stages.calls["tasks"] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    with ExitStack() as stack:
        for owner, name, replacement in patches:
            stack.enter_context(mock.patch.object(owner, name, replacement))
        handle.run(_on_loop(loop.set_task_factory, task_factory))
        try:
            yield
        finally:
            handle.run(_on_loop(loop.set_task_factory, None))


def thread_cpu(threads):
    return {
        name: time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
        for name, thread in threads.items()
    }


async def _on_loop(call, *args):
    return call(*args)


def main() -> None:
    os.environ.setdefault(
        "REPRO_NATIVE_CACHE", str(OUT_DIR / "profile_serve_cache")
    )
    clf = fixtures.build().clf
    rows = fixtures.feature_rows(7, fixtures.POOL_ROWS)
    labels = clf.predict(rows)
    packed = [pack_bits(rows[i : i + 1]) for i in range(len(rows))]
    frames = [
        encode_predict_request(words, 1, model=serve_host.MODEL_NAME)
        for words in packed
    ]
    load = loadgen.Load(frames, [labels[i : i + 1] for i in range(len(rows))], packed, 1)
    server = InferenceServer(
        max_batch=serve_host.MAX_BATCH,
        max_wait_us=serve_host.MAX_WAIT_US,
        max_queue=serve_host.MAX_QUEUE,
    )
    entry = server.register_model(serve_host.MODEL_NAME, model=clf, backend="native")
    entry.engine.wait()  # the steady state: a cold build answers on NumPy until then
    with BackgroundServer(server) as handle:
        run_load(handle.address, load, 0.5)  # warm: caches, allocator, sockets

        stages = Stages()
        # a single-thread native engine's batches evaluate on the loop; a
        # queue that evaluates on its executor has started its thread by now
        threads = {"loop thread": handle._thread}
        if entry.queue._executor._threads:
            threads["executor thread"] = next(
                iter(entry.queue._executor._threads)
            )
        with instrumented(server, handle, stages):
            before, cpu_before = entry.stats.snapshot(), thread_cpu(threads)
            replies, failed, cpu_share = run_load(handle.address, load, SECONDS)
            after, cpu_after = entry.stats.snapshot(), thread_cpu(threads)
        n = max(after["requests_completed"] - before["requests_completed"], 1)
        batches = max(after["batches"] - before["batches"], 1)
        print(
            f"{N_CONNECTIONS} connections, {N_INFLIGHT} in flight, {SECONDS:g} s: "
            f"{replies / SECONDS:,.0f} req/s instrumented, failed {failed}, "
            f"generator cpu_share {cpu_share:.2f}, "
            f"{n / batches:.1f} requests per batch"
        )
        print("cpu us per request: " + "  ".join(
            f"{name} {1e6 * stages.seconds[name] / n:.2f}"
            for name in ("decode", "admit", "coalesce", "evaluate", "book",
                         "complete/encode", "write")
        ))
        print("cpu us per request, whole thread: " + "  ".join(
            f"{name} {1e6 * (cpu_after[name] - cpu_before[name]) / n:.2f}"
            for name in threads
        ))
        print(
            f"frames per chunk {stages.calls['decode'] / max(stages.calls['chunks'], 1):.1f}  "
            f"replies per write {n / max(stages.calls['write'], 1):.1f}  "
            f"tasks per request {stages.calls['tasks'] / n:.3f}  "
            f"loop handles per request {stages.calls['handles'] / n:.3f}"
        )

        profiler = cProfile.Profile()
        handle.run(_on_loop(profiler.enable))  # profiles the loop thread only
        try:
            replies, _, _ = run_load(handle.address, load, SECONDS)
        finally:
            handle.run(_on_loop(profiler.disable))
        print(f"cProfile of the loop thread, {replies} requests:")
        pstats.Stats(profiler).sort_stats("tottime").print_stats(15)


if __name__ == "__main__":
    main()
