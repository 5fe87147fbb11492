"""The six workloads.

Each takes a :class:`Context`, runs against the program's public entry
points only, checks outputs against a reference that does not go through
the engine, and returns a :class:`Result`.  With ``ctx.trace`` the same
workload runs once more with spans around each public call (in-process
workloads) or through ever-shorter rigs (the serving onion); end-to-end
numbers always come from the untraced pass.

Shared rules: the native ``.so``/tune cache is a fresh scratch directory per
set-up, so ``setup_s`` is always the cold cost; set-up is repeated while it
is cheap and the median reported; all checking happens between timed calls
or after the timed region.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import statistics
import sys
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from benchmarks.perf import adapters, fixtures, loadgen, serve_host
from benchmarks.perf.measure import (
    Tracer,
    Windowed,
    cpu_seconds,
    median_call_s,
    now,
    peak_rss_mb,
    summarize_calls,
)
from benchmarks.perf.procs import HERE, Audit, child
from benchmarks.perf.registry import BY_NAME, N_WINDOWS, OPEN_LOOP_RATE

#: set-up is repeated (and the median reported) until this many repeats or
#: this much time, whichever comes first — a 21 s autotune runs once, a
#: 0.3 s NumPy lowering seven times
SETUP_REPEATS = 7
SETUP_BUDGET_S = 3.0

BANK_WORDS = 1024  # 65536 samples per call
CLASSIFY_ROWS = 16384
CHECK_ROWS = 2048
COMPILE_CHECK_WORDS = 4  # 256 samples
LARGE_REQUEST_ROWS = 2048
SERVING_LINE_TIMEOUT_S = 120.0


class Context(NamedTuple):
    seed: int
    seconds: float
    trace: bool
    fixtures: fixtures.Fixtures
    audit: Audit
    tracer: Tracer
    warm_cache: str  # persistent native cache for rigs (run-side numbers only)

    @property
    def warmup_s(self) -> float:
        return min(2.0, self.seconds / 4.0)


class Result(NamedTuple):
    setup_s: float  # median of setup_runs_s
    setup_runs_s: List[float]
    timing: Dict[str, Windowed]  # throughput_per_s, latency_p50_us, latency_tail_us
    peak_rss_mb: float
    attempted: int
    failed: int
    layer: Dict[str, float]  # per-layer rows this workload itself observes
    info: Dict[str, object]


@contextmanager
def native_cache(path) -> Iterator[None]:
    previous = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(path)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_NATIVE_CACHE"]
        else:
            os.environ["REPRO_NATIVE_CACHE"] = previous


@contextmanager
def _cold_setup(ctx: Context, setup: Callable[[], Tuple[object, bool]]):
    """Run ``setup`` on a cold native cache, repeatedly while cheap.

    Yields ``(last product, median seconds, all seconds, any incorrect)``;
    the last repeat's cache stays in place until the block is left.
    """
    times: List[float] = []
    wrong = False
    stack = ExitStack()
    try:
        while True:
            stack.close()  # drop the previous repeat's cache
            cache = stack.enter_context(ctx.audit.scratch_dir("cache"))
            stack.enter_context(native_cache(cache))
            t0 = now()
            product, ok = setup()
            times.append(now() - t0)
            wrong |= not ok
            if len(times) >= SETUP_REPEATS or sum(times) >= SETUP_BUDGET_S:
                break
        yield product, statistics.median(times), times, wrong
    finally:
        stack.close()


def _call_loop(call, check, seconds: float, min_calls: int):
    """Back-to-back ``call(i)`` for ``seconds``; returns durations and failures."""
    durations: List[float] = []
    failed = 0
    deadline = now() + seconds
    while now() < deadline or len(durations) < min_calls:
        index = len(durations)
        t0 = now()
        out = call(index)
        durations.append(now() - t0)
        failed += not check(out, index)
    return durations, failed


def _in_process(
    ctx: Context,
    name: str,
    *,
    setup: Callable[[], Tuple[object, bool]],
    make_call: Callable[[object], Callable[[int], object]],
    make_traced_call: Callable[[object, Tracer], Callable[[int], object]],
    check: Callable[[object, int], bool],
    items_per_call: int,
    group: int = 1,
) -> Result:
    """Set-up, warm-up, timed calls; in trace mode a second, traced half.

    ``group`` keeps windows aligned to whole cycles when calls cycle through
    several inputs (the four programs of ``compile_cold``).
    """
    with _cold_setup(ctx, setup) as (product, setup_s, setup_times, wrong_setup):
        call = make_call(product)
        min_calls = N_WINDOWS * group
        seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        _call_loop(call, check, ctx.warmup_s, 1)
        durations, failed = _call_loop(call, check, seconds, min_calls)
        usable = len(durations) - len(durations) % min_calls
        tail_q = BY_NAME[name].tail_percentile
        timing = summarize_calls(durations[:usable], items_per_call, N_WINDOWS, tail_q)
        attempted = len(durations) + len(setup_times)
        layer: Dict[str, float] = {}
        if ctx.trace:
            traced = make_traced_call(product, ctx.tracer)
            traced_durations, traced_failed = _call_loop(traced, check, seconds, group)
            attempted += len(traced_durations)
            failed += traced_failed
            layer = _span_shares(ctx.tracer, durations[:usable], traced_durations, group)
    return Result(
        setup_s=setup_s,
        setup_runs_s=setup_times,
        timing=timing,
        peak_rss_mb=peak_rss_mb(),
        attempted=attempted,
        failed=failed + wrong_setup,
        layer=layer,
        info={"calls": len(durations)},
    )


#: span name prefix -> the stage row it is charged to
_STAGE_OF = {
    "bitpack": "stage.pack_share",
    "engine": "stage.engine_share",
    "readout": "stage.readout_share",
    "passes": "stage.passes_share",
    "lower": "stage.lower_share",
    "codegen": "stage.codegen_share",
    "build": "stage.build_share",
}


def _span_shares(tracer, untraced, traced, group) -> Dict[str, float]:
    """Stage shares of the traced calls, and how well they explain the untraced."""
    traced = traced[: len(traced) - len(traced) % group]
    n_traced = len(traced)
    totals: Dict[str, float] = {}
    for span_name, t0, t1, parent, item in tracer.spans:
        if parent is None and item < n_traced:
            stage = _STAGE_OF[span_name.split(".")[0]]
            totals[stage] = totals.get(stage, 0.0) + (t1 - t0)
    wall_traced = sum(traced)
    shares = {stage: 100.0 * t / wall_traced for stage, t in totals.items()}
    per_call_untraced = sum(untraced) / len(untraced)
    per_call_spans = sum(totals.values()) / n_traced
    shares["trace.unattributed_share"] = (
        100.0 * abs(per_call_untraced - per_call_spans) / per_call_untraced
    )
    shares["trace.overhead_share"] = (
        100.0 * (wall_traced / n_traced - per_call_untraced) / per_call_untraced
    )
    return shares


# ------------------------------------------------------------ bank_packed_mt
def bank_packed_mt(ctx: Context) -> Result:
    netlist = ctx.fixtures.programs["rinc_p6"]
    x = fixtures.packed_batch(ctx.seed, netlist.n_primary_inputs, BANK_WORDS)
    head = 512  # samples compared with the reference simulator
    reference = netlist.evaluate_outputs(adapters.unpack_bits(x[:, : head // 64], head))
    checksums: List[int] = []

    def matches_reference(out) -> bool:
        return np.array_equal(adapters.unpack_bits(out[:, : head // 64], head), reference)

    def setup():
        tuned = adapters.compile_netlist(netlist, backend="native-mt")
        # The tuner calibrates on 256 words, where 1 and 2 threads are within
        # ~15% on the reference host, and its pick flips between runs; on this
        # 1024-word batch that is 31 M vs 52 M samples/s, so its pick would
        # make the number bimodal.  Keep its build (lanes, flags — a cache
        # hit), pin the fan-out to the core count; the pick itself is reported
        # as native_mt.threads.
        engine = adapters.NativeCompiledNetlist(
            tuned.program, threads=os.cpu_count() or 1,
            unroll=tuned.unroll, opt_tier=tuned.opt_tier,
        )
        return engine, matches_reference(engine.run_packed(x))

    def check(out, index) -> bool:
        checksum = int(np.bitwise_xor.reduce(out, axis=None))
        if not checksums:
            checksums.append(checksum)
            return matches_reference(out)
        return checksum == checksums[0]

    def make_traced_call(engine, tracer):
        def call(i):
            with tracer.span("engine.run_packed", i):
                return engine.run_packed(x)
        return call

    return _in_process(
        ctx,
        "bank_packed_mt",
        setup=setup,
        make_call=lambda engine: lambda i: engine.run_packed(x),
        make_traced_call=make_traced_call,
        check=check,
        items_per_call=BANK_WORDS * 64,
    )


# ---------------------------------------------------- classify_bits_default
def classify_bits_default(ctx: Context) -> Result:
    X = fixtures.feature_rows(ctx.seed, CLASSIFY_ROWS)
    reference = ctx.fixtures.clf.predict(X[:CHECK_ROWS])

    def check(labels, index) -> bool:
        return np.array_equal(labels[:CHECK_ROWS], reference)

    def setup():
        clf = fixtures.fresh_classifier()  # its first predict_batch compiles
        return clf, check(clf.predict_batch(X), 0)

    def make_traced_call(clf, tracer):
        engine = clf.compiled_netlist()
        readout = clf.output_layer_

        def call(i):  # what predict_batch composes, call by call
            with tracer.span("bitpack.pack_bits", i):
                packed = adapters.pack_bits(X)
            with tracer.span("engine.run_packed", i):
                intermediate = engine.run_packed(packed)
            with tracer.span("readout.decision_scores_packed", i):
                scores = readout.decision_scores_packed(intermediate, X.shape[0])
            with tracer.span("readout.argmax", i):
                return np.argmax(scores, axis=1)
        return call

    return _in_process(
        ctx,
        "classify_bits_default",
        setup=setup,
        make_call=lambda clf: lambda i: clf.predict_batch(X),
        make_traced_call=make_traced_call,
        check=check,
        items_per_call=CLASSIFY_ROWS,
    )


# -------------------------------------------------------------- compile_cold
def compile_cold(ctx: Context) -> Result:
    programs = list(ctx.fixtures.programs.values())
    inputs, references = [], []
    for netlist in programs:
        x = fixtures.packed_batch(ctx.seed, netlist.n_primary_inputs, COMPILE_CHECK_WORDS)
        inputs.append(x)
        references.append(
            netlist.evaluate_outputs(adapters.unpack_bits(x, COMPILE_CHECK_WORDS * 64))
        )
    n = len(programs)

    def compile_one(i):
        return adapters.compile_netlist(programs[i % n], backend="native", max_lut_inputs=6)

    def check(engine, index) -> bool:
        out = engine.run_packed(inputs[index % n])
        bits = adapters.unpack_bits(out, COMPILE_CHECK_WORDS * 64)
        return np.array_equal(bits, references[index % n])

    def setup():  # the cold compile of all four is this workload's set-up
        return None, all(check(compile_one(i), i) for i in range(n))

    def make_traced_call(_, tracer):
        def call(i):  # what compile_netlist(backend="native") composes
            with tracer.span("passes.from_netlist", i):
                graph = adapters.IRGraph.from_netlist(programs[i % n])
            for pipeline_pass in adapters.default_passes(6):
                with tracer.span(f"passes.{type(pipeline_pass).__name__}", i):
                    graph = pipeline_pass.run(graph)
            with tracer.span("passes.to_netlist", i):
                optimized = graph.to_netlist()
            with tracer.span("lower.from_netlist", i):
                program = adapters.CompiledNetlist.from_netlist(optimized)
            with tracer.span("codegen.generate_c_source", i):
                source = adapters.generate_c_source(program)
            with tracer.span("build.build_shared_object", i):
                adapters.build_shared_object(source)
            return program  # the same word program, on the NumPy executor
        return call

    # the timed calls hit the cache the cold set-up just filled
    return _in_process(
        ctx,
        "compile_cold",
        setup=setup,
        make_call=lambda _: compile_one,
        make_traced_call=make_traced_call,
        check=check,
        items_per_call=1,
        group=n,
    )


# ------------------------------------------------------------------ serving
def _serving_load(ctx: Context, rows_per_request: int) -> loadgen.Load:
    """Frames and reference labels from the seeded 4096-row pool."""
    rows = fixtures.feature_rows(ctx.seed, fixtures.POOL_ROWS)
    labels = ctx.fixtures.clf.predict(rows)  # the non-engine reference
    if rows_per_request == 1:
        starts = range(fixtures.POOL_ROWS)
    else:  # overlapping windows of the pool: 33 distinct large requests
        starts = range(0, fixtures.POOL_ROWS - rows_per_request + 1, 64)
    packed = [adapters.pack_bits(rows[s : s + rows_per_request]) for s in starts]
    frames = [
        adapters.encode_predict_request(
            words, rows_per_request, model=serve_host.MODEL_NAME
        )
        for words in packed
    ]
    expected = [labels[s : s + rows_per_request] for s in starts]
    return loadgen.Load(frames, expected, packed, rows_per_request)


def _read_serving_line(proc) -> Tuple[str, int, dict]:
    ready, _, _ = select.select([proc.stdout], [], [], SERVING_LINE_TIMEOUT_S)
    line = proc.stdout.readline().decode() if ready else ""
    parts = line.split(None, 3)
    if len(parts) != 4 or parts[0] != "SERVING":
        raise RuntimeError(
            f"server child did not come up within {SERVING_LINE_TIMEOUT_S:.0f}s "
            f"(exit code {proc.poll()}, said {line!r})"
        )
    return parts[1], int(parts[2]), json.loads(parts[3])


@contextmanager
def server_child(ctx: Context, load: loadgen.Load):
    """A cold server child; yields ``(proc, address, timings)`` once it has
    answered one request correctly — the end of ``setup_s``."""
    with ctx.audit.scratch_dir("cache") as cache:
        env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache))
        argv = [str(HERE / "serve_host.py"), str(fixtures.CLF_CACHE)]
        t0 = now()
        with child(argv, env) as proc:
            host, port, timings = _read_serving_line(proc)
            sock_reply = _one_request(host, port, load.frames[0])
            timings["setup_s"] = now() - t0
            timings["first_reply_correct"] = np.array_equal(
                sock_reply.labels, load.labels[0]
            )
            yield proc, (host, port), timings


def _one_request(host: str, port: int, frame: bytes):
    async def go():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(frame)
            raw = await asyncio.wait_for(adapters.read_reply_frame(reader), 30.0)
            return adapters.decode_reply(raw.frame)
        finally:
            writer.close()
    return asyncio.run(go())


def _serve(
    ctx: Context, name: str, *, rows_per_request: int, n_inflight: Optional[int]
) -> Result:
    """One serving workload; ``n_inflight=None`` is the open loop."""
    load = _serving_load(ctx, rows_per_request)
    rng = np.random.default_rng([ctx.seed, 1])
    order = rng.integers(0, len(load.frames), size=1 << 16)
    tail_q = BY_NAME[name].tail_percentile
    with server_child(ctx, load) as (proc, address, timings):
        cpu0 = cpu_seconds(proc.pid)
        if n_inflight is not None:
            run = loadgen.closed_loop(
                address, load, order, n_connections=2, n_inflight=n_inflight,
                warmup_s=ctx.warmup_s, seconds=ctx.seconds,
            )
        else:
            schedule = loadgen.poisson_schedule(
                ctx.seed, OPEN_LOOP_RATE, ctx.warmup_s + ctx.seconds
            )
            run = loadgen.open_loop(
                address, load, order, schedule, n_connections=2,
                warmup_s=ctx.warmup_s, seconds=ctx.seconds,
            )
        log = asyncio.run(run)
        server_cpu_s = cpu_seconds(proc.pid) - cpu0
        with adapters.ServingClient(*address, timeout=5.0) as client:
            stats = client.stats(model=serve_host.MODEL_NAME)
        rss = peak_rss_mb(proc.pid)
    outcome = loadgen.evaluate(log, load, N_WINDOWS, tail_q)
    if outcome.cpu_share > 0.8 or outcome.late_p99_us > 2000.0:
        print(
            f"# WARNING {name}: generator-bound (cpu_share "
            f"{outcome.cpu_share:.2f}, late_p99 {outcome.late_p99_us:.0f} us): "
            "part of these latencies is the generator's, not the program's",
            file=sys.stderr,
        )
    answered = sum(frame is not None for frame in log.reply)
    layer = {
        "queue.batch_occupancy_mean": float(stats["mean_batch_occupancy"]),
        "queue.depth_hwm": float(stats["max_queue_depth"]),
        "queue.shed_count": float(stats["shed"]),
        "server.cpu_us_per_request": 1e6 * server_cpu_s / max(answered, 1),
        "server.admission_p50_us": float(stats["latency_us"]["p50"]),
        "server.admission_p99_us": float(stats["latency_us"]["p99"]),
        "loadgen.late_p99_us": outcome.late_p99_us,
        "loadgen.cpu_share": 100.0 * outcome.cpu_share,
    }
    if ctx.trace:
        layer.update(_onion(ctx, load, order, outcome, stats, n_inflight))
        for rid, (t0, t1) in enumerate(zip(log.t_due, log.t_done)):
            ctx.tracer.add("wire.round_trip", t0, t1, rid)
    return Result(
        setup_s=timings["setup_s"],
        setup_runs_s=[timings["setup_s"]],
        timing=outcome.timing,
        peak_rss_mb=rss,
        attempted=outcome.attempted + 1,
        failed=outcome.failed + (not timings["first_reply_correct"]),
        layer=layer,
        info={"child": timings, "replies": outcome.replies, "server_stats": stats},
    )


def _onion(ctx, load, order, outcome, stats, n_inflight: Optional[int]):
    """Peel the serving path from outside in; see README, "the onion".

    Level 1 is the socket run just measured.  Level 2 drives the same
    request pattern into a ``BatchingQueue`` inside this process's loop (no
    socket, no frames).  Levels 3 and 4 time ``decision_scores_packed_batch``
    and ``run_packed`` on one batch of the occupancy the server reported.
    Closed loops compare time per item at capacity, the open loop compares
    median latency; a level minus the next inner one is that layer's own
    share.
    """
    clf = ctx.fixtures.clf
    n = load.samples_per_request
    with native_cache(ctx.warm_cache):
        engine = clf.compiled_netlist("native")

        def packed_fn(words, n_samples):
            return clf.decision_scores_packed_batch(words, n_samples, engine_backend="native")

        level2 = asyncio.run(_queue_rig(ctx, clf, packed_fn, load, order, n_inflight))
        batch = max(1, int(round(stats["mean_batch_occupancy"])))
        words = adapters.pack_bits(fixtures.feature_rows(ctx.seed, batch))
        level3 = median_call_s(lambda: packed_fn(words, batch), 50)
        level4 = median_call_s(lambda: engine.run_packed(words), 50)
    if n_inflight is None:
        level1 = outcome.timing["latency_p50_us"].value / 1e6
    else:
        level1 = n / outcome.timing["throughput_per_s"].value
        level3, level4 = level3 * n / batch, level4 * n / batch
    levels = [level1, level2, level3, level4, 0.0]
    names = ["stage.wire_share", "stage.queue_share", "stage.readout_share",
             "stage.engine_share"]
    shares = {
        name: 100.0 * max(outer - inner, 0.0) / level1
        for name, outer, inner in zip(names, levels, levels[1:])
    }
    shares["trace.unattributed_share"] = max(0.0, 100.0 - sum(shares.values()))
    ctx.tracer.add("onion.level1_socket", 0.0, level1)
    ctx.tracer.add("onion.level2_queue", 0.0, level2)
    ctx.tracer.add("onion.level3_scores", 0.0, level3)
    ctx.tracer.add("onion.level4_engine", 0.0, level4)
    return shares


async def _queue_rig(ctx, clf, packed_fn, load, order, n_inflight: Optional[int]) -> float:
    """Seconds per request at capacity (closed) or median latency (open), in-loop."""
    packed, n = load.packed, load.samples_per_request
    queue = adapters.BatchingQueue(
        clf.decision_scores_batch,
        max_batch=serve_host.MAX_BATCH,
        max_wait_us=serve_host.MAX_WAIT_US,
        max_queue=serve_host.MAX_QUEUE,
        packed_fn=packed_fn,
    )
    seconds = max(1.0, ctx.seconds / 4)
    latencies: List[float] = []
    try:
        t_start = now()
        if n_inflight is None:
            schedule = loadgen.poisson_schedule(ctx.seed + 1, OPEN_LOOP_RATE, seconds)

            async def one(due: float, e: int) -> None:
                await queue.submit_packed(packed[e], n)
                latencies.append(now() - due)

            tasks = []
            for i, offset in enumerate(schedule):
                due = t_start + float(offset)
                delay = due - now()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(one(due, int(order[i]))))
            await asyncio.gather(*tasks)
            return statistics.median(latencies)

        deadline = t_start + seconds
        done = 0

        async def worker(k: int) -> None:
            nonlocal done
            i = k
            while now() < deadline:
                await queue.submit_packed(packed[int(order[i % len(order)])], n)
                done += 1
                i += n_inflight

        await asyncio.gather(*(worker(k) for k in range(n_inflight)))
        return (now() - t_start) / max(done, 1)
    finally:
        await queue.close()


def serve_small_closed(ctx: Context) -> Result:
    return _serve(ctx, "serve_small_closed", rows_per_request=1, n_inflight=256)


def serve_small_open(ctx: Context) -> Result:
    return _serve(ctx, "serve_small_open", rows_per_request=1, n_inflight=None)


def serve_large_closed(ctx: Context) -> Result:
    return _serve(
        ctx, "serve_large_closed", rows_per_request=LARGE_REQUEST_ROWS, n_inflight=8
    )


RUNNERS: Dict[str, Callable[[Context], Result]] = {
    "bank_packed_mt": bank_packed_mt,
    "classify_bits_default": classify_bits_default,
    "serve_small_closed": serve_small_closed,
    "serve_small_open": serve_small_open,
    "serve_large_closed": serve_large_closed,
    "compile_cold": compile_cold,
}
