"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is generated from this module
(``python3 benchmarks/perf/registry.py`` prints it) and the contract test
asserts the two agree, so a workload or metric exists in exactly one place.
Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple

#: seconds one run measures; the driver passes it back as ``--seconds``
RUN_SECONDS = 5

#: windows the timed region is cut into.  A reported value is the *best* of
#: the per-window values (highest throughput, lowest latency): on the shared
#: 2-vCPU reference host interference only ever slows a window down, and the
#: best window repeats from run to run about twice as closely as the median
#: one (README.md has the numbers).  The median and the window IQR are
#: recorded next to it.
N_WINDOWS = 5

#: open-loop arrival rate of ``serve_small_open`` in requests per second:
#: about a fifth of the closed-loop capacity measured on the 2-core
#: reference host.  ISSUE 12 proposed 3000; in that host's slow phases the
#: read-out's fixed cost doubles, 3000 req/s at ~15 samples per batch is then
#: the server's whole capacity, and one run in ~45 lost a second of requests
#: to the 1 s deadline.  Frozen — recomputing it per host would make
#: latencies from two hosts (or two commits) incomparable.
OPEN_LOOP_RATE = 2000

#: a request without a reply after this long counts as failed
DEADLINE_S = 1.0


class Workload(NamedTuple):
    name: str
    why: str
    item: str  # what `throughput_per_s` counts and `latency_*` times
    tail_percentile: int  # percentile behind `latency_tail_us`


WORKLOADS: List[Workload] = [
    Workload(
        "bank_packed_mt",
        "Pre-packed 65536-sample batches through the autotuned native-mt "
        "kernel; pack, read-out and serving are bypassed, so kernel wins "
        "show undiluted.",
        "sample (one run_packed call = 65536)",
        99,
    ),
    Workload(
        "classify_bits_default",
        "predict_batch on uint8 rows with the default NumPy backend: "
        "pack_bits, the NumPy executor and the read-out share the time and "
        "native code is bypassed.",
        "sample (one predict_batch call = 16384)",
        90,
    ),
    Workload(
        "serve_small_closed",
        "256 one-sample binary requests always in flight against a server "
        "child: per-request machinery dominates, the bank is under 5%; "
        "closed loop because it measures capacity.",
        "request (1 sample)",
        99,
    ),
    Workload(
        "serve_small_open",
        "Seeded Poisson arrivals at a fixed 2000 req/s, latency from each "
        "request's due time: where max_wait_us, batch fill and per-batch "
        "costs become waiting.",
        "request (1 sample)",
        99,
    ),
    Workload(
        "serve_large_closed",
        "8 requests of 2048 samples in flight: bytes, copies and the "
        "read-out's per-sample cost dominate, per-request overhead is "
        "negligible.",
        "sample (one request = 2048)",
        99,
    ),
    Workload(
        "compile_cold",
        "compile_netlist(native) of four programs on an empty cache "
        "(setup_s) then repeatedly on the warm cache: the operator's cost "
        "of registering or hot-swapping a model.",
        "compile_netlist call",
        90,
    ),
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end only


#: every workload reports every one of these with ``--trace 0``
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_us", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: Printed by every run and recorded, but bounded nowhere: on the shared
#: reference host its run-to-run spread (0.10-0.28 over four sets of ten
#: runs) straddles the largest bound the contract allows, so as an
#: end-to-end metric it would reject PRs for the neighbours' noise.  The
#: traced run reports it as the per-layer row of the same name.
TAIL = Metric("latency_tail_us", "us", "lower")

_L = "lower"
_H = "higher"

#: every workload reports every one of these with ``--trace 1``; a layer the
#: workload bypasses reads 0 in the ``stage.*``/``queue.*``/``server.*``/
#: ``loadgen.*`` rows that observe the workload itself
PER_LAYER: List[Metric] = [
    TAIL,
    # engine.bitpack
    Metric("bitpack.pack_ns_per_sample", "ns", _L),
    Metric("bitpack.unpack_ns_per_sample", "ns", _L),
    Metric("bitpack.concat_packed_us", "us", _L),
    Metric("bitpack.mask_padding_us", "us", _L),
    Metric("bitpack.weighted_sums_ns_per_sample", "ns", _L),
    # core.output_layer / core.poetbin
    Metric("readout.scores_packed_ns_per_sample", "ns", _L),
    Metric("readout.scores_packed_us_1word", "us", _L),
    Metric("readout.argmax_ns_per_sample", "ns", _L),
    # engine.passes
    Metric("passes.fold_s", "s", _L),
    Metric("passes.fuse_s", "s", _L),
    Metric("passes.dedup_s", "s", _L),
    Metric("passes.decompose_s", "s", _L),
    Metric("passes.cost_before", "count", _L),
    Metric("passes.cost_after", "count", _L),
    Metric("passes.nodes_after", "count", _L),
    # engine.compiled_netlist
    Metric("lower.from_netlist_s", "s", _L),
    Metric("lower.n_groups", "count", _L),
    Metric("numpy.ns_per_lutword", "ns", _L),
    Metric("numpy.us_1word", "us", _L),
    # engine.native
    Metric("native.codegen_s", "s", _L),
    Metric("native.cc_s", "s", _L),
    Metric("native.cache_hit_s", "s", _L),
    Metric("native.so_bytes", "count", _L),
    Metric("native.c_source_bytes", "count", _L),
    Metric("native.ns_per_lutword", "ns", _L),
    Metric("native.us_1word", "us", _L),
    Metric("native_mt.ns_per_lutword", "ns", _L),
    Metric("native_mt.threads", "count", _H),
    Metric("native_mt.unroll", "count", _H),
    # engine.parallel
    Metric("pool.attach_s", "s", _L),
    Metric("pool.process_ns_per_lutword", "ns", _L),
    Metric("pool.us_1word", "us", _L),
    # serving.transport
    Metric("transport.bin_encode_request_us", "us", _L),
    Metric("transport.bin_decode_request_us", "us", _L),
    Metric("transport.bin_encode_reply_us", "us", _L),
    Metric("transport.bin_decode_reply_us", "us", _L),
    Metric("transport.json_encode_request_us", "us", _L),
    Metric("transport.json_decode_request_us", "us", _L),
    Metric("transport.bin_request_bytes", "count", _L),
    Metric("transport.json_request_bytes", "count", _L),
    # serving.queue
    Metric("queue.submit_us_per_request", "us", _L),
    Metric("queue.batch_occupancy_mean", "count", _H),
    Metric("queue.depth_hwm", "count", _L),
    Metric("queue.shed_count", "count", _L),
    # serving.server / serving.registry
    Metric("server.spawn_s", "s", _L),
    Metric("server.register_s", "s", _L),
    Metric("server.cpu_us_per_request", "us", _L),
    Metric("server.admission_p50_us", "us", _L),
    Metric("server.admission_p99_us", "us", _L),
    # serving.client
    Metric("client.bin_rtt_us", "us", _L),
    Metric("client.json_rtt_us", "us", _L),
    # the load generator itself
    Metric("loadgen.late_p99_us", "us", _L),
    Metric("loadgen.cpu_share", "%", _L),
    # where one item's time goes in this workload (shares of its wall time)
    Metric("stage.pack_share", "%", _L),
    Metric("stage.engine_share", "%", _L),
    Metric("stage.readout_share", "%", _L),
    Metric("stage.queue_share", "%", _L),
    Metric("stage.wire_share", "%", _L),
    Metric("stage.passes_share", "%", _L),
    Metric("stage.lower_share", "%", _L),
    Metric("stage.codegen_share", "%", _L),
    Metric("stage.build_share", "%", _L),
    Metric("trace.unattributed_share", "%", _L),
    Metric("trace.overhead_share", "%", _L),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]
BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def benchmark_json() -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
