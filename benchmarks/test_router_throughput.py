"""Cluster router over replicated backends: the replica-scaling gate.

The in-process router tests (``tests/serving/test_router.py``) pin the
routing logic; this benchmark pins the *cluster claim* across real process
boundaries.  Two backend boxes and one router run as separate OS processes
(``python -m repro.serving.standalone``); the driver fires the
256-concurrent mixed-model workload over the binary protocol and checks:

1. **Throughput**: the 2-replica router must sustain >= 1.8x the
   single-backend throughput.  The standalone popcount model carries a
   *modeled service time* — ``time.sleep`` per batch on the queue's
   single-threaded executor, GIL released, exactly like a real engine's
   compute — so two replicas genuinely overlap even on a one-core CI box,
   and the per-backend-per-model serialisation makes the scaling honest.
2. **Zero loss on replica death**: SIGKILL one backend mid-run; every
   accepted request must still complete, bit-exact, through failover —
   the client never sees the dead box.

Like every perf gate in this repo, the throughput measurement escalates
with interleaved re-measurement (mins only improve) before failing, so a
noisy CPU spike delays convergence instead of flaking.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import pack_bits
from repro.serving.transport import (
    _COMMON,
    _REPLY_HEAD,
    OP_REPLY,
    encode_predict_request,
)
from repro.serving.transport import recv_message, send_message
from repro.utils.rng import as_rng

from bench_utils import emit, record_gate

N_FEATURES = 256
N_CLASSES = 10
SLEEP_MS = 10  # modeled service time per batch
N_REQUESTS = 256
SAMPLES_PER_REQUEST = 64
N_CONNECTIONS = 16
SCALING_TARGET = 1.8
MODELS = ("alpha", "beta")
MODEL_SPEC = f"popcount:{N_FEATURES}:{N_CLASSES}:{SLEEP_MS}"

_SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _expected(rows: np.ndarray) -> np.ndarray:
    return rows.astype(np.int64).sum(axis=1) % N_CLASSES


def _spawn(role_args):
    """Start a standalone process; return (proc, (host, port))."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_ROOT
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.standalone", *role_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    banner = {}

    def read_banner():
        banner["line"] = proc.stdout.readline()

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    reader.join(timeout=30)
    line = banner.get("line", "")
    if not line.startswith("SERVING "):
        proc.kill()
        raise RuntimeError(f"standalone process never came up (got {line!r})")
    _, host, port, _http = line.split()
    return proc, (host, int(port))


def _stop(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture(scope="module")
def cluster():
    """Two backend boxes + one router, each its own OS process."""
    model_args = []
    for model in MODELS:
        model_args += ["--model", f"{model}={MODEL_SPEC}"]
    procs = []
    try:
        backend_a, addr_a = _spawn(["backend", *model_args])
        procs.append(backend_a)
        backend_b, addr_b = _spawn(["backend", *model_args])
        procs.append(backend_b)
        replicas = f"{addr_a[0]}:{addr_a[1]},{addr_b[0]}:{addr_b[1]}"
        router, addr_router = _spawn(
            ["router"]
            + [arg for model in MODELS for arg in ("--route", f"{model}={replicas}")]
        )
        procs.append(router)
        yield {
            "backend_a": (backend_a, addr_a),
            "backend_b": (backend_b, addr_b),
            "router": (router, addr_router),
        }
    finally:
        for proc in procs:
            _stop(proc)


def _make_workload(seed=11):
    """Per-request (model, rows, packed words, expected labels)."""
    rng = as_rng(seed)
    requests = []
    for i in range(N_REQUESTS):
        rows = rng.integers(
            0, 2, size=(SAMPLES_PER_REQUEST, N_FEATURES), dtype=np.uint8
        )
        requests.append(
            {
                "model": MODELS[i % len(MODELS)],
                "packed": pack_bits(rows),
                "expected": _expected(rows),
            }
        )
    return requests


async def _read_reply(reader):
    """(request_id, labels) of one OP_REPLY frame (client side, async)."""
    header = await reader.readexactly(_COMMON.size)
    _, _, opcode, flags, request_id = _COMMON.unpack(header)
    assert opcode == OP_REPLY, f"unexpected opcode 0x{opcode:02x}"
    samples, n_classes = _REPLY_HEAD.unpack(
        await reader.readexactly(_REPLY_HEAD.size)
    )
    body = await reader.readexactly(
        samples * 8 + (samples * n_classes * 8 if flags & 0x01 else 0)
    )
    return request_id, np.frombuffer(body[: samples * 8], dtype="<i8")


async def _drive(address, requests, on_reply=None):
    """The mixed-model binary workload over pooled pipelined connections."""
    n = len(requests)
    labels = [None] * n

    async def worker(indices):
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(
                b"".join(
                    encode_predict_request(
                        requests[i]["packed"],
                        SAMPLES_PER_REQUEST,
                        model=requests[i]["model"],
                        request_id=i,
                    )
                    for i in indices
                )
            )
            await writer.drain()
            for _ in indices:
                request_id, reply_labels = await _read_reply(reader)
                labels[request_id] = reply_labels
                if on_reply is not None:
                    on_reply()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    shares = [list(range(i, n, N_CONNECTIONS)) for i in range(N_CONNECTIONS)]
    await asyncio.gather(*(worker(share) for share in shares))
    return labels


def _timed_run(address, requests):
    start = time.perf_counter()
    labels = asyncio.run(_drive(address, requests))
    elapsed = time.perf_counter() - start
    for request, got in zip(requests, labels):
        np.testing.assert_array_equal(got, request["expected"])
    return elapsed


def _router_stats(address):
    import socket

    with socket.create_connection(address, timeout=10) as sock:
        send_message(sock, {"op": "stats", "id": 1})
        return recv_message(sock)["router"]


def test_two_replica_router_scales_throughput(cluster):
    """256 mixed-model requests: router over 2 boxes >= 1.8x one box."""
    requests = _make_workload()
    _, backend_address = cluster["backend_a"]
    _, router_address = cluster["router"]

    t_single = _timed_run(backend_address, requests)
    t_router = _timed_run(router_address, requests)
    for _ in range(3):
        if t_single / t_router >= SCALING_TARGET:
            break
        t_single = min(t_single, _timed_run(backend_address, requests))
        t_router = min(t_router, _timed_run(router_address, requests))

    total_samples = N_REQUESTS * SAMPLES_PER_REQUEST
    emit(
        "cluster router: 2-replica scaling (binary wire, mixed models)",
        "\n".join(
            [
                f"requests                  {N_REQUESTS} x "
                f"{SAMPLES_PER_REQUEST} samples, models {'/'.join(MODELS)}",
                f"modeled service time      {SLEEP_MS} ms / {SAMPLES_PER_REQUEST}-batch",
                f"single backend            {t_single * 1e3:9.1f} ms  "
                f"({total_samples / t_single:,.0f} samples/s)",
                f"router over 2 replicas    {t_router * 1e3:9.1f} ms  "
                f"({total_samples / t_router:,.0f} samples/s)",
                f"scaling                   {t_single / t_router:9.2f}x  "
                f"(gate >= {SCALING_TARGET}x)",
            ]
        ),
    )
    record_gate("router_scaling", t_single / t_router, SCALING_TARGET)
    assert t_single / t_router >= SCALING_TARGET, (
        f"2-replica router scaled only {t_single / t_router:.2f}x over a "
        f"single backend (gate {SCALING_TARGET}x)"
    )


def test_replica_death_mid_run_loses_nothing(cluster):
    """SIGKILL a backend mid-run: every request still completes bit-exact."""
    requests = _make_workload(seed=23)
    backend_b, _ = cluster["backend_b"]
    _, router_address = cluster["router"]

    completed = {"n": 0, "killed": False}

    def on_reply():
        completed["n"] += 1
        # pull the plug once the run is warm: in-flight requests on the
        # dead box must fail over, queued ones must re-route
        if not completed["killed"] and completed["n"] >= N_REQUESTS // 4:
            completed["killed"] = True
            backend_b.send_signal(signal.SIGKILL)

    labels = asyncio.run(_drive(router_address, requests, on_reply=on_reply))
    assert completed["killed"], "the kill never fired — run too short?"
    backend_b.wait(timeout=10)

    # zero loss: every accepted request answered, every answer bit-exact
    assert all(got is not None for got in labels)
    for request, got in zip(requests, labels):
        np.testing.assert_array_equal(got, request["expected"])

    stats = _router_stats(router_address)
    dead = [b for b in stats["backends"] if b["state"] != "healthy"]
    assert len(dead) == 1, stats
    assert dead[0]["ejections"] >= 1
    emit(
        "cluster router: replica-death drill",
        "\n".join(
            [
                f"requests completed        {len(labels)}/{N_REQUESTS} "
                f"(killed one of 2 replicas after {N_REQUESTS // 4})",
                f"router failovers          {stats['failovers']}",
                f"ejected backend           {dead[0]['backend']} "
                f"({dead[0]['ejections']} ejection(s))",
            ]
        ),
    )
