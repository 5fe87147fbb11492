"""Cluster router over replicated backends, across real process boundaries.

The in-process router tests (``tests/serving/test_router.py``) pin the
routing logic; this file pins the *cluster claim* with two backend boxes
and one router as separate OS processes (``python -m
repro.serving.standalone``), driven by the 256-concurrent mixed-model
workload over the binary protocol:

1. **Bit-exact either way**: every reply equals the popcount oracle,
   whether the workload hits one backend directly or the 2-replica router.
2. **Zero loss on replica death**: SIGKILL one backend mid-run; every
   accepted request must still complete, bit-exact, through failover —
   the client never sees the dead box.

The standalone popcount model carries a *modeled service time* —
``time.sleep`` per batch on the queue's single-threaded executor, GIL
released, exactly like a real engine's compute — so two replicas genuinely
overlap even on a one-core CI box.  The router-vs-single-backend throughput
stopwatch over the same cluster is report-only in ``parked_comparisons.py``
(``make bench``), which imports the helpers below.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import pack_bits
from repro.serving.transport import (
    encode_predict_request,
    recv_message,
    send_message,
)
from repro.utils.rng import as_rng

from bench_utils import drive_pipelined, emit, read_binary_reply

N_FEATURES = 256
N_CLASSES = 10
SLEEP_MS = 10  # modeled service time per batch
N_REQUESTS = 256
SAMPLES_PER_REQUEST = 64
MODELS = ("alpha", "beta")
MODEL_SPEC = f"popcount:{N_FEATURES}:{N_CLASSES}:{SLEEP_MS}"

_SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

# a pipe or socket nobody closed fails the module (see _nothing_unraisable)
pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


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
        reader.join(timeout=10)  # the pipe ends with the process
        _stop(proc)
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
    proc.stdout.close()


@contextlib.contextmanager
def spawn_cluster():
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


@contextlib.contextmanager
def _nothing_unraisable():
    """Fail if anything is finalised with an error inside the block or by
    the collection at its end — under ``error::ResourceWarning`` that
    includes every pipe nobody closed."""
    unraisable = []
    previous_hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        yield
        gc.collect()
    finally:
        sys.unraisablehook = previous_hook
    assert not unraisable, [str(u.exc_value) for u in unraisable[:3]]


@pytest.fixture(scope="module")
def cluster():
    with _nothing_unraisable():
        with spawn_cluster() as processes:
            yield processes
        processes.clear()  # the last references to the Popen objects


def make_workload(seed=11):
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


def drive(address, requests, on_reply=None):
    """The mixed-model binary workload over pooled pipelined connections."""
    return drive_pipelined(
        address,
        len(requests),
        lambda i: encode_predict_request(
            requests[i]["packed"],
            SAMPLES_PER_REQUEST,
            model=requests[i]["model"],
            request_id=i,
        ),
        read_binary_reply,
        on_reply,
    )


def run_checked(address, requests) -> None:
    """Drive the workload at ``address``; every reply must match the oracle."""
    labels = asyncio.run(drive(address, requests))
    for request, got in zip(requests, labels):
        np.testing.assert_array_equal(got, request["expected"])


def _router_stats(address):
    with socket.create_connection(address, timeout=10) as sock:
        send_message(sock, {"op": "stats", "id": 1})
        return recv_message(sock)["router"]


def test_backend_and_router_bit_exact(cluster):
    """256 mixed-model requests: one box and the 2-replica router agree with
    the oracle."""
    requests = make_workload()
    run_checked(cluster["backend_a"][1], requests)
    run_checked(cluster["router"][1], requests)


def test_replica_death_mid_run_loses_nothing(cluster):
    """SIGKILL a backend mid-run: every request still completes bit-exact."""
    requests = make_workload(seed=23)
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

    labels = asyncio.run(drive(router_address, requests, on_reply=on_reply))
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
