"""Small helpers shared by the benchmark modules."""

from __future__ import annotations

import asyncio
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.netlist import LUTNetlist
from repro.engine import rinc_bank_netlist
from repro.engine.native import find_compiler
from repro.serving.transport import decode_reply, read_message, read_reply_frame
from repro.utils.rng import as_rng

#: sections collected during the run; replayed by the terminal-summary hook in
#: conftest.py so they appear in the benchmark log even with output capture on.
COLLECTED_SECTIONS: List[Tuple[str, str]] = []

#: shape of the engine benchmarks' inputs: a 1k-sample batch of 256 features
BATCH = 1024
N_FEATURES = 256

#: pooled client connections of the concurrent serving drivers
N_CONNECTIONS = 16


def emit(title: str, body: str) -> None:
    """Print a titled table and record it for the end-of-run summary."""
    COLLECTED_SECTIONS.append((title, body))
    print(f"\n=== {title} ===\n{body}")


def random_rows(n_samples: int = BATCH, seed: int = 0) -> np.ndarray:
    return as_rng(seed).integers(
        0, 2, size=(n_samples, N_FEATURES), dtype=np.uint8
    )


def rinc_bank(lut_width: int, scale: int = 1) -> LUTNetlist:
    """The paper's RINC-2 topology with random tables — full-support LUTs,
    the engine's adversarial worst case."""
    return rinc_bank_netlist(
        n_primary_inputs=N_FEATURES,
        n_trees=480 * scale,
        n_mats=80 * scale,
        n_outputs=10 * scale,
        lut_width=lut_width,
        seed=2,
    )


def require_toolchain() -> None:
    if find_compiler() is None:
        pytest.skip(
            "no C compiler on this host (need cc/gcc/clang or $CC); the "
            "native backend cannot build here — backend='auto' serves NumPy"
        )


async def read_json_reply(reader) -> tuple:
    """(request id, labels) of one JSON predict response."""
    response = await read_message(reader)
    assert response is not None and response["ok"], response
    return response["id"], response["labels"]


async def read_binary_reply(reader) -> tuple:
    """(request id, labels) of one OP_REPLY frame; OP_ERROR raises typed."""
    reply = decode_reply((await read_reply_frame(reader)).frame)
    return reply.request_id, reply.labels


async def drive_pipelined(
    address, n_requests, encode, read_reply, on_reply=None
) -> list:
    """All requests concurrently outstanding over a pooled connection set.

    A realistic load generator: ``N_CONNECTIONS`` clients each pipeline
    their share of the requests (``encode(i)`` frames request ``i``, tagged
    with ``i`` as its id) in one send — the server reads a burst, not a
    syscall-per-request trickle — and collect the out-of-order completions
    with ``read_reply``.  Every request is in flight before the first
    response arrives, so the server sees the full concurrency.  Returns the
    labels of each request, by index.
    """
    labels = [None] * n_requests

    async def worker(indices):
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(b"".join(encode(i) for i in indices))
            await writer.drain()
            for _ in indices:
                request_id, reply_labels = await read_reply(reader)
                labels[request_id] = reply_labels
                if on_reply is not None:
                    on_reply()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    await asyncio.gather(
        *(
            worker(range(first, n_requests, N_CONNECTIONS))
            for first in range(N_CONNECTIONS)
        )
    )
    return labels
