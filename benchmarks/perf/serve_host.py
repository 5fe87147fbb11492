"""The server child of the ``serve_*`` workloads — one process, no helpers.

Started by the runner with ``stdin=PIPE`` in its own session.  It hosts
``clf_p6`` as model ``"m"`` on the native backend, prints one line

    SERVING <host> <port> <json timings>

once the listener is bound, and serves until killed.  A watchdog thread
blocks on stdin and exits the process on EOF, so the child dies with the
runner even when the runner is SIGKILLed and can clean nothing up.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path

T_START = time.perf_counter()

MODEL_NAME = "m"
MAX_BATCH = 64
MAX_WAIT_US = 2000.0
#: admits the 8 x 2048 samples `serve_large_closed` keeps in flight
MAX_QUEUE = 65536


def _exit_on_stdin_eof() -> None:
    try:
        while sys.stdin.buffer.read(4096):
            pass
    finally:
        os._exit(0)


async def _serve(server, timings: dict) -> None:
    t0 = time.perf_counter()
    host, port = await server.start()  # runs the warm-up: the cold compile
    timings["start_s"] = time.perf_counter() - t0
    timings["spawn_to_serving_s"] = time.perf_counter() - T_START
    print("SERVING", host, port, json.dumps(timings), flush=True)
    await server.serve_forever()


def main(argv) -> int:
    threading.Thread(target=_exit_on_stdin_eof, daemon=True).start()
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.perf import adapters

    import numpy as np

    timings = {"import_s": time.perf_counter() - T_START}
    with open(argv[1], "rb") as handle:
        clf = pickle.load(handle)  # the runner's own fixture cache

    def warm_up() -> None:
        clf.decision_scores_packed_batch(
            np.zeros((clf.n_features_, 1), dtype=np.uint64), 1,
            engine_backend="native",
        )

    server = adapters.InferenceServer(
        max_batch=MAX_BATCH,
        max_wait_us=MAX_WAIT_US,
        max_queue=MAX_QUEUE,
        warm_up=warm_up,
    )
    t0 = time.perf_counter()
    server.register_model(MODEL_NAME, model=clf, backend="native")
    timings["register_s"] = time.perf_counter() - t0
    asyncio.run(_serve(server, timings))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
