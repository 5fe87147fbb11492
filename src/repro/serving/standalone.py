"""Run a backend server or a cluster router as its own OS process.

The single-box serving tests drive :class:`~repro.serving.server.
BackgroundServer` threads, but the cluster story — a router over replicated
backends, one of which gets killed mid-run — only means something across
*process* boundaries: a SIGKILL must take the whole box down, not a thread.
This module is that boundary::

    python -m repro.serving.standalone backend \\
        --model alpha=popcount:256:10:20 --model beta=popcount:256:10:20 \\
        --max-total-queue 32768
    python -m repro.serving.standalone router \\
        --route alpha=127.0.0.1:7101,127.0.0.1:7102 \\
        --route beta=127.0.0.1:7101,127.0.0.1:7102

Each process prints exactly one line to stdout once its listener is bound::

    SERVING <host> <port> <http_port|->

— which is how the spawning benchmark/demo learns the ephemeral ports.
SIGTERM and SIGINT trigger the graceful path: ``drain()`` (stop admissions,
flush admitted batches, 503 on ``/healthz``) and then ``stop()``.  SIGKILL,
by design, triggers nothing — that is the failure the router's failover
exists for.

The built-in model family is ``popcount:F:C[:SLEEP_MS]``: ``F`` binary
features, labels ``popcount(row) % C`` — trivially bit-exact to recompute
on the driver side — plus an optional *modeled service time* of SLEEP_MS
milliseconds per batch.  The model registers only a ``batch_fn``: the
sleep happens on the queue's executor thread with the GIL released, like
a real engine's compute, and never stalls the event loop that answers the
router's health pings.  Replica scaling measured against it is honest even
on a single-core CI box (two sleeping replicas genuinely overlap; two
spinning ones would not).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.retry import RetryPolicy
from repro.serving.router import RouterServer
from repro.serving.server import InferenceServer

__all__ = [
    "main",
    "make_popcount_model",
    "parse_model_spec",
    "parse_route",
    "parse_shadow",
]


def make_popcount_model(
    n_features: int, n_classes: int, sleep_ms: float = 0.0
):
    """The standalone popcount model's ``batch_fn``: it may sleep, so it
    evaluates on its queue's executor thread, off the event loop."""

    def batch_fn(X: np.ndarray) -> np.ndarray:
        if sleep_ms > 0:
            time.sleep(sleep_ms / 1e3)  # modeled service time, GIL released
        return X.astype(np.int64).sum(axis=1) % n_classes

    return batch_fn


def parse_model_spec(
    spec: str,
) -> Tuple[str, Optional[int], int, int, float]:
    """``name[@V]=popcount:F:C[:SLEEP_MS]`` → ``(name, V, F, C, sleep_ms)``.

    ``V`` is the model version (``None`` when unversioned).  Repeating a
    name with different versions builds a version family: the first listed
    version serves, later ones register as standby candidates for
    ``--shadow`` / canary promotion.
    """
    try:
        name, rest = spec.split("=", 1)
        version: Optional[int] = None
        if "@" in name:
            name, _, suffix = name.partition("@")
            version = int(suffix)
        parts = rest.split(":")
        if parts[0] != "popcount" or len(parts) not in (3, 4):
            raise ValueError
        n_features, n_classes = int(parts[1]), int(parts[2])
        sleep_ms = float(parts[3]) if len(parts) == 4 else 0.0
    except (ValueError, IndexError):
        raise SystemExit(
            f"bad --model spec {spec!r}; "
            "expected name[@VERSION]=popcount:F:C[:SLEEP_MS]"
        )
    return name, version, n_features, n_classes, sleep_ms


def parse_shadow(spec: str) -> Tuple[str, int, float]:
    """``name=version[:fraction]`` → ``(name, version, fraction)``."""
    try:
        name, rest = spec.split("=", 1)
        parts = rest.split(":")
        if len(parts) not in (1, 2):
            raise ValueError
        version = int(parts[0])
        fraction = float(parts[1]) if len(parts) == 2 else 1.0
    except (ValueError, IndexError):
        raise SystemExit(
            f"bad --shadow spec {spec!r}; expected name=VERSION[:FRACTION]"
        )
    return name, version, fraction


def parse_route(spec: str) -> Tuple[str, List[Tuple[str, int]]]:
    """``name=host:port,host:port`` → ``(name, [(host, port), ...])``."""
    try:
        name, rest = spec.split("=", 1)
        endpoints = []
        for part in rest.split(","):
            host, port = part.rsplit(":", 1)
            endpoints.append((host, int(port)))
        if not endpoints:
            raise ValueError
    except (ValueError, IndexError):
        raise SystemExit(
            f"bad --route spec {spec!r}; expected name=host:port[,host:port]"
        )
    return name, endpoints


def _announce(host: str, port: int, http_port: Optional[int]) -> None:
    print(f"SERVING {host} {port} {http_port if http_port is not None else '-'}")
    sys.stdout.flush()


async def _run_until_signalled(server) -> None:
    """Serve until SIGTERM/SIGINT, then drain and stop."""
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    await server.drain()
    await server.stop()


async def _backend_main(args: argparse.Namespace) -> None:
    server = InferenceServer(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        max_queue=args.max_queue,
        max_total_queue=args.max_total_queue,
    )
    for spec in args.model:
        name, version, n_features, n_classes, sleep_ms = parse_model_spec(
            spec
        )
        server.register_model(
            name,
            make_popcount_model(n_features, n_classes, sleep_ms),
            version=version,
        )
    for spec in args.shadow or ():
        name, version, fraction = parse_shadow(spec)
        try:
            server.registry.set_shadow(name, version, fraction)
        except (ValueError, KeyError) as error:
            raise SystemExit(f"bad --shadow spec {spec!r}: {error}")
    await server.start()
    _announce(server.host, server.port, server.http_port)
    await _run_until_signalled(server)


async def _router_main(args: argparse.Namespace) -> None:
    placement: Dict[str, List[Tuple[str, int]]] = {}
    for spec in args.route:
        name, endpoints = parse_route(spec)
        placement[name] = endpoints
    router = RouterServer(
        placement,
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        retry=RetryPolicy(
            max_attempts=args.max_attempts, base_delay=args.base_delay
        ),
        connect_timeout=args.connect_timeout,
        request_timeout=args.request_timeout,
        health_interval=args.health_interval,
        health_timeout=args.health_timeout,
        reinstate_after=args.reinstate_after,
        rebalance_interval=args.rebalance_interval,
    )
    await router.start()
    _announce(router.host, router.port, router.http_port)
    await _run_until_signalled(router)


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.standalone",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="role", required=True)

    backend = sub.add_parser("backend", help="one replicated model server")
    backend.add_argument("--host", default="127.0.0.1")
    backend.add_argument("--port", type=int, default=0)
    backend.add_argument("--http-port", type=int, default=None)
    backend.add_argument(
        "--model",
        action="append",
        required=True,
        help=(
            "name[@VERSION]=popcount:F:C[:SLEEP_MS]; repeatable — repeat a "
            "name with different versions to build a hot-swap family (the "
            "first listed version serves)"
        ),
    )
    backend.add_argument(
        "--shadow",
        action="append",
        default=None,
        help=(
            "name=VERSION[:FRACTION]: mirror that fraction of the named "
            "family's traffic to standby VERSION; repeatable"
        ),
    )
    backend.add_argument("--max-batch", type=int, default=64)
    backend.add_argument("--max-wait-us", type=float, default=2000.0)
    backend.add_argument("--max-queue", type=int, default=32768)
    backend.add_argument("--max-total-queue", type=int, default=None)

    router = sub.add_parser("router", help="cluster router over backends")
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=0)
    router.add_argument("--http-port", type=int, default=None)
    router.add_argument(
        "--route",
        action="append",
        required=True,
        help="name=host:port[,host:port]; repeatable",
    )
    router.add_argument("--max-attempts", type=int, default=4)
    router.add_argument("--base-delay", type=float, default=0.05)
    router.add_argument("--connect-timeout", type=float, default=2.0)
    router.add_argument("--request-timeout", type=float, default=30.0)
    router.add_argument("--health-interval", type=float, default=0.25)
    router.add_argument("--health-timeout", type=float, default=2.0)
    router.add_argument("--reinstate-after", type=int, default=2)
    router.add_argument("--rebalance-interval", type=float, default=None)

    args = parser.parse_args(argv)
    runner = _backend_main if args.role == "backend" else _router_main
    try:
        asyncio.run(runner(args))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        pass


if __name__ == "__main__":
    main()
