"""Serving demo: train two PoET-BiN variants, serve both from one process.

The end-to-end tour of the multi-tenant serving story:

1. generate the MNIST stand-in (procedural digit glyphs), binarise the
   pixels into feature bits,
2. train two PoET-BiN students — a larger "quality" variant and a smaller
   "fast" variant (fewer intermediate bits per class), the classic A/B
   deployment,
3. start the asyncio batching server on a background thread with **both**
   models registered on ``backend="auto"`` engines (generated C where the
   host has a compiler, NumPy otherwise): each model gets its own engine
   and coalescing queue, and a shared admission budget bounds the box,
4. fire a burst of concurrent single-image requests from client threads,
   alternating models (the worst-case traffic the batcher exists for), and
   print per-model latency percentiles and batch occupancy,
5. scrape the server's ``GET /metrics`` endpoint with a real HTTP GET
   (the server runs a native HTTP listener when given ``http_port=``) and
   show a few of the Prometheus-format lines a scraper would collect,
6. retrain the "fast" variant and roll it out *live*: register the
   retrain as version 2 of the same family, mirror real traffic to it in
   shadow mode (bit-exact diffing, zero client latency), and let
   ``promote_canary`` flip the serving pointer automatically once the
   evidence is clean — then do the same with a deliberately different
   retrain (new seed) and watch the canary roll it back while version 2
   keeps serving,
7. with ``--stats-text``, finish by printing the full Prometheus-style
   scrape (the ``stats_text`` protocol op carries the same text over the
   serving socket).

Run with::

    make serve-demo          # or: PYTHONPATH=src python examples/serving_demo.py
    make serve-stats         # the same, ending with the stats_text scrape
"""

from __future__ import annotations

import sys
import threading
import time
import urllib.request

import numpy as np

from repro.core import PoETBiNClassifier
from repro.datasets import make_synthetic_mnist
from repro.serving import BackgroundServer, InferenceServer, ServingClient

N_CLASSES = 10
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 16
#: intermediate bits per class for the two served variants (the paper uses
#: P; small here so the demo trains in seconds)
VARIANTS = {"quality": 2, "fast": 1}


def binarise(images: np.ndarray) -> np.ndarray:
    """2x-downsampled thresholded pixels: (N, 28, 28, 1) -> (N, 196) bits."""
    return (images[:, ::2, ::2, 0] > 0.5).reshape(images.shape[0], -1).astype(np.uint8)


def class_membership_targets(y: np.ndarray, per_class: int) -> np.ndarray:
    """Intermediate targets: ``per_class`` copies of the one-vs-rest bit.

    A stand-in for the teacher network's intermediate layer that keeps the
    demo fast; each RINC module learns "is this a <digit>?" from pixels.
    (Accuracy is modest — one-vs-rest bits from thresholded glyph pixels
    are a hard target for 6-input LUT trees; the full teacher pipeline in
    ``examples/full_pipeline_mnist.py`` is the accuracy story, this demo
    is the serving story.)
    """
    one_hot = (y[:, np.newaxis] == np.arange(N_CLASSES)).astype(np.uint8)
    return np.repeat(one_hot, per_class, axis=1)


def main(print_stats_text: bool = False) -> None:
    # 1. data: procedural digits, binarised to 196 feature bits
    data = make_synthetic_mnist(n_train=1500, n_test=400, seed=0)
    X_train, X_test = binarise(data.X_train), binarise(data.X_test)
    print(
        f"synthetic digits: {X_train.shape[0]} train / {X_test.shape[0]} test, "
        f"{X_train.shape[1]} feature bits"
    )

    # 2. train the two student variants
    models = {}
    for name, per_class in VARIANTS.items():
        start = time.perf_counter()
        clf = PoETBiNClassifier(
            n_classes=N_CLASSES,
            n_inputs=6,
            n_levels=2,  # RINC-2, as in the paper's experiments
            intermediate_per_class=per_class,
            output_epochs=10,
            seed=0,
        ).fit(
            X_train, class_membership_targets(data.y_train, per_class),
            data.y_train,
        )
        models[name] = clf
        print(
            f"trained {name!r} ({clf.n_intermediate} RINC modules) "
            f"in {time.perf_counter() - start:.1f} s, "
            f"test accuracy {clf.score(X_test, data.y_test):.3f}, "
            f"{clf.lut_count()} LUTs"
        )

    # 3. serve both: one engine, one queue and one stats collector per
    #    model, a shared admission budget over all; register_model compiles
    #    each engine before the server starts
    server = InferenceServer(
        max_batch=64,
        max_wait_us=2000,
        max_queue=4096,
        max_total_queue=8192,
        http_port=0,  # any free port; serves GET /metrics and /healthz
    )
    for name, clf in models.items():
        server.register_model(name, model=clf, backend="auto")
    with BackgroundServer(server) as handle:
        host, port = handle.address
        with ServingClient(host, port) as client:
            listing = client.list_models()
        print(
            f"serving on {host}:{port}: "
            + ", ".join(
                f"{m['name']} [{m['backend']}]" for m in listing["models"]
            )
            + f" (default {listing['default']!r})"
        )

        # 4. a burst of concurrent single-image requests, alternating models
        names = list(models)
        correct = [0] * N_CLIENTS

        def client_worker(worker_index: int) -> None:
            rng = np.random.default_rng(worker_index)
            with ServingClient(host, port) as client:
                for request_index in range(REQUESTS_PER_CLIENT):
                    name = names[(worker_index + request_index) % len(names)]
                    i = int(rng.integers(X_test.shape[0]))
                    label = int(client.predict(X_test[i], model=name)[0])
                    correct[worker_index] += label == int(data.y_test[i])

        start = time.perf_counter()
        threads = [
            threading.Thread(target=client_worker, args=(w,))
            for w in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        n_requests = N_CLIENTS * REQUESTS_PER_CLIENT

        with ServingClient(host, port) as client:
            snaps = {name: client.stats(model=name) for name in models}
            stats_text = client.stats_text() if print_stats_text else None
        print(
            f"{n_requests} single-image requests from {N_CLIENTS} clients "
            f"across {len(models)} models in {elapsed * 1e3:.0f} ms "
            f"({n_requests / elapsed:.0f} requests/s), "
            f"served accuracy {sum(correct) / n_requests:.3f}"
        )
        for name, snap in snaps.items():
            latency = snap["latency_us"]
            print(
                f"  {name:8s} p50/p95/p99: {latency['p50']:.0f} / "
                f"{latency['p95']:.0f} / {latency['p99']:.0f} us; "
                f"mean occupancy {snap['mean_batch_occupancy']:.1f} "
                f"({snap['batches']} batches, {snap['shed']} shed)"
            )

        # 5. scrape GET /metrics — a real HTTP GET, exactly what a
        #    Prometheus scraper issues against the http_port listener
        http_host, http_port = server.http_address
        url = f"http://{http_host}:{http_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        shown = [
            line
            for line in body.splitlines()
            if line.startswith("repro_serving_requests_completed")
        ]
        print(
            f"GET {url} -> {content_type!r}, "
            f"{len(body.splitlines())} lines, including:"
        )
        for line in shown:
            print(f"  {line}")

        # 6. live lifecycle: retrain -> shadow -> canary
        def train_fast_variant(seed: int) -> PoETBiNClassifier:
            per_class = VARIANTS["fast"]
            return PoETBiNClassifier(
                n_classes=N_CLASSES,
                n_inputs=6,
                n_levels=2,
                intermediate_per_class=per_class,
                output_epochs=10,
                seed=seed,
            ).fit(
                X_train,
                class_membership_targets(data.y_train, per_class),
                data.y_train,
            )

        def register_version(version: int, clf: PoETBiNClassifier) -> None:
            async def _do():
                server.register_model(
                    "fast", model=clf, backend="auto", version=version
                )

            handle.run(_do())

        def drive_traffic(client: ServingClient, n: int) -> None:
            rng = np.random.default_rng(99)
            for _ in range(n):
                i = int(rng.integers(X_test.shape[0]))
                client.predict(X_test[i], model="fast")

        async def _quiesce():
            await server.registry.wait_idle()

        print("\n--- live lifecycle: retrain -> shadow -> canary ---")
        with ServingClient(host, port) as client:
            # a same-seed retrain is bit-identical: the canary promotes it
            register_version(2, train_fast_variant(seed=0))
            client.set_shadow("fast", 2)
            drive_traffic(client, 24)
            handle.run(_quiesce())
            report = client.shadow_report("fast")
            print(
                f"shadow v2: {report['shadow_requests']} mirrored, "
                f"{report['shadow_divergences']} divergences "
                f"(rate {report['divergence_rate']:.3f})"
            )
            verdict = client.promote_canary("fast", 2, min_requests=16)
            print(
                f"canary v2 verdict: {verdict['status']} "
                f"(divergence rate {verdict['divergence_rate']:.3f})"
            )
            handle.run(_quiesce())

            # a different-seed retrain learns different LUTs: divergences
            # are recorded and the canary rolls it back; v2 keeps serving
            register_version(3, train_fast_variant(seed=1))
            client.set_shadow("fast", 3)
            drive_traffic(client, 24)
            handle.run(_quiesce())
            report = client.shadow_report("fast")
            print(
                f"shadow v3: {report['shadow_requests']} mirrored, "
                f"{report['shadow_divergences']} divergences "
                f"(rate {report['divergence_rate']:.3f})"
            )
            verdict = client.promote_canary("fast", 3, min_requests=16)
            line = f"canary v3 verdict: {verdict['status']}"
            if verdict.get("reason"):
                line += f" ({verdict['reason']})"
            print(line)
            handle.run(_quiesce())
            serving_now = server.registry.serving_versions()["fast"]
            print(
                f"family 'fast' now serving version {serving_now}; "
                "lifecycle tail:"
            )
            for event in client.lifecycle("fast")[-4:]:
                fields = {
                    k: v
                    for k, v in event.items()
                    if k not in ("seq", "ts", "policy")
                }
                print(f"  {fields}")

        if stats_text is not None:
            print("\n--- stats_text scrape (Prometheus exposition format) ---")
            print(stats_text, end="")


if __name__ == "__main__":
    main(print_stats_text="--stats-text" in sys.argv[1:])
