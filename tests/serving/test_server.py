"""End-to-end socket tests: InferenceServer + ServingClient.

The multi-model suite covers the PR-5 contract: several models — different
feature widths, different engines — hosted behind one listener and one
shared WorkerPool, requests routed by the wire protocol's ``model`` field,
unknown names failing with the typed ``model_not_found`` error, and
per-model stats.
"""

import os
import threading

import numpy as np
import pytest

from repro.engine import WorkerPool, compile_netlist, rinc_bank_netlist
from repro.serving import (
    BackgroundServer,
    BadRequestError,
    InferenceServer,
    ModelNotFoundError,
    ServerOverloadedError,
    ServingClient,
    ServingError,
)
from repro.utils.rng import as_rng

N_FEATURES = 16
N_CLASSES = 4


def _scores_fn(X):
    """Deterministic per-class scores: class c scores the c-th feature block."""
    X = np.asarray(X, dtype=np.float64)
    blocks = X.reshape(X.shape[0], N_CLASSES, N_FEATURES // N_CLASSES)
    return blocks.sum(axis=2) + 0.01 * np.arange(N_CLASSES)


def _expected_labels(X):
    return np.argmax(_scores_fn(X), axis=1)


@pytest.fixture()
def server():
    srv = InferenceServer(
        scores_fn=_scores_fn, max_batch=16, max_wait_us=2_000, max_queue=256
    )
    with BackgroundServer(srv) as handle:
        yield handle


class TestPredict:
    def test_labels_match_direct_evaluation(self, server):
        rng = as_rng(0)
        X = rng.integers(0, 2, size=(9, N_FEATURES)).astype(np.uint8)
        with ServingClient(*server.address) as client:
            np.testing.assert_array_equal(client.predict(X), _expected_labels(X))

    def test_single_sample_row_vector(self, server):
        x = np.zeros(N_FEATURES, dtype=np.uint8)
        x[:4] = 1  # all mass in class 0's block
        with ServingClient(*server.address) as client:
            assert client.predict(x).tolist() == [0]

    def test_return_scores(self, server):
        rng = as_rng(1)
        X = rng.integers(0, 2, size=(5, N_FEATURES)).astype(np.uint8)
        with ServingClient(*server.address) as client:
            labels, scores = client.predict(X, return_scores=True)
        np.testing.assert_allclose(scores, _scores_fn(X))
        np.testing.assert_array_equal(labels, _expected_labels(X))

    def test_many_requests_one_connection(self, server):
        rng = as_rng(2)
        with ServingClient(*server.address) as client:
            for _ in range(10):
                X = rng.integers(0, 2, size=(3, N_FEATURES)).astype(np.uint8)
                np.testing.assert_array_equal(
                    client.predict(X), _expected_labels(X)
                )

    def test_concurrent_clients_all_get_their_own_answers(self, server):
        rng = as_rng(3)
        batches = [
            rng.integers(0, 2, size=(2, N_FEATURES)).astype(np.uint8)
            for _ in range(8)
        ]
        results = [None] * len(batches)

        def worker(i):
            with ServingClient(*server.address) as client:
                results[i] = client.predict(batches[i])

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(batches))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for batch, result in zip(batches, results):
            np.testing.assert_array_equal(result, _expected_labels(batch))


class TestPipelining:
    def test_pipelined_requests_resolve_by_id(self, server):
        """Many requests in flight on one connection, matched via id echo."""
        import asyncio

        from repro.serving.transport import read_message, write_message

        rng = as_rng(7)
        batches = {
            i: rng.integers(0, 2, size=(1, N_FEATURES)).astype(np.uint8)
            for i in range(20)
        }

        async def drive():
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                for i, rows in batches.items():
                    await write_message(
                        writer,
                        {"op": "predict", "id": i, "features": rows.tolist()},
                    )
                responses = {}
                for _ in batches:
                    response = await read_message(reader)
                    assert response["ok"], response
                    responses[response["id"]] = response["labels"]
                return responses
            finally:
                writer.close()
                await writer.wait_closed()

        responses = asyncio.run(drive())
        assert sorted(responses) == sorted(batches)
        for i, rows in batches.items():
            np.testing.assert_array_equal(
                np.asarray(responses[i]), _expected_labels(rows)
            )


class TestOps:
    def test_ping(self, server):
        with ServingClient(*server.address) as client:
            assert client.ping()

    def test_stats_reflect_traffic(self, server):
        X = np.ones((4, N_FEATURES), dtype=np.uint8)
        with ServingClient(*server.address) as client:
            client.predict(X)
            snap = client.stats()
        assert snap["requests_completed"] >= 1
        assert snap["samples_completed"] >= 4
        assert set(snap["latency_us"]) == {"p50", "p95", "p99"}
        assert snap["latency_us"]["p99"] > 0.0

    def test_unknown_op_is_bad_request(self, server):
        with ServingClient(*server.address) as client:
            with pytest.raises(BadRequestError, match="unknown op"):
                client._request({"op": "transmogrify"})


class TestTypedErrors:
    def test_non_binary_features_rejected_not_truncated(self, server):
        with ServingClient(*server.address) as client:
            with pytest.raises(BadRequestError):
                client._request(
                    {"op": "predict", "features": [[0.5] * N_FEATURES]}
                )

    def test_client_predict_forwards_raw_values(self, server):
        """The client must not coerce 0.5 to 0 before the server can reject."""
        with ServingClient(*server.address) as client:
            with pytest.raises(BadRequestError):
                client.predict(np.full((2, N_FEATURES), 0.5))
            # exactly-binary floats are legitimate and must still serve
            labels = client.predict(np.ones((2, N_FEATURES), dtype=np.float64))
            np.testing.assert_array_equal(
                labels, _expected_labels(np.ones((2, N_FEATURES), dtype=np.uint8))
            )

    def test_ragged_features_rejected(self, server):
        with ServingClient(*server.address) as client:
            with pytest.raises(BadRequestError):
                client._request({"op": "predict", "features": [[0, 1], [0]]})

    def test_missing_features_rejected(self, server):
        with ServingClient(*server.address) as client:
            with pytest.raises(BadRequestError):
                client._request({"op": "predict"})

    def test_model_failure_is_internal_error(self):
        def broken(X):
            raise RuntimeError("weights fell out")

        srv = InferenceServer(
            batch_fn=broken, max_batch=4, max_wait_us=1_000, max_queue=64
        )
        with BackgroundServer(srv) as handle:
            with ServingClient(*handle.address) as client:
                with pytest.raises(ServingError, match="weights fell out"):
                    client.predict(np.ones((1, N_FEATURES), dtype=np.uint8))

    def test_shed_surfaces_as_overloaded_error_over_the_wire(self):
        srv = InferenceServer(
            scores_fn=_scores_fn,
            max_batch=1000,  # never flush by size
            max_wait_us=250_000,  # hold admitted requests for 250 ms
            max_queue=4,
        )
        outcomes = []
        lock = threading.Lock()

        def worker(address):
            try:
                with ServingClient(*address) as client:
                    client.predict(np.ones((1, N_FEATURES), dtype=np.uint8))
                with lock:
                    outcomes.append("ok")
            except ServerOverloadedError:
                with lock:
                    outcomes.append("shed")

        with BackgroundServer(srv) as handle:
            threads = [
                threading.Thread(target=worker, args=(handle.address,))
                for _ in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(outcomes) == 12
        # 4 queue slots, 12 one-sample requests arriving well inside the
        # 250 ms wait window: the overflow must shed with the typed error,
        # and the admitted requests must still be answered
        assert outcomes.count("shed") >= 1
        assert outcomes.count("ok") >= 4


class TestMultiModel:
    """Many models behind one listener, routed by the ``model`` field."""

    @pytest.fixture(scope="class")
    def banks(self):
        """Two compiled netlists with *different* feature widths."""
        wide = rinc_bank_netlist(
            n_primary_inputs=32, n_trees=24, n_mats=8, n_outputs=4,
            lut_width=4, seed=6,
        )
        narrow = rinc_bank_netlist(
            n_primary_inputs=16, n_trees=12, n_mats=6, n_outputs=3,
            lut_width=3, seed=7,
        )
        return {
            "wide": (32, compile_netlist(wide)),
            "narrow": (16, compile_netlist(narrow)),
        }

    @pytest.fixture()
    def multi_server(self, banks):
        srv = InferenceServer(
            max_batch=16, max_wait_us=2_000, max_queue=256,
            max_total_queue=512,
        )
        for name, (_, engine) in banks.items():
            srv.register_model(name, engine.predict_batch)
        with BackgroundServer(srv) as handle:
            yield handle

    def test_two_widths_concurrent_on_one_socket_bit_exact(
        self, banks, multi_server
    ):
        """Interleaved requests for both models on one pipelined connection
        come back bit-exact vs each model's direct predict_batch."""
        import asyncio

        from repro.serving.transport import read_message, write_message

        rng = as_rng(8)
        requests = {}
        for i in range(30):
            name = "wide" if i % 2 else "narrow"
            width, engine = banks[name]
            rows = rng.integers(0, 2, size=(1 + i % 3, width)).astype(np.uint8)
            requests[i] = (name, rows, engine.predict_batch(rows))

        async def drive():
            reader, writer = await asyncio.open_connection(
                *multi_server.address
            )
            try:
                for i, (name, rows, _) in requests.items():
                    await write_message(
                        writer,
                        {
                            "op": "predict",
                            "id": i,
                            "model": name,
                            "features": rows.tolist(),
                        },
                    )
                responses = {}
                for _ in requests:
                    response = await read_message(reader)
                    assert response["ok"], response
                    responses[response["id"]] = response["labels"]
                return responses
            finally:
                writer.close()
                await writer.wait_closed()

        responses = asyncio.run(drive())
        assert sorted(responses) == sorted(requests)
        for i, (_, _, expected) in requests.items():
            np.testing.assert_array_equal(np.asarray(responses[i]), expected)

    def test_default_model_is_first_registered(self, banks, multi_server):
        rng = as_rng(9)
        width, engine = banks["wide"]
        rows = rng.integers(0, 2, size=(3, width)).astype(np.uint8)
        with ServingClient(*multi_server.address) as client:
            listing = client.list_models()
            assert listing["default"] == "wide"
            assert sorted(m["name"] for m in listing["models"]) == [
                "narrow",
                "wide",
            ]
            # no model field → the default model serves
            np.testing.assert_array_equal(
                client.predict(rows), engine.predict_batch(rows)
            )

    def test_unknown_model_round_trips_typed(self, multi_server):
        with ServingClient(*multi_server.address) as client:
            with pytest.raises(ModelNotFoundError, match="unknown model"):
                client.predict(
                    np.ones((1, 32), dtype=np.uint8), model="nonesuch"
                )
            with pytest.raises(ModelNotFoundError):
                client.stats(model="nonesuch")
            # a non-string model field is a bad_request, not a crash
            with pytest.raises(BadRequestError, match="must be a string"):
                client._request(
                    {"op": "predict", "model": 7, "features": [[0] * 32]}
                )

    def test_stats_are_per_model(self, banks, multi_server):
        rng = as_rng(10)
        with ServingClient(*multi_server.address) as client:
            client.predict(
                rng.integers(0, 2, size=(5, 16)).astype(np.uint8),
                model="narrow",
            )
            narrow = client.stats(model="narrow")
            wide = client.stats(model="wide")
        assert narrow["samples_completed"] >= 5
        assert wide["samples_completed"] == 0  # traffic never leaked across

    def test_stats_text_covers_every_model(self, multi_server):
        with ServingClient(*multi_server.address) as client:
            text = client.stats_text()
        assert 'model="wide"' in text
        assert 'model="narrow"' in text
        assert "# TYPE repro_serving_requests_completed counter" in text

    def test_backend_label_in_listing_and_metrics(self, multi_server):
        """Every hosted model advertises its evaluation backend."""
        with ServingClient(*multi_server.address) as client:
            listing = client.list_models()
            text = client.stats_text()
        for entry in listing["models"]:
            assert entry["backend"] == "numpy"
        assert "# TYPE repro_serving_model_backend gauge" in text
        assert (
            'repro_serving_model_backend{model="wide",backend="numpy"} 1'
            in text
        )
        assert (
            'repro_serving_model_backend{model="narrow",backend="numpy"} 1'
            in text
        )

    def test_empty_server_rejects_predict_with_model_not_found(self):
        srv = InferenceServer(max_batch=4, max_wait_us=1_000, max_queue=64)
        with BackgroundServer(srv) as handle:
            with ServingClient(*handle.address) as client:
                with pytest.raises(ModelNotFoundError, match="no models"):
                    client.predict(np.ones((1, 8), dtype=np.uint8))

    def test_register_while_serving_and_unregister(self, banks):
        """Models can be added behind a live listener; dropped ones 404."""
        import asyncio

        width, engine = banks["narrow"]
        rng = as_rng(11)
        rows = rng.integers(0, 2, size=(2, width)).astype(np.uint8)
        srv = InferenceServer(max_batch=4, max_wait_us=1_000, max_queue=64)
        with BackgroundServer(srv) as handle:
            srv.register_model("late", engine.predict_batch)
            with ServingClient(*handle.address) as client:
                np.testing.assert_array_equal(
                    client.predict(rows, model="late"),
                    engine.predict_batch(rows),
                )
            future = asyncio.run_coroutine_threadsafe(
                srv.unregister_model("late"), handle._loop
            )
            future.result(timeout=10)
            with ServingClient(*handle.address) as client:
                with pytest.raises(ModelNotFoundError):
                    client.predict(rows, model="late")

    def test_shared_pool_behind_two_models(self, banks):
        """Both models' engines ride one WorkerPool; results stay bit-exact."""
        from repro.engine import ShardedEngine

        rng = as_rng(12)
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            srv = InferenceServer(
                max_batch=32, max_wait_us=2_000, max_queue=256
            )
            views = {}
            for name, (width, engine) in banks.items():
                # rebuild each bank's netlist view over the shared pool
                views[name] = ShardedEngine(
                    rinc_bank_netlist(
                        n_primary_inputs=width,
                        n_trees=24 if name == "wide" else 12,
                        n_mats=8 if name == "wide" else 6,
                        n_outputs=4 if name == "wide" else 3,
                        lut_width=4 if name == "wide" else 3,
                        seed=6 if name == "wide" else 7,
                    ),
                    pool=pool,
                    model_id=name,
                )
                srv.register_model(name, views[name].predict_batch)
            assert sorted(pool.model_ids) == ["narrow", "wide"]
            with BackgroundServer(srv) as handle:
                with ServingClient(*handle.address) as client:
                    for name, (width, engine) in banks.items():
                        rows = rng.integers(0, 2, size=(130, width)).astype(
                            np.uint8
                        )
                        np.testing.assert_array_equal(
                            client.predict(rows, model=name),
                            engine.predict_batch(rows),
                        )


class TestConstruction:
    def test_at_most_one_evaluation_fn(self):
        with pytest.raises(ValueError):
            InferenceServer(batch_fn=_scores_fn, scores_fn=_scores_fn)
        # no functions at all is legal now: an empty multi-model server,
        # populated later with register_model (requests meanwhile get the
        # typed model_not_found error)
        empty = InferenceServer(max_batch=4, max_wait_us=1_000, max_queue=64)
        assert empty.registry.names == []

    def test_scores_request_without_scores_path(self):
        def labels_only(X):
            return np.zeros(np.asarray(X).shape[0], dtype=np.int64)

        srv = InferenceServer(
            batch_fn=labels_only, max_batch=4, max_wait_us=1_000, max_queue=64
        )
        with BackgroundServer(srv) as handle:
            with ServingClient(*handle.address) as client:
                labels = client.predict(np.ones((2, N_FEATURES), dtype=np.uint8))
                assert labels.tolist() == [0, 0]
                with pytest.raises(BadRequestError, match="no scores path"):
                    client.predict(
                        np.ones((2, N_FEATURES), dtype=np.uint8),
                        return_scores=True,
                    )

    def test_for_model_prefers_scores_path(self):
        class Model:
            def decision_scores_batch(self, X):
                return _scores_fn(X)

            def predict_batch(self, X):  # pragma: no cover - must not win
                raise AssertionError("scores path should be preferred")

        srv = InferenceServer.for_model(
            Model(), max_batch=8, max_wait_us=1_000, max_queue=64
        )
        rng = as_rng(4)
        X = rng.integers(0, 2, size=(3, N_FEATURES)).astype(np.uint8)
        with BackgroundServer(srv) as handle:
            with ServingClient(*handle.address) as client:
                labels, scores = client.predict(X, return_scores=True)
        np.testing.assert_allclose(scores, _scores_fn(X))

    def test_for_model_rejects_inert_objects(self):
        with pytest.raises(TypeError):
            InferenceServer.for_model(object())

    def test_engine_selection_a_model_cannot_honour_raises(self):
        """A bare ``predict_batch(X)`` object has no engine the server could
        select: ``backend=``/``pool=`` must raise at registration, not be
        dropped and then advertised anyway."""

        class BareEngine:
            def predict_batch(self, X):
                return np.zeros(np.asarray(X).shape[0], dtype=np.int64)

        srv = InferenceServer(max_batch=4, max_wait_us=1_000, max_queue=64)
        with pytest.raises(ValueError, match="cannot honour"):
            srv.register_model("m", model=BareEngine(), backend="native")
        with WorkerPool(n_workers=2) as pool:
            with pytest.raises(ValueError, match="cannot honour"):
                srv.register_model("m", model=BareEngine(), pool=pool)
            with pytest.raises(ValueError, match="cannot honour"):
                InferenceServer.for_model(BareEngine(), pool=pool)
            assert pool.model_ids == []
        assert srv.registry.names == []
        # without a selection it serves as it is, labelled numpy
        entry = srv.register_model("m", model=BareEngine())
        assert (entry.backend, entry.threads, entry.unroll) == ("numpy", 1, 1)

    def test_empty_server_stats_property_is_inert(self):
        srv = InferenceServer(max_batch=4, max_wait_us=1_000, max_queue=64)
        assert srv.stats.snapshot()["requests_completed"] == 0

    def test_register_model_rejects_sharding_kwargs_without_model(self):
        srv = InferenceServer(max_batch=4, max_wait_us=1_000, max_queue=64)
        with pytest.raises(ValueError, match="applies to model="):
            srv.register_model("m", _scores_fn, pool=object())

    def test_unregistering_the_default_clears_it(self):
        """Model-less requests must not silently re-route to a survivor."""
        import asyncio

        srv = InferenceServer(max_batch=4, max_wait_us=1_000, max_queue=64)
        srv.register_model("first", batch_fn=lambda X: np.zeros(len(X)))
        srv.register_model("second", batch_fn=lambda X: np.ones(len(X)))
        assert srv.registry.default_name == "first"
        asyncio.run(srv.unregister_model("first"))
        assert srv.registry.default_name is None
        with pytest.raises(ModelNotFoundError, match="no default model"):
            srv.registry.resolve(None)
        # the next registration (or default=True) re-points it
        srv.register_model("third", batch_fn=lambda X: np.zeros(len(X)))
        assert srv.registry.default_name == "third"

    def test_explicit_function_backend_is_a_label(self):
        """With explicit functions ``backend=`` only describes them."""
        srv = InferenceServer(max_batch=4, max_wait_us=1_000, max_queue=64)
        entry = srv.register_model("m", _scores_fn)
        assert (entry.backend, entry.threads, entry.unroll) == ("numpy", 1, 1)
        entry = srv.register_model("n", scores_fn=_scores_fn, backend="native")
        assert entry.describe()["backend"] == "native"
        with pytest.raises(ValueError, match="unknown backend"):
            srv.register_model("f", _scores_fn, backend="fortran")

    def test_warm_up_runs_before_first_request(self):
        ran = []
        srv = InferenceServer(
            scores_fn=_scores_fn,
            warm_up=lambda: ran.append(True),
            max_batch=4,
            max_wait_us=1_000,
            max_queue=64,
        )
        with BackgroundServer(srv):
            assert ran == [True]


class TestEngineOwnership:
    """Registration resolves the engine once and owns it: attached when
    ``register_model`` returns, advertised as what it actually runs with,
    closed exactly once — and only it — when the version retires."""

    @pytest.fixture()
    def trained(self, trained_poetbin):
        import copy

        clf, X, _targets, _y = trained_poetbin
        clf = copy.copy(clf)
        clf._compiled_ = {}  # this test's own engine cache
        return clf, X[:100], clf.predict(X[:100])

    def test_pool_registration_attaches_before_start(self, trained):
        """``warm_up=pool.warm_up`` must fork-inherit every registered
        model instead of forking an empty pool."""
        clf, X, expected = trained
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            srv = InferenceServer(
                max_batch=64, max_wait_us=1_000, warm_up=pool.warm_up
            )
            first = srv.register_model("first", model=clf, pool=pool)
            second = srv.register_model(
                "second", model=clf, pool=pool, backend="auto"
            )
            assert len(pool.model_ids) == 2  # attached now, not lazily
            attached = [first.engine.model_id, second.engine.model_id]
            assert sorted(pool.model_ids) == sorted(attached)
            with BackgroundServer(srv) as handle:
                if pool.backend == "process":
                    assert pool._resources["pool"] is not None
                    for model_id in attached:
                        # fork-inherited: nothing left to ship by pickle
                        assert pool._entry(model_id).payload is None
                with ServingClient(*handle.address, binary=True) as client:
                    for name in ("first", "second"):
                        np.testing.assert_array_equal(
                            client.predict(X, model=name), expected
                        )
                assert sorted(pool.model_ids) == sorted(attached)
            assert pool.model_ids == []  # stop() retired both

    def test_retiring_one_registration_keeps_the_others_attached(self, trained):
        """One fitted classifier under two names and as two versions on one
        pool: each registration owns its own attachment."""
        import asyncio

        clf, X, expected = trained
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            # a long coalescing window parks a small request in its queue
            srv = InferenceServer(max_batch=64, max_wait_us=500_000)
            gone = srv.register_model("gone", model=clf, pool=pool)
            kept_v1 = srv.register_model("kept", model=clf, pool=pool)
            kept_v2 = srv.register_model(
                "kept", model=clf, pool=pool, version=2
            )
            assert len(pool.model_ids) == 3  # one attachment each
            ids = [e.engine.model_id for e in (gone, kept_v1, kept_v2)]
            assert sorted(pool.model_ids) == sorted(ids)
            with BackgroundServer(srv) as handle:

                async def retire_with_a_request_in_flight():
                    in_flight = asyncio.ensure_future(gone.queue.submit(X[:5]))
                    await asyncio.sleep(0)  # admitted, waiting to coalesce
                    await srv.unregister_model("gone")
                    return await in_flight

                scores = handle.run(retire_with_a_request_in_flight())
                np.testing.assert_array_equal(
                    np.argmax(scores, axis=1), expected[:5]
                )
                assert sorted(pool.model_ids) == sorted(ids[1:])
                with ServingClient(*handle.address) as client:
                    np.testing.assert_array_equal(
                        client.predict(X, model="kept"), expected
                    )

                    async def promote():
                        srv.registry.promote("kept", 2)
                        await srv.registry.wait_idle()

                    handle.run(promote())
                    assert pool.model_ids == [ids[2]]
                    np.testing.assert_array_equal(
                        client.predict(X, model="kept"), expected
                    )
                    with pytest.raises(ModelNotFoundError):
                        client.predict(X, model="gone")

    def test_rejected_registration_leaks_no_attachment(self, trained):
        clf, _X, _expected = trained
        with WorkerPool(n_workers=2) as pool:
            srv = InferenceServer(max_batch=4, max_wait_us=1_000)
            entry = srv.register_model("m", model=clf, pool=pool)
            with pytest.raises(ValueError, match="already registered"):
                srv.register_model("m", model=clf, pool=pool)
            assert pool.model_ids == [entry.engine.model_id]

    def test_advertises_what_the_engine_runs_with(
        self, trained, tmp_path, monkeypatch
    ):
        """A ``native-mt`` model is advertised with the threads and lanes
        its engine runs, not the host's core count: the engine's thread
        count is made to differ from it here."""
        from repro.engine import native as native_mod
        from repro.engine.native import toolchain_available, vector_lanes

        if not toolchain_available():
            pytest.skip("no C compiler on this host")
        clf, X, expected = trained
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        threads, lanes = (os.cpu_count() or 1) + 1, vector_lanes()
        monkeypatch.setattr(native_mod, "default_thread_count", lambda: threads)

        srv = InferenceServer.for_model(
            clf, backend="native-mt", max_batch=64, max_wait_us=1_000
        )
        entry = srv.registry.resolve(None)
        assert (entry.backend, entry.threads, entry.unroll) == (
            "native-mt", threads, lanes,
        )
        assert entry.engine is clf.compiled_netlist("native-mt")
        assert f'repro_serving_model_threads{{model="default"}} {threads}' in (
            srv.render_metrics()
        )
        with BackgroundServer(srv) as handle:
            with ServingClient(*handle.address, binary=True) as client:
                np.testing.assert_array_equal(client.predict(X), expected)
                (listed,) = client.list_models()["models"]
        assert (listed["backend"], listed["threads"], listed["unroll"]) == (
            "native-mt", threads, lanes,
        )

    def test_backend_selection_reaches_the_engine(self, trained):
        """``backend=`` is resolved by the engine layer, at registration."""
        from repro.engine.native import toolchain_available

        clf, X, expected = trained
        srv = InferenceServer(max_batch=64, max_wait_us=1_000)
        plain = srv.register_model("plain", model=clf)
        assert plain.engine is clf.compiled_netlist("numpy")
        assert (plain.backend, plain.threads, plain.unroll) == ("numpy", 1, 1)
        auto = srv.register_model("auto", model=clf, backend="auto")
        assert auto.backend == ("native" if toolchain_available() else "numpy")
        with pytest.raises(ValueError, match="unknown engine backend"):
            srv.register_model("bad", model=clf, backend="fortran")
        text = srv.render_metrics()
        assert (
            f'repro_serving_model_backend{{model="auto",backend="{auto.backend}"}} 1'
            in text
        )
        with BackgroundServer(srv) as handle:
            for binary in (False, True):
                with ServingClient(*handle.address, binary=binary) as client:
                    labels, scores = client.predict(
                        X, model="auto", return_scores=True
                    )
                    np.testing.assert_array_equal(labels, expected)
                    np.testing.assert_allclose(
                        scores, clf.decision_scores_batch(X)
                    )


class TestWhereEvaluationRuns:
    """Only an unpooled single-thread native engine evaluates on the event
    loop; anything that may take milliseconds or wait on another process
    keeps its queue's executor thread, so it stalls only its own model."""

    @pytest.fixture()
    def trained(self, trained_poetbin):
        import copy

        clf, X, _targets, _y = trained_poetbin
        clf = copy.copy(clf)
        clf._compiled_ = {}  # this test's own engine cache
        return clf, X[:40], clf.predict(X[:40])

    def test_only_the_single_thread_native_engine_is_on_the_loop(
        self, trained, tmp_path, monkeypatch
    ):
        from repro.engine import native as native_mod

        clf, _X, _expected = trained
        srv = InferenceServer(max_batch=64, max_wait_us=1_000)
        srv.register_model("numpy", model=clf)
        srv.register_model(
            "explicit", scores_fn=_scores_fn, packed_fn=lambda w, n: w
        )
        srv.register_model("labels", _expected_labels)
        with WorkerPool(n_workers=2) as pool:
            srv.register_model("pool", model=clf, pool=pool)
            if native_mod.toolchain_available():
                monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
                monkeypatch.setattr(
                    native_mod, "default_thread_count", lambda: 2
                )
                srv.register_model("native", model=clf, backend="native")
                srv.register_model("native-mt", model=clf, backend="native-mt")
                srv.register_model(
                    "native-pool", model=clf, pool=pool, backend="native"
                )
            with BackgroundServer(srv) as handle:
                with ServingClient(*handle.address) as client:
                    listed = client.list_models()["models"]
        on_loop = {entry["name"]: entry["on_loop"] for entry in listed}
        assert on_loop.pop("native", True) is True
        assert on_loop and not any(on_loop.values()), on_loop

    def test_on_loop_native_model_does_not_wait_out_max_wait_us(
        self, trained, tmp_path, monkeypatch
    ):
        """An on-loop model flushes a lone request at the end of the next
        loop pass: with a wait budget of ~17 minutes, both wires still
        answer well inside the client's timeout."""
        from repro.engine.native import toolchain_available

        if not toolchain_available():
            pytest.skip("no C compiler on this host")
        clf, X, expected = trained
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        srv = InferenceServer(max_batch=64, max_wait_us=10**9)
        entry = srv.register_model("m", model=clf, backend="native")
        assert entry.queue.on_loop
        with BackgroundServer(srv) as handle:
            for binary in (True, False):
                with ServingClient(
                    *handle.address, timeout=30, binary=binary
                ) as client:
                    np.testing.assert_array_equal(
                        client.predict(X[:1], model="m"), expected[:1]
                    )
        assert entry.stats.snapshot()["batch_occupancy"] == {"1": 2}

    def test_a_stuck_pool_evaluation_stalls_only_its_own_model(
        self, trained, monkeypatch
    ):
        """A pool evaluation waiting on its workers must leave the loop free:
        another model's predicts, ping and ``/healthz`` answer meanwhile."""
        import urllib.request

        clf, X, expected = trained
        release, entered = threading.Event(), threading.Event()
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            run_packed = pool.run_packed

            def stuck_run_packed(model_id, words):
                entered.set()
                release.wait(timeout=10)
                return run_packed(model_id, words)

            monkeypatch.setattr(pool, "run_packed", stuck_run_packed)
            srv = InferenceServer(max_batch=64, max_wait_us=1_000, http_port=0)
            srv.register_model("stuck", model=clf, pool=pool)
            srv.register_model("free", scores_fn=_scores_fn)
            with BackgroundServer(srv) as handle:
                stuck_reply = []

                def predict_stuck():
                    with ServingClient(*handle.address, binary=True) as client:
                        stuck_reply.append(client.predict(X, model="stuck"))

                waiter = threading.Thread(target=predict_stuck)
                waiter.start()
                try:
                    assert entered.wait(timeout=10)
                    free_X = np.ones((3, N_FEATURES), dtype=np.uint8)
                    for binary in (False, True):
                        with ServingClient(
                            *handle.address, timeout=5, binary=binary
                        ) as client:
                            np.testing.assert_array_equal(
                                client.predict(free_X, model="free"),
                                _expected_labels(free_X),
                            )
                            assert client.ping()
                    host, port = srv.http_address
                    with urllib.request.urlopen(
                        f"http://{host}:{port}/healthz", timeout=5
                    ) as response:
                        assert response.status == 200
                    assert not stuck_reply  # still waiting on its workers
                finally:
                    release.set()
                    waiter.join(timeout=10)
        [labels] = stuck_reply
        np.testing.assert_array_equal(labels, expected)


# --------------------------------------------------------------------- PR 6
# Binary wire protocol end-to-end, mixed-protocol pipelining, the JSON
# non-finite regression, and the plain-HTTP /metrics listener.


class TestBinaryEndToEnd:
    def test_binary_labels_bit_exact_vs_json_without_packed_fn(self, server):
        """No packed_fn registered: the server unpacks once and falls back
        to the batch path — results must still match the JSON protocol."""
        rng = as_rng(21)
        X = rng.integers(0, 2, size=(130, N_FEATURES)).astype(np.uint8)
        with ServingClient(*server.address) as json_client:
            expected = json_client.predict(X)
        with ServingClient(*server.address, binary=True) as client:
            np.testing.assert_array_equal(client.predict(X), expected)
            labels, scores = client.predict(X, return_scores=True)
            np.testing.assert_array_equal(labels, expected)
            np.testing.assert_allclose(scores, _scores_fn(X))

    def test_binary_zero_copy_packed_fn_is_used_and_bit_exact(self):
        """With a packed_fn the engine sees words, never a byte matrix."""
        from repro.engine import packed_weighted_sums, unpack_bits

        rng = as_rng(22)
        weights = rng.integers(-5, 6, size=(N_FEATURES, N_CLASSES)).astype(
            np.int64
        )
        packed_calls = []

        def scores_fn(X):
            return np.asarray(X, dtype=np.int64) @ weights

        def packed_fn(words, n_samples):
            packed_calls.append(n_samples)
            return np.stack(
                [
                    packed_weighted_sums(words, weights[:, c], n_samples)
                    for c in range(N_CLASSES)
                ],
                axis=1,
            ).astype(np.float64)

        srv = InferenceServer(
            scores_fn=scores_fn,
            packed_fn=packed_fn,
            max_batch=32,
            max_wait_us=1_000,
            max_queue=256,
        )
        with BackgroundServer(srv) as handle:
            X = rng.integers(0, 2, size=(77, N_FEATURES)).astype(np.uint8)
            with ServingClient(*handle.address, binary=True) as client:
                labels = client.predict(X)
        assert sum(packed_calls) == 77  # every sample went the packed route
        np.testing.assert_array_equal(labels, np.argmax(scores_fn(X), axis=1))

    def test_for_model_wires_decision_scores_packed_batch(self):
        """A model object exposing the packed entry point gets it used."""
        from repro.engine import unpack_bits

        calls = []

        class PackedModel:
            def decision_scores_batch(self, X):
                return np.asarray(X, dtype=np.float64)

            def decision_scores_packed_batch(self, words, n_samples):
                calls.append(n_samples)
                return unpack_bits(words, n_samples).astype(np.float64)

        srv = InferenceServer.for_model(
            PackedModel(), max_batch=16, max_wait_us=500, max_queue=64
        )
        X = np.eye(N_FEATURES, dtype=np.uint8)
        with BackgroundServer(srv) as handle:
            with ServingClient(*handle.address, binary=True) as client:
                labels = client.predict(X)
        assert calls and sum(calls) == N_FEATURES
        np.testing.assert_array_equal(labels, np.arange(N_FEATURES))


class TestMixedProtocolPipelining:
    def test_json_and_binary_interleaved_on_one_connection(self, server):
        """Both protocols pipelined on one socket, re-associated by id."""
        import asyncio

        from repro.engine import pack_bits
        from repro.serving.transport import (
            _COMMON,
            _REPLY_HEAD,
            BINARY_MAGIC,
            _parse_reply,
            encode_predict_request,
        )
        from repro.serving.transport import read_message

        rng = as_rng(23)
        batches = {
            i: rng.integers(0, 2, size=(1 + i % 3, N_FEATURES)).astype(
                np.uint8
            )
            for i in range(24)
        }

        async def read_any_reply(reader):
            first = await reader.readexactly(1)
            if first[0] != BINARY_MAGIC:
                rest = await reader.readexactly(3)
                import struct

                (length,) = struct.unpack(">I", first + rest)
                body = await reader.readexactly(length)
                import json

                message = json.loads(body.decode("utf-8"))
                return message["id"], np.asarray(message["labels"])
            _, _, opcode, flags, request_id = _COMMON.unpack(
                first + await reader.readexactly(_COMMON.size - 1)
            )
            assert opcode == 0x02, f"unexpected opcode {opcode}"
            head = await reader.readexactly(_REPLY_HEAD.size)
            samples, n_classes = _REPLY_HEAD.unpack(head)
            body = await reader.readexactly(
                samples * 8 + (samples * n_classes * 8 if flags & 1 else 0)
            )
            reply = _parse_reply(flags, request_id, (samples, n_classes), body)
            return reply.request_id, reply.labels

        async def drive():
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                for i, rows in batches.items():
                    if i % 2:  # odd ids go binary, even ids go JSON
                        writer.write(
                            encode_predict_request(
                                pack_bits(rows), rows.shape[0], request_id=i
                            )
                        )
                    else:
                        from repro.serving.transport import write_message

                        await write_message(
                            writer,
                            {
                                "op": "predict",
                                "id": i,
                                "features": rows.tolist(),
                            },
                        )
                await writer.drain()
                responses = {}
                for _ in batches:
                    request_id, labels = await read_any_reply(reader)
                    responses[request_id] = labels
                return responses
            finally:
                writer.close()
                await writer.wait_closed()

        responses = asyncio.run(drive())
        assert sorted(responses) == sorted(batches)
        for i, rows in batches.items():
            np.testing.assert_array_equal(
                np.asarray(responses[i]), _expected_labels(rows)
            )


class TestNonFiniteScores:
    """Regression: a model emitting NaN/inf used to kill the connection.

    Pre-PR, ``json.dumps`` happily wrote ``NaN`` (invalid JSON) into the
    frame; a spec-compliant peer would choke mid-stream.  Now the JSON
    protocol refuses at encode time and the server converts that refusal
    into a typed ``internal`` error — the connection survives.  The binary
    protocol ships raw doubles, so the same scores cross losslessly.
    """

    @staticmethod
    def _nan_server():
        def scores_fn(X):
            scores = np.zeros((len(X), N_CLASSES))
            scores[:, 0] = np.nan
            scores[:, 1] = 1.0
            return scores

        return InferenceServer(
            scores_fn=scores_fn, max_batch=8, max_wait_us=500, max_queue=64
        )

    def test_nan_score_over_json_is_typed_internal_not_desync(self):
        with BackgroundServer(self._nan_server()) as handle:
            with ServingClient(*handle.address) as client:
                X = np.zeros((2, N_FEATURES), dtype=np.uint8)
                with pytest.raises(ServingError, match="not representable"):
                    client.predict(X, return_scores=True)
                # the error was a complete, typed frame: same connection
                # works (labels argmax to the NaN column, numpy semantics)
                np.testing.assert_array_equal(
                    client.predict(X), np.zeros(2, dtype=np.int64)
                )
                assert client.ping()

    def test_nan_score_over_binary_round_trips_losslessly(self):
        with BackgroundServer(self._nan_server()) as handle:
            with ServingClient(*handle.address, binary=True) as client:
                X = np.zeros((3, N_FEATURES), dtype=np.uint8)
                labels, scores = client.predict(X, return_scores=True)
        np.testing.assert_array_equal(labels, np.zeros(3, dtype=np.int64))
        assert np.isnan(scores[:, 0]).all()
        np.testing.assert_array_equal(scores[:, 1], np.ones(3))


class TestHttpMetrics:
    @pytest.fixture()
    def http_server(self):
        srv = InferenceServer(
            scores_fn=_scores_fn,
            max_batch=16,
            max_wait_us=1_000,
            max_queue=256,
            http_port=0,
        )
        with BackgroundServer(srv) as handle:
            yield srv, handle

    @staticmethod
    def _get(address, path):
        import urllib.request

        host, port = address
        return urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=5
        )

    def test_metrics_over_plain_http(self, http_server):
        srv, handle = http_server
        with ServingClient(*handle.address) as client:
            client.predict(np.ones((5, N_FEATURES), dtype=np.uint8))
        with self._get(srv.http_address, "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            body = response.read().decode("utf-8")
        assert "repro_serving_requests_completed" in body
        assert 'model="default"' in body
        # the wire op and the HTTP endpoint render the same exposition
        with ServingClient(*handle.address) as client:
            assert "repro_serving_requests_completed" in client.stats_text()

    def test_healthz(self, http_server):
        srv, _ = http_server
        with self._get(srv.http_address, "/healthz") as response:
            assert response.status == 200
            assert response.read() == b"ok\n"

    def test_unknown_path_is_404(self, http_server):
        import urllib.error

        srv, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(srv.http_address, "/nope")
        assert excinfo.value.code == 404

    def test_post_is_405(self, http_server):
        import urllib.error
        import urllib.request

        srv, _ = http_server
        host, port = srv.http_address
        request = urllib.request.Request(
            f"http://{host}:{port}/metrics", data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 405

    def test_http_address_none_without_http_port(self):
        srv = InferenceServer(
            scores_fn=_scores_fn, max_batch=4, max_wait_us=500, max_queue=16
        )
        assert srv.http_address is None


class TestTeardownLeavesNoTaskBehind:
    def test_stop_with_connections_the_server_never_served(self, caplog):
        """30 x (start, 20 bare connects, immediate stop): connections
        accepted in the listener's last moment used to be destroyed pending
        with the loop — "Task was destroyed but it is pending!", then
        "Event loop is closed" out of the orphaned handler's ``finally`` —
        the last run-to-run difference in tier-1's output."""
        import gc
        import logging
        import socket
        import sys

        unraisable = []
        previous_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                for _ in range(30):
                    srv = InferenceServer(
                        scores_fn=_scores_fn, max_batch=4, max_queue=16
                    )
                    handle = BackgroundServer(srv)
                    handle.start()
                    # debug mode also reports accepts cancelled in flight
                    handle._loop.call_soon_threadsafe(
                        handle._loop.set_debug, True
                    )
                    socks = [
                        socket.create_connection(handle.address)
                        for _ in range(20)
                    ]
                    handle.stop()
                    for sock in socks:
                        sock.close()
                gc.collect()
        finally:
            sys.unraisablehook = previous_hook
        logged = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
        assert not logged, logged[:3]
        assert not unraisable, [str(u.exc_value) for u in unraisable[:3]]


# ------------------------------------------------ the batch-shaped request path
def _poll(handle, read, until, timeout=5.0):
    """Poll ``read()`` on the server's loop until ``until(value)`` holds."""
    import time

    async def on_loop():
        return read()

    deadline = time.monotonic() + timeout
    while True:
        value = handle.run(on_loop())
        if until(value) or time.monotonic() > deadline:
            return value
        time.sleep(0.005)


def _binary_frames(rows, *, first_id=0, **kwargs):
    from repro.engine import pack_bits
    from repro.serving.transport import encode_predict_request

    return [
        encode_predict_request(
            pack_bits(row[None, :]), 1, request_id=first_id + i, **kwargs
        )
        for i, row in enumerate(rows)
    ]


def _recv_replies(sock, n):
    from repro.serving.transport import recv_reply

    return {reply.request_id: reply for reply in (recv_reply(sock) for _ in range(n))}


class TestDisconnectsOverARealSocket:
    """The teardown rules of ``FrameServer``, reached through a socket —
    the queue-level twins are ``TestBudgetLeakOnCancel`` in test_queue."""

    @staticmethod
    def _held_server(calls):
        """Admitted requests stay queued until the test flushes them."""

        def labels_fn(X):
            calls.append(X.shape[0])
            return X.sum(axis=1).astype(np.int64)

        return InferenceServer(
            batch_fn=labels_fn, max_batch=1000, max_wait_us=30e6,
            max_queue=1000, max_total_queue=1000,
        )

    def test_reset_connection_discards_its_queued_requests(self):
        import socket
        import struct

        calls = []
        srv = self._held_server(calls)
        queue = srv.registry.resolve(None).queue
        budget = srv.registry.budget
        rng = as_rng(21)
        doomed = rng.integers(0, 2, size=(5, N_FEATURES)).astype(np.uint8)
        survivor = rng.integers(0, 2, size=(1, N_FEATURES)).astype(np.uint8)
        with BackgroundServer(srv) as handle:
            a = socket.create_connection(handle.address, timeout=5)
            b = socket.create_connection(handle.address, timeout=5)
            try:
                a.sendall(b"".join(_binary_frames(doomed)))
                b.sendall(_binary_frames(survivor, first_id=77)[0])
                assert _poll(
                    handle, lambda: queue.queued_samples, lambda q: q == 6
                ) == 6
                assert budget.outstanding == 6
                # SO_LINGER 0: close() sends an RST, not a FIN
                a.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                a.close()
                assert _poll(
                    handle, lambda: queue.backlog_samples, lambda q: q == 1
                ) == 1
                assert budget.outstanding == 1
                handle.run(queue.flush())
                replies = _recv_replies(b, 1)
            finally:
                a.close()
                b.close()
            np.testing.assert_array_equal(
                replies[77].labels, survivor.sum(axis=1)
            )
            assert calls == [1]  # the engine never saw the reset connection's 5
            assert queue.backlog_samples == 0
            assert budget.outstanding == 0

    def test_half_close_after_pipelining_gets_every_reply_before_the_fin(self):
        import socket

        srv = InferenceServer(
            scores_fn=_scores_fn, max_batch=8, max_wait_us=20_000, max_queue=256
        )
        rows = as_rng(22).integers(0, 2, size=(21, N_FEATURES)).astype(np.uint8)
        with BackgroundServer(srv) as handle:
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.sendall(b"".join(_binary_frames(rows)))
                sock.shutdown(socket.SHUT_WR)  # clean EOF, 21 answers owed
                replies = _recv_replies(sock, len(rows))
                assert sock.recv(1) == b""  # and only then the FIN
        assert sorted(replies) == list(range(len(rows)))
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(
                replies[i].labels, _expected_labels(row[None, :])
            )

    def test_stop_with_requests_still_queued_leaves_nothing_behind(self, caplog):
        import logging
        import socket

        srv = self._held_server([])
        queue = srv.registry.resolve(None).queue
        rows = np.ones((4, N_FEATURES), dtype=np.uint8)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            handle = BackgroundServer(srv)
            handle.start()
            sock = socket.create_connection(handle.address, timeout=5)
            try:
                sock.sendall(b"".join(_binary_frames(rows)))
                _poll(handle, lambda: queue.queued_samples, lambda q: q == 4)
                handle.stop()
            finally:
                sock.close()
        logged = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
        assert not logged, logged[:3]
        assert queue.backlog_samples == 0


class TestBackpressure:
    def test_a_peer_that_never_reads_stops_being_read_from(self):
        """Pipelining without reading must not grow the server's write
        buffer with the pipeline: the connection loop stops taking chunks
        while the transport is above its high-water mark."""
        import socket
        import time

        n_classes, n_requests = 512, 100_000  # ~4 KB a reply, 150 B a shed
        writers = []

        class Recording(InferenceServer):
            async def _handle_connection(self, reader, writer):
                writers.append(writer)
                await super()._handle_connection(reader, writer)

        srv = Recording(
            scores_fn=lambda X: np.zeros((X.shape[0], n_classes)),
            max_batch=64, max_wait_us=500, max_queue=256,
        )
        queue = srv.registry.resolve(None).queue
        frame = _binary_frames(
            np.ones((1, N_FEATURES), dtype=np.uint8), return_scores=True
        )[0]

        def observe():
            taken = (
                srv.stats.requests_completed + srv.stats.shed
                + queue.backlog_samples
            )
            return taken, writers[0].transport.get_write_buffer_size()

        with BackgroundServer(srv) as handle:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(0.2)
            sock.connect(handle.address)
            try:
                sent = 0
                try:
                    for _ in range(n_requests // 1000):
                        sock.sendall(frame * 1000)
                        sent += 1000
                except socket.timeout:
                    pass  # the server stopped reading: that is the point
                seen = []
                deadline = time.monotonic() + 0.5
                while time.monotonic() < deadline:
                    seen.append(_poll(handle, observe, lambda _: True))
                    time.sleep(0.02)
            finally:
                sock.close()
        taken, buffered = (max(column) for column in zip(*seen))
        # a few chunks' worth of requests were taken off the socket, and
        # their answers — not the pipeline's — are what waits to be written
        assert taken <= sent // 2, (taken, sent)
        assert buffered < 4 * 1024 * 1024, buffered


class TestRequestsAreRowsNotTasks:
    def test_queued_predicts_create_no_task(self):
        """The architecture pin: 256 predicts queued from one connection
        leave the loop with its connection task — not one task (or future)
        per request."""
        import asyncio
        import socket

        srv = InferenceServer(
            scores_fn=_scores_fn, max_batch=1024, max_wait_us=30e6,
            max_queue=4096,
        )
        queue = srv.registry.resolve(None).queue
        rows = as_rng(23).integers(0, 2, size=(256, N_FEATURES)).astype(np.uint8)

        async def count_tasks():
            return len(asyncio.all_tasks())

        with BackgroundServer(srv) as handle:
            idle = handle.run(count_tasks())
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.sendall(b"".join(_binary_frames(rows)))
                assert _poll(
                    handle, lambda: queue.queued_samples, lambda q: q == 256
                ) == 256
                # connections + in-flight batches + a constant
                assert handle.run(count_tasks()) <= idle + 1 + 0 + 1
                handle.run(queue.flush())
                replies = _recv_replies(sock, 256)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(
                replies[i].labels, _expected_labels(row[None, :])
            )


class TestOneBadRequestFailsAlone:
    def test_wrong_width_and_wrong_dtype_in_a_pipelined_burst(self):
        """Interleaved on one socket with good requests of both wires: the
        wrong-width words fail as their own batch, the non-binary rows at
        admission, and every co-traveller is answered."""
        import socket

        from repro.serving.transport import (
            encode_message,
            recv_message,
            recv_reply,
        )

        def strict(X):
            if X.shape[1] != N_FEATURES:
                raise ValueError(f"expected {N_FEATURES} features")
            return _scores_fn(X)

        srv = InferenceServer(
            scores_fn=strict, max_batch=64, max_wait_us=20_000, max_queue=256
        )
        good = as_rng(24).integers(0, 2, size=(3, N_FEATURES)).astype(np.uint8)
        wide = np.ones((1, N_FEATURES + 8), dtype=np.uint8)
        with BackgroundServer(srv) as handle:
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.sendall(
                    _binary_frames(good[0:1], first_id=0)[0]
                    + _binary_frames(wide, first_id=1)[0]
                    + _binary_frames(good[1:2], first_id=2)[0]
                    + encode_message(
                        {"op": "predict", "id": 3,
                         "features": [[0.5] * N_FEATURES]}
                    )
                    + encode_message(
                        {"op": "predict", "id": 4,
                         "features": good[2:3].tolist()}
                    )
                )
                binary, errors, json_replies = {}, {}, {}
                for _ in range(5):
                    first = sock.recv(1, socket.MSG_PEEK)
                    if first == b"\xbf":
                        try:
                            reply = recv_reply(sock)
                            binary[reply.request_id] = reply.labels
                        except ServingError as error:
                            errors[type(error)] = str(error)
                    else:
                        reply = recv_message(sock)
                        json_replies[reply["id"]] = reply
        np.testing.assert_array_equal(binary[0], _expected_labels(good[0:1]))
        np.testing.assert_array_equal(binary[2], _expected_labels(good[1:2]))
        assert list(errors) == [ServingError]  # typed internal, alone
        assert "expected 16 features" in errors[ServingError]
        assert json_replies[3]["error"]["type"] == "bad_request"
        assert json_replies[4]["labels"] == _expected_labels(good[2:3]).tolist()

    def test_evaluate_failure_answers_the_whole_batch_and_frees_the_backlog(self):
        import socket

        from repro.serving.transport import encode_message, recv_message, recv_reply

        def broken(X):
            raise RuntimeError("weights fell out")

        srv = InferenceServer(
            batch_fn=broken, max_batch=4, max_wait_us=20_000, max_queue=64,
            max_total_queue=64,
        )
        rows = np.ones((3, N_FEATURES), dtype=np.uint8)
        with BackgroundServer(srv) as handle:
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.sendall(b"".join(_binary_frames(rows)))
                for _ in range(3):
                    with pytest.raises(ServingError, match="weights fell out") as e:
                        recv_reply(sock)
                    assert type(e.value) is ServingError
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.sendall(
                    encode_message({"op": "predict", "features": rows.tolist()})
                )
                reply = recv_message(sock)
                assert reply["error"]["type"] == "internal"
            queue = srv.registry.resolve(None).queue
            assert queue.backlog_samples == 0
            assert srv.registry.budget.outstanding == 0
            assert srv.stats.errors == 4
