"""Shadow traffic and canary promotion: divergence evidence drives the flip.

Shadow mode mirrors answered primary traffic to a standby candidate and
records bit-exact diffs (label mismatches, confidence deltas, latency
ratios) in the family's :class:`DivergenceStore`.  ``promote_canary``
turns that evidence into an automatic verdict: a clean candidate takes the
serving pointer, a divergent one is rolled back with the primary untouched.
Reports and verdicts round-trip over *both* wire protocols — the JSON
codec and the binary OP_CONTROL frames.
"""

import numpy as np
import pytest

from repro.serving import (
    BackgroundServer,
    InferenceServer,
    ServingClient,
)
from repro.serving.registry import SERVING, STANDBY
from repro.utils.rng import as_rng

N_FEATURES = 24
N_CLASSES = 8


def version_fn(version: int):
    def batch_fn(X):
        return (np.asarray(X, dtype=np.int64).sum(axis=1) + version) % N_CLASSES

    return batch_fn


def scores_fn_for(offset: float):
    """Scores-mode variant: class scores shifted by ``offset`` on class 0
    only — argmax (labels) unchanged for small offsets, confidence delta
    exactly ``offset``."""

    def scores_fn(X):
        X = np.asarray(X, dtype=np.float64)
        base = np.stack(
            [X.sum(axis=1) + 0.01 * c for c in range(N_CLASSES)], axis=1
        )
        base[:, 0] -= 10.0  # class 0 never wins: offsets cannot flip argmax
        base[:, 0] += offset
        return base

    return scores_fn


def register(handle, *args, **kwargs):
    async def _do():
        return handle.server.register_model(*args, **kwargs)

    return handle.run(_do())


def quiesce(handle):
    async def _do():
        await handle.server.registry.wait_idle()

    handle.run(_do())


@pytest.fixture()
def server():
    srv = InferenceServer(
        max_batch=32, max_wait_us=500, max_queue=4096, max_total_queue=8192
    )
    srv.register_model("m", version_fn(1), version=1)
    with BackgroundServer(srv) as handle:
        yield handle


@pytest.fixture(params=[False, True], ids=["json", "binary"])
def client(request, server):
    with ServingClient(*server.address, binary=request.param) as c:
        yield c


class TestShadowRecording:
    def test_divergent_candidate_is_recorded(self, server, client):
        """Both protocols: mirror everything, diff everything."""
        register(server, "m", version_fn(2), version=2)
        result = client.set_shadow("m", 2, fraction=1.0)
        assert result["ok"] and result["version"] == 2
        rng = as_rng(0)
        n_requests = 10
        for _ in range(n_requests):
            X = rng.integers(0, 2, size=(7, N_FEATURES), dtype=np.uint8)
            np.testing.assert_array_equal(
                client.predict(X, model="m"), version_fn(1)(X)
            )
        quiesce(server)
        report = client.shadow_report("m")
        assert report["model"] == "m"
        assert report["serving_version"] == 1
        assert report["shadow_version"] == 2
        assert report["shadow_requests"] == n_requests
        # v2 disagrees on every row: every mirrored request diverged
        assert report["shadow_divergences"] == n_requests
        assert report["divergence_rate"] == 1.0
        assert report["mismatched_samples"] == 7 * n_requests
        assert len(report["records"]) == n_requests
        assert report["records"][0]["n_label_mismatches"] == 7
        assert report["p99_latency_ratio"] > 0

    def test_clean_candidate_records_no_divergence(self, server, client):
        register(server, "m", version_fn(1), version=2)  # bit-identical
        client.set_shadow("m", 2)
        rng = as_rng(1)
        for _ in range(5):
            X = rng.integers(0, 2, size=(3, N_FEATURES), dtype=np.uint8)
            client.predict(X, model="m")
        quiesce(server)
        report = client.shadow_report("m")
        assert report["shadow_requests"] == 5
        assert report["shadow_divergences"] == 0
        assert report["divergence_rate"] == 0.0
        assert report["records"] == []

    def test_pinned_requests_are_not_mirrored(self, server):
        register(server, "m", version_fn(2), version=2)
        with ServingClient(*server.address) as client:
            client.set_shadow("m", 2)
            rng = as_rng(2)
            X = rng.integers(0, 2, size=(4, N_FEATURES), dtype=np.uint8)
            client.predict(X, model="m@2")  # pinned to the candidate
            quiesce(server)
            assert client.shadow_report("m")["shadow_requests"] == 0

    def test_fraction_samples_a_subset(self, server):
        import random

        register(server, "m", version_fn(2), version=2)
        server.server.registry._rng = random.Random(1234)
        with ServingClient(*server.address) as client:
            client.set_shadow("m", 2, fraction=0.3)
            rng = as_rng(3)
            n_requests = 60
            for _ in range(n_requests):
                X = rng.integers(0, 2, size=(2, N_FEATURES), dtype=np.uint8)
                client.predict(X, model="m")
            quiesce(server)
            mirrored = client.shadow_report("m")["shadow_requests"]
            assert 0 < mirrored < n_requests

    def test_candidate_error_counts_as_divergence(self, server):
        def broken(X):
            raise ValueError("retrained model is broken")

        register(server, "m", broken, version=2)
        with ServingClient(*server.address) as client:
            client.set_shadow("m", 2)
            rng = as_rng(4)
            X = rng.integers(0, 2, size=(3, N_FEATURES), dtype=np.uint8)
            np.testing.assert_array_equal(
                client.predict(X, model="m"), version_fn(1)(X)
            )
            quiesce(server)
            report = client.shadow_report("m")
            assert report["shadow_errors"] == 1
            assert report["divergence_rate"] == 1.0
            assert "broken" in report["records"][0]["error"]

    def test_retarget_resets_candidate_scope_keeps_totals(self, server):
        register(server, "m", version_fn(2), version=2)
        register(server, "m", version_fn(3), version=3)
        with ServingClient(*server.address) as client:
            client.set_shadow("m", 2)
            rng = as_rng(5)
            X = rng.integers(0, 2, size=(3, N_FEATURES), dtype=np.uint8)
            client.predict(X, model="m")
            quiesce(server)
            assert client.shadow_report("m")["shadow_requests"] == 1
            client.set_shadow("m", 3)
            report = client.shadow_report("m")
            assert report["shadow_requests"] == 0  # candidate scope reset
            assert report["total_requests"] == 1  # cumulative scope survives
            assert report["shadow_version"] == 3

    def test_scores_mode_confidence_delta(self, server):
        srv = InferenceServer(max_batch=16, max_wait_us=500)
        srv.register_model("s", scores_fn=scores_fn_for(0.0), version=1)
        with BackgroundServer(srv) as handle:
            register(handle, "s", scores_fn=scores_fn_for(0.25), version=2)
            with ServingClient(*handle.address) as client:
                client.set_shadow("s", 2)
                rng = as_rng(6)
                X = rng.integers(0, 2, size=(5, N_FEATURES), dtype=np.uint8)
                client.predict(X, model="s")
                quiesce(handle)
                report = client.shadow_report("s")
                # same argmax, shifted scores: no divergence, but the
                # numeric drift is measured
                assert report["shadow_divergences"] == 0
                assert report["max_confidence_delta"] == pytest.approx(0.25)

    def test_shadow_validation(self, server, client):
        with pytest.raises(Exception):
            client.set_shadow("m", 1)  # serving version cannot shadow
        register(server, "m", version_fn(2), version=2)
        with pytest.raises(Exception):
            client.set_shadow("m", 2, fraction=0.0)
        with pytest.raises(Exception):
            client.set_shadow("m", 9)
        client.set_shadow("m", 2)
        assert client.clear_shadow("m")["version"] == 2
        assert client.clear_shadow("m")["version"] is None  # idempotent
        assert client.shadow_report("m")["shadow_version"] is None


class TestCanary:
    def drive(self, client, n_requests, seed=0, model="m"):
        rng = as_rng(seed)
        for _ in range(n_requests):
            X = rng.integers(0, 2, size=(3, N_FEATURES), dtype=np.uint8)
            client.predict(X, model=model)

    def test_auto_promote_clean_candidate(self, server, client):
        register(server, "m", version_fn(1), version=2)  # equivalent retrain
        client.set_shadow("m", 2)
        self.drive(client, 8)
        quiesce(server)
        verdict = client.promote_canary("m", 2, min_requests=8)
        assert verdict["status"] == "promoted"
        assert verdict["divergence_rate"] == 0.0
        assert verdict["observed"] >= 8
        quiesce(server)
        registry = server.server.registry
        assert registry.serving_versions()["m"] == 2
        assert registry.describe_family("m")["versions"] == [
            {"version": 2, "state": SERVING}
        ]
        events = [e["event"] for e in client.lifecycle("m")]
        assert "canary_promoted" in events

    def test_auto_rollback_divergent_candidate(self, server, client):
        """The acceptance criterion: rollback triggers and v1 still serves."""
        register(server, "m", version_fn(2), version=2)  # diverges everywhere
        client.set_shadow("m", 2)
        self.drive(client, 8)
        quiesce(server)
        verdict = client.promote_canary("m", 2, min_requests=8)
        assert verdict["status"] == "rolled_back"
        assert "divergence rate" in verdict["reason"]
        assert verdict["divergence_rate"] == 1.0
        quiesce(server)
        registry = server.server.registry
        assert registry.serving_versions()["m"] == 1
        # the candidate retired; the primary never stopped serving
        assert registry.describe_family("m")["versions"] == [
            {"version": 1, "state": SERVING}
        ]
        rng = as_rng(7)
        X = rng.integers(0, 2, size=(5, N_FEATURES), dtype=np.uint8)
        np.testing.assert_array_equal(
            client.predict(X, model="m"), version_fn(1)(X)
        )
        rolled = [
            e
            for e in client.lifecycle("m")
            if e["event"] == "canary_rolled_back"
        ]
        assert len(rolled) == 1 and rolled[0]["version"] == 2

    def test_latency_gate_rolls_back_slow_candidate(self, server):
        import time

        def slow_but_correct(X):
            time.sleep(0.05)
            return version_fn(1)(X)

        register(server, "m", slow_but_correct, version=2)
        with ServingClient(*server.address) as client:
            client.set_shadow("m", 2)
            self.drive(client, 6)
            quiesce(server)
            verdict = client.promote_canary(
                "m", 2, min_requests=6, max_p99_ratio=2.0
            )
            assert verdict["status"] == "rolled_back"
            assert "p99 latency ratio" in verdict["reason"]
            quiesce(server)
            assert server.server.registry.serving_versions()["m"] == 1

    def test_watcher_decides_when_evidence_arrives(self, server, client):
        """``watching`` status now, event-driven verdict once traffic lands."""
        import time

        register(server, "m", version_fn(1), version=2)
        pending = client.promote_canary("m", 2, min_requests=5)
        assert pending["status"] == "watching"
        assert pending["required"] == 5
        self.drive(client, 5)
        deadline = time.time() + 10
        while time.time() < deadline:
            if server.server.registry.serving_versions()["m"] == 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("canary watcher never promoted the clean candidate")
        events = [e["event"] for e in client.lifecycle("m")]
        assert "canary_started" in events
        assert "canary_promoted" in events

    def test_a_watching_canary_holds_no_task(self, server, client):
        """``watching`` leaves the loop's task count as it was; the verdict
        lands in the lifecycle log once the evidence arrives and
        ``wait_idle`` returns — no polling."""
        import asyncio

        async def count_tasks():
            return len(asyncio.all_tasks())

        register(server, "m", version_fn(1), version=2)
        before = server.run(count_tasks())
        pending = client.promote_canary("m", 2, min_requests=5)
        assert pending["status"] == "watching"
        assert server.run(count_tasks()) == before
        self.drive(client, 5)
        quiesce(server)
        events = [e["event"] for e in client.lifecycle("m")]
        assert events[events.index("canary_started"):] == [
            "canary_started",
            "shadow_cleared",
            "promoted",
            "draining",
            "canary_promoted",
            "retired",
        ]
        assert server.server.registry.serving_versions()["m"] == 2

    @pytest.mark.parametrize(
        "drop", ["set_shadow_elsewhere", "clear_shadow", "unregister_version"]
    )
    def test_a_dropped_canary_aborts_at_once_and_never_decides(
        self, server, client, drop
    ):
        register(server, "m", version_fn(1), version=2)  # would promote
        register(server, "m", version_fn(1), version=3)
        assert client.promote_canary("m", 2, min_requests=3)["status"] == (
            "watching"
        )
        if drop == "set_shadow_elsewhere":
            client.set_shadow("m", 3)
        elif drop == "clear_shadow":
            client.clear_shadow("m")
        else:

            async def unregister():
                server.server.registry.unregister_version("m", 2)

            server.run(unregister())
        aborted = [
            e for e in client.lifecycle("m") if e["event"] == "canary_aborted"
        ]
        assert [e["version"] for e in aborted] == [2]  # before any traffic
        if drop == "clear_shadow":
            client.set_shadow("m", 2)  # the same candidate, mirrored again
        self.drive(client, 6)
        quiesce(server)
        events = [e["event"] for e in client.lifecycle("m")]
        assert events.count("canary_aborted") == 1
        assert "canary_promoted" not in events
        assert "canary_rolled_back" not in events
        assert server.server.registry.serving_versions()["m"] == 1

    def test_policy_validation_crosses_the_wire(self, server, client):
        register(server, "m", version_fn(2), version=2)
        with pytest.raises(Exception, match="min_requests"):
            client.promote_canary("m", 2, min_requests=0)
        with pytest.raises(Exception):
            client.promote_canary("m", 1)  # already serving


class TestMetricsExport:
    def test_shadow_counters_and_version_gauge(self, server):
        register(server, "m", version_fn(2), version=2)
        with ServingClient(*server.address) as client:
            client.set_shadow("m", 2)
            rng = as_rng(8)
            X = rng.integers(0, 2, size=(3, N_FEATURES), dtype=np.uint8)
            client.predict(X, model="m")
            quiesce(server)
            text = client.stats_text()
        assert 'repro_serving_model_version{model="m"} 1' in text
        assert 'repro_serving_shadow_requests{model="m"} 1' in text
        assert 'repro_serving_shadow_divergences{model="m"} 1' in text


class TestFamilyIntrospection:
    def test_list_models_shows_versions_and_shadow(self, server, client):
        register(server, "m", version_fn(2), version=2)
        client.set_shadow("m", 2, fraction=0.5)
        entry = next(
            e for e in client.list_models()["models"] if e["name"] == "m"
        )
        assert entry["version"] == 1
        assert entry["state"] == SERVING
        assert entry["versions"] == [
            {"version": 1, "state": SERVING},
            {"version": 2, "state": STANDBY},
        ]
        assert entry["shadow"] == {"version": 2, "fraction": 0.5}
