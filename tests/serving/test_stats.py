"""Tests for the ServerStats collector."""

import json

import numpy as np
import pytest

from repro.serving import ServerStats


class TestPercentiles:
    def test_known_distribution(self):
        stats = ServerStats()
        values = np.arange(1.0, 101.0)
        for v in values:
            stats.observe_latency(v)
        result = stats.percentiles()
        assert result["p50"] == pytest.approx(np.percentile(values, 50))
        assert result["p95"] == pytest.approx(np.percentile(values, 95))
        assert result["p99"] == pytest.approx(np.percentile(values, 99))

    def test_empty_reservoir_is_zero_not_nan(self):
        result = ServerStats().percentiles()
        assert result == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_reservoir_keeps_recent_samples_only(self):
        stats = ServerStats(max_samples=10)
        for v in range(100):
            stats.observe_latency(float(v))
        # only 90..99 remain, so even p50 sits above the evicted values
        assert stats.percentiles()["p50"] >= 90.0
        assert stats.snapshot()["latency_samples"] == 10

    def test_invalid_max_samples(self):
        with pytest.raises(ValueError):
            ServerStats(max_samples=0)

    @pytest.mark.parametrize(
        "sizes",
        [
            [3, 4, 3],  # lands exactly on the ring's end
            [7, 7, 7, 7],  # every batch but the first wraps
            [10],  # exactly the ring
            [4, 25, 2],  # one batch larger than the ring
            [1] * 23,  # the scalar case, around twice
            [0, 6, 0, 6],  # empty batches change nothing
        ],
    )
    def test_ring_keeps_the_newest_samples_across_wrap_around(self, sizes):
        """The reservoir after any sequence of batches is the last
        ``max_samples`` values observed — oldest dropped first — whether
        they arrived as batches or one by one."""
        batched, scalar = ServerStats(max_samples=10), ServerStats(max_samples=10)
        values = np.arange(float(sum(sizes))) * 1.5
        start = 0
        for size in sizes:
            batch = values[start:start + size]
            start += size
            batched.observe_latencies(batch)
            for value in batch:
                scalar.observe_latency(value)
            newest = values[max(start - 10, 0):start]
            for stats in (batched, scalar):
                snap = stats.snapshot()
                assert snap["latency_samples"] == newest.size
                kept = stats._latencies_locked()
                np.testing.assert_array_equal(np.sort(kept), newest)
            assert batched.snapshot() == scalar.snapshot()
            assert batched.percentiles() == scalar.percentiles()

    def test_batch_of_any_array_like_equals_the_scalar_sequence(self):
        values = [812.5, 3.25, 99.0, 1e6, 0.0]
        scalar = ServerStats()
        for value in values:
            scalar.observe_latency(value)
        for batch in (values, tuple(values), np.array(values, dtype=np.float32)):
            batched = ServerStats()
            batched.observe_latencies(batch)
            assert batched.snapshot() == scalar.snapshot()


class TestCountersAndOccupancy:
    def test_batch_occupancy_histogram(self):
        stats = ServerStats()
        stats.observe_batch(n_requests=3, n_samples=3)
        stats.observe_batch(n_requests=1, n_samples=64)
        stats.observe_batch(n_requests=2, n_samples=64)
        snap = stats.snapshot()
        assert snap["batch_occupancy"] == {"3": 1, "64": 2}
        assert snap["requests_completed"] == 6
        assert snap["samples_completed"] == 131
        assert stats.mean_occupancy() == pytest.approx(131 / 3)

    def test_mean_occupancy_before_first_batch(self):
        assert ServerStats().mean_occupancy() == 0.0

    def test_shed_and_error_counters(self):
        stats = ServerStats()
        stats.observe_shed()
        stats.observe_shed(4)
        stats.observe_error(2)
        assert stats.shed == 5
        assert stats.errors == 2

    def test_queue_depth_high_water_mark(self):
        stats = ServerStats()
        for depth in (3, 17, 5):
            stats.observe_queue_depth(depth)
        assert stats.snapshot()["max_queue_depth"] == 17


def test_snapshot_is_json_serialisable():
    stats = ServerStats()
    stats.observe_batch(2, 9)
    stats.observe_latency(123.4)
    stats.observe_shed()
    stats.observe_queue_depth(9)
    encoded = json.dumps(stats.snapshot())
    decoded = json.loads(encoded)
    assert decoded["shed"] == 1
    assert decoded["latency_us"]["p50"] == pytest.approx(123.4)


class TestRenderStatsText:
    """The Prometheus-style rendering behind the stats_text op."""

    def _snapshots(self):
        a, b = ServerStats(), ServerStats()
        a.observe_batch(3, 12)
        a.observe_latency(100.0)
        a.observe_latency(300.0)
        a.observe_shed()
        b.observe_batch(1, 1)
        b.observe_queue_depth(7)
        return {"alpha": a.snapshot(), "beta": b.snapshot()}

    def test_every_model_and_metric_labelled(self):
        from repro.serving import render_stats_text

        text = render_stats_text(self._snapshots())
        assert '# TYPE repro_serving_requests_completed counter' in text
        assert 'repro_serving_requests_completed{model="alpha"} 3' in text
        assert 'repro_serving_requests_completed{model="beta"} 1' in text
        assert 'repro_serving_shed{model="alpha"} 1' in text
        assert 'repro_serving_max_queue_depth{model="beta"} 7' in text
        assert (
            'repro_serving_latency_us{model="alpha",quantile="0.5"}' in text
        )
        assert text.endswith("\n")

    def test_type_headers_emitted_once_per_metric(self):
        from repro.serving import render_stats_text

        text = render_stats_text(self._snapshots())
        assert (
            text.count("# TYPE repro_serving_requests_completed counter") == 1
        )
        assert text.count("# TYPE repro_serving_latency_us gauge") == 1

    def test_label_escaping_and_custom_prefix(self):
        from repro.serving import render_stats_text

        stats = ServerStats()
        stats.observe_batch(1, 1)
        text = render_stats_text(
            {'we"ird\\name': stats.snapshot()}, prefix="poetbin"
        )
        assert 'poetbin_requests_completed{model="we\\"ird\\\\name"} 1' in text

    def test_empty_registry_renders_empty(self):
        from repro.serving import render_stats_text

        assert render_stats_text({}) == ""

    def test_backend_info_gauge(self):
        from repro.serving import render_stats_text

        text = render_stats_text(
            self._snapshots(),
            backends={"alpha": "native", "beta": "numpy"},
        )
        assert "# TYPE repro_serving_model_backend gauge" in text
        assert (
            'repro_serving_model_backend{model="alpha",backend="native"} 1'
            in text
        )
        assert (
            'repro_serving_model_backend{model="beta",backend="numpy"} 1'
            in text
        )
        # omitting the mapping omits the metric (back-compat rendering)
        assert "model_backend" not in render_stats_text(self._snapshots())

    def test_threads_gauge(self):
        from repro.serving import render_stats_text

        text = render_stats_text(
            self._snapshots(),
            backends={"alpha": "native-mt", "beta": "numpy"},
            threads={"alpha": 8, "beta": 1},
        )
        assert "# TYPE repro_serving_model_threads gauge" in text
        assert 'repro_serving_model_threads{model="alpha"} 8' in text
        assert 'repro_serving_model_threads{model="beta"} 1' in text
        assert (
            'repro_serving_model_backend{model="alpha",backend="native-mt"} 1'
            in text
        )
        # omitting the mapping omits the metric (back-compat rendering)
        assert "model_threads" not in render_stats_text(self._snapshots())

    def test_large_counters_render_exactly(self):
        """%g-style rounding past 6 significant digits would corrupt
        scraped rate() math on a long-lived server."""
        from repro.serving import render_stats_text

        stats = ServerStats()
        stats.observe_batch(1_234_567, 7_654_321)
        text = render_stats_text({"m": stats.snapshot()})
        assert 'repro_serving_requests_completed{model="m"} 1234567' in text
        assert 'repro_serving_samples_completed{model="m"} 7654321' in text


class TestNonFiniteRendering:
    """Regression (PR 6): inf/NaN in a snapshot used to crash the scrape.

    A model emitting non-finite latencies or scores can land inf/NaN in a
    stats snapshot; ``_format_value`` previously tried integer formatting
    on them (``OverflowError: cannot convert float infinity to integer``),
    taking down every later ``/metrics`` scrape.  Prometheus defines the
    spellings ``+Inf`` / ``-Inf`` / ``NaN`` — render those instead.
    """

    def test_inf_and_nan_render_prometheus_spellings(self):
        from repro.serving import render_stats_text

        stats = ServerStats()
        stats.observe_batch(1, 1)
        snap = stats.snapshot()
        snap["latency_us"] = {
            "p50": float("inf"),
            "p95": float("-inf"),
            "p99": float("nan"),
        }
        text = render_stats_text({"m": snap})
        assert 'repro_serving_latency_us{model="m",quantile="0.5"} +Inf' in text
        assert (
            'repro_serving_latency_us{model="m",quantile="0.95"} -Inf' in text
        )
        assert 'repro_serving_latency_us{model="m",quantile="0.99"} NaN' in text

    def test_format_value_unit(self):
        from repro.serving.stats import _format_value

        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(float("nan")) == "NaN"
        assert _format_value(3.0) == "3"
        assert _format_value(2.5) == "2.5"


class TestSnapshotAtomicity:
    def test_snapshot_is_consistent_under_concurrent_writers(self):
        """One lock acquisition covers counters + reservoir: a snapshot
        taken mid-traffic never pairs new counters with old latencies in a
        torn read, and never crashes on a mutating reservoir."""
        import threading

        stats = ServerStats()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                stats.observe_batch(1, 1)
                stats.observe_latency(float(i % 1000))
                i += 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                snap = stats.snapshot()
                # requests == samples in this workload: a torn read across
                # the two counters would break the invariant
                assert snap["requests_completed"] == snap["samples_completed"]
                assert set(snap["latency_us"]) == {"p50", "p95", "p99"}
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5)
