"""Serving metrics: latency percentiles, batch occupancy, shed counts.

:class:`ServerStats` is the single collector threaded through the batching
queue and the socket server.  It is deliberately boring — plain counters, a
bounded latency reservoir and an occupancy histogram — because it is written
from the serving hot path: one :meth:`ServerStats.observe_batch` and one
:meth:`ServerStats.observe_latencies` call per *batch*, never one per
request.

What the numbers mean
=====================

``p50/p95/p99`` (microseconds)
    Request latency measured from admission into the queue to the moment the
    result future resolves — i.e. queueing delay + batch wait + evaluation,
    but *not* socket/JSON time (the client measures that end to end).  The
    reservoir keeps the most recent :attr:`ServerStats.max_samples`
    latencies, so percentiles reflect recent traffic, not the whole process
    lifetime.

``batch occupancy``
    Histogram of samples-per-evaluated-batch.  A healthy coalescing server
    under load shows mass near ``max_batch``; mass stuck at 1 means requests
    are not overlapping and the server is paying per-request engine cost.

``shed``
    Requests rejected by admission control (queue full).  Sheds are cheap by
    design — the request never touches the engine — so a non-zero shed count
    with stable percentiles is the intended overload behaviour.

``queue depth``
    Sampled at every admission (the queue keeps the running maximum as a
    plain integer and reports it once per batch); ``max_queue_depth`` is the
    high-water mark of the *backlog* — samples admitted but not yet completed, queued and
    evaluating alike (the same quantity the queue's ``max_queue`` bounds,
    so the ratio of the two is how close the server came to shedding).
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from typing import Dict, Mapping, Optional

import numpy as np

__all__ = ["ServerStats", "render_stats_text"]


class ServerStats:
    """Thread-safe collector for the batching server's operational metrics.

    Parameters
    ----------
    max_samples:
        Size of the latency reservoir; once full, the oldest latencies are
        dropped so percentiles track recent traffic.
    """

    def __init__(self, max_samples: int = 65536) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        self._lock = threading.Lock()
        # a ring: the newest ``_latency_count`` samples end just before
        # ``_latency_next``; a batch lands in one or two slice assignments
        self._latencies_us = np.empty(max_samples, dtype=np.float64)
        self._latency_count = 0
        self._latency_next = 0
        self._occupancy: Counter = Counter()
        self._requests_completed = 0
        self._samples_completed = 0
        self._batches = 0
        self._shed = 0
        self._errors = 0
        self._max_queue_depth = 0

    # ------------------------------------------------------------- recording
    def observe_queue_depth(self, backlog_samples: int) -> None:
        """Record the backlog (admitted-but-uncompleted samples) at an
        admission; the snapshot keeps the high-water mark."""
        with self._lock:
            if backlog_samples > self._max_queue_depth:
                self._max_queue_depth = backlog_samples

    def observe_batch(self, n_requests: int, n_samples: int) -> None:
        """Record one evaluated batch and its occupancy."""
        with self._lock:
            self._batches += 1
            self._occupancy[n_samples] += 1
            self._requests_completed += n_requests
            self._samples_completed += n_samples

    def observe_latencies(self, latencies_us) -> None:
        """Record a batch of admission-to-result latencies, oldest first;
        past ``max_samples`` the oldest recorded ones are dropped first."""
        new = np.asarray(latencies_us, dtype=np.float64).ravel()
        new = new[-self.max_samples:]
        with self._lock:
            head = min(new.size, self.max_samples - self._latency_next)
            self._latencies_us[
                self._latency_next:self._latency_next + head
            ] = new[:head]
            self._latencies_us[:new.size - head] = new[head:]
            self._latency_next = (
                self._latency_next + new.size
            ) % self.max_samples
            self._latency_count = min(
                self._latency_count + new.size, self.max_samples
            )

    def observe_latency(self, latency_us: float) -> None:
        """Record one request's admission-to-result latency."""
        self.observe_latencies((latency_us,))

    def observe_shed(self, n_requests: int = 1) -> None:
        """Record requests rejected by admission control."""
        with self._lock:
            self._shed += n_requests

    def observe_error(self, n_requests: int = 1) -> None:
        """Record requests that failed inside evaluation."""
        with self._lock:
            self._errors += n_requests

    # --------------------------------------------------------------- reading
    @property
    def requests_completed(self) -> int:
        with self._lock:
            return self._requests_completed

    @property
    def shed(self) -> int:
        with self._lock:
            return self._shed

    @property
    def errors(self) -> int:
        with self._lock:
            return self._errors

    @staticmethod
    def _percentiles_of(samples: np.ndarray, quantiles) -> Dict[str, float]:
        if samples.size == 0:
            return {f"p{q:g}": 0.0 for q in quantiles}
        values = np.percentile(samples, quantiles)
        return {f"p{q:g}": float(v) for q, v in zip(quantiles, values)}

    def _latencies_locked(self) -> np.ndarray:
        """A copy of the live reservoir (ring order: readers take
        percentiles and a count, neither depends on it)."""
        return self._latencies_us[:self._latency_count].copy()

    def percentiles(self, quantiles=(50.0, 95.0, 99.0)) -> Dict[str, float]:
        """Latency percentiles in microseconds over the current reservoir.

        Returns ``{"p50": ..., "p95": ..., "p99": ...}`` (NaN-free: an empty
        reservoir yields ``0.0`` so snapshots stay JSON-clean).
        """
        with self._lock:
            samples = self._latencies_locked()
        return self._percentiles_of(samples, quantiles)

    def _mean_occupancy_locked(self) -> float:
        return self._samples_completed / self._batches if self._batches else 0.0

    def mean_occupancy(self) -> float:
        """Average samples per evaluated batch (0.0 before the first batch)."""
        with self._lock:
            return self._mean_occupancy_locked()

    def snapshot(self) -> Dict[str, object]:
        """One JSON-serialisable dict with every metric (for the stats op).

        Atomic: every field — counters *and* latency percentiles — is read
        under one lock acquisition, so a scrape racing a batch completion
        sees one consistent moment (percentiles computed outside the lock
        used to tear against the counters, e.g. ``latency_samples`` ahead
        of the reservoir the percentiles were taken from).  The percentile
        math itself runs on a copy, after the lock is released.
        """
        with self._lock:
            samples = self._latencies_locked()
            occupancy = {str(k): v for k, v in sorted(self._occupancy.items())}
            state = {
                "requests_completed": self._requests_completed,
                "samples_completed": self._samples_completed,
                "batches": self._batches,
                "shed": self._shed,
                "errors": self._errors,
                "max_queue_depth": self._max_queue_depth,
                "latency_samples": samples.size,
                "batch_occupancy": occupancy,
                "mean_batch_occupancy": self._mean_occupancy_locked(),
            }
        state["latency_us"] = self._percentiles_of(samples, (50.0, 95.0, 99.0))
        return state


#: snapshot keys rendered as Prometheus counters (monotonic over a process
#: lifetime) vs gauges; latency percentiles get the quantile-label treatment
_COUNTER_KEYS = (
    "requests_completed",
    "samples_completed",
    "batches",
    "shed",
    "errors",
)
_GAUGE_KEYS = ("max_queue_depth", "latency_samples", "mean_batch_occupancy")


def _escape_label(value: str) -> str:
    # the Prometheus exposition format requires \\, \" and \n escaped in
    # label values — a raw line feed would split the sample line in two
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    """Exact for integer-valued metrics: ``%g``'s 6 significant digits
    would silently round counters past 999,999, corrupting scraped
    ``rate()``/``increase()`` math on a long-lived server.

    Non-finite values use the Prometheus exposition spellings ``+Inf`` /
    ``-Inf`` / ``NaN`` — ``int(value)`` would raise ``OverflowError`` /
    ``ValueError`` on them, turning one poisoned gauge into a failed
    scrape of *every* metric.
    """
    if not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value):
        return str(int(value))
    return f"{value:.10g}"


def render_stats_text(
    snapshots: Mapping[str, Mapping[str, object]],
    *,
    prefix: str = "repro_serving",
    backends: Optional[Mapping[str, str]] = None,
    threads: Optional[Mapping[str, int]] = None,
    versions: Optional[Mapping[str, int]] = None,
    shadows: Optional[Mapping[str, Mapping[str, int]]] = None,
) -> str:
    """Prometheus-style plain-text rendering of per-model stats snapshots.

    ``snapshots`` maps model name → :meth:`ServerStats.snapshot` dict; the
    output is one exposition-format block per metric with the model name as
    a label, e.g.::

        # TYPE repro_serving_requests_completed counter
        repro_serving_requests_completed{model="default"} 1024
        # TYPE repro_serving_latency_us gauge
        repro_serving_latency_us{model="default",quantile="0.5"} 2481.0

    ``backends`` optionally maps model name → active evaluation backend
    (``"numpy"`` / ``"native"`` / ``"native-mt"``); each mapped model gets
    an info-style gauge
    ``{prefix}_model_backend{{model="x",backend="native"}} 1`` so a
    scrape can tell which engine is serving which tenant.  ``threads``
    optionally maps model name → the engine's in-process thread count
    (the native-mt word-shard fan-out), exported as the
    ``{prefix}_model_threads`` gauge.

    ``versions`` optionally maps model name → the family's *serving*
    version, exported as the ``{prefix}_model_version`` gauge — a scrape
    sees exactly when a hot-swap flipped the pointer.  ``shadows``
    optionally maps model name → the cumulative shadow counters
    (``{"requests": ..., "divergences": ...}``), exported as the
    monotonic ``{prefix}_shadow_requests`` / ``{prefix}_shadow_divergences``
    counters (cumulative across shadow re-targets, so ``rate()`` math
    survives a candidate change).

    This is the payload behind the wire protocol's ``stats_text`` op — a
    scrape endpoint for operational tooling without adding an HTTP server
    to the serving process (point a sidecar/agent at a one-shot client
    call; see docs/serving.md).
    """
    lines = []
    models = sorted(snapshots)

    def section(metric: str, kind: str, rows) -> None:
        emitted_header = False
        for labels, value in rows:
            if not emitted_header:
                lines.append(f"# TYPE {prefix}_{metric} {kind}")
                emitted_header = True
            label_text = ",".join(
                f'{k}="{_escape_label(str(v))}"' for k, v in labels
            )
            lines.append(
                f"{prefix}_{metric}{{{label_text}}} {_format_value(value)}"
            )

    for key in _COUNTER_KEYS:
        section(
            key,
            "counter",
            (
                ((("model", name),), float(snapshots[name].get(key, 0)))
                for name in models
            ),
        )
    for key in _GAUGE_KEYS:
        section(
            key,
            "gauge",
            (
                ((("model", name),), float(snapshots[name].get(key, 0)))
                for name in models
            ),
        )
    section(
        "latency_us",
        "gauge",
        (
            (
                (("model", name), ("quantile", f"{float(q[1:]) / 100:g}")),
                float(value),
            )
            for name in models
            for q, value in sorted(
                snapshots[name].get("latency_us", {}).items()
            )
        ),
    )
    if backends:
        section(
            "model_backend",
            "gauge",
            (
                ((("model", name), ("backend", str(backends[name]))), 1.0)
                for name in sorted(backends)
            ),
        )
    if threads:
        section(
            "model_threads",
            "gauge",
            (
                ((("model", name),), float(threads[name]))
                for name in sorted(threads)
            ),
        )
    if versions:
        section(
            "model_version",
            "gauge",
            (
                ((("model", name),), float(versions[name]))
                for name in sorted(versions)
            ),
        )
    if shadows:
        for metric, key in (
            ("shadow_requests", "requests"),
            ("shadow_divergences", "divergences"),
        ):
            section(
                metric,
                "counter",
                (
                    ((("model", name),), float(shadows[name].get(key, 0)))
                    for name in sorted(shadows)
                ),
            )
    return "\n".join(lines) + ("\n" if lines else "")
