"""Model lifecycle primitives: divergence recording, canary policy, event log.

Production serving replaces models under load.  Three small pieces make
that safe without slowing the hot path, all owned by the registry's
per-name version family:

:class:`DivergenceStore`
    The shadow-traffic ledger.  When a model has a shadow candidate, a
    sampled fraction of its traffic is *mirrored* to the candidate after
    the primary reply has been sent; each mirrored request is compared
    bit-for-bit (labels) and numerically (max per-class score delta,
    latency ratio) and the outcome lands here.  The store is bounded on
    both axes — a deque of the most recent divergent records for
    debugging, a reservoir of latency ratios for the p99 — and keeps two
    scopes: *candidate-scoped* counters that reset when the shadow target
    changes (what canary decisions read) and *cumulative* totals that
    never reset (what the Prometheus counters export, so scraped
    ``rate()`` math survives a re-target).

:class:`CanaryPolicy`
    The promotion gate: after at least ``min_requests`` mirrored
    requests, a candidate whose divergence rate (label mismatches *and*
    shadow errors, over mirrored requests) stays within
    ``max_divergence_rate`` — and whose shadow/primary latency-ratio p99
    stays within ``max_p99_ratio``, when set — is auto-promoted;
    otherwise it is rolled back (shadow cleared, candidate version
    unregistered, primary untouched).

:class:`LifecycleLog`
    A bounded, monotonically-sequenced event history per model name —
    ``registered`` / ``promoted`` / ``draining`` / ``retired`` /
    ``shadow_set`` / ``canary_rolled_back`` / ... — queryable over the
    wire (the ``lifecycle`` op) so an operator can reconstruct how the
    serving pointer got where it is.

The blind-comparison shape (evaluate candidate on the exact traffic the
primary answered, record only the diff) follows the debug-DB diff
pattern the roadmap names as the exemplar.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "CanaryPolicy",
    "DivergenceStore",
    "LifecycleLog",
    "compare_outputs",
]

#: a :class:`DivergenceStore` keeps this many recent divergent (or errored)
#: records, and its p99 reads this many recent latency ratios
MAX_DIVERGENCE_RECORDS = 256
MAX_LATENCY_RATIOS = 4096
#: a :class:`LifecycleLog` keeps this many most recent events
MAX_LIFECYCLE_EVENTS = 512


def compare_outputs(
    scores_mode: bool, primary: Any, candidate: Any
) -> Tuple[int, float]:
    """``(n_label_mismatches, max_confidence_delta)`` between two replies.

    For scores-mode models both sides are ``(n, n_classes)`` score
    matrices: labels are compared by argmax and the confidence delta is
    the largest absolute per-class score difference.  A candidate whose
    class count differs from the primary's is structurally divergent:
    every sample counts as mismatched and the delta is ``+Inf``.  For
    labels-mode models only the labels exist, so the delta is 0.
    """
    p = np.asarray(primary)
    c = np.asarray(candidate)
    if scores_mode:
        if p.shape != c.shape:
            return int(p.shape[0]), float("inf")
        p_labels = np.argmax(p, axis=1)
        c_labels = np.argmax(c, axis=1)
        mismatched = int(np.count_nonzero(p_labels != c_labels))
        delta = float(np.max(np.abs(p - c))) if p.size else 0.0
        return mismatched, delta
    if p.shape != c.shape:
        return int(p.shape[0]), float("inf")
    return int(np.count_nonzero(p != c)), 0.0


@dataclass(frozen=True)
class CanaryPolicy:
    """The auto-promotion gate for :meth:`ModelRegistry.promote_canary`.

    Parameters
    ----------
    min_requests:
        Mirrored requests required before any verdict; until then the
        canary stays in ``watching`` state.
    max_divergence_rate:
        Highest tolerated fraction of mirrored requests that diverged
        (label mismatch *or* shadow evaluation error).  The default 0.0
        demands bit-exact agreement — the right bar for a retrained
        PoET-BiN bank that is supposed to be an equivalent drop-in.
    max_p99_ratio:
        Optional cap on the p99 of shadow/primary latency ratios; a
        candidate that answers correctly but 10x slower should not be
        promoted.  ``None`` skips the latency gate; otherwise positive and
        finite (a NaN gate could never fire).
    """

    min_requests: int = 32
    max_divergence_rate: float = 0.0
    max_p99_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_requests < 1:
            raise ValueError("min_requests must be >= 1")
        if not 0.0 <= self.max_divergence_rate <= 1.0:
            raise ValueError("max_divergence_rate must be in [0, 1]")
        if self.max_p99_ratio is not None and not (
            0 < self.max_p99_ratio < math.inf  # not NaN either
        ):
            raise ValueError("max_p99_ratio must be positive and finite")

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "CanaryPolicy":
        """Build from a wire request's optional policy fields, typed as
        sent: ``min_requests`` an integer, the bounds numbers — a string,
        a bool or a fractional count raises :class:`TypeError` rather than
        being cast (a JSON ``true`` is not a divergence rate of 1.0)."""
        kwargs: Dict[str, Any] = {}
        for name, kind, cast in (
            ("min_requests", int, int),
            ("max_divergence_rate", (int, float), float),
            ("max_p99_ratio", (int, float), float),
        ):
            value = payload.get(name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(
                    f"{name} must be {'an integer' if kind is int else 'a number'}, "
                    f"got {value!r}"
                )
            kwargs[name] = cast(value)
        return cls(**kwargs)

    def describe(self) -> Dict[str, Any]:
        return {
            "min_requests": self.min_requests,
            "max_divergence_rate": self.max_divergence_rate,
            "max_p99_ratio": self.max_p99_ratio,
        }


class DivergenceStore:
    """Bounded ledger of shadow-traffic outcomes for one model family.

    Two scopes coexist:

    * **candidate-scoped** counters/records/reservoir, reset by
      :meth:`retarget` whenever the shadow pointer moves to a different
      version — canary decisions must never mix evidence across
      candidates;
    * **cumulative totals** (``total_requests`` / ``total_divergences``)
      that survive re-targets — these back the monotonic Prometheus
      counters ``repro_serving_shadow_requests`` /
      ``repro_serving_shadow_divergences``.

    A mirrored request is *divergent* when any label mismatched (or the
    comparison was structural — different class counts).  Shadow
    evaluation errors (candidate queue shed, model raise) are counted
    separately but weigh as divergences in the canary's rate.
    """

    def __init__(self) -> None:
        self.candidate_version: Optional[int] = None
        self.total_requests = 0
        self.total_divergences = 0
        self._reset_candidate()

    def _reset_candidate(self) -> None:
        self.requests = 0
        self.divergences = 0
        self.errors = 0
        self.samples = 0
        self.mismatched_samples = 0
        self.max_confidence_delta = 0.0
        self._records: deque = deque(maxlen=MAX_DIVERGENCE_RECORDS)
        self._ratios: deque = deque(maxlen=MAX_LATENCY_RATIOS)

    # ------------------------------------------------------------- recording
    def retarget(self, version: Optional[int]) -> None:
        """Point the candidate scope at ``version``, resetting it (totals
        survive).  Re-targeting the *same* version keeps the evidence."""
        if version != self.candidate_version:
            self.candidate_version = version
            self._reset_candidate()

    def observe(
        self,
        n_samples: int,
        n_mismatched: int,
        max_confidence_delta: float,
        latency_ratio: float,
    ) -> bool:
        """Record one mirrored request; returns whether it diverged."""
        divergent = n_mismatched > 0
        self.requests += 1
        self.total_requests += 1
        self.samples += int(n_samples)
        self.mismatched_samples += int(n_mismatched)
        if max_confidence_delta > self.max_confidence_delta:
            self.max_confidence_delta = float(max_confidence_delta)
        self._ratios.append(float(latency_ratio))
        if divergent:
            self.divergences += 1
            self.total_divergences += 1
            self._records.append(
                {
                    "ts": time.time(),
                    "n_samples": int(n_samples),
                    "n_label_mismatches": int(n_mismatched),
                    "max_confidence_delta": float(max_confidence_delta),
                    "latency_ratio": float(latency_ratio),
                }
            )
        return divergent

    def observe_error(self, message: str) -> None:
        """Record a mirrored request whose candidate evaluation failed."""
        self.requests += 1
        self.total_requests += 1
        self.errors += 1
        self._records.append({"ts": time.time(), "error": message})

    # --------------------------------------------------------------- reading
    def divergence_rate(self) -> float:
        """Divergent-or-errored fraction of mirrored requests (0.0 when
        nothing has been mirrored yet)."""
        if self.requests == 0:
            return 0.0
        return (self.divergences + self.errors) / self.requests

    def p99_latency_ratio(self) -> float:
        if not self._ratios:
            return 0.0
        return float(
            np.percentile(np.fromiter(self._ratios, dtype=np.float64), 99.0)
        )

    def summary(self) -> Dict[str, Any]:
        """One JSON-clean dict: candidate-scoped stats plus the totals."""
        ratios = np.fromiter(self._ratios, dtype=np.float64)
        mean_ratio = float(ratios.mean()) if ratios.size else 0.0
        delta = self.max_confidence_delta
        return {
            "candidate_version": self.candidate_version,
            "shadow_requests": self.requests,
            "shadow_divergences": self.divergences,
            "shadow_errors": self.errors,
            "samples": self.samples,
            "mismatched_samples": self.mismatched_samples,
            # +Inf is not JSON; the structural-divergence marker crosses
            # the wire as a very explicit sentinel string instead
            "max_confidence_delta": (
                delta if np.isfinite(delta) else "inf"
            ),
            "divergence_rate": self.divergence_rate(),
            "p99_latency_ratio": self.p99_latency_ratio(),
            "mean_latency_ratio": mean_ratio,
            "total_requests": self.total_requests,
            "total_divergences": self.total_divergences,
        }

    def records(self) -> List[Dict[str, Any]]:
        """The bounded divergence/error records, oldest first (JSON-clean:
        non-finite confidence deltas cross as the ``"inf"`` sentinel)."""
        out = []
        for record in self._records:
            record = dict(record)
            delta = record.get("max_confidence_delta")
            if delta is not None and not np.isfinite(delta):
                record["max_confidence_delta"] = "inf"
            out.append(record)
        return out


class LifecycleLog:
    """Bounded, sequenced event history for one model family."""

    def __init__(self) -> None:
        self._events: deque = deque(maxlen=MAX_LIFECYCLE_EVENTS)
        self._seq = 0

    def record(self, event: str, **fields: Any) -> Dict[str, Any]:
        self._seq += 1
        entry = {"seq": self._seq, "event": event, "ts": time.time()}
        entry.update(fields)
        self._events.append(entry)
        return entry

    def events(self) -> List[Dict[str, Any]]:
        return [dict(entry) for entry in self._events]
