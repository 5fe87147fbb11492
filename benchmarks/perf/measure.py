"""Clocks, window statistics, spans and ``/proc`` readers.  No ``repro``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.perf.procs import stat_fields

now = time.perf_counter

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


class Windowed:
    """Per-window values of one quantity and their summary.

    ``value`` is the best window (``max`` for a rate, ``min`` for a time);
    ``n`` is how many raw samples (calls, replies) stood behind all windows
    together.
    """

    def __init__(self, per_window: Sequence[float], n: int, best=min) -> None:
        self.per_window = [float(v) for v in per_window]
        self.n = int(n)
        self.value = best(self.per_window)
        self.median = statistics.median(self.per_window)
        self.iqr = iqr(self.per_window)

    def describe(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "window_median": self.median,
            "window_iqr": self.iqr,
            "windows": self.per_window,
            "n": self.n,
        }


def split_windows(n_items: int, n_windows: int) -> List[slice]:
    """``n_windows`` contiguous, near-equal index ranges over ``n_items``."""
    edges = [(i * n_items) // n_windows for i in range(n_windows + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def summarize_calls(
    durations_s: Sequence[float],
    items_per_call: int,
    n_windows: int,
    tail_q: float,
) -> Dict[str, Windowed]:
    """Throughput and latency of back-to-back calls by one caller.

    Windows hold equal *numbers of calls*, so none is cut mid-call; a
    window's throughput is its items over the time spent inside its calls
    (checking between calls is excluded).
    """
    d = np.asarray(durations_s, dtype=np.float64)
    if d.size < n_windows:
        raise RuntimeError(
            f"only {d.size} calls completed; {n_windows} windows need at least "
            "one each — raise --seconds"
        )
    parts = [d[w] for w in split_windows(d.size, n_windows)]
    return {
        "throughput_per_s": Windowed(
            [items_per_call * p.size / p.sum() for p in parts], d.size, max
        ),
        "latency_p50_us": Windowed([np.median(p) * 1e6 for p in parts], d.size),
        "latency_tail_us": Windowed(
            [np.percentile(p, tail_q) * 1e6 for p in parts], d.size
        ),
    }


def median_call_s(call, reps: int) -> float:
    """Median wall seconds of ``call()`` over ``reps`` calls after one warm-up."""
    call()
    times = []
    for _ in range(reps):
        t0 = now()
        call()
        times.append(now() - t0)
    return statistics.median(times)


# --------------------------------------------------------------------- spans
Span = Tuple[str, float, float, Optional[int], int]  # name, t0, t1, parent, item


class Tracer:
    """In-memory spans around the public calls the benchmark makes.

    Disabled, ``span`` costs one attribute test; the end-to-end pass runs
    with it disabled.  ``item`` ties the spans of one request/batch/call
    together; ``parent`` is the index of the enclosing span.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, item: int = 0) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, item))
        self._stack.append(index)
        t0 = now()
        try:
            yield
        finally:
            t1 = now()
            self._stack.pop()
            self.spans[index] = (name, t0, t1, parent, item)

    def add(self, name: str, t0: float, t1: float, item: int = 0) -> None:
        if self.enabled:
            self.spans.append((name, t0, t1, None, item))

    def as_records(self) -> List[Dict[str, object]]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "item": i}
            for n, t0, t1, p, i in self.spans
        ]


def write_json(path: Path, payload: Dict[str, object]) -> None:
    """Publish ``payload`` at ``path`` atomically (readers never see half a file)."""
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


# --------------------------------------------------------------------- /proc
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of ``pid`` (default: this process) in MB."""
    status = Path("/proc", str(pid or os.getpid()), "status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def cpu_seconds(pid: int) -> float:
    """``utime + stime`` of ``pid`` from ``/proc/<pid>/stat``."""
    fields = stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


# ---------------------------------------------------------------------- host
def _first_line(argv: Sequence[str]) -> str:
    try:
        out = subprocess.run(
            argv, capture_output=True, text=True, timeout=10, check=False
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.splitlines()[0].strip() if out.strip() else "unknown"


def host_record(repo_root: Path, compiler: Optional[Sequence[str]]) -> Dict[str, object]:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (repo_root / ".git").exists():
        commit = _first_line(["git", "-C", str(repo_root), "rev-parse", "HEAD"])
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": _first_line([*compiler, "--version"]) if compiler else "none",
    }
