"""Compare two merged result files, row by row against each metric's bound.

    python3 benchmarks/perf/compare.py out/results-A.json out/results-B.json

For every workload x end-to-end metric it prints A, B, how much *worse* B
is than A as a share of A (negative = better), and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       it is;
``unresolved``  the spread between the run's own windows (IQR / median, on
                either side) exceeds the bound, so this pair of runs cannot
                tell — report it as unresolved, not as unchanged.

Exit code 1 when any row is ``worse``.  A verdict from one pair of runs is
a hint; a claim needs the ten alternating pairs of the choosing-metrics
guide.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import registry  # noqa: E402


def worse_by(metric: registry.Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if metric.better == "lower" else -change


def verdict(metric: registry.Metric, a: dict, b: dict) -> tuple:
    value_a, value_b = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
    worse = worse_by(metric, value_a, value_b)
    spreads = [
        side["windows"][metric.name]["window_iqr"]
        / side["windows"][metric.name]["window_median"]
        for side in (a, b)
        if metric.name in side.get("windows", {})
    ]
    if spreads and max(spreads) > metric.bound:
        return value_a, value_b, worse, "unresolved"
    return value_a, value_b, worse, "worse" if worse > metric.bound else "ok"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in argv[1:])
    any_worse = False
    print(f"{'workload':24s} {'metric':18s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
          f"{'bound':>6s}  verdict")
    for name in registry.WORKLOAD_NAMES:
        if name not in a or name not in b:
            print(f"{name:24s} missing from one side")
            continue
        for metric in registry.END_TO_END:
            value_a, value_b, worse, word = verdict(metric, a[name], b[name])
            any_worse |= word == "worse"
            print(f"{name:24s} {metric.name:18s} {value_a:12.6g} {value_b:12.6g} "
                  f"{worse:+9.1%} {metric.bound:6.0%}  {word}")
        for side, label in ((a, "A"), (b, "B")):
            if side[name]["failed"]:
                any_worse = True
                print(f"{name:24s} {label}: {side[name]['failed']} of "
                      f"{side[name]['attempted']} failed")
    return int(any_worse)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
