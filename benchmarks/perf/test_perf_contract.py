"""Tier-1 smoke for the benchmark: names, schema, digests, child reaping.

No timing, no server, no C compile; leaves the tree as it found it.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import fixtures, procs, registry, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_registry():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == registry.benchmark_json()


def test_runner_knows_exactly_the_declared_workloads():
    assert list(workloads.RUNNERS) == registry.WORKLOAD_NAMES


def test_schema_limits():
    spec = registry.benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) < 64 * 1024
    for part in spec["command"] + spec["paths"]:
        assert not part.startswith("/") and ".." not in part


def test_synthetic_fixture_digests_are_stable_and_frozen():
    first = {k: fixtures.netlist_digest(v) for k, v in fixtures.synthetic_programs().items()}
    again = {k: fixtures.netlist_digest(v) for k, v in fixtures.synthetic_programs().items()}
    assert first == again
    frozen = json.loads(fixtures.DIGEST_FILE.read_text())
    assert set(frozen) == set(first) | {"clf_p6"}
    assert {k: frozen[k] for k in first} == first


def test_reap_kills_a_child_that_ignores_sigterm():
    stubborn = (
        "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
        "print('up', flush=True); time.sleep(600)"
    )
    with procs.child(["-c", stubborn], dict(os.environ)) as proc:
        assert proc.stdout.readline().strip() == b"up"
        pid = proc.pid
        t0 = time.monotonic()
        procs.reap(proc, grace_s=0.2)
        assert time.monotonic() - t0 < 5.0
    assert proc.returncode == -9
    assert not Path("/proc", str(pid)).exists()
    assert pid not in procs.descendants(os.getpid())
    assert procs.Audit().leftovers() == []
