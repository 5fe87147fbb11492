"""The benchmark's one command.

Contract form (what the driver runs, from the root of a checkout)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name, unit and sample count, then — last line of
stdout — one JSON object ``{"correct", "attempted", "failed", "metrics"}``
with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).

Without ``--workload`` it runs all six, each in a supervised child process
of its own (so ``peak_rss_mb`` is per workload), and merges their records
into ``out/results-<label>.json`` for ``compare.py``.

Exit code 0 only when every output was correct, every fixture digest
matched, and nothing — process, shared-memory segment, scratch directory —
was left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1]))

from benchmarks.perf import procs, registry  # noqa: E402
from benchmarks.perf.measure import write_json  # noqa: E402


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=registry.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(registry.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--label", default=None,
        help="name of the merged results file when running all workloads",
    )
    return parser.parse_args(argv)


def _record_path(workload: str, seed: int, trace: int) -> Path:
    return procs.OUT_DIR / f"run-{workload}-seed{seed}-trace{trace}.json"


def run_workload(args: argparse.Namespace, audit: procs.Audit) -> str:
    """Run one workload; returns the contract's result line."""
    try:  # deferred: everything below needs the program under test
        from benchmarks.perf import adapters, fixtures, layers, workloads
    except ImportError as error:
        raise SystemExit(f"cannot import the program under test: {error}")
    from benchmarks.perf.measure import Tracer, host_record

    compiler = adapters.find_compiler()
    if compiler is None:
        raise SystemExit(
            "no C compiler found (set $CC or install cc/gcc/clang): five of the "
            "six workloads measure the native backend, and a silent NumPy "
            "fallback would report numbers for a different program"
        )
    fx = fixtures.build()
    fixtures.check_digests(fx.digests)
    warm_cache = procs.OUT_DIR / "native-cache"
    warm_cache.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        fixtures=fx,
        audit=audit,
        tracer=Tracer(enabled=bool(args.trace)),
        warm_cache=str(warm_cache),
    )
    result = workloads.RUNNERS[args.workload](ctx)

    units = {m.name: m.unit for m in registry.END_TO_END + registry.PER_LAYER}
    timing = dict(result.timing)
    tail = timing.pop(registry.TAIL.name)
    end_to_end: Dict[str, float] = {
        "setup_s": result.setup_s,
        "peak_rss_mb": result.peak_rss_mb,
        **{name: w.value for name, w in timing.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(procs.REPO_ROOT, compiler),
        "fixture_digests": fx.digests,
        "fixture_s": fx.fixture_s,
        "setup_runs_s": result.setup_runs_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "end_to_end": end_to_end,
        "windows": {name: w.describe() for name, w in result.timing.items()},
        "info": result.info,
    }
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"fixture_s={fx.fixture_s:.2f} (info) item={registry.BY_NAME[args.workload].item}")
    support = {"setup_s": f"n={len(result.setup_runs_s)}", "peak_rss_mb": "n=1"}
    for name, windowed in timing.items():
        support[name] = f"n={windowed.n}, window IQR {windowed.iqr:.6g}"
    for name, value in end_to_end.items():
        print(f"# {name} = {value:.6g} {units[name]} ({support[name]})")
    print(f"# {registry.TAIL.name} = {tail.value:.6g} us (n={tail.n}, window IQR "
          f"{tail.iqr:.6g}; p{registry.BY_NAME[args.workload].tail_percentile}, unbounded)")
    print(f"# failed {result.failed} of {result.attempted} attempted")

    if args.trace:
        detail: dict = {}
        per_layer = dict.fromkeys((m.name for m in registry.PER_LAYER), 0.0)
        per_layer.update(layers.measure_all(ctx, detail))
        per_layer.update(result.layer)
        per_layer[registry.TAIL.name] = tail.value
        unknown = set(per_layer) - set(units)
        if unknown:
            raise RuntimeError(f"per-layer rows missing from the registry: {unknown}")
        record["per_layer"] = per_layer
        record["per_layer_detail"] = detail
        record["host"]["native_mt"] = (
            f"{per_layer['native_mt.threads']:g} threads x "
            f"{per_layer['native_mt.unroll']:g} lanes"
        )
        for name, value in per_layer.items():
            print(f"# {name} = {value:.6g} {units[name]}")
        write_json(
            procs.OUT_DIR / f"trace-{args.workload}.json",
            {"workload": args.workload, "seed": args.seed, "detail": detail,
             "spans": ctx.tracer.as_records()},
        )
        metrics = per_layer
    else:
        metrics = end_to_end
    write_json(_record_path(args.workload, args.seed, args.trace), record)
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    })


def run_all(args: argparse.Namespace) -> str:
    """Each workload in a child of its own; merge their records."""
    merged = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in registry.WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            argv = [
                str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            with procs.child(argv, dict(os.environ)) as proc:
                for line in proc.stdout:
                    print(line.decode().rstrip())
                code = proc.wait()
            if code != 0:
                raise SystemExit(f"workload {name} (trace {trace}) exited with {code}")
            record = json.loads(_record_path(name, args.seed, trace).read_text())
            slot = merged["workloads"].setdefault(name, {})
            if trace:
                slot["per_layer"] = record["per_layer"]
            else:
                slot.update(record)
    label = args.label or f"seed{args.seed}"
    path = procs.OUT_DIR / f"results-{label}.json"
    write_json(path, merged)
    return f"# merged record: {path}"


def _interrupt(signum, frame) -> None:
    """SIGTERM unwinds like Ctrl-C, so children are reaped on either."""
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _interrupt)
    audit = procs.Audit()
    last_line, code = None, 1
    try:
        last_line = run_workload(args, audit) if args.workload else run_all(args)
        code = 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    finally:
        findings = audit.leftovers()
        for finding in findings:
            print(f"LEFT BEHIND: {finding}", file=sys.stderr)
        if findings:
            code = code or 3
    if code == 0:
        print(last_line)
        if args.workload and json.loads(last_line)["correct"] is not True:
            code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
