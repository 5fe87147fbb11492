"""Bit-packed engine vs. naive netlist simulation throughput.

The microbenchmark evaluates RINC-bank-shaped netlists (the paper's RINC-2
topology with random tables — the engine's adversarial worst case) on a
1k-sample batch and compares three paths:

* ``naive``  — ``LUTNetlist.evaluate_outputs``, the sample-by-sample simulator;
* ``packed`` — ``CompiledNetlist.run_packed`` on pre-packed words, the pure
  evaluation cost (serving keeps signals packed between stages);
* ``e2e``    — ``CompiledNetlist.predict_batch`` including validation,
  packing and unpacking of the plain 0/1 matrices.

The acceptance gate asserts the packed engine is at least 10x faster than
the naive simulator at the paper's P=6 LUT width.  Wider LUTs pay for their
exponentially larger truth tables (the Shannon cascade does ``2**P - 1``
word muxes per node), which the P=8 row documents honestly.

The compiler-pipeline benchmarks compare the raw PR-1 lowering
(``passes=()``) against the optimising pipeline: chain fusion on
narrow-LUT netlists, and fold + fuse + fabric decomposition on P=8 banks
(gate: the pipeline must beat the raw P=8 path).  The structured-bank
benchmark measures the same pipeline on *trained-shaped* tables (decision
trees + threshold votes, ``structured_bank_netlist``) where folding prunes
hard — the serving workload, vs the adversarial random floor — gating both
the table-cost pruning ratio and the resulting speedup.  The sharding
smoke test runs a 10k-sample batch through
:class:`repro.engine.parallel.ShardedEngine` and gates a >=1.5x speedup
with at least 4 workers.

All gates re-measure with interleaved best-of rounds before failing: mins
only improve, so a noisy-neighbour CPU spike delays convergence instead of
flaking the gate.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.core.netlist import LUTNetlist
from repro.engine import (
    ShardedEngine,
    WorkerPool,
    compile_netlist,
    optimize_netlist,
    pack_bits,
    rinc_bank_netlist,
    structured_bank_netlist,
)
from repro.engine.passes import ConstantFoldPass
from repro.utils.rng import as_rng

from bench_utils import emit, record_gate

BATCH = 1024
N_FEATURES = 256
SPEEDUP_TARGET = 10.0
PIPELINE_P8_TARGET = 1.1  # optimised pipeline vs raw lowering on a P=8 bank
FUSION_TARGET = 1.1  # fused vs unfused on a chain-heavy netlist
SHARDING_TARGET = 1.5  # sharded vs serial, >= 4 workers, 10k samples
STRUCTURED_COST_TARGET = 4.0  # table-cost pruning on a trained-shaped bank
STRUCTURED_SPEEDUP_TARGET = 2.0  # optimised vs raw on the same bank


def _best_of(fn, repeats: int, inner: int = 1) -> float:
    """Best wall-clock seconds for one call of ``fn`` over ``repeats`` trials."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def _build(lut_width: int, scale: int = 1):
    netlist = rinc_bank_netlist(
        n_primary_inputs=N_FEATURES,
        n_trees=480 * scale,
        n_mats=80 * scale,
        n_outputs=10 * scale,
        lut_width=lut_width,
        seed=2,
    )
    compiled = compile_netlist(netlist)
    rng = as_rng(0)
    X = rng.integers(0, 2, size=(BATCH, N_FEATURES), dtype=np.uint8)

    # correctness first: the speed comparison is meaningless otherwise
    np.testing.assert_array_equal(compiled.predict_batch(X), netlist.evaluate_outputs(X))
    return netlist, compiled, X


def _measure(netlist, compiled, X, rounds: int = 4):
    """Interleaved best-of measurement of all three paths.

    Alternating the paths within each round keeps a noisy-neighbour CPU
    spike from hitting only one side of the comparison; the best time per
    path over all rounds is the steady-state cost.
    """
    packed = pack_bits(X)
    t_naive = t_packed = t_e2e = float("inf")
    for _ in range(rounds):
        t_naive = min(t_naive, _best_of(lambda: netlist.evaluate_outputs(X), repeats=2))
        t_packed = min(
            t_packed, _best_of(lambda: compiled.run_packed(packed), repeats=3, inner=4)
        )
        t_e2e = min(
            t_e2e, _best_of(lambda: compiled.predict_batch(X), repeats=3, inner=4)
        )
    return t_naive, t_packed, t_e2e


def test_packed_engine_speedup():
    """Packed vs. naive on the paper's P=6 netlist: >= 10x, bit-identical."""
    rows = []
    gate_parts = None
    for lut_width in (4, 6, 8):
        netlist, compiled, X = _build(lut_width, scale=2 if lut_width == 6 else 1)
        t_naive, t_packed, t_e2e = _measure(netlist, compiled, X)
        if lut_width == 6:
            # the acceptance gate; re-measure with more rounds if a noisy
            # run left the ratio short (mins only improve, so this converges
            # on the steady-state speedup instead of flaking)
            for _ in range(2):
                if t_naive / t_packed >= SPEEDUP_TARGET:
                    break
                more = _measure(netlist, compiled, X, rounds=8)
                t_naive = min(t_naive, more[0])
                t_packed = min(t_packed, more[1])
                t_e2e = min(t_e2e, more[2])
            gate_parts = (t_naive, t_packed)
        rows.append(
            f"P={lut_width}  {netlist.n_luts:4d} LUTs  {compiled.n_groups} groups  "
            f"naive {t_naive * 1e3:7.2f} ms  packed {t_packed * 1e3:6.2f} ms  "
            f"e2e {t_e2e * 1e3:6.2f} ms  "
            f"speedup {t_naive / t_packed:5.1f}x (e2e {t_naive / t_e2e:4.1f}x)"
        )
    emit(
        f"Bit-packed engine throughput ({BATCH}-sample batch, {N_FEATURES} features)",
        "\n".join(rows),
    )
    t_naive, t_packed = gate_parts
    record_gate("engine_speedup_p6", t_naive / t_packed, SPEEDUP_TARGET)
    assert t_naive / t_packed >= SPEEDUP_TARGET, (
        f"packed engine is only {t_naive / t_packed:.1f}x faster than the "
        f"naive simulator at P=6 (target {SPEEDUP_TARGET}x)"
    )


def test_packed_engine_on_trained_classifier(trained_reduced_poetbin):
    """The fast path on a *trained* PoET-BiN matches and beats the slow path."""
    clf, X, _y = trained_reduced_poetbin
    batch = X[:BATCH]
    np.testing.assert_array_equal(clf.predict_batch(batch), clf.predict(batch))

    netlist = clf.to_netlist()
    compiled = clf.compiled_netlist()
    t_naive = _best_of(lambda: netlist.evaluate_outputs(batch), repeats=5)
    t_fast = _best_of(lambda: compiled.predict_batch(batch), repeats=5, inner=3)
    emit(
        "Trained PoET-BiN netlist: packed vs naive",
        f"{netlist.n_luts} LUTs, {batch.shape[0]} samples: "
        f"naive {t_naive * 1e3:.2f} ms, packed e2e {t_fast * 1e3:.2f} ms "
        f"({t_naive / t_fast:.1f}x)",
    )
    # trained netlists are smaller and P=6; still expect a clear win
    assert t_fast < t_naive


def _interleaved_best(paths, packed, rounds, inner=3):
    """Best wall-clock seconds per path, alternated within every round."""
    best = {name: float("inf") for name in paths}
    for _ in range(rounds):
        for name, engine in paths.items():
            start = time.perf_counter()
            for _ in range(inner):
                engine.run_packed(packed)
            best[name] = min(best[name], (time.perf_counter() - start) / inner)
    return best


def _full_support_table(rng, n_inputs):
    """A random table that depends on every one of its inputs."""
    while True:
        table = rng.integers(0, 2, size=1 << n_inputs, dtype=np.uint8)
        cube = table.reshape((2,) * n_inputs)
        if all(
            not np.array_equal(
                np.take(cube, 0, axis=axis), np.take(cube, 1, axis=axis)
            )
            for axis in range(n_inputs)
        ):
            return table


def _chain_heavy_netlist(n_chains=64, length=24, seed=3):
    """Parallel single-fanout chains of narrow LUTs — fusion's best case.

    Each chain is a 3-input head followed by 2-input links that mix the
    running value with one of the chain's three feature bits, ending in a
    declared output.  Every table has full support, so constant folding and
    support reduction cannot sever links, and dead-node pruning cannot help;
    the only available win is chain fusion folding each chain back onto its
    3-bit support (``2**3 < 2**3 + 2**2`` at every step of the collapse).
    """
    rng = as_rng(seed)
    netlist = LUTNetlist(n_primary_inputs=N_FEATURES)
    for chain in range(n_chains):
        pool = rng.choice(N_FEATURES, size=3, replace=False)
        pool = [f"in{int(i)}" for i in pool]
        previous = netlist.add_node(
            f"c{chain}_head", "rinc0", pool, _full_support_table(rng, 3)
        )
        for link in range(length):
            previous = netlist.add_node(
                f"c{chain}_{link}",
                "rinc0",
                [previous, pool[int(rng.integers(3))]],
                _full_support_table(rng, 2),
            )
        netlist.mark_output(previous)
    return netlist


def test_fused_vs_unfused():
    """Chain fusion must beat the raw lowering on a chain-heavy netlist."""
    netlist = _chain_heavy_netlist()
    unfused = compile_netlist(netlist, passes=())
    fused = compile_netlist(netlist)
    X = as_rng(0).integers(0, 2, size=(BATCH, N_FEATURES), dtype=np.uint8)
    np.testing.assert_array_equal(fused.predict_batch(X), netlist.evaluate_outputs(X))
    packed = pack_bits(X)
    paths = {"unfused": unfused, "fused": fused}
    best = _interleaved_best(paths, packed, rounds=4)
    for _ in range(3):  # re-measure escalation before failing the gate
        if best["unfused"] / best["fused"] >= FUSION_TARGET:
            break
        more = _interleaved_best(paths, packed, rounds=6)
        best = {k: min(best[k], more[k]) for k in best}
    speedup = best["unfused"] / best["fused"]
    emit(
        "Chain fusion (64 chains x 1+24 narrow LUTs, 1k-sample batch)",
        f"unfused {unfused.n_nodes} LUTs / {unfused.n_groups} groups "
        f"{best['unfused'] * 1e3:6.2f} ms   fused {fused.n_nodes} LUTs / "
        f"{fused.n_groups} groups {best['fused'] * 1e3:6.2f} ms   "
        f"speedup {speedup:4.1f}x",
    )
    # every chain collapses onto its 3-bit support: one LUT per chain
    assert fused.n_nodes == 64
    assert fused.n_groups < unfused.n_groups
    record_gate("fusion_speedup", speedup, FUSION_TARGET)
    assert speedup >= FUSION_TARGET, (
        f"fusion speedup {speedup:.2f}x below the {FUSION_TARGET}x gate"
    )


def test_p8_decomposed_vs_raw():
    """Pipeline with fabric decomposition must beat the raw P=8 path.

    ``raw`` is the PR-1 one-shot lowering; ``fold+fuse`` isolates the
    cleanup passes; ``pipeline`` adds decomposition onto the 6-input fabric
    (with the dedicated mux lowering).  The gate compares the full pipeline
    against raw — the configuration serving actually uses.
    """
    netlist = rinc_bank_netlist(
        N_FEATURES, n_trees=480, n_mats=80, n_outputs=10, lut_width=8, seed=2
    )
    raw = compile_netlist(netlist, passes=())
    folded = compile_netlist(netlist)
    pipeline = compile_netlist(netlist, max_lut_inputs=6)
    X = as_rng(0).integers(0, 2, size=(BATCH, N_FEATURES), dtype=np.uint8)
    reference = netlist.evaluate_outputs(X)
    for engine in (raw, folded, pipeline):
        np.testing.assert_array_equal(engine.predict_batch(X), reference)
    packed = pack_bits(X)
    paths = {"raw": raw, "fold+fuse": folded, "pipeline": pipeline}
    best = _interleaved_best(paths, packed, rounds=4)
    for _ in range(3):
        if best["raw"] / best["pipeline"] >= PIPELINE_P8_TARGET:
            break
        more = _interleaved_best(paths, packed, rounds=6)
        best = {k: min(best[k], more[k]) for k in best}
    emit(
        f"P=8 compiler pipeline ({netlist.n_luts}-LUT RINC bank, {BATCH}-sample batch)",
        "\n".join(
            f"{name:10s} {engine.n_nodes:5d} LUTs  {best[name] * 1e3:6.2f} ms  "
            f"{best['raw'] / best[name]:4.2f}x vs raw"
            for name, engine in paths.items()
        ),
    )
    speedup = best["raw"] / best["pipeline"]
    record_gate("pipeline_p8_speedup", speedup, PIPELINE_P8_TARGET)
    assert speedup >= PIPELINE_P8_TARGET, (
        f"decomposed pipeline is only {speedup:.2f}x vs the raw P=8 path "
        f"(target {PIPELINE_P8_TARGET}x)"
    )


def _table_cost(netlist) -> int:
    """Packed evaluation cost proxy: sum of ``2^P`` over all LUTs (the
    Shannon cascade does ``2^P - 1`` word muxes per node)."""
    return sum(1 << node.n_inputs for node in netlist.nodes)


def test_structured_bank_pruning_and_speedup():
    """Trained-shaped tables: the optimiser must prune what training leaves.

    The random banks above are the adversarial floor — full-support tables
    where folding provably cannot help.  Real trained banks are nothing
    like that: RINC-0 trees touch a handful of their P inputs and MATs are
    threshold votes, so constant folding and support reduction collapse
    most of the Shannon cascade.  This gate measures the optimiser on that
    serving-shaped workload: the fold stage and the full pipeline are
    reported separately (fold does the pruning here; fusion mops up), with
    a deterministic table-cost gate and a timing gate.
    """
    netlist = structured_bank_netlist(
        N_FEATURES, n_trees=480, n_mats=80, n_outputs=10,
        lut_width=6, tree_depth=2, seed=4,
    )
    folded_netlist = optimize_netlist(netlist, passes=[ConstantFoldPass()])
    optimized_netlist = optimize_netlist(netlist)
    raw_cost = _table_cost(netlist)
    fold_cost = _table_cost(folded_netlist)
    opt_cost = _table_cost(optimized_netlist)

    raw = compile_netlist(netlist, passes=())
    optimized = compile_netlist(netlist)
    X = as_rng(0).integers(0, 2, size=(BATCH, N_FEATURES), dtype=np.uint8)
    reference = netlist.evaluate_outputs(X)
    np.testing.assert_array_equal(raw.predict_batch(X), reference)
    np.testing.assert_array_equal(optimized.predict_batch(X), reference)

    packed = pack_bits(X)
    paths = {"raw": raw, "optimized": optimized}
    best = _interleaved_best(paths, packed, rounds=4)
    for _ in range(3):  # re-measure escalation before failing the gate
        if best["raw"] / best["optimized"] >= STRUCTURED_SPEEDUP_TARGET:
            break
        more = _interleaved_best(paths, packed, rounds=6)
        best = {k: min(best[k], more[k]) for k in best}
    speedup = best["raw"] / best["optimized"]
    emit(
        f"Structured (trained-shaped) bank: fold/fuse pruning "
        f"({netlist.n_luts}-LUT depth-2 tree + threshold bank, "
        f"{BATCH}-sample batch)",
        "\n".join(
            [
                f"raw        {netlist.n_luts:4d} LUTs  cost {raw_cost:6d}  "
                f"{best['raw'] * 1e3:6.2f} ms",
                f"fold       {folded_netlist.n_luts:4d} LUTs  "
                f"cost {fold_cost:6d}  "
                f"(prune {netlist.n_luts / folded_netlist.n_luts:4.1f}x "
                f"LUTs, {raw_cost / fold_cost:4.1f}x cost)",
                f"fold+fuse  {optimized_netlist.n_luts:4d} LUTs  "
                f"cost {opt_cost:6d}  "
                f"{best['optimized'] * 1e3:6.2f} ms   speedup {speedup:4.1f}x",
            ]
        ),
    )
    # deterministic gates (seeded tables): trained structure must fold hard
    record_gate(
        "structured_cost_ratio", raw_cost / opt_cost, STRUCTURED_COST_TARGET
    )
    record_gate("structured_speedup", speedup, STRUCTURED_SPEEDUP_TARGET)
    assert raw_cost / opt_cost >= STRUCTURED_COST_TARGET, (
        f"pipeline pruned table cost only {raw_cost / opt_cost:.1f}x on the "
        f"structured bank (target {STRUCTURED_COST_TARGET}x)"
    )
    assert optimized_netlist.n_luts < folded_netlist.n_luts <= netlist.n_luts
    assert speedup >= STRUCTURED_SPEEDUP_TARGET, (
        f"optimised structured bank is only {speedup:.2f}x vs raw "
        f"(target {STRUCTURED_SPEEDUP_TARGET}x)"
    )


def _busy_kernel(rounds: int = 300) -> int:
    """A GIL-releasing numpy busy loop, the calibration workload."""
    a = np.arange(1 << 16, dtype=np.uint64)
    one = np.uint64(1)
    for _ in range(rounds):
        a = a ^ (a >> one)
    return int(a[0])


def _achievable_parallelism(n_workers: int = 2) -> float:
    """Aggregate speedup of independent forked busy loops vs one serial run.

    Container CPU quotas can make the visible cores unschedulable (a
    cgroup-throttled 2-core box can measure *0.5x* — two processes run
    slower than one).  The sharding gate asserts a parallel speedup, so it
    is only enforced where independent processes demonstrably run
    concurrently; correctness is asserted regardless.
    """
    _busy_kernel(50)  # warm the allocator before timing
    t_serial = _best_of(_busy_kernel, repeats=3)
    ctx = mp.get_context("fork")
    best_pair = float("inf")
    for _ in range(3):
        workers = [ctx.Process(target=_busy_kernel) for _ in range(n_workers)]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        best_pair = min(best_pair, time.perf_counter() - start)
    return n_workers * t_serial / best_pair


def test_sharding_scaling_smoke():
    """Sharded predict must be bit-exact and >=1.5x with >=4 workers.

    Uses a serving-sized bank (8x the paper's smallest topology) and a
    10k-sample batch so each worker's shard carries real work; the word
    count, not the netlist, is what gets split.  Worker counts beyond the
    visible core count still help on bursty multi-tenant hosts, so the gate
    takes the best of 4 and 8 workers.  On hosts whose CPU quota cannot run
    two processes concurrently at all, bit-exactness is still verified but
    the speedup assertion is skipped (see ``_achievable_parallelism``).
    """
    netlist = rinc_bank_netlist(
        N_FEATURES, n_trees=3840, n_mats=640, n_outputs=80, lut_width=6, seed=2
    )
    n_samples = 10_000
    X = as_rng(0).integers(0, 2, size=(n_samples, N_FEATURES), dtype=np.uint8)
    packed = pack_bits(X)
    serial = compile_netlist(netlist)
    engines = {}
    try:
        for n_workers in (4, 8):
            engine = ShardedEngine(
                netlist, pool=WorkerPool(n_workers=n_workers, backend="process")
            )
            np.testing.assert_array_equal(
                engine.run_packed(packed), serial.run_packed(packed)
            )
            engines[f"{n_workers} workers"] = engine
        achievable = _achievable_parallelism()
        if achievable < 1.3:
            emit(
                "Sharded serving",
                f"SKIPPED speedup gate: host runs 2 forked busy workers at "
                f"{achievable:.2f}x aggregate (CPU quota); bit-exactness "
                "verified for 4 and 8 workers",
            )
            pytest.skip(
                f"host delivers {achievable:.2f}x parallelism from 2 forked "
                f"processes; the >={SHARDING_TARGET}x sharding gate needs "
                "schedulable cores"
            )
        paths = {"serial": serial, **engines}
        best = _interleaved_best(paths, packed, rounds=2, inner=1)
        sharded_best = lambda b: min(b[k] for k in engines)  # noqa: E731
        for _ in range(5):
            if best["serial"] / sharded_best(best) >= SHARDING_TARGET:
                break
            more = _interleaved_best(paths, packed, rounds=3, inner=1)
            best = {k: min(best[k], more[k]) for k in best}
        emit(
            f"Sharded serving ({netlist.n_luts}-LUT bank, {n_samples}-sample batch)",
            "\n".join(
                f"{name:10s} {best[name] * 1e3:7.2f} ms  "
                f"{best['serial'] / best[name]:4.2f}x"
                for name in paths
            ),
        )
        speedup = best["serial"] / sharded_best(best)
        record_gate("sharding_speedup", speedup, SHARDING_TARGET)
        assert speedup >= SHARDING_TARGET, (
            f"sharded speedup {speedup:.2f}x below the {SHARDING_TARGET}x gate"
        )
    finally:
        for engine in engines.values():
            engine.pool.close()


def test_pack_unpack_overhead():
    """Packing cost is amortisable: a small fraction of one naive evaluation."""
    rng = as_rng(1)
    X = rng.integers(0, 2, size=(BATCH, N_FEATURES), dtype=np.uint8)
    t_pack = _best_of(lambda: pack_bits(X), repeats=7, inner=5)
    emit(
        "pack_bits overhead",
        f"{BATCH}x{N_FEATURES} bits packed in {t_pack * 1e3:.3f} ms",
    )
    assert t_pack < 0.1  # seconds; generous bound, it measures ~0.3 ms
