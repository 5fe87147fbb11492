"""Bit-packed engine and pass pipeline: the facts, on benchmark-sized netlists.

Every test here is deterministic — bit-exactness against
``LUTNetlist.evaluate_outputs`` (the one oracle) or an exact structural
count — on the same seeded netlists the throughput comparisons use:

* RINC-bank-shaped netlists (the paper's RINC-2 topology with random
  tables — the engine's adversarial worst case) at P=4/6/8;
* a chain-heavy netlist that fusion must collapse ``1600 -> 64`` LUTs and
  ``25 -> 1`` level groups;
* the P=8 bank through the raw lowering, fold+fuse, and the pipeline with
  fabric decomposition onto 6-input LUTs;
* a *trained-shaped* bank (decision trees + threshold votes,
  ``structured_bank_netlist``) whose table cost the pipeline must prune
  ``36480 -> 2535`` (14.39x);
* a serving-sized bank sharded over 4 and 8 pool workers.

A pass-pipeline change therefore shows up as a diff in a number, not as a
slower stopwatch.  Speed is judged elsewhere: packed-vs-naive and
``pack_bits`` cost by ``benchmarks/perf`` (``classify_bits_default``,
``numpy.ns_per_lutword``, ``bitpack.pack_ns_per_sample``); the fusion,
P=8 pipeline, structured-bank and sharding stopwatches are report-only in
``parked_comparisons.py`` (``make bench``), which imports the builders
below.
"""

from __future__ import annotations

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

from bench_utils import BATCH, N_FEATURES, emit, random_rows, rinc_bank


@pytest.mark.parametrize("lut_width,scale", [(4, 1), (6, 2), (8, 1)])
def test_packed_engine_bit_exact(lut_width, scale):
    """Packed NumPy engine == naive simulator on the P=4/6/8 banks."""
    netlist = rinc_bank(lut_width, scale)
    X = random_rows()
    np.testing.assert_array_equal(
        compile_netlist(netlist).predict_batch(X), netlist.evaluate_outputs(X)
    )


def test_packed_engine_on_trained_classifier(trained_reduced_poetbin):
    """The fast path on a *trained* PoET-BiN matches the slow path."""
    clf, X, _y = trained_reduced_poetbin
    batch = X[:BATCH]
    np.testing.assert_array_equal(clf.predict_batch(batch), clf.predict(batch))


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


def chain_heavy_netlist(n_chains=64, length=24, seed=3):
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


def test_chain_fusion_counts():
    """Every chain collapses onto its 3-bit support: 1600 -> 64 LUTs, 25 -> 1 groups."""
    netlist = chain_heavy_netlist()
    unfused = compile_netlist(netlist, passes=())
    fused = compile_netlist(netlist)
    X = random_rows()
    np.testing.assert_array_equal(fused.predict_batch(X), netlist.evaluate_outputs(X))
    assert (unfused.n_nodes, unfused.n_groups) == (1600, 25)
    assert (fused.n_nodes, fused.n_groups) == (64, 1)


def p8_engines():
    """The P=8 bank and its three lowerings.

    ``raw`` is the PR-1 one-shot lowering; ``fold+fuse`` isolates the
    cleanup passes; ``pipeline`` adds decomposition onto the 6-input fabric
    (with the dedicated mux lowering) — the configuration serving uses.
    """
    netlist = rinc_bank(8)
    return netlist, {
        "raw": compile_netlist(netlist, passes=()),
        "fold+fuse": compile_netlist(netlist),
        "pipeline": compile_netlist(netlist, max_lut_inputs=6),
    }


def test_p8_pipeline_bit_exact():
    """Raw, fold+fuse and fabric-decomposed P=8 lowerings all match the oracle."""
    netlist, engines = p8_engines()
    X = random_rows()
    reference = netlist.evaluate_outputs(X)
    for engine in engines.values():
        np.testing.assert_array_equal(engine.predict_batch(X), reference)


def table_cost(netlist) -> int:
    """Packed evaluation cost proxy: sum of ``2^P`` over all LUTs (the
    Shannon cascade does ``2^P - 1`` word muxes per node)."""
    return sum(1 << node.n_inputs for node in netlist.nodes)


def structured_bank() -> LUTNetlist:
    return structured_bank_netlist(
        N_FEATURES, n_trees=480, n_mats=80, n_outputs=10,
        lut_width=6, tree_depth=2, seed=4,
    )


def test_structured_bank_pruning():
    """Trained-shaped tables: the optimiser must prune what training leaves.

    The random banks above are the adversarial floor — full-support tables
    where folding provably cannot help.  Real trained banks are nothing
    like that: RINC-0 trees touch a handful of their P inputs and MATs are
    threshold votes, so constant folding and support reduction collapse
    most of the Shannon cascade (fold does the pruning here; fusion mops
    up).  The tables are seeded, so the costs are exact.
    """
    netlist = structured_bank()
    folded = optimize_netlist(netlist, passes=[ConstantFoldPass()])
    optimized = optimize_netlist(netlist)
    raw_cost, fold_cost, opt_cost = map(table_cost, (netlist, folded, optimized))
    emit(
        f"Structured (trained-shaped) bank: fold/fuse pruning "
        f"({netlist.n_luts}-LUT depth-2 tree + threshold bank)",
        "\n".join(
            [
                f"raw        {netlist.n_luts:4d} LUTs  cost {raw_cost:6d}",
                f"fold       {folded.n_luts:4d} LUTs  cost {fold_cost:6d}",
                f"fold+fuse  {optimized.n_luts:4d} LUTs  cost {opt_cost:6d}  "
                f"({raw_cost / opt_cost:.6f}x)",
            ]
        ),
    )
    assert (raw_cost, opt_cost) == (36480, 2535)
    assert optimized.n_luts < folded.n_luts <= netlist.n_luts

    X = random_rows()
    reference = netlist.evaluate_outputs(X)
    for engine in (compile_netlist(netlist, passes=()), compile_netlist(netlist)):
        np.testing.assert_array_equal(engine.predict_batch(X), reference)


SHARD_WORKERS = (4, 8)


def sharding_bank() -> LUTNetlist:
    """A serving-sized bank (8x the paper's smallest topology), so each
    worker's shard of a 10k-sample batch carries real work; the word count,
    not the netlist, is what gets split."""
    return rinc_bank_netlist(
        N_FEATURES, n_trees=3840, n_mats=640, n_outputs=80, lut_width=6, seed=2
    )


def test_sharded_engine_bit_exact():
    """A 10k-sample batch sharded over 4 and 8 workers equals the serial run."""
    netlist = sharding_bank()
    packed = pack_bits(random_rows(10_000))
    reference = compile_netlist(netlist).run_packed(packed)
    for n_workers in SHARD_WORKERS:
        engine = ShardedEngine(
            netlist, pool=WorkerPool(n_workers=n_workers, backend="process")
        )
        try:
            np.testing.assert_array_equal(engine.run_packed(packed), reference)
        finally:
            engine.pool.close()
