"""Tier-2 native runtime (threads + SIMD) on the P=6 bank: bit-exactness.

The tier-2 runtime emits C that processes ``unroll`` words per statement
(GCC/Clang vector extensions, ``-O2 -march=native``) and splits the word
range of ``run_packed`` across a persistent in-process thread pool, with
the autotuner pinning the winning (threads, unroll, tier) per netlist.
Whatever it pins must compute the same bits:

* at a 4096-sample batch, NumPy == single-thread scalar native == the
  autotuned engine == the tuned build forced to 1, 2 and 4 threads;
* a one-word batch (below any shard grain) is identical on the tuned and
  scalar engines.

These run on any host with a C toolchain, whatever its core count.  How
fast the tuned engine is is ``benchmarks/perf``'s ``bank_packed_mt``
workload; the tuned-vs-scalar one-word latency ratio is report-only in
``parked_comparisons.py`` (``make bench``).
"""

import numpy as np

from repro.engine import compile_netlist, pack_bits
from repro.engine.native import NativeCompiledNetlist

from bench_utils import random_rows, require_toolchain, rinc_bank


def native_engines():
    """The P=6 bank's NumPy program, the PR-8 scalar native engine
    (1 thread, -O1) and the autotuned tier-2 engine."""
    program = compile_netlist(rinc_bank(6))
    return (
        program,
        NativeCompiledNetlist(program),
        NativeCompiledNetlist.tuned(program),
    )


def test_native_mt_bit_exact_at_large_batch():
    require_toolchain()
    program, scalar, tuned = native_engines()
    packed = pack_bits(random_rows(4096))
    reference = program.run_packed(packed)
    np.testing.assert_array_equal(scalar.run_packed(packed), reference)
    np.testing.assert_array_equal(tuned.run_packed(packed), reference)
    for threads in (1, 2, 4):
        engine = NativeCompiledNetlist(
            program,
            threads=threads,
            unroll=tuned.unroll,
            opt_tier=tuned.opt_tier,
        )
        np.testing.assert_array_equal(engine.run_packed(packed), reference)


def test_native_mt_one_word_batch_bit_exact():
    require_toolchain()
    _, scalar, tuned = native_engines()
    packed = pack_bits(random_rows(64, seed=1))
    assert packed.shape[1] == 1  # one word: below any shard grain
    np.testing.assert_array_equal(
        tuned.run_packed(packed), scalar.run_packed(packed)
    )
