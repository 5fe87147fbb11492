"""Threaded native runtime (threads + SIMD) on the P=6 bank: bit-exactness.

Every native engine runs one build: C that processes the host's
``vector_lanes()`` words per statement (GCC/Clang vector extensions,
``-O1 -march=native``); ``native-mt`` splits the word range of
``run_packed`` across a persistent in-process thread pool, up to the core
count.  Every thread count must compute the same bits:

* at a 4096-sample batch, NumPy == a one-lane scalar native build == the
  ``native-mt`` engine == its build forced to 1, 2 and 4 threads;
* a one-word batch (below any shard grain) is identical on the
  ``native-mt`` and scalar engines.

These run on any host with a C toolchain, whatever its core count.  How
fast ``native-mt`` is is ``benchmarks/perf``'s ``bank_packed_mt``
workload; its one-word latency against the scalar build is report-only in
``parked_comparisons.py`` (``make bench``).
"""

import numpy as np

from repro.engine import compile_netlist, pack_bits
from repro.engine.native import NativeCompiledNetlist

from bench_utils import random_rows, require_toolchain, rinc_bank


def native_engines():
    """The P=6 bank's NumPy program, a scalar native build (1 thread,
    one lane per statement) and the ``native-mt`` engine."""
    program = compile_netlist(rinc_bank(6))
    return (
        program,
        NativeCompiledNetlist(program, unroll=1),
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
