"""``repro.engine`` — an optimising compiler and parallel runtime for LUT netlists.

PoET-BiN's selling point is that inference is *pure LUT lookups*: no
multiplies, no adds, just boolean logic.  The FPGA exploits that by
evaluating every LUT in parallel fabric; this package is the software
analogue, exploiting the 64-bit CPU word instead.  A binary signal packed as
one bit per sample turns every LUT evaluation into a handful of bitwise
word instructions that process 64 samples at once.

Since PR 3 the engine is structured as a multi-stage compiler plus a
sharded runtime rather than a one-shot translator.

Compiler
========

``ir``
    The engine IR: :class:`~repro.engine.ir.IRGraph`, a mutable,
    name-indexed, pass-friendly view of a
    :class:`~repro.core.netlist.LUTNetlist` that round-trips losslessly,
    with truth tables held as integers and the table algebra over them.

``passes``
    Ordered, individually testable optimisation passes:
    :class:`~repro.engine.passes.ConstantFoldPass` (constant propagation,
    support reduction, dead-node pruning; shared with
    ``repro.hardware.resources.prune_netlist``),
    :class:`~repro.engine.passes.FuseChainsPass` (single-fanout LUT chains
    fused into wider tables under the packed cost model — fewer levels,
    fewer Shannon mux steps),
    :class:`~repro.engine.passes.DedupTablesPass` (structurally identical
    tables collapsed to one shared node; never raises
    :func:`~repro.engine.passes.table_cost`) and
    :class:`~repro.engine.passes.DecomposePass` (LUTs wider than the
    physical fabric split onto max-``P``-input tables plus mux nodes,
    shared with ``repro.hardware.lut_decompose``).
    :func:`~repro.engine.passes.default_passes` assembles the default
    pipeline; :func:`~repro.engine.passes.optimize_netlist` runs it
    netlist-to-netlist.  :func:`~repro.engine.passes.table_cost` prices a
    program for the NumPy executor, :func:`~repro.engine.passes.mux_cost` /
    :func:`~repro.engine.passes.statement_cost` for the generated C.

``compiled_netlist``
    Lowering and execution: :func:`compile_netlist(netlist, *, passes=...,
    max_lut_inputs=...) <repro.engine.compiled_netlist.compile_netlist>`
    runs the pipeline and lowers to a
    :class:`~repro.engine.compiled_netlist.CompiledNetlist` — a
    topologically-ordered program with slot-recycled signal storage whose
    steps each evaluate all same-width LUTs of a level at once by iterated
    Shannon expansion (the bitwise mux ``f = f0 ^ ((f0 ^ f1) & x)``),
    cache-blocked to stay L2-resident; mux-shaped 3-input LUTs lower to a
    dedicated single-mux step, the software mirror of free F7/F8 muxes.
    Results are bit-identical to ``LUTNetlist.evaluate_outputs`` under
    every pipeline configuration.
    :func:`~repro.engine.compiled_netlist.build_engine` is the one place a
    backend *name* (``"numpy"``, ``"native"``, ``"native-mt"``, ``"auto"``)
    becomes an engine object, and every engine — NumPy, native, native-mt —
    shares the :class:`~repro.engine.compiled_netlist.PackedEngine` surface
    (``run_packed``, ``run_scores``, ``evaluate_outputs``/
    ``predict_batch``, ``n_primary_inputs``, ``n_outputs``, ``backend``,
    ``threads``, ``unroll``, ``close``), so callers resolve once and carry
    the object.  ``run_scores(packed, n_samples, table)`` is the bank plus
    the table-lookup read-out in one call: ``run_packed`` +
    :func:`~repro.engine.bitpack.lookup_scores` by default, fused into the
    kernel by the native engine.

``native``
    The generated-C backend:
    :func:`compile_netlist(..., backend="native") <repro.engine.compiled_netlist.compile_netlist>`
    lowers the already-flat program once more, into straight-line
    ``uint64_t`` C (per-arity-unrolled Shannon-mux expressions with the
    table constants folded at generation time, the 3-op word mux for
    mux groups, literal broadcasts for constants), builds it with the
    host toolchain into a shared object cached by source digest, and
    wraps it as a
    :class:`~repro.engine.native.NativeCompiledNetlist` with the exact
    ``run_packed``/``predict_batch`` surface — bit-exact vs NumPy and
    an order of magnitude faster — and a ``run_scores`` whose read-out is
    an epilogue of the same generated unit (table entries copied for the
    live lanes, no floating-point arithmetic in C).  ``backend="auto"``
    falls back to the NumPy engine on hosts without a C compiler.  Every
    program is built once, at the host's vector width (a K-lane GCC/Clang
    vector type, so each statement runs K words) with ``-O1
    -march=native``; ``backend="native-mt"`` is that same build with
    ``run_packed`` sharding large batches across word ranges on an
    in-process thread pool (ctypes releases the GIL), up to the core count.
    The cache is indexed by input as well: on the default pipeline a
    native compile or attach first hashes the netlist it was given into a
    ``<key>.prog`` entry holding the lowered program and its object's
    digest, so compiling the same netlist again on a warm cache — a
    restarted server or a replica registering a saved model — runs no
    passes, no lowering and no code generation.  A new netlist is a miss.

Runtime
=======

``parallel``
    :class:`~repro.engine.parallel.WorkerPool`, a persistent, model-agnostic
    process pool: netlists attach by model id before it forks (the fork
    fixes the set), workers hold a per-model engine registry, and every
    task is a ``(model_id, word_range)`` shard — so one pool serves many netlists and multiple
    in-flight requests concurrently (shared-memory IPC, per-worker compiled
    programs, the model's own engine for small batches and after a failed
    fork).  Packed 64-sample word blocks are independent, so sharded
    results are bit-identical to serial.  The pool is not an engine: more
    than one core behind an ``engine=`` or a served model is
    ``backend="native-mt"``, whose threads stay in-process.

``bitpack``
    Packs an ``(n_samples, n_signals)`` 0/1 matrix into an
    ``(n_signals, ceil(n/64))`` ``uint64`` matrix (samples along the bit
    axis, little-endian) and back, plus the packed read-outs:
    :func:`~repro.engine.bitpack.lookup_scores` — each sample's ``P``
    planes index a per-neuron score table, the output neuron as the LUT the
    paper makes it — and :func:`~repro.engine.bitpack.packed_weighted_sums`
    — per-sample integer dot products with bit-sliced word adders, what a
    layer too wide for a table (``fan_in > 16``) falls back to.

``batching``
    The shared ``predict_batch(X, batch_size=None)`` entry point.
    :class:`~repro.engine.batching.BatchedPredictorMixin` gives any
    vectorised ``predict`` a chunked batched counterpart; the PoET-BiN and
    RINC classifiers override it with the compiled fast path.  The other
    direction — many small requests merged into one evaluation — stays
    packed: the :mod:`repro.serving` queue merges request words with
    :func:`~repro.engine.bitpack.concat_packed`.

``random_netlists``
    Adversarially random LUT DAGs used by the equivalence property tests and
    the throughput benchmarks.

Usage
=====

>>> from repro.engine import compile_netlist
>>> compiled = compile_netlist(classifier.to_netlist(), max_lut_inputs=6)
>>> bits = compiled.predict_batch(X_bits)          # == netlist.evaluate_outputs(X_bits)

or simply ``classifier.predict_batch(X_bits)``, which compiles and caches
the engine on first use — and keeps PoET-BiN serving packed from the
feature bits through the RINC bank into the table-lookup read-out
(``engine_backend="native"`` picks the generated-C engine,
``"native-mt"`` the same build threaded across the host's cores).
"""

from repro.engine.batching import BatchedPredictorMixin, predict_in_batches
from repro.engine.bitpack import (
    WORD_BITS,
    concat_packed,
    lookup_scores,
    mask_padding,
    n_words,
    pack_bits,
    packed_weighted_sums,
    unpack_bits,
)
from repro.engine.compiled_netlist import (
    ENGINE_BACKENDS,
    CompiledNetlist,
    PackedEngine,
    build_engine,
    compile_netlist,
)
from repro.engine.ir import IRGraph, IRNode
from repro.engine.native import NativeCompiledNetlist, NativeUnavailableError
from repro.engine.parallel import WorkerPool, shard_bounds
from repro.engine.passes import (
    MUX_TABLE,
    ConstantFoldPass,
    DecomposePass,
    DedupTablesPass,
    FuseChainsPass,
    Pass,
    PassManager,
    default_passes,
    mux_cost,
    optimize_netlist,
    statement_cost,
    table_cost,
)
from repro.engine.random_netlists import (
    random_netlist,
    rinc_bank_netlist,
    structured_bank_netlist,
)

__all__ = [
    "BatchedPredictorMixin",
    "CompiledNetlist",
    "ConstantFoldPass",
    "DecomposePass",
    "DedupTablesPass",
    "ENGINE_BACKENDS",
    "FuseChainsPass",
    "IRGraph",
    "IRNode",
    "MUX_TABLE",
    "NativeCompiledNetlist",
    "NativeUnavailableError",
    "Pass",
    "PackedEngine",
    "PassManager",
    "WORD_BITS",
    "WorkerPool",
    "build_engine",
    "concat_packed",
    "compile_netlist",
    "default_passes",
    "lookup_scores",
    "mask_padding",
    "mux_cost",
    "n_words",
    "optimize_netlist",
    "pack_bits",
    "packed_weighted_sums",
    "predict_in_batches",
    "random_netlist",
    "rinc_bank_netlist",
    "shard_bounds",
    "statement_cost",
    "structured_bank_netlist",
    "table_cost",
    "unpack_bits",
]
