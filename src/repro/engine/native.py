"""Generated-C native backend for the packed evaluator.

:class:`~repro.engine.compiled_netlist.CompiledNetlist` already lowers a
netlist to a flat, topologically-ordered, slot-allocated word program — but
executing it still means a Python loop dispatching NumPy kernels group by
group, with every mux step writing its intermediate back to memory.  This
module lowers that same program one step further, into C source of
straight-line word statements:

* every LUT becomes an unrolled Shannon-mux expression over its input
  slots, built MSB-first exactly like the NumPy cascade, with the table
  constants folded away at generation time (a leaf pair ``(0, ~0)`` is just
  the address bit; constant arms degrade muxes to ``&``/``|``; identical
  cofactor subtrees are shared through a per-node memo) — for trained,
  structured tables most of the tree collapses;
* mux-shaped 3-input LUTs keep their dedicated 3-op ``a ^ ((a ^ b) & sel)``
  lowering, and arity-0 constants become literal broadcasts;
* the statements are wrapped in ``seg*`` functions, each closed before its
  *emitted statements* — mux-tree temps and slot stores, of which one node
  can be dozens — would pass ``_SEGMENT_STATEMENTS``: past a few hundred
  statements per function GCC's allocator and schedulers hit their size
  caps, and both the build and the code get slower.  A per-word driver
  calls them in order: one ``W s[n_slots]`` stack array holds the whole
  live state, so the working set is L1-resident instead of a word-matrix
  walk through L2;
* the driver, the exports and the read-out form a translation unit of
  their own, and consecutive segments are grouped into segment units of at
  most ``_UNIT_STATEMENTS`` statements, cut where the program says and
  nowhere the host does (the source and its digest never depend on a core
  count).  The units travel in the one source string, behind marker lines,
  and :func:`build_shared_object` compiles them concurrently.  Every
  segment has hidden visibility: a direct call, not an export;
* the exported entry points are ``run_range(in, out, lo, hi, n_words)``,
  which writes only word columns ``[lo, hi)`` of the full-stride planes —
  what makes in-process word sharding possible — and
  ``run_scores_range(in, table, scores, lo, hi, n_words, n_samples,
  n_groups, p)``, the same word program followed by a read-out epilogue:
  each word's outputs stay in a stack-local block and, for the live lanes
  only, output bits ``g*p .. g*p+p-1`` index ``table[g]`` and the entry is
  copied to ``scores[sample][g]``.  The epilogue is generic in
  ``(n_groups, p)``, so the build is keyed by the netlist alone (retraining
  a read-out never recompiles), and it does no floating-point arithmetic —
  scores are moved as 64-bit patterns, so bit-exactness cannot depend on
  compiler flags.

One build per program: the host's vector width and flags
========================================================

The statements are generated against an abstract word type ``W``.  With
``unroll=1`` that is plain ``uint64_t`` (the PR-8 program).  With
``unroll=K`` it is instantiated once, at K lanes of a GCC/Clang vector type
(``vector_size(K*8)``): each statement processes ``64*K`` samples per
operation on SIMD registers.  No scalar twin: a ragged range ends in one
*padded block* — the live words in a zeroed K-word stack block, through the
same program, only words below ``hi`` written back — so every word count is
bit-exact.

Every engine runs one build, decided by one ``cc -O1 -march=native -dM -E``
probe per process and compiler: K is 8 when the target predefines
``__AVX512F__``, else 4 (:func:`vector_lanes`).  The segment units, where
the compiler spends nearly all of a cold build, are compiled at ``-Og
-march=native``: half the compiler time of ``-O1`` for the same kernel
speed.  The driver unit is small and its loops — the padded block and the
read-out — are hot in every ``run_scores``, so it keeps ``-O1
-march=native``.  When the compiler rejects the probe both drop
``-march=native``, still at 4 lanes through GCC's generic vector lowering
(docs/architecture.md has the sweep).

Because the generated code keeps no global state (the word loop's state
lives on the C stack) a loaded program is thread-safe, and ``ctypes``
releases the GIL for the duration of every call.  ``"native-mt"`` is the
same build with ``threads`` up to the core count: a *Python*
``ThreadPoolExecutor`` runs ``run_range`` calls on disjoint word ranges —
chosen over a pthread pool compiled into each ``.so`` because (a) the GIL
is already released, so Python threads reach the same parallelism, (b) one
process-wide executor is shared by every engine instead of one pthread pool
per generated object, and (c) the generated C stays dependency-free and
trivially portable.  Each call picks its own shard count from the batch:
shards below ``min_words_per_thread`` words are never cut, so small-batch
latency is identical to the single-threaded engine and nothing is measured
at attach.

The source is compiled at attach time with the host toolchain (``$CC``,
else ``cc``/``gcc``/``clang``) into a shared object cached under a digest of
the generated source, build commands and target CPU, so recompiling the same
netlist — in this process, a forked worker, or tomorrow's process — reuses
one build.
Concurrent builders of the same digest serialise on a ``<digest>.lock``
file, so exactly one build runs per digest per host and the losers reuse
the winner's atomically-published object.
The cache is keyed by the input too: ``compile_netlist`` and
``attach_engine`` on the default pipeline hash the netlist they were given
(with the fabric width, the host's build and the source of the pipeline's
own modules) into a ``<key>.prog`` index holding the source digest and the
lowered program.  What it serves is a netlist compiled *again* on a warm
cache — a restarted server or a replica registering a saved model: that
runs no passes, no lowering and no code generation, and ``c_source`` is
generated only when read.  A new netlist (a new model version) is always
a miss, which costs the key and one index write on top of the build.
:class:`NativeCompiledNetlist` wraps the loaded object behind the exact
``run_packed``/``evaluate_outputs``/``predict_batch`` surface of the NumPy
engine and is bit-exact against it (the equivalence suite is the gate).
:meth:`NativeCompiledNetlist.attach` — a classifier's engine cache —
returns before the compiler runs and answers on the NumPy program it
wraps until one background thread's build lands.

When no C toolchain is present every entry point raises
:class:`NativeUnavailableError`; ``compile_netlist(backend="auto")`` and
the serving layer degrade to the NumPy engine instead of failing.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import marshal
import os
import pickle
import re
import shlex
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.bitpack import check_score_table, n_words
from repro.engine.compiled_netlist import (
    CompiledNetlist,
    PackedEngine,
    _Group,
    _MuxGroup,
)
from repro.engine.ir import mux_ops

try:  # POSIX only; on other platforms builds fall back to the atomic-rename race
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "NativeCompiledNetlist",
    "NativeUnavailableError",
    "default_thread_count",
    "find_compiler",
    "generate_c_source",
    "shared_object_cache_dir",
]

#: the flags of the driver unit (the word loop, the padded block and the
#: ``copy_scores`` read-out, hot in every ``run_scores``), and of the probe
#: (see _host_build).  -march=native lets the vector type use the host's
#: widest register; a compiler that rejects it builds both kinds of unit
#: without it.  At -Og the read-out runs 15-20 % slower on 2048+ samples
_CFLAGS = ("-O1", "-march=native")

#: the flags of every segment unit: on the straight-line ``seg*`` bodies
#: -Og costs about half the compiler time of -O1 for the same kernel speed,
#: and -O0 is no cheaper (docs/architecture.md has the sweep)
_SEGMENT_CFLAGS = ("-Og", "-march=native")

#: a thread shard below this many packed words (64 samples each) is not
#: worth the submit/wake cost — batches under ``threads * grain`` words
#: run on fewer shards, and under ``2 * grain`` words stay single-threaded
DEFAULT_MIN_WORDS_PER_THREAD = 32

#: a ``seg*`` function closes before its *emitted statements* (mux-tree
#: temps and slot stores, not nodes) would pass this — GCC's allocator and
#: schedulers cap out on functions of thousands of statements and both the
#: build and the kernel pay for it; docs/architecture.md has the sweep
_SEGMENT_STATEMENTS = 250

#: consecutive segments are grouped into translation units of at most this
#: many statements, which :func:`build_shared_object` compiles concurrently
_UNIT_STATEMENTS = 4000

#: the line between two translation units in a generated source — a comment,
#: so the whole string (what is kept as ``<digest>.c``) also compiles as one
_UNIT_MARKER = "/* ---- next translation unit ---- */\n"

#: linkage of a segment function called from another unit: a direct call
#: (no PLT) the shared object does not export
_HIDDEN = '__attribute__((visibility("hidden")))'

_UNIT_PRELUDE = (
    "#include <stdint.h>",
    "#include <stddef.h>",
    "",
    "/* C0/C1 broadcast against whichever word type W is in effect. */",
    "#define C0 ((W){0})",
    "#define C1 (~(W){0})",
    "",
)

#: how a compiler is started: leading a process group of its own (see
#: :func:`_run_compilers`) in the caller's session; before Python 3.11 only
#: a session of its own gives it a group
_OWN_PROCESS_GROUP = (
    {"process_group": 0} if sys.version_info >= (3, 11) else {"start_new_session": True}
)

_ENV_CACHE_DIR = "REPRO_NATIVE_CACHE"
_ENV_CC = "CC"

#: the modules whose code decides the program and the source a netlist
#: compiles to: their source bytes salt every ``<key>.prog`` name, so an
#: edit to any of them makes every index entry a miss
_PIPELINE_MODULES = (
    "repro.core.netlist",
    "repro.engine.ir",
    "repro.engine.passes",
    "repro.engine.compiled_netlist",
    "repro.engine.native",
)

_UNSET = object()
_compiler_cache: object = _UNSET
#: what :func:`_pipeline_salt` read, once per process
_salt: Optional[bytes] = None
_compiler_lock = threading.Lock()

#: ``((driver flags, segment flags), vector lanes, target)``
_HostBuild = Tuple[Tuple[Tuple[str, ...], Tuple[str, ...]], int, str]
#: compiler command -> what :func:`_host_build` learned
_host_builds: Dict[Tuple[str, ...], _HostBuild] = {}

#: ``(commands, digest, so_path)``: a build as :func:`_plan_build` plans it
_Plan = Tuple[List[List[str]], str, str]

#: digest -> loaded (CDLL, run_range, run_scores_range) so every instance
#: of the same program in one process shares a single dlopen handle
_loaded_libs: Dict[str, Tuple[ctypes.CDLL, object, object]] = {}
_loaded_lock = threading.Lock()

_WORD_PTR = ctypes.POINTER(ctypes.c_uint64)

#: the process-wide executor shard calls run on; daemon threads, created
#: lazily, shared by every engine so N models never stack N thread pools
_executor: Optional[ThreadPoolExecutor] = None
_executor_lock = threading.Lock()


class NativeUnavailableError(RuntimeError):
    """The native backend cannot run here (no toolchain, or a build failed).

    ``compile_netlist(backend="native")`` propagates this;
    ``backend="auto"`` catches it and falls back to the NumPy engine.
    """


# ---------------------------------------------------------------- toolchain
def find_compiler() -> Optional[List[str]]:
    """The C compiler command to use, or ``None`` when the host has none.

    ``$CC`` wins when set (split shell-style, resolved on ``$PATH``);
    otherwise the first of ``cc``/``gcc``/``clang`` found.  The result is
    cached for the process; tests monkeypatch this function directly.
    """
    global _compiler_cache
    with _compiler_lock:
        if _compiler_cache is _UNSET:
            _compiler_cache = _discover_compiler()
        return _compiler_cache  # type: ignore[return-value]


def _discover_compiler() -> Optional[List[str]]:
    env_cc = os.environ.get(_ENV_CC)
    if env_cc:
        parts = shlex.split(env_cc)
        if parts and shutil.which(parts[0]):
            return parts
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return [path]
    return None


def toolchain_available() -> bool:
    """Whether the native backend can build on this host."""
    return find_compiler() is not None


def _host_build(compiler: Sequence[str]) -> _HostBuild:
    """``((driver flags, segment flags), lanes, target)`` of every build
    with ``compiler``, from one ``cc -O1 -march=native -dM -E`` query per
    process and compiler: :data:`_CFLAGS` and :data:`_SEGMENT_CFLAGS`, at 8
    lanes (512 bits) when the query predefines ``__AVX512F__`` and 4
    otherwise — or, when the compiler rejects it, both without
    ``-march=native`` at 4 lanes (GCC's generic vector lowering, still
    bit-exact).  ``target`` digests the query's macros — the compiler
    version and the CPU features ``-march=native`` resolved to — and keys
    every build, so hosts sharing a cache directory never load each other's
    objects."""
    key = tuple(compiler)
    with _compiler_lock:
        if key not in _host_builds:
            try:
                macros = subprocess.run(
                    [*key, *_CFLAGS, "-dM", "-E", "-x", "c", os.devnull],
                    stdin=subprocess.DEVNULL, capture_output=True,
                    text=True, timeout=60, check=True,
                ).stdout
                target = hashlib.sha256(macros.encode()).hexdigest()[:16]
                lanes = 8 if "__AVX512F__" in macros.split() else 4
                build = ((_CFLAGS, _SEGMENT_CFLAGS), lanes, target)
            except (OSError, subprocess.SubprocessError):  # [:1]: no -march
                build = ((_CFLAGS[:1], _SEGMENT_CFLAGS[:1]), 4, "generic")
            _host_builds[key] = build
        return _host_builds[key]


def vector_lanes() -> int:
    """Words per statement of every build on this host: 8 where the
    compiler targets AVX-512, else 4 (see :func:`_host_build`)."""
    compiler = find_compiler()
    return 4 if compiler is None else _host_build(compiler)[1]


def default_thread_count() -> int:
    """The thread count of ``"native-mt"`` before its cap: the core count."""
    return os.cpu_count() or 1


def shared_object_cache_dir() -> str:
    """The directory compiled shared objects are cached in.

    ``$REPRO_NATIVE_CACHE`` when set, else a per-user directory under the
    system temp root.  Forked workers inherit the same path, so a model the
    parent compiled at attach time is a file-cache hit in every worker.
    The per-user default is trusted only as a private directory (see
    :func:`_cache_directory`); the variable is the operator's own choice.
    """
    override = os.environ.get(_ENV_CACHE_DIR)
    if override:
        return override
    try:
        user = f"-{os.geteuid()}"
    except AttributeError:  # pragma: no cover - non-POSIX
        user = ""
    return os.path.join(tempfile.gettempdir(), f"repro-native{user}")


# ------------------------------------------------------------------ codegen
#: C text of :func:`~repro.engine.ir.mux_ops` forms 0-3: (temp, live arm, input)
_ARM_FORMS = ("W %s = %s & %s;", "W %s = %s & ~%s;", "W %s = %s | ~%s;", "W %s = %s | %s;")


def _emit_lut(
    statements: List[str],
    temp_counter: List[int],
    bits: int,
    input_exprs: List[str],
) -> str:
    """Emit statements computing ``table[address]`` for one LUT node.

    ``bits`` is the truth table as an integer and ``input_exprs[0]`` the
    address MSB, matching the NumPy cascade and the netlist's
    ``binary_to_index`` convention.  One ``W t<k> = ...;`` per op of
    :func:`repro.engine.ir.mux_ops` (constants folded, equal cofactors
    shared), declared with the abstract word type ``W`` so the stream
    instantiates as scalar or K-lane vector.  Returns the C expression (a
    temp, an input, or a constant) holding the node's value.
    """
    ops, root = mux_ops(bits, len(input_exprs))
    base = temp_counter[0]
    temp_counter[0] += len(ops)
    # indexed by mux_ops' references: op k from the front, -1/-2 the
    # constants and -3 - 2d / -4 - 2d input d and its complement from the back
    names = [f"t{base + k}" for k in range(len(ops))]
    for x in reversed(input_exprs):
        names += (f"~{x}", x)
    names += ("C1", "C0")
    for k, (form, a, b, depth) in enumerate(ops):
        x = input_exprs[depth]
        if form == 4:
            a, b = names[a], names[b]
            statements.append(f"W {names[k]} = {a} ^ (({a} ^ {b}) & {x});")
        else:  # one arm is a constant: odd forms keep a, even forms keep b
            arm = names[a if form & 1 else b]
            statements.append(_ARM_FORMS[form] % (names[k], arm, x))
    return names[root]


def _node_blocks(program: CompiledNetlist) -> List[Tuple[str, int]]:
    """One ``(C text, emitted statements)`` pair per node, in program order.

    A mux or constant node is one statement; a LUT node is a brace block of
    its mux-tree temps plus the slot store — up to 2**arity statements, so
    the packers below budget by the count, not by the node.
    """
    blocks: List[Tuple[str, int]] = []
    temp_counter = [0]
    for group in program._groups:
        outs = group.output_slots.tolist()
        slots = group.input_slots.tolist()
        if isinstance(group, _MuxGroup):
            for out, (sel, a, b) in zip(outs, slots):
                blocks.append(
                    (f"s[{out}] = s[{a}] ^ ((s[{a}] ^ s[{b}]) & s[{sel}]);", 1)
                )
            continue
        assert isinstance(group, _Group)
        # each row's table as the integer mux_ops walks, cut from one blob
        packed = np.packbits(group.table_words[:, :, 0] != 0, axis=1, bitorder="little")
        width = packed.shape[1]
        blob = packed.tobytes()
        for row, out in enumerate(outs):
            bits = int.from_bytes(blob[row * width : (row + 1) * width], "little")
            if group.arity == 0:
                blocks.append((f"s[{out}] = {'C1' if bits else 'C0'};", 1))
                continue
            statements: List[str] = []
            input_exprs = [f"s[{v}]" for v in slots[row]]
            value = _emit_lut(statements, temp_counter, bits, input_exprs)
            body = " ".join(statements)
            blocks.append(
                (f"{{ {body} s[{out}] = {value}; }}", len(statements) + 1)
            )
    return blocks


def _pack(weights: Sequence[int], budget: int) -> List[range]:
    """Consecutive index ranges whose summed weight stays within ``budget``.

    A range closes before the next item would take it past the budget, so
    the only over-budget range is a single item that alone exceeds it.
    """
    ranges: List[range] = []
    start = total = 0
    for index, weight in enumerate(weights):
        if index > start and total + weight > budget:
            ranges.append(range(start, index))
            start, total = index, 0
        total += weight
    if start < len(weights):
        ranges.append(range(start, len(weights)))
    return ranges


#: the read-out epilogue of ``run_scores_range``: ``out`` is a block of ``k``
#: words per output plane.  Eight samples at a time: ``spread8`` puts bit
#: ``i`` of a plane byte into byte ``i`` of a word, so OR-ing the ``p``
#: spread planes, each shifted by its bit position, builds eight indices at
#: once (bits 8..15 of a wide index in a second word).  ``uint64_t``
#: throughout — table entries are moved, never interpreted as numbers, so
#: no compiler flag can change a score
_SCORES_EPILOGUE = """\
static inline uint64_t spread8(uint64_t byte) {
uint64_t x = (byte * 0x0101010101010101ULL) & 0x8040201008040201ULL;
return ((x + 0x7F7F7F7F7F7F7F7FULL) >> 7) & 0x0101010101010101ULL;
}

static void copy_scores(const uint64_t* restrict out, size_t k, size_t w,
 const uint64_t* restrict table, uint64_t* restrict scores,
 size_t n_samples, size_t n_groups, size_t p) {
for (size_t j = 0; j < k; ++j) {
size_t first = (w + j) * 64;
if (first >= n_samples) return;
size_t lanes = n_samples - first < 64 ? n_samples - first : 64;
for (size_t g = 0; g < n_groups; ++g) {
const uint64_t* plane = out + g * p * k + j;
const uint64_t* row = table + (g << p);
uint64_t* dst = scores + first * n_groups + g;
for (size_t s = 0; s < lanes; s += 8) {
uint64_t lo = 0, hi = 0;
for (size_t b = 0; b < p && b < 8; ++b)
 lo |= spread8((plane[b * k] >> s) & 255) << b;
for (size_t b = 8; b < p; ++b)
 hi |= spread8((plane[b * k] >> s) & 255) << (b - 8);
size_t live = lanes - s < 8 ? lanes - s : 8;
for (size_t t = 0; t < live; ++t)
 dst[(s + t) * n_groups] =
  row[((lo >> (8 * t)) & 255) | (((hi >> (8 * t)) & 255) << 8)];
}
}
}
}
"""


#: widest fan-in ``copy_scores`` indexes: two spread bytes per lane
_MAX_FUSED_FAN_IN = 16


def generate_c_source(program: CompiledNetlist, unroll: Optional[int] = None) -> str:
    """The C source evaluating ``program``, ready for
    :func:`build_shared_object`; ``unroll`` defaults to the host's
    :func:`vector_lanes`, the build every engine runs.

    Deterministic for a given ``(program, unroll)`` — segment and unit
    boundaries follow from the emitted statement counts alone, never from
    the host — so its digest keys the shared-object cache: the parent
    process and every forked worker regenerate the same bytes and share
    one build.

    The statement stream is instantiated once: over ``uint64_t`` at
    ``unroll=1``, over a K-lane GCC/Clang vector type at ``unroll=K``.
    Both exports (``run_range`` and the fused read-out
    ``run_scores_range``, see the module docstring) run whole K-word blocks
    and end a ragged range in one zero-padded block that writes nothing at
    or past ``hi`` — bit-exact for every word count, and adjacent ranges
    may run in any order.

    The source is one driver unit and the segment units, in the one
    string, joined by ``_UNIT_MARKER`` lines: the driver unit holds the
    driver, the exports and the read-out and declares every segment; each
    segment unit holds nothing but ``seg*`` functions of hidden visibility,
    at most ``_UNIT_STATEMENTS`` statements of them.  :func:`_compile`
    builds the two kinds with different flags.
    """
    k = vector_lanes() if unroll is None else unroll
    if k < 1:
        raise ValueError("unroll must be >= 1")
    blocks = _node_blocks(program)
    counts = [count for _, count in blocks]
    segments = _pack(counts, _SEGMENT_STATEMENTS)
    units = _pack(
        [sum(counts[i] for i in segment) for segment in segments], _UNIT_STATEMENTS
    )
    if k == 1:
        word_type = "typedef uint64_t w1;"
    else:
        # may_alias: the lanes are loaded straight out of the uint64 planes,
        # so the vector type must be allowed to alias them; aligned(8):
        # packed planes are only word-aligned
        word_type = (
            f"typedef uint64_t w{k} __attribute__((vector_size({k * 8}),"
            " aligned(8), may_alias));"
        )

    n_slots, n_in = max(program.n_slots, 1), max(program.n_primary_inputs, 1) * k
    n_out = max(program.n_outputs, 1) * k
    stack_blocks = (f"uint64_t bin[{n_in}];", f"uint64_t bout[{n_out}];")

    def run_block(words: str) -> List[str]:
        """Run ``words`` words from ``w`` on as one ``k``-word stack block,
        gathered compactly (the outputs then land compact too) and, in a
        padded block, over zeroed padding lanes: no lane reads stale stack."""
        zero = f"if ({words} < {k}) for (size_t i = 0; i < {n_in}; ++i) bin[i] = 0;"
        return ([zero] if k > 1 else []) + [
            f"for (size_t i = 0; i < {program.n_primary_inputs}; ++i)"
            f" for (size_t j = 0; j < {words}; ++j)"
            f" bin[i * {k} + j] = in[i * n_words + w + j];",
            f"run_word_w{k}(bin, bout, 0, {k});",
        ]

    parts = [*_UNIT_PRELUDE, word_type, f"#define W w{k}"]
    for index in range(len(segments)):
        parts.append(f"{_HIDDEN} void seg{index}_w{k}(W* restrict s);")
    parts.append(
        f"static void run_word_w{k}(const uint64_t* restrict in,"
        " uint64_t* restrict out, size_t w, size_t n_words) {"
    )
    parts.append(f"W s[{n_slots}];")
    for i in range(program.n_primary_inputs):
        parts.append(f"s[{i}] = *(const W*)(in + (size_t){i} * n_words + w);")
    for index in range(len(segments)):
        parts.append(f"seg{index}_w{k}(s);")
    for j, slot in enumerate(program._output_slots):
        parts.append(f"*(W*)(out + (size_t){j} * n_words + w) = s[{int(slot)}];")
    parts.append("}")
    parts.append("#undef W")
    parts.append("")
    parts.append(
        "void run_range(const uint64_t* in, uint64_t* out,"
        " size_t lo, size_t hi, size_t n_words) {"
    )
    parts.append("size_t w = lo;")
    if k == 1:
        parts.append("for (; w < hi; ++w) run_word_w1(in, out, w, n_words);")
    else:
        parts.append(
            f"for (; w + {k} <= hi; w += {k}) run_word_w{k}(in, out, w, n_words);"
        )
        parts += ["if (w == hi) return;", *stack_blocks, "size_t live = hi - w;"]
        parts += run_block("live")
        parts.append(
            f"for (size_t i = 0; i < {program.n_outputs}; ++i)"
            f" for (size_t j = 0; j < live; ++j)"
            f" out[i * n_words + w + j] = bout[i * {k} + j];"
        )
    parts.append("}")
    parts.append("")
    parts.append(_SCORES_EPILOGUE)
    parts.append(
        "void run_scores_range(const uint64_t* in, const uint64_t* table,"
        " uint64_t* scores, size_t lo, size_t hi, size_t n_words,"
        " size_t n_samples, size_t n_groups, size_t p) {"
    )
    parts.extend(stack_blocks)
    parts.append("size_t w = lo;")
    if k == 1:
        parts.append("for (; w + 1 <= hi; w += 1) {")
        parts += run_block("1")
    else:
        # copy_scores stops at the sample bound only: lower it to hi so a
        # padded block never writes the rows of the next shard's words
        parts.append("if (n_samples > hi * 64) n_samples = hi * 64;")
        parts.append(f"for (; w < hi; w += {k}) {{")
        parts.append(f"size_t live = hi - w < {k} ? hi - w : {k};")
        parts += run_block("live")
    parts.append(f"copy_scores(bout, {k}, w, table, scores, n_samples, n_groups, p);")
    parts.append("}")
    parts.append("}")
    sources = ["\n".join(parts) + "\n"]
    for own in units:
        parts = [*_UNIT_PRELUDE, word_type, f"#define W w{k}"]
        for index in own:
            parts.append(f"{_HIDDEN} void seg{index}_w{k}(W* restrict s) {{")
            parts.extend(blocks[i][0] for i in segments[index])
            parts += ["}", ""]
        parts += ["#undef W", ""]
        sources.append("\n".join(parts))
    return _UNIT_MARKER.join(sources)


# -------------------------------------------------------------------- build
def _source_digest(source: str, commands: List[List[str]], target: str) -> str:
    hasher = hashlib.sha256()
    for words in (*commands, [target]):
        hasher.update(" ".join(words).encode())
        hasher.update(b"\x00")
    hasher.update(source.encode())
    return hasher.hexdigest()[:24]


@contextmanager
def _build_lock(directory: str, digest: str):
    """Serialise concurrent builders of one digest on a lock file.

    Two processes attaching the same model (e.g. racing pool workers) would
    otherwise both run the compiler; with the lock, the loser blocks until
    the winner publishes and then reuses the cached object.  Where
    ``fcntl`` is unavailable the old behaviour stands: both build under
    unique temp names and the atomic rename picks a winner — correct,
    merely one build wasted.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    lock_path = os.path.join(directory, f"{digest}.lock")
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _run_compilers(commands: List[List[str]]) -> None:
    """Run compiler ``commands`` concurrently, one per core at most.

    Threads of its own hand each free slot the next command: never the
    engines' shared executor, whose threads serve live inference while a
    hot swap compiles, and no executor at all, since a build on an engine's
    background thread (see :meth:`NativeCompiledNetlist.attach`) may still
    be running while the interpreter shuts down, when executors take no new
    work.  Each compiler leads a process group of its own inside the
    caller's session: on the first failure nothing further is started and
    the compilers still running are terminated, group and all, so the
    ``cc1``/``as`` children a driver would orphan go with it; and whatever
    supervises the caller's session still sees, signals and waits for every
    compiler.  Once every one of them has been waited for,
    :class:`NativeUnavailableError` names the failed command with the tail
    of its output.
    """
    pending = list(reversed(commands))  # popped from the end: in order
    running: List[subprocess.Popen] = []
    failures: List[str] = []
    lock = threading.Lock()

    def fail(command: List[str], why: str) -> None:
        # under the lock: the first failure terminates the others
        if failures:
            return
        failures.append(f"C build failed ({' '.join(command)}): {why}")
        for other in running:
            if other.returncode is None:  # unreaped: the pid is its own
                try:
                    os.killpg(other.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass  # just exited; its thread is reaping it

    def work() -> None:
        while True:
            with lock:
                if failures or not pending:
                    return
                command = pending.pop()
                try:
                    process = subprocess.Popen(
                        command,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        text=True,
                        **_OWN_PROCESS_GROUP,
                    )
                except OSError as error:
                    fail(command, str(error))
                    return
                running.append(process)
            stdout, stderr = process.communicate()
            with lock:
                running.remove(process)
                if process.returncode != 0:
                    fail(command, (stderr or stdout or "").strip()[-2000:])

    helpers = [
        threading.Thread(target=work)
        for _ in range(min(len(commands), default_thread_count()) - 1)
    ]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise NativeUnavailableError(failures[0])


def _cache_directory(cache_dir: Optional[str]) -> str:
    """``cache_dir`` or else :func:`shared_object_cache_dir`, created if
    missing.

    The per-user default sits in the shared temp root under a name anyone
    can compute, and an object found there is loaded into this process: it
    is created private (``0o700``) and refused — as unavailable, so
    ``"auto"`` falls back to NumPy — unless it is a directory of the
    effective user that nobody else can write.  Nothing in a refused
    directory can be trusted, so it is not repaired: the error asks for it
    to be removed (an older release created it ``0o775`` under umask 002).
    An explicit ``cache_dir`` or ``$REPRO_NATIVE_CACHE`` is taken as it is;
    one that cannot be created (a file in the way, a read-only parent) is
    unavailable too.
    """
    directory = cache_dir or shared_object_cache_dir()
    explicit = bool(cache_dir or os.environ.get(_ENV_CACHE_DIR))
    try:
        os.makedirs(directory, mode=0o777 if explicit else 0o700, exist_ok=True)
    except OSError as error:
        raise NativeUnavailableError(
            f"cannot use the native cache {directory}: {error}"
        ) from error
    if explicit:
        return directory
    info = os.lstat(directory)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.geteuid()
        or info.st_mode & 0o022
    ):
        raise NativeUnavailableError(
            f"refusing the native cache {directory}: not a directory of uid "
            f"{os.geteuid()} closed to group and other writes; remove it to "
            f"have it recreated private, or set ${_ENV_CACHE_DIR} to use "
            f"another"
        )
    return directory


def _required_compiler() -> List[str]:
    """:func:`find_compiler`, or :class:`NativeUnavailableError`."""
    compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailableError(
            "no C toolchain on this host (set $CC or install cc/gcc/clang); "
            "use backend='numpy' or backend='auto'"
        )
    return compiler


def _host_command() -> Tuple[List[List[str]], int, str]:
    """``(commands, lanes, target)`` of every build on this host: the
    compile of the driver unit, the compile of a segment unit and the link,
    and :func:`_host_build`'s lanes and target.  Raises
    :class:`NativeUnavailableError` without a toolchain."""
    compiler = _required_compiler()
    unit_flags, lanes, target = _host_build(compiler)
    driver, segments = ([*compiler, *flags, "-fPIC", "-c"] for flags in unit_flags)
    return [driver, segments, [*compiler, "-shared"]], lanes, target


def _plan_build(source: str, cache_dir: Optional[str]) -> _Plan:
    """``(commands, digest, so_path)`` of the build of ``source``: all that
    :func:`build_shared_object` resolves before it compiles — the compiler,
    the host's flags and target, the digest and the cache directory, the
    last two read from the environment now.  Raises
    :class:`NativeUnavailableError` when there is no toolchain or the
    default cache directory is refused."""
    commands, _, target = _host_command()
    digest = _source_digest(source, commands, target)
    so_path = os.path.join(_cache_directory(cache_dir), f"{digest}.so")
    return commands, digest, so_path


def _compile(source: str, commands: List[List[str]], digest: str, so_path: str) -> None:
    """Compile ``source`` by :func:`_plan_build`'s plan — every unit with
    ``cc -c``, concurrently, the driver unit by the first command and the
    segment units by the second, then one link — and publish it at
    ``so_path``, unless a builder holding the digest's lock before us
    already did."""
    driver, segments, link = commands
    directory = os.path.dirname(so_path)
    with _build_lock(directory, digest):
        # the lock's previous holder may have published while we waited
        if os.path.exists(so_path):
            return
        c_path = os.path.join(directory, f"{digest}.c")
        unique = f".{os.getpid()}-{threading.get_ident()}.tmp"
        c_tmp = c_path + unique
        so_tmp = so_path + unique
        sources = {c_tmp: source}  # what to write: the kept source, the units
        compiles: List[List[str]] = []
        objects: List[str] = []
        for index, unit in enumerate(source.split(_UNIT_MARKER)):
            stem = f"{c_path}{unique}.{index}"  # cc needs .c to see C source
            sources[stem + ".c"] = unit
            flags = segments if index else driver
            compiles.append(flags + ["-o", stem + ".o", stem + ".c"])
            objects.append(stem + ".o")
        try:
            for path, text in sources.items():
                with open(path, "w") as handle:
                    handle.write(text)
            _run_compilers(compiles)
            _run_compilers([link + ["-o", so_tmp] + objects])
            # keep the source next to the object for debugging, then publish
            os.replace(c_tmp, c_path)
            os.replace(so_tmp, so_path)
        finally:
            for leftover in [*sources, *objects, so_tmp]:
                try:
                    os.unlink(leftover)
                except OSError:
                    pass


def build_shared_object(
    source: str, *, cache_dir: Optional[str] = None
) -> Tuple[str, str]:
    """Compile ``source`` into a cached shared object; ``(digest, path)``.

    The cache key digests the whole source, the build commands and the
    compiler's target (see :func:`_host_build`), so a compiler, flag or
    CPU change never serves a stale or foreign object.  The translation
    units (see :func:`generate_c_source`) are compiled one by one with
    ``cc -c``, concurrently — the driver unit at :data:`_CFLAGS`, the
    segment units at :data:`_SEGMENT_CFLAGS` — and the objects linked.
    Builds land under unique temp names and are published with an atomic
    rename; concurrent builders of the same digest additionally serialise
    on a ``<digest>.lock`` file so only one build runs per digest.

    Raises :class:`NativeUnavailableError` when the host has no C
    toolchain, the default cache directory is not private, or the build
    fails; a failed build leaves nothing behind.
    """
    commands, digest, so_path = _plan_build(source, cache_dir)
    if not os.path.exists(so_path):
        _compile(source, commands, digest, so_path)
    return digest, so_path


def _load_entry_points(digest: str, so_path: str):
    """dlopen (once per process per digest) and type the entry points."""
    with _loaded_lock:
        cached = _loaded_libs.get(digest)
        if cached is None:
            lib = ctypes.CDLL(so_path)
            run_range = lib.run_range
            run_range.argtypes = [_WORD_PTR, _WORD_PTR] + [ctypes.c_size_t] * 3
            run_range.restype = None
            run_scores_range = lib.run_scores_range
            run_scores_range.argtypes = [_WORD_PTR] * 3 + [ctypes.c_size_t] * 6
            run_scores_range.restype = None
            cached = (lib, run_range, run_scores_range)
            _loaded_libs[digest] = cached
        return cached[1], cached[2]


# -------------------------------------------------------------------- index
def _pipeline_salt() -> bytes:
    """A digest of the source of :data:`_PIPELINE_MODULES`, read once per
    process."""
    global _salt
    if _salt is None:
        hasher = hashlib.sha256()
        for name in _PIPELINE_MODULES:
            with open(importlib.import_module(name).__file__, "rb") as handle:
                hasher.update(handle.read())
        _salt = hasher.digest()
    return _salt


def look_up(
    netlist, max_lut_inputs: Optional[int], backend: str, wait: bool
) -> Tuple[Optional[str], Optional["NativeCompiledNetlist"]]:
    """``(path, engine)``: the ``<key>.prog`` of ``netlist`` through the
    default pipeline at ``max_lut_inputs`` (``None`` when the key cannot
    encode a name), and, when that entry holds a digest and a program of
    the netlist's shape whose object is on disk, the :meth:`attach
    <NativeCompiledNetlist.attach>` engine of that build (else ``None``).
    The key hashes the netlist's content, ``max_lut_inputs``, the host's
    build and :func:`_pipeline_salt`; a hit runs no pass, lowering or
    code generation.  Raises :class:`NativeUnavailableError` as
    :func:`_plan_build` does.
    """
    commands, lanes, target = _host_command()
    directory = _cache_directory(None)
    try:
        # version 2 writes no back-references and no interning marks: equal
        # content gives equal bytes, however its strings are shared (NumPy
        # strings and scalars go in as their raw bytes)
        nodes = [(n.name, n.input_signals, n.table.tobytes()) for n in netlist.nodes]
        content = marshal.dumps(
            (netlist.n_primary_inputs, nodes, netlist.output_signals,
             max_lut_inputs, lanes, commands, target),
            2,
        )
    except ValueError:  # what marshal cannot write: a str subclass
        return None, None
    key = hashlib.sha256(_pipeline_salt() + content).hexdigest()
    path = os.path.join(directory, f"{key}.prog")
    try:
        with open(path, "rb") as handle:
            # trusted as far as the directory's objects are, which are dlopened
            digest, program = pickle.load(handle)
        so_path = os.path.join(directory, f"{digest}.so")
        hit = (
            re.fullmatch("[0-9a-f]{24}", digest)
            and isinstance(program, CompiledNetlist)
            and program.n_primary_inputs == netlist.n_primary_inputs
            and program.n_outputs == len(netlist.output_signals)
            and os.path.exists(so_path)
        )
    except Exception:  # noqa: BLE001 - unpickling foreign bytes raises anything
        hit = False
    if not hit:
        return path, None
    build = (commands, digest, so_path)
    return path, NativeCompiledNetlist.attach(program, backend, wait=wait, build=build)


def _write_index(path: str, digest: str, program: CompiledNetlist) -> None:
    """Publish ``(digest, program)`` at ``path`` by an atomic rename.  A
    failure leaves the entry as it was — the next compile misses — and
    never fails this one."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            pickle.dump((digest, program), handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except (OSError, pickle.PicklingError):  # the next compile misses
        try:
            os.unlink(tmp)
        except OSError:
            pass


def open_engine(
    program: CompiledNetlist, backend: str, wait: bool, path: Optional[str] = None
) -> "NativeCompiledNetlist":
    """:meth:`NativeCompiledNetlist.attach` of ``program``, published at
    ``path`` — the ``<key>.prog`` a :func:`look_up` missed — for the next
    compile of the same netlist, in any process, to find."""
    engine = NativeCompiledNetlist.attach(program, backend, wait=wait)
    if path is not None:
        _write_index(path, engine.digest, program)
    return engine


def _shared_executor() -> ThreadPoolExecutor:
    """The process-wide shard executor (lazy, shared by every engine).

    Sized to the host core count: engine ``threads`` values above it still
    produce correct output (the extra shards queue), they just cannot run
    more parallel than the hardware.
    """
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=max(2, default_thread_count()),
                thread_name_prefix="repro-native",
            )
        return _executor


# ------------------------------------------------------------------- engine
class NativeCompiledNetlist(PackedEngine):
    """A :class:`CompiledNetlist` lowered to a compiled shared object.

    Same evaluation surface as the NumPy engine — ``run_packed`` on packed
    words, ``evaluate_outputs``/``predict_batch`` on 0/1 matrices — and
    bit-exact against it.  An instance is thread-safe: the generated code's
    state lives on the C stack and ``ctypes`` releases the GIL around every
    call.

    ``threads``
        Word-shard fan-out of :meth:`run_packed`.  ``> 1`` splits the batch
        into contiguous word ranges evaluated concurrently on the shared
        in-process executor via the ``run_range`` export — bit-exact, since
        packed words are independent.  Batches below
        ``2 * min_words_per_thread`` words never split.
    ``unroll``
        Vector lane count of the generated code (words per statement);
        the host's :func:`vector_lanes` by default.
    ``opt_tier``
        The build's compiler flags as one string, the driver unit's and
        the segment units' (``"-O1 -march=native / -Og -march=native"``, or
        ``"-O1 / -Og"`` where the compiler rejects ``-march=native``);
        passing it back is accepted, any other value raises ``ValueError``.

    Build one with ``compile_netlist(netlist, backend="native")`` (or
    ``"auto"``), or :meth:`tuned` / ``backend="native-mt"`` for the same
    build threaded up to the core count, or construct one directly from an
    already-lowered program.  A ``compile_netlist`` on the default
    pipeline may instead find the program and its build in the cache's
    ``<key>.prog`` index and generate no code (``c_source`` is then
    generated when read).  Each of these returns once the shared object is
    loaded, and raises :class:`NativeUnavailableError` when the host cannot
    build.  :meth:`attach` instead returns before the compiler runs: until
    the build lands the engine answers on ``program``, bit for bit the same.
    """

    def __init__(
        self,
        program: CompiledNetlist,
        *,
        cache_dir: Optional[str] = None,
        threads: int = 1,
        unroll: Optional[int] = None,
        opt_tier: Optional[str] = None,
        min_words_per_thread: int = DEFAULT_MIN_WORDS_PER_THREAD,
    ) -> None:
        self._plan(program, cache_dir, threads, unroll, opt_tier, min_words_per_thread)
        self._build()

    def _plan(
        self,
        program: CompiledNetlist,
        cache_dir: Optional[str],
        threads: int,
        unroll: Optional[int],
        opt_tier: Optional[str],
        min_words_per_thread: int,
        build: Optional[_Plan] = None,
    ) -> None:
        """Everything up to the compiler run: the C source and, from the
        host and the environment as they are now, the build's plan — or
        ``build``, a known ``(commands, digest, so_path)``, and no source."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if min_words_per_thread < 1:
            raise ValueError("min_words_per_thread must be >= 1")
        self.opt_tier = " / ".join(
            " ".join(flags) for flags in _host_build(_required_compiler())[0]
        )
        if opt_tier not in (None, self.opt_tier):
            raise ValueError(
                f"opt_tier {opt_tier!r} is not this host's build {self.opt_tier!r}"
            )
        self.program = program
        self.n_primary_inputs = program.n_primary_inputs
        self.n_slots = program.n_slots
        self.n_nodes = program.n_nodes
        self.threads = threads
        self.min_words_per_thread = min_words_per_thread
        self.unroll = vector_lanes() if unroll is None else unroll
        self._commands, self.digest, self.shared_object = build or _plan_build(
            self.c_source, cache_dir
        )
        self._native_backend = "native-mt" if threads > 1 else "native"
        #: ``(run_range, run_scores_range)`` once the shared object is
        #: loaded, else ``None``: assigned once, read once per call
        self._entry: Optional[Tuple[object, object]] = None
        self._built = threading.Event()

    @cached_property
    def c_source(self) -> str:
        """The generated C of ``program`` at ``unroll`` lanes: generated
        with the plan, or — on an engine found in the index — when first
        read."""
        return generate_c_source(self.program, unroll=self.unroll)

    def _build(self) -> None:
        """Compile the planned build unless it is cached, load it, and
        answer on it from the next call."""
        if not os.path.exists(self.shared_object):
            _compile(self.c_source, self._commands, self.digest, self.shared_object)
        self._entry = _load_entry_points(self.digest, self.shared_object)
        self._built.set()

    def _build_in_background(self) -> None:
        try:
            self._build()
        except Exception as error:  # noqa: BLE001 - reported, the program serves
            warnings.warn(
                f"native build failed ({error}); the NumPy engine keeps serving",
                RuntimeWarning,
            )
            self._built.set()

    @classmethod
    def attach(
        cls,
        program: CompiledNetlist,
        backend: str = "native",
        *,
        wait: bool = False,
        build: Optional[_Plan] = None,
    ) -> "NativeCompiledNetlist":
        """The ``backend`` (``"native"`` or ``"native-mt"``) engine for
        ``program``, returned before the compiler runs — or, with ``wait``,
        once its object is loaded, as the constructor returns.

        Everything but the compiler run happens here: code generation,
        compiler discovery, the host's flags, the cache directory and the
        digest, so a missing toolchain or a refused cache raises
        :class:`NativeUnavailableError` now, and a later change of
        ``$REPRO_NATIVE_CACHE`` does not move the build.  ``build`` is a
        known ``(commands, digest, so_path)`` plan, as :func:`look_up` finds
        one, and then no code is generated.  A cached object is loaded at
        once.  Otherwise one non-daemon thread, ``repro-native-build``,
        compiles and links while the engine answers on ``program`` — one
        call at a time, under the program's lock — and the loaded object
        takes over from the next call; the interpreter does not exit before
        that thread.  A failed build warns, naming the command, and leaves
        ``program`` answering.  :meth:`wait` blocks until the build has
        landed or failed; ``backend`` and ``on_loop`` describe the tier
        that answers now.
        """
        engine = cls.__new__(cls)
        threads = default_thread_count() if backend == "native-mt" else 1
        engine._plan(
            program, None, threads, None, None, DEFAULT_MIN_WORDS_PER_THREAD, build
        )
        engine._native_backend = "native-mt" if backend == "native-mt" else "native"
        if wait or os.path.exists(engine.shared_object):
            engine._build()
        else:
            threading.Thread(
                target=engine._build_in_background, name="repro-native-build"
            ).start()
        return engine

    @classmethod
    def tuned(
        cls,
        program: CompiledNetlist,
        *,
        cache_dir: Optional[str] = None,
        min_words_per_thread: int = DEFAULT_MIN_WORDS_PER_THREAD,
    ) -> "NativeCompiledNetlist":
        """The ``"native-mt"`` engine for ``program``: the one build, with
        ``threads`` at the core count.  Each call's batch picks how many of
        them it uses."""
        instance = cls(
            program,
            cache_dir=cache_dir,
            threads=default_thread_count(),
            min_words_per_thread=min_words_per_thread,
        )
        instance._native_backend = "native-mt"
        return instance

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until this engine's build has landed or failed, for at most
        ``timeout`` seconds; whether the shared object answers now.  Returns
        at once for every engine but a cold :meth:`attach`."""
        self._built.wait(timeout)
        return self._entry is not None

    @property
    def backend(self) -> str:  # type: ignore[override]
        """``"native"`` or ``"native-mt"`` once the shared object answers;
        ``"numpy"`` while ``program`` does (see :meth:`attach`)."""
        return "numpy" if self._entry is None else self._native_backend

    @property
    def on_loop(self) -> bool:  # type: ignore[override]
        """One thread evaluates a 64-sample batch in tens of microseconds of
        C and never waits, so a server may run it on its event loop — once
        the shared object answers: ``program``'s NumPy batches take
        hundreds."""
        return self.threads == 1 and self._entry is not None

    # ---------------------------------------------------------- statistics
    @property
    def n_outputs(self) -> int:
        return self.program.n_outputs

    @property
    def n_groups(self) -> int:
        return self.program.n_groups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NativeCompiledNetlist({self.n_nodes} LUTs, "
            f"{self.n_primary_inputs} inputs, {self.n_outputs} outputs, "
            f"threads={self.threads}, unroll={self.unroll}, "
            f"tier={self.opt_tier}, so={self.digest})"
        )

    # ---------------------------------------------------------- evaluation
    def _check_inputs(self, packed_inputs: np.ndarray) -> np.ndarray:
        packed_inputs = np.ascontiguousarray(packed_inputs, dtype=np.uint64)
        if (
            packed_inputs.ndim != 2
            or packed_inputs.shape[0] != self.n_primary_inputs
        ):
            raise ValueError(
                f"packed_inputs must have shape ({self.n_primary_inputs}, "
                f"n_words), got {packed_inputs.shape}"
            )
        return packed_inputs

    def _sharded(self, words: int, call) -> None:
        """``call(lo, hi)`` over the word range ``[0, words)``: whole on the
        calling thread, or — with ``threads > 1`` and at least
        ``min_words_per_thread`` words per shard — as contiguous shards run
        concurrently on the shared executor — cut on multiples of ``unroll``,
        so only the last shard can end in a padded block."""
        n_shards = 1
        if self.threads > 1:
            n_shards = min(self.threads, words // self.min_words_per_thread)
        if n_shards <= 1:
            call(0, words)
            return
        executor = _shared_executor()
        k = self.unroll
        edges = [(i * words) // n_shards // k * k for i in range(n_shards)] + [words]
        futures = [
            executor.submit(call, lo, hi)
            for lo, hi in zip(edges, edges[1:])
            if hi > lo
        ]
        first_error = None
        for future in futures:
            try:
                future.result()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def run_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Evaluate on packed inputs; returns packed output words.

        Same contract as :meth:`CompiledNetlist.run_packed`: input shape
        ``(n_primary_inputs, n_words)``, bits past the last sample
        unspecified in the result.  With ``threads > 1`` the word axis is
        split into contiguous shards evaluated concurrently — the shards
        write disjoint ``[lo, hi)`` column ranges of the same output
        planes, so the result is bit-identical to the serial call.  Before
        the build lands, ``program`` answers.
        """
        entry = self._entry
        if entry is None:
            return self.program.run_packed(packed_inputs)
        run_range = entry[0]
        packed_inputs = self._check_inputs(packed_inputs)
        words = packed_inputs.shape[1]
        out = np.empty((self.n_outputs, words), dtype=np.uint64)
        if not words:
            return out
        in_ptr = packed_inputs.ctypes.data_as(_WORD_PTR)
        out_ptr = out.ctypes.data_as(_WORD_PTR)
        self._sharded(words, lambda lo, hi: run_range(in_ptr, out_ptr, lo, hi, words))
        return out

    def run_scores(
        self, packed_inputs: np.ndarray, n_samples: int, table: np.ndarray
    ) -> np.ndarray:
        """:meth:`PackedEngine.run_scores` as one C call per shard.

        The read-out runs as the epilogue of the word program
        (``run_scores_range``): output planes never leave the C stack and
        the GIL stays released from the feature words to the scores.  Each
        shard writes the score rows of its own word range, by the same
        split as :meth:`run_packed`.  Everything is validated here, before
        any pointer reaches C; a table wider than the epilogue indexes
        (``p > 16``) takes the base ``run_packed`` + look-up route, and so
        does every call before the build lands, on ``program``.
        """
        entry = self._entry
        if entry is None:
            return self.program.run_scores(packed_inputs, n_samples, table)
        run_scores_range = entry[1]
        packed_inputs = self._check_inputs(packed_inputs)
        words = packed_inputs.shape[1]
        n_samples = int(n_samples)
        p = check_score_table(table, self.n_outputs, words, n_samples)
        if p > _MAX_FUSED_FAN_IN:
            return super().run_scores(packed_inputs, n_samples, table)
        n_groups = table.shape[0]
        scores = np.empty((n_samples, n_groups), dtype=np.float64)
        if not n_samples:
            return scores
        in_ptr = packed_inputs.ctypes.data_as(_WORD_PTR)
        table_ptr = table.ctypes.data_as(_WORD_PTR)
        scores_ptr = scores.ctypes.data_as(_WORD_PTR)
        self._sharded(
            n_words(n_samples),  # words past the last sample score nothing
            lambda lo, hi: run_scores_range(
                in_ptr, table_ptr, scores_ptr, lo, hi, words, n_samples, n_groups, p
            ),
        )
        return scores
