"""Lower a :class:`~repro.core.netlist.LUTNetlist` into a bit-parallel program.

The naive simulator walks the netlist node by node and looks every sample up
in the truth table individually.  Here the netlist first runs through the
optimisation pipeline of :mod:`repro.engine.passes` (:func:`compile_netlist`
drives it) and is then lowered once into a topologically-ordered program
that evaluates each LUT across *all* packed samples with whole-word bitwise
operations:

* every signal is assigned a **slot** in a ``(n_slots, n_words)`` word
  matrix; slots are freed after a signal's last use and reused by later
  nodes, so the working set stays proportional to the live signal count, not
  the netlist size;
* nodes are scheduled level by level and **grouped by LUT arity**, so one
  vectorised step evaluates every same-width LUT of a level at once;
* each group is evaluated by iterated **Shannon expansion**: the truth
  tables, materialised as all-zero/all-one words, are halved ``P`` times by
  the mux identity ``f = f0 ^ ((f0 ^ f1) & x)`` on the address bit ``x`` —
  pure AND/XOR word ops, no arithmetic, exactly like the hardware mux tree.

Padding bits past the last sample hold unspecified values during evaluation
(constants and inverted signals set them); they are discarded when results
are unpacked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.netlist import LUTNetlist
from repro.engine.bitpack import lookup_scores, pack_bits, unpack_bits
from repro.engine.passes import MUX_TABLE, optimize_netlist
from repro.utils.validation import check_binary_matrix

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: target size of the in-place mux working set; roughly half a typical L2,
#: found empirically (a working set past L2 roughly halves throughput)
_MUX_SCRATCH_BYTES = 1 << 18


@dataclass(frozen=True)
class _Group:
    """One vectorised evaluation step: all same-arity LUTs of one level."""

    arity: int
    input_slots: np.ndarray  # (n_nodes, arity) int64
    output_slots: np.ndarray  # (n_nodes,) int64
    table_words: np.ndarray  # (n_nodes, 2**arity, 1) uint64, 0 or all-ones

    @property
    def n_nodes(self) -> int:
        return self.output_slots.shape[0]


@dataclass(frozen=True)
class _MuxGroup:
    """One vectorised step evaluating mux-shaped 3-input LUTs of one level.

    Decomposition emits 2:1 muxes with address bits ``(select, a, b)``;
    instead of the generic 7-step Shannon cascade, each is a single word
    mux ``out = a ^ ((a ^ b) & select)`` — three bitwise ops, mirroring
    the FPGA's dedicated (and free) F7/F8 mux resources.  Any 3-input LUT
    whose table happens to equal :data:`~repro.engine.passes.MUX_TABLE`
    gets this lowering, whatever produced it.
    """

    input_slots: np.ndarray  # (n_nodes, 3) int64: select, a, b
    output_slots: np.ndarray  # (n_nodes,) int64

    @property
    def n_nodes(self) -> int:
        return self.output_slots.shape[0]


class PackedEngine:
    """The surface every engine shares, whatever runs the words.

    Subclasses provide ``run_packed``, ``n_primary_inputs`` and
    ``n_outputs``; callers (the classifiers' batch methods, the serving
    layer) hold an engine as an object and need nothing else.
    :meth:`run_scores` is derived from ``run_packed``; an engine that can
    fuse the read-out into its kernel overrides it.
    """

    #: the evaluator behind ``run_packed`` — ``"numpy"``, ``"native"`` or
    #: ``"native-mt"``; what ``list_models`` and ``/metrics`` advertise
    backend = "numpy"
    #: in-process word-shard fan-out of ``run_packed``
    threads = 1
    #: vector lane count of the generated code (words per statement)
    unroll = 1

    def evaluate_outputs(self, X_bits: np.ndarray) -> np.ndarray:
        """Bit-exact packed counterpart of ``LUTNetlist.evaluate_outputs``."""
        X_bits = check_binary_matrix(X_bits, "X_bits")
        if X_bits.shape[1] != self.n_primary_inputs:
            raise ValueError(
                f"expected {self.n_primary_inputs} primary inputs, "
                f"got {X_bits.shape[1]}"
            )
        out = self.run_packed(pack_bits(X_bits))
        return unpack_bits(out, X_bits.shape[0])

    def predict_batch(self, X_bits: np.ndarray) -> np.ndarray:
        """Alias of :meth:`evaluate_outputs` (the shared batched entry point)."""
        return self.evaluate_outputs(X_bits)

    def run_scores(
        self, packed_inputs: np.ndarray, n_samples: int, table: np.ndarray
    ) -> np.ndarray:
        """Packed inputs to table-looked-up scores, ``(n_samples, n_groups)``
        ``float64``.

        ``table`` is ``(n_groups, 2**p)`` with ``n_groups * p == n_outputs``:
        outputs ``g*p .. g*p + p - 1`` are, LSB first, each sample's index
        into ``table[g]`` (see :func:`~repro.engine.bitpack.lookup_scores`)
        — a LUT-netlist whose last layer is a table of numbers, which is
        what PoET-BiN's output neurons are.  Only the first ``n_samples``
        lanes are read, so padding bits may hold anything.
        """
        return lookup_scores(self.run_packed(packed_inputs), n_samples, table)

    def close(self) -> None:
        """Release what the engine holds outside this object (idempotent);
        nothing for the in-process engines."""

    def __enter__(self) -> "PackedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CompiledNetlist(PackedEngine):
    """A LUT netlist compiled for bit-packed batch evaluation.

    Build one with :func:`compile_netlist` (or :meth:`from_netlist`); the
    compiled program is reusable across batches of any size.  Evaluation
    reuses an internal scratch working set (sized for the most recent batch
    word count), so a ``CompiledNetlist`` instance is **not thread-safe**;
    share the netlist and compile one instance per worker instead.

    Attributes
    ----------
    n_primary_inputs:
        Width of the binary feature vector the program reads.
    n_outputs:
        Number of declared netlist outputs.
    n_slots:
        Height of the word matrix the program runs in (peak live signals).
    n_groups:
        Number of vectorised evaluation steps.
    """

    def __init__(
        self,
        n_primary_inputs: int,
        groups: List[object],
        output_slots: np.ndarray,
        n_slots: int,
        n_nodes: int,
    ) -> None:
        self.n_primary_inputs = n_primary_inputs
        self._groups = groups
        self._output_slots = output_slots
        self.n_slots = n_slots
        self.n_nodes = n_nodes
        # reusable working set, cached by *capacity* (rounded up to the
        # next power of two) rather than exact word count: alternating
        # batch sizes reuse one grow-only allocation through views instead
        # of reallocating all three scratch arrays on every call
        self._scratch: Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None
        lut_groups = [g for g in groups if isinstance(g, _Group)]
        self._max_group_nodes = max((g.n_nodes for g in lut_groups), default=0)
        self._max_group_half = max(
            ((1 << g.arity) >> 1 for g in lut_groups), default=0
        )
        self._max_mux_nodes = max(
            (g.n_nodes for g in groups if isinstance(g, _MuxGroup)), default=0
        )

    # ---------------------------------------------------------- compilation
    @classmethod
    def from_netlist(cls, netlist: LUTNetlist) -> "CompiledNetlist":
        """Lower ``netlist`` as-is into a slot-allocated, level-grouped program.

        This is the raw lowering with no optimisation passes; use
        :func:`compile_netlist` to run the pass pipeline first.
        """
        if not netlist.output_signals:
            raise ValueError("netlist must declare at least one output signal")

        # All of a node's producers live in strictly earlier levels, so
        # levels can be evaluated in order and grouped freely within
        # themselves.
        level = netlist.node_levels()

        # Last level at which each signal is read; outputs are read "after
        # the last level", so their slots are never recycled.
        n_levels = max(level.values()) if level else 0
        last_use: Dict[str, int] = {}
        for node in netlist.nodes:
            for sig in node.input_signals:
                last_use[sig] = max(last_use.get(sig, -1), level[node.name])
        for sig in netlist.output_signals:
            last_use[sig] = n_levels + 1

        # Slot allocation: primary inputs take slots 0..F-1 up front, node
        # outputs draw from a free list refilled as signals die.
        slot_of: Dict[str, int] = {
            name: index for index, name in enumerate(netlist.inputs)
        }
        free: List[int] = []
        next_slot = netlist.n_primary_inputs
        expiring: Dict[int, List[str]] = {}
        for sig, last in last_use.items():
            expiring.setdefault(last, []).append(sig)
        # Inputs nobody reads can be freed immediately after level 0.
        for name in netlist.inputs:
            if name not in last_use:
                expiring.setdefault(0, []).append(name)

        by_level: Dict[int, List] = {}
        for node in netlist.nodes:
            by_level.setdefault(level[node.name], []).append(node)

        groups: List[object] = []
        mux_bytes = MUX_TABLE.tobytes()
        for lvl in range(1, n_levels + 1):
            # Recycle only slots whose last read happened in an *earlier*
            # level: groups within one level run sequentially, so a slot
            # still read by a later group of this level must not be reused
            # by an earlier group's scatter.
            for sig in expiring.get(lvl - 1, []):
                free.append(slot_of[sig])
            by_arity: Dict[int, List] = {}
            mux_nodes: List = []
            for node in by_level[lvl]:
                # mux-shaped 3-input LUTs get the dedicated 3-op lowering
                if node.n_inputs == 3 and node.table.tobytes() == mux_bytes:
                    mux_nodes.append(node)
                else:
                    by_arity.setdefault(node.n_inputs, []).append(node)

            def assign_slots(nodes, arity):
                nonlocal next_slot
                input_slots = np.empty((len(nodes), arity), dtype=np.int64)
                output_slots = np.empty(len(nodes), dtype=np.int64)
                for row, node in enumerate(nodes):
                    # primary inputs have held slots 0..F-1 from the start
                    input_slots[row] = [slot_of[sig] for sig in node.input_signals]
                    if free:
                        slot = free.pop()
                    else:
                        slot = next_slot
                        next_slot += 1
                    slot_of[node.name] = slot
                    output_slots[row] = slot
                return input_slots, output_slots

            for arity in sorted(by_arity):
                nodes = by_arity[arity]
                input_slots, output_slots = assign_slots(nodes, arity)
                tables = np.stack([node.table for node in nodes])
                table_words = np.where(tables != 0, _ALL_ONES, np.uint64(0))
                groups.append(
                    _Group(
                        arity=arity,
                        input_slots=input_slots,
                        output_slots=output_slots,
                        table_words=table_words[:, :, np.newaxis],
                    )
                )
            if mux_nodes:
                input_slots, output_slots = assign_slots(mux_nodes, 3)
                groups.append(
                    _MuxGroup(input_slots=input_slots, output_slots=output_slots)
                )

        output_slots = np.array(
            [slot_of[sig] for sig in netlist.output_signals], dtype=np.int64
        )
        return cls(
            n_primary_inputs=netlist.n_primary_inputs,
            groups=groups,
            output_slots=output_slots,
            n_slots=next_slot,
            n_nodes=netlist.n_luts,
        )

    # ------------------------------------------------------------ statistics
    @property
    def n_outputs(self) -> int:
        return self._output_slots.shape[0]

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledNetlist({self.n_nodes} LUTs, {self.n_groups} groups, "
            f"{self.n_slots} slots, {self.n_primary_inputs} inputs, "
            f"{self.n_outputs} outputs)"
        )

    # ------------------------------------------------------------ evaluation
    def run_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Evaluate on packed inputs; returns packed output words.

        ``packed_inputs`` must have shape ``(n_primary_inputs, n_words)`` as
        produced by :func:`~repro.engine.bitpack.pack_bits`.  Bits past the
        batch's last sample are unspecified in the returned words.
        """
        packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
        if packed_inputs.ndim != 2 or packed_inputs.shape[0] != self.n_primary_inputs:
            raise ValueError(
                f"packed_inputs must have shape ({self.n_primary_inputs}, n_words), "
                f"got {packed_inputs.shape}"
            )
        words = packed_inputs.shape[1]
        chunk_half = max(self._max_group_half, 1)
        max_nodes = max(self._max_group_nodes, 1)
        if self._scratch is None or self._scratch[0] < words:
            # grow-only, rounded up to the next power of two: ragged
            # alternating batch sizes settle on one allocation instead of
            # thrashing all three scratch arrays every call
            capacity = 1 << (max(words, 1) - 1).bit_length()
            if self._scratch is not None:
                capacity = max(capacity, self._scratch[0])
            state_buf = np.empty((self.n_slots, capacity), dtype=np.uint64)
            # flat mux scratch, re-carved per call: big enough for one
            # L2-sized chunk at any word count up to the capacity
            flat_words = max(
                chunk_half * capacity,
                min(_MUX_SCRATCH_BYTES // 8, max_nodes * chunk_half * capacity),
            )
            mux_flat = np.empty(flat_words, dtype=np.uint64)
            mux2_buf = np.empty((self._max_mux_nodes, capacity), dtype=np.uint64)
            self._scratch = (capacity, state_buf, mux_flat, mux2_buf)
        _, state_buf, mux_flat, mux2_buf = self._scratch
        state = state_buf[:, :words]
        mux2 = mux2_buf[:, :words]
        # Cache-block the mux cascade: the buffer is halved P times in
        # place, so keeping one chunk of nodes resident in L2 through the
        # whole cascade matters more than vector length.  Chunking depends
        # on the *actual* word count, so the views are carved per call.
        chunk_nodes = max(1, _MUX_SCRATCH_BYTES // (chunk_half * words * 8 or 1))
        chunk_nodes = min(chunk_nodes, max_nodes)
        chunk_nodes = min(chunk_nodes, max(1, mux_flat.size // (chunk_half * max(words, 1))))
        mux = mux_flat[: chunk_nodes * chunk_half * words].reshape(
            chunk_nodes, chunk_half, words
        )
        state[: self.n_primary_inputs] = packed_inputs
        for group in self._groups:
            if isinstance(group, _MuxGroup):
                # out = a ^ ((a ^ b) & select): one word mux per node, the
                # software analogue of the hardware's free F7/F8 muxes
                select = state[group.input_slots[:, 0]]
                a = state[group.input_slots[:, 1]]
                scratch = mux2[: group.n_nodes]
                np.bitwise_xor(a, state[group.input_slots[:, 2]], out=scratch)
                scratch &= select
                scratch ^= a
                state[group.output_slots] = scratch
                continue
            tables = group.table_words  # (G, 2**arity, 1)
            if group.arity == 0:
                state[group.output_slots] = np.broadcast_to(
                    tables[:, 0], (group.n_nodes, words)
                )
                continue
            for start in range(0, group.n_nodes, chunk_nodes):
                stop = min(start + chunk_nodes, group.n_nodes)
                gathered = state[group.input_slots[start:stop]]  # (C, arity, words)
                # Shannon-expand on the most-significant address bit first
                # (the node's first input), so both cofactors are contiguous
                # halves of the shrinking table.  The first mux widens the
                # narrow table words into the reusable scratch buffer, and
                # every later mux runs in place on that buffer via
                #   high ^= low; high &= x; high ^= low == mux(x, low, high)
                # leaving the result in the upper half, which the next step
                # halves again.
                half = tables.shape[1] >> 1
                x = gathered[:, 0][:, np.newaxis, :]  # (C, 1, words)
                low = tables[start:stop, :half]
                high = tables[start:stop, half:]
                acc = mux[: stop - start, :half]
                np.bitwise_and(low ^ high, x, out=acc)  # low ^ high is narrow
                acc ^= low
                for bit in range(1, group.arity):
                    half >>= 1
                    x = gathered[:, bit][:, np.newaxis, :]
                    low = acc[:, :half]
                    high = acc[:, half:]
                    high ^= low
                    high &= x
                    high ^= low
                    acc = high
                state[group.output_slots[start:stop]] = acc[:, 0]
        # advanced indexing already yields a fresh array
        return state[self._output_slots]


#: engine backend names :func:`build_engine` accepts
ENGINE_BACKENDS = ("numpy", "native", "native-mt", "auto")


def build_engine(
    netlist: LUTNetlist,
    backend: str,
    *,
    max_threads: Optional[int] = None,
    strict: bool = True,
) -> PackedEngine:
    """Lower an already-optimised ``netlist`` and pick its executor.

    The one place a backend *name* becomes an engine, and so the one place
    ``"auto"`` and the no-toolchain fallback are decided:
    :func:`compile_netlist`, :meth:`WorkerPool.attach
    <repro.engine.parallel.WorkerPool.attach>` and the pool's workers all
    come through here and carry the returned object from then on.

    ``"numpy"`` is the word-op interpreter; ``"native"`` lowers further to
    generated C in a cached shared object (:mod:`repro.engine.native`);
    ``"native-mt"`` is its autotuned multithreaded/SIMD tier, with the
    tuner's thread count capped at ``max_threads`` when given (how a
    multi-worker pool divides the host between processes and threads).
    ``"native"``/``"native-mt"`` raise
    :class:`~repro.engine.native.NativeUnavailableError` when the host
    cannot build; ``"auto"`` tries native and falls back to NumPy — with
    a warning only when a toolchain exists but the build failed, since a
    missing toolchain is a normal deployment.  ``strict=False`` is the
    worker-side contract: *any* failed native build degrades to the
    bit-exact NumPy engine, so a worker that lost the toolchain or the
    cache the parent had still serves its shards.
    """
    if backend not in ENGINE_BACKENDS:
        raise ValueError(
            f"unknown engine backend {backend!r} (choose from {ENGINE_BACKENDS})"
        )
    program = CompiledNetlist.from_netlist(netlist)
    if backend == "numpy":
        return program
    from repro.engine import native  # deferred: native imports this module

    try:
        if backend == "native-mt":
            return native.NativeCompiledNetlist.tuned(
                program, max_threads=max_threads
            )
        return native.NativeCompiledNetlist(program)
    except Exception as error:
        unavailable = isinstance(error, native.NativeUnavailableError)
        if strict and not (backend == "auto" and unavailable):
            raise
        if native.find_compiler() is not None:
            warnings.warn(
                f"native backend unavailable ({error}); "
                "falling back to the NumPy engine",
                RuntimeWarning,
                stacklevel=3,
            )
        return program


def compile_netlist(
    netlist: LUTNetlist,
    *,
    passes: Optional[Sequence] = None,
    max_lut_inputs: Optional[int] = None,
    backend: str = "numpy",
) -> PackedEngine:
    """Compile ``netlist`` for bit-packed batch inference.

    The netlist first runs through the optimisation pipeline of
    :mod:`repro.engine.passes` — constant folding and dead-node pruning,
    single-fanout chain fusion, and (when ``max_lut_inputs`` is given)
    decomposition onto the physical LUT fabric — then lowers to the
    slot-allocated, level-grouped program.  Results are bit-identical to
    ``netlist.evaluate_outputs`` for every pipeline configuration and
    every backend.

    Parameters
    ----------
    passes:
        Explicit pass sequence, ``None`` for the default pipeline, or an
        empty sequence for the raw unoptimised lowering.
    max_lut_inputs:
        Physical fabric width; wide LUTs are Shannon-decomposed onto
        ``max_lut_inputs``-input tables plus dedicated mux steps.  ``None``
        (the default) leaves wide LUTs intact.
    backend:
        The executor — see :func:`build_engine`.
    """
    if not netlist.output_signals:
        raise ValueError("netlist must declare at least one output signal")
    optimized = optimize_netlist(netlist, passes=passes, max_lut_inputs=max_lut_inputs)
    return build_engine(optimized, backend)
