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
* each group is evaluated a **chunk** of nodes at a time, in an
  *entry-major* scratch ``(rows, nodes, words)`` sized from one byte budget:

  1. one ``take`` copies the chunk's inputs in; five block calls then build
     the **basis** — all sixteen Boolean functions of a node's first two
     inputs ``(x0, x1)``: the inputs, their complements, the four minterms
     and theirs, xor / xnor and the two constants;
  2. a table entry ``j`` (an assignment of the *other* inputs) is, as a
     function of ``(x0, x1)``, one of those sixteen: its four table bits
     ``t[j], t[Q+j], t[2Q+j], t[3Q+j]`` (``Q = 2**(P-2)``) are the function's
     truth code, known from the table.  One row gather fills the ``Q`` entries,
     and the two leading address bits are resolved without a single mux;
  3. the remaining ``P - 2`` bits are folded by **Shannon expansion** in
     place, ``f = f0 ^ ((f0 ^ f1) & x)`` on the most significant bit, so both
     cofactors are contiguous leading blocks of the shrinking entry axis and
     the selector ``(nodes, words)`` broadcasts along it — every pass is one
     long contiguous run, pure AND/XOR word ops like the hardware mux tree.

  A 6-input LUT costs about 80 word-passes this way (6 + 14 + 16 + 45)
  where halving the whole table six times costs 157.

Padding bits past the last sample hold unspecified values during evaluation
(constants and inverted signals set them); they are discarded when results
are unpacked.  The scratch belongs to the instance, so an instance is not
thread-safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.netlist import LUTNetlist
from repro.engine.bitpack import lookup_scores, pack_bits, unpack_bits
from repro.engine.passes import MUX_TABLE, optimize_netlist
from repro.utils.validation import check_binary_matrix

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: working set of one LUT chunk (inputs + basis + entries).  Not a knob: the
#: sweep that picked it is in docs/architecture.md ("The NumPy executor").
_LUT_CHUNK_BYTES = 1 << 20

# The basis: every Boolean function of a LUT's first two inputs, in the order
# run_packed builds them.  A function is named by its truth code, bit
# ``2*x0 + x1`` = its value there; ``_BASIS_ROW[code]`` is its row.
_X0, _X1 = 0b1100, 0b1010
_LITERALS0, _LITERALS1 = (_X0, _X0 ^ 15), (_X1, _X1 ^ 15)
_MINTERMS = [a & b for a in _LITERALS0 for b in _LITERALS1]
_BASIS_ROW = np.argsort(
    [_X0, _X1, _X0 ^ 15, _X1 ^ 15]
    + _MINTERMS
    + [m ^ 15 for m in _MINTERMS]
    + [a ^ b for a in _LITERALS0 for b in (_X1, _X0)]  # xor, 0, xnor, 1
)


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

    # What CompiledNetlist.run_packed reads for arity >= 2, derived from the
    # fields above on first use (the native backend never asks).
    @property
    def work_rows(self) -> int:
        """Rows of chunk scratch per node: inputs, derived basis, entries."""
        return self.arity + 14 + (1 << (self.arity - 2))

    def chunk_nodes(self, words: int) -> int:
        """How many nodes' scratch fits the byte budget at ``words`` words."""
        per_node = 8 * self.work_rows * max(words, 1)
        return max(1, min(self.n_nodes, _LUT_CHUNK_BYTES // per_node))

    @cached_property
    def gather_slots(self) -> np.ndarray:
        """``(arity, n_nodes)`` input slots in scratch order: x2.., x0, x1."""
        return np.ascontiguousarray(np.roll(self.input_slots, -2, axis=1).T)

    @cached_property
    def basis_rows(self) -> np.ndarray:
        """``(2**(arity-2), n_nodes)``: the scratch row each entry is copied from.

        Entry ``j`` of a node is, as a function of ``(x0, x1)``, the four
        table bits ``j, Q+j, 2Q+j, 3Q+j``; that truth code names its row.
        """
        quarters = (self.table_words != 0).reshape(self.n_nodes, 4, -1)
        codes = (quarters * np.array([[1], [2], [4], [8]])).sum(axis=1)
        return np.ascontiguousarray((_BASIS_ROW[codes] + (self.arity - 2)).T)


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
    reuses an internal grow-only scratch (the slot matrix and one chunk's
    working set, sized for the largest batch seen and never pickled), so a
    ``CompiledNetlist`` instance is **not thread-safe**; share the netlist
    and compile one instance per worker instead.

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
        # of reallocating on every call.  (capacity, state words, chunk words)
        self._scratch: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._node_index = np.arange(max((g.n_nodes for g in groups), default=0))

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_scratch": None}

    def __setstate__(self, state: dict) -> None:
        # a pickle carries the program; the working set is rebuilt on first
        # use, so one written before the scratch changed shape still runs
        self.__init__(
            state["n_primary_inputs"],
            state["_groups"],
            state["_output_slots"],
            state["n_slots"],
            state["n_nodes"],
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
        if self._scratch is None or self._scratch[0] < words:
            self._scratch = self._allocate(words)
        _, state_buf, work_buf = self._scratch
        state = state_buf[: self.n_slots * words].reshape(self.n_slots, words)
        state[: self.n_primary_inputs] = packed_inputs
        for group in self._groups:
            if isinstance(group, _MuxGroup):
                # out = a ^ ((a ^ b) & select): one word mux per node, the
                # software analogue of the hardware's free F7/F8 muxes
                select = state[group.input_slots[:, 0]]
                a = state[group.input_slots[:, 1]]
                scratch = work_buf[: group.n_nodes * words]
                scratch = scratch.reshape(group.n_nodes, words)
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
            if group.arity == 1:
                # one narrow mux: the table words broadcast along the row
                low = tables[:, 0]
                acc = state[group.input_slots[:, 0]]
                acc &= low ^ tables[:, 1]
                acc ^= low
                state[group.output_slots] = acc
                continue
            arity, rows = group.arity, group.work_rows
            chunk = group.chunk_nodes(words)
            for start in range(0, group.n_nodes, chunk):
                stop = min(start + chunk, group.n_nodes)
                n = stop - start
                work = work_buf[: rows * n * words].reshape(rows, n, words)
                # rows 0..arity-1: the inputs, x2.. first, then x0 and x1
                state.take(
                    group.gather_slots[:, start:stop],
                    axis=0,
                    out=work[:arity],
                    mode="clip",
                )
                # rows arity-2..arity+13: the sixteen functions of (x0, x1)
                # in _BASIS_ROW's order, five block calls
                base = arity - 2
                np.invert(work[base:arity], out=work[arity : arity + 2])
                literals0 = work[base : arity + 1 : 2, np.newaxis]  # x0, ~x0
                literals1 = work[base + 1 : arity + 2 : 2]  # x1, ~x1
                minterms = work[arity + 2 : arity + 6]
                np.bitwise_and(
                    literals0, literals1, out=minterms.reshape(2, 2, n, words)
                )
                np.invert(minterms, out=work[arity + 6 : arity + 10])
                np.bitwise_xor(
                    literals0,
                    work[base:arity][::-1],  # x1, x0: xor, 0 / xnor, 1
                    out=work[arity + 10 : arity + 14].reshape(2, 2, n, words),
                )
                # every remaining table entry is one of those rows: its two
                # leading address bits are resolved by the copy
                index = group.basis_rows[:, start:stop] * n
                index += self._node_index[:n]
                acc = work[arity + 14 :]
                # (a source that stops where ``acc`` starts: take copies its
                # output twice over when the two overlap)
                work[: arity + 14].reshape((arity + 14) * n, words).take(
                    index, axis=0, out=acc, mode="clip"
                )
                # fold the other address bits in place, most significant
                # first so both cofactors are contiguous leading blocks:
                #   high ^= low; high &= x; high ^= low == mux(x, low, high)
                # with x (n, words) broadcast along the leading entry axis
                half = acc.shape[0]
                for bit in range(base):
                    half >>= 1
                    low = acc[:half]
                    acc = acc[half:]
                    acc ^= low
                    acc &= work[bit]
                    acc ^= low
                state[group.output_slots[start:stop]] = acc[0]
        # advanced indexing already yields a fresh array
        return state[self._output_slots]

    def _allocate(self, words: int) -> Tuple[int, np.ndarray, np.ndarray]:
        """Scratch for any word count up to ``words`` rounded up to a power
        of two (never below the capacity already held)."""
        capacity = 1 << (max(words, 1) - 1).bit_length()
        if self._scratch is not None:
            capacity = max(capacity, self._scratch[0])
        work_words = 1
        for group in self._groups:
            if isinstance(group, _MuxGroup):
                need = group.n_nodes * capacity
            elif group.arity >= 2:
                # the largest chunk at any word count up to the capacity:
                # the budget's worth, or one node when a node exceeds it
                need = min(
                    group.n_nodes * group.work_rows * capacity,
                    max(_LUT_CHUNK_BYTES // 8, group.work_rows * capacity),
                )
            else:
                continue
            work_words = max(work_words, need)
        return (
            capacity,
            np.empty(self.n_slots * capacity, dtype=np.uint64),
            np.empty(work_words, dtype=np.uint64),
        )


#: engine backend names :func:`build_engine` accepts
ENGINE_BACKENDS = ("numpy", "native", "native-mt", "auto")


def build_engine(
    netlist: LUTNetlist,
    backend: str,
    *,
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
    ``"native-mt"`` is the same build threaded up to the core count.
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
            return native.NativeCompiledNetlist.tuned(program)
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
