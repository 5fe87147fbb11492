"""Engine IR: a mutable, pass-friendly view of a LUT netlist.

:class:`~repro.core.netlist.LUTNetlist` is an append-only build artefact —
ideal for classifiers emitting their LUTs, hostile to a compiler that wants
to fold, fuse, split and delete nodes.  :class:`IRGraph` is the engine's
intermediate representation: the same DAG-of-LUTs semantics, but with nodes
held in a name-indexed topological list that passes may freely rewrite, plus
the analyses passes need (fanout counts, reachability).

The IR round-trips losslessly: ``IRGraph.from_netlist(n).to_netlist()``
reproduces the netlist node for node, so every pass can be equivalence-checked
against ``LUTNetlist.evaluate_outputs`` on the original graph.

Conventions shared with the netlist (and relied on by every pass):

* primary inputs occupy the reserved ``in<i>`` namespace and have no node;
* a node's first input is the most significant truth-table address bit;
* node order is topological — every input of a node is a primary input or an
  earlier node.

For pass authors
================

A pass receives the graph, mutates it and returns it.  The workflow that
keeps passes honest:

* query the analyses (:meth:`IRGraph.fanout_counts`,
  :meth:`IRGraph.live_nodes`) *before* rewriting — they are computed
  fresh per call, not cached, so a pass that interleaves queries and
  mutations must keep its own bookkeeping (see ``FuseChainsPass`` updating
  its local fanout dict);
* nodes may pass through transiently inconsistent states (wrong table size
  for the input count) mid-rewrite; call :meth:`IRGraph.validate` at the end
  of the pass in tests to prove the invariants were restored;
* delete via :meth:`IRGraph.remove_nodes`, whose contract is trust-based:
  the caller guarantees nothing (no node input, no declared output) still
  reads the removed signals — :meth:`IRGraph.validate` catches a violation
  after the fact;
* never drop or rename a declared output signal: downstream consumers (the
  lowering, the hardware codegen) address results by output position, which
  is only stable because passes preserve the ``outputs`` list (constant
  folding *aliases* an output to a constant node rather than deleting it).

Truth tables as integers
========================

A node stores its truth table as :attr:`IRNode.bits`, one Python ``int``
with bit ``a`` = ``table[a]``: a 6-input LUT is a 64-bit word, and "does
this node change" is a few shifts and masks.  A pass reads ``node.bits`` and
writes with ``node.rewrite(inputs, bits)``.  ``node.table`` is the same
table as the ``np.uint8`` array the rest of the system reads: built fresh on
every read and converted on assignment, so the two cannot disagree (writing
*into* the array changes nothing — assign it).  The algebra below —
:func:`table_support`, :func:`cofactor`, :func:`reexpress` — is what passes
compute with; :func:`mux_ops` is the walk that prices a table in generated
C (:func:`~repro.engine.passes.mux_cost`; the NumPy executor's price is
:func:`~repro.engine.passes.table_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.netlist import (
    LUTNetlist,
    is_primary_input,
    primary_input_index,
)


# --------------------------------------------------------------------------
# truth tables as integers: bit ``a`` of ``bits`` is ``table[a]``
# --------------------------------------------------------------------------
#: widest table whose axis masks are kept; a wider one rebuilds its masks
#: per call (``LUTNetlist`` allows 24 inputs: a cached 2**24-bit mask per
#: axis would be 48 MB)
_CACHED_MASK_WIDTH = 12
_AXIS_MASKS: Dict[int, Tuple[int, ...]] = {}


def _axis_masks(n_inputs: int) -> Tuple[int, ...]:
    """``masks[p]``: the addresses of an ``n_inputs`` table whose bit ``p``
    (0 = last input) is clear — ``2**p`` ones, ``2**p`` zeros, repeated."""
    masks = _AXIS_MASKS.get(n_inputs)
    if masks is None:
        built = []
        for p in range(n_inputs):
            mask, width = (1 << (1 << p)) - 1, 2 << p
            while width < 1 << n_inputs:
                mask |= mask << width
                width <<= 1
            built.append(mask)
        masks = tuple(built)
        if n_inputs <= _CACHED_MASK_WIDTH:
            _AXIS_MASKS[n_inputs] = masks
    return masks


def table_bits(table: np.ndarray) -> int:
    """A 0/1 truth-table array as an integer."""
    return int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")


def bits_table(bits: int, n_inputs: int) -> np.ndarray:
    """Inverse of :func:`table_bits`: a fresh ``(2**n_inputs,)`` ``uint8`` array."""
    size = 1 << n_inputs
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little")


def table_support(bits: int, n_inputs: int) -> List[int]:
    """Indices of the inputs (0 = first = address MSB) the table depends on:
    those whose two Shannon cofactors differ somewhere."""
    masks = _axis_masks(n_inputs)
    return [
        j
        for j in range(n_inputs)
        if ((bits >> (1 << (n_inputs - 1 - j))) ^ bits) & masks[n_inputs - 1 - j]
    ]


def cofactor(bits: int, n_inputs: int, index: int, value: int) -> int:
    """The ``n_inputs - 1`` table with input ``index`` fixed to ``value``
    (which also drops an input the table does not depend on)."""
    masks = _axis_masks(n_inputs)
    p = n_inputs - 1 - index
    bits = (bits >> (value << p)) & masks[p]
    for q in range(p, n_inputs - 1):  # close the gaps, doubling the run length
        bits = (bits | (bits >> (1 << q))) & masks[q + 1]
    return bits


def reexpress(
    bits: int,
    inputs: Sequence[str],
    new_inputs: Sequence[str],
    const: Optional[Mapping[str, int]] = None,
) -> int:
    """The table of the same function over ``new_inputs``.

    ``inputs`` names the signal behind each address bit of ``bits``; a signal
    in ``const`` is replaced by its value, a signal named twice is read once,
    and every other signal must appear in ``new_inputs`` — in any order, and
    among signals the function does not read (those become don't-cares).
    """
    current = list(inputs)
    for j in reversed(range(len(current))):
        sig = current[j]
        first = current.index(sig)
        if const and sig in const:
            bits = cofactor(bits, len(current), j, const[sig])
        elif first != j:
            # keep the addresses on which both reads agree: where the first
            # read is 1, take the entry that has this read at 1 too
            n = len(current)
            low = _axis_masks(n)[n - 1 - first]
            bits = (bits & low) | ((bits >> (1 << (n - 1 - j))) & ~low)
            bits = cofactor(bits, n, j, 0)
        else:
            continue
        del current[j]
    for sig in new_inputs:
        if sig not in current:  # a don't-care input, as the new address MSB
            bits |= bits << (1 << len(current))
            current.insert(0, sig)
    n = len(current)
    masks = _axis_masks(n)
    for j, sig in enumerate(new_inputs):
        k = current.index(sig)
        if k != j:  # swap address bits j and k (j < k) of every entry
            high, low = n - 1 - j, n - 1 - k
            delta = (1 << high) - (1 << low)
            moved = ((bits >> delta) ^ bits) & masks[high] & ~masks[low]
            bits ^= moved | (moved << delta)
            current[j], current[k] = current[k], current[j]
    return bits


def mux_ops(bits: int, n_inputs: int) -> Tuple[List[Tuple[int, int, int, int]], int]:
    """The Shannon-mux program of one table, ``(ops, root)``: what it costs
    in generated C is ``len(ops)``.

    A memoised walk over the cofactor tree, MSB first, constants folded: an
    all-0/all-1 subtree is a literal, a 2-entry leaf the address bit or its
    complement, equal cofactors need no mux, a subtable met twice is computed
    once.  An op ``(form, a, b, depth)`` has input ``depth`` select cofactor
    ``a`` (at 0) or ``b`` (at 1); ``form`` 4 is the full mux, and 0-3 are
    what is left of it when the other arm is a constant: ``b & x``,
    ``a & ~x``, ``b | ~x``, ``a | x``.  References ``a``, ``b``, ``root``:
    ``k >= 0`` is ``ops[k]``, ``-1``/``-2`` constant 0/1, ``-3 - 2*d`` input
    ``d``, ``-4 - 2*d`` its complement.
    """
    ops: List[Tuple[int, int, int, int]] = []
    memo: List[Dict[int, int]] = [{} for _ in range(n_inputs)]  # per depth

    def walk(sub: int, size: int, depth: int) -> int:
        """Reference of a subtable that is neither constant nor a leaf."""
        hit = memo[depth].get(sub)
        if hit is not None:
            return hit
        half = size >> 1
        ones = (1 << half) - 1
        low, high = sub & ones, sub >> half
        if half == 2:  # both cofactors are leaves on input depth + 1
            a, b = leaves[depth + 1][low], leaves[depth + 1][high]
        else:
            a = -1 if low == 0 else -2 if low == ones else walk(low, half, depth + 1)
            b = -1 if high == 0 else -2 if high == ones else walk(high, half, depth + 1)
        if a == b:
            result = a
        else:
            form = 0 if a == -1 else 1 if b == -1 else 2 if a == -2 else 3 if b == -2 else 4
            result = len(ops)
            ops.append((form, a, b, depth))
        memo[depth][sub] = result
        return result

    # a 2-entry table by its bits: 0, (1, 0) = ~input, (0, 1) = input, 1
    leaves = [(-1, -4 - 2 * d, -3 - 2 * d, -2) for d in range(n_inputs)]
    size = 1 << n_inputs
    if bits in (0, (1 << size) - 1):
        return ops, -1 if bits == 0 else -2
    return ops, leaves[0][bits] if n_inputs == 1 else walk(bits, size, 0)


@dataclass
class IRNode:
    """One LUT node, mutable so passes can rewrite it in place.

    Unlike :class:`~repro.core.netlist.NetlistNode`, the invariants (table
    size, duplicate inputs) are checked by :meth:`IRGraph.validate` rather
    than at construction, so a pass may move a node through transiently
    inconsistent states while rewriting it.
    """

    name: str
    kind: str
    inputs: List[str]
    bits: int  # the truth table: bit ``a`` is ``table[a]``
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._size = 1 << len(self.inputs)  # entries; validate() holds inputs to it

    def rewrite(self, inputs: List[str], bits: int) -> None:
        """Replace the node's function: ``bits`` is its table over ``inputs``."""
        self.inputs, self.bits, self._size = inputs, bits, 1 << len(inputs)

    @property
    def table(self) -> np.ndarray:
        """The truth table as a fresh ``(2**n_inputs,)`` ``uint8`` array."""
        return bits_table(self.bits, len(self.inputs))

    @table.setter
    def table(self, table: np.ndarray) -> None:
        table = np.asarray(table, dtype=np.uint8)
        self.bits, self._size = table_bits(table), table.size

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def is_constant(self) -> bool:
        """True for zero-input nodes (the IR's constant representation)."""
        return not self.inputs

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"node {self.name!r} is not a constant")
        return self.bits & 1


class IRGraph:
    """A topologically ordered, name-indexed DAG of :class:`IRNode` LUTs."""

    def __init__(self, n_primary_inputs: int) -> None:
        if n_primary_inputs <= 0:
            raise ValueError("n_primary_inputs must be positive")
        self.n_primary_inputs = n_primary_inputs
        self._nodes: List[IRNode] = []
        self._by_name: Dict[str, IRNode] = {}
        self.outputs: List[str] = []

    # ------------------------------------------------------------ conversion
    @classmethod
    def from_netlist(cls, netlist: LUTNetlist) -> "IRGraph":
        """Build an IR graph from a netlist; tables are copied, not shared."""
        graph = cls(n_primary_inputs=netlist.n_primary_inputs)
        for node in netlist.nodes:
            graph.add_node(
                node.name,
                node.kind,
                list(node.input_signals),
                node.table,
                dict(node.metadata),
            )
        graph.outputs = list(netlist.output_signals)
        return graph

    def to_netlist(self) -> LUTNetlist:
        """Lower back to an immutable netlist (validates on the way out)."""
        netlist = LUTNetlist(n_primary_inputs=self.n_primary_inputs)
        for node in self._nodes:
            netlist.add_node(
                node.name, node.kind, list(node.inputs), node.table, dict(node.metadata)
            )
        for signal in self.outputs:
            netlist.mark_output(signal)
        return netlist

    # ------------------------------------------------------------- accessors
    @property
    def nodes(self) -> List[IRNode]:
        """The nodes in topological order (a live list — do not mutate)."""
        return self._nodes

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def node(self, name: str) -> IRNode:
        return self._by_name[name]

    def is_primary_input(self, signal: str) -> bool:
        return (
            is_primary_input(signal)
            and primary_input_index(signal) < self.n_primary_inputs
        )

    # -------------------------------------------------------------- building
    def add_node(
        self,
        name: str,
        kind: str,
        inputs: List[str],
        table: Union[np.ndarray, int],
        metadata: Optional[dict] = None,
    ) -> IRNode:
        """Append a node at the end of the topological order; ``table`` is
        the array, or the integer a pass already holds (:attr:`IRNode.bits`)."""
        if name in self._by_name:
            raise ValueError(f"duplicate node name {name!r}")
        if self.is_primary_input(name):
            raise ValueError(f"node name {name!r} shadows a primary input")
        node = IRNode(name, kind, list(inputs), 0, metadata or {})
        if isinstance(table, int):
            node.bits = table
        else:
            node.table = table
        self._nodes.append(node)
        self._by_name[name] = node
        return node

    def remove_nodes(self, names: Iterable[str]) -> None:
        """Drop a set of nodes; callers guarantee nothing still reads them."""
        doomed = set(names)
        if not doomed:
            return
        self._nodes = [n for n in self._nodes if n.name not in doomed]
        for name in doomed:
            self._by_name.pop(name, None)

    # -------------------------------------------------------------- analyses
    def fanout_counts(self) -> Dict[str, int]:
        """Number of reads of every node's output signal.

        Declared graph outputs count as one read each (they are read by the
        outside world), so a node with fanout zero is genuinely dead.
        """
        counts = {node.name: 0 for node in self._nodes}
        for node in self._nodes:
            for sig in node.inputs:
                if sig in counts:
                    counts[sig] += 1
        for sig in self.outputs:
            if sig in counts:
                counts[sig] += 1
        return counts

    def live_nodes(self) -> set:
        """Names of nodes reachable from the declared outputs."""
        live = set(self.outputs)
        for node in reversed(self._nodes):  # consumers come after producers
            if node.name in live:
                live.update(node.inputs)
        return live & self._by_name.keys()

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check the pass invariants; raises ``ValueError`` on violation."""
        seen: set = set()
        for node in self._nodes:
            if self._by_name.get(node.name) is not node:
                raise ValueError(f"node {node.name!r} is not indexed by name")
            expected = 1 << node.n_inputs
            if node._size != expected:
                raise ValueError(
                    f"node {node.name!r}: table must have {expected} entries, "
                    f"got {node._size}"
                )
            if len(set(node.inputs)) != len(node.inputs):
                raise ValueError(f"node {node.name!r}: duplicate input signals")
            for sig in node.inputs:
                if self.is_primary_input(sig) or sig in seen:
                    continue
                raise ValueError(
                    f"node {node.name!r} reads {sig!r} before it is defined"
                )
            seen.add(node.name)
        for sig in self.outputs:
            if sig not in seen and not self.is_primary_input(sig):
                raise ValueError(f"output {sig!r} is not produced by the graph")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IRGraph({self.n_nodes} nodes, {self.n_primary_inputs} inputs, "
            f"{len(self.outputs)} outputs)"
        )
