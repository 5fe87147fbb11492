"""Optimisation passes over the engine IR.

The compiler pipeline between a :class:`~repro.core.netlist.LUTNetlist` and
the lowered :class:`~repro.engine.compiled_netlist.CompiledNetlist` program is
a sequence of ordered, individually testable passes over
:class:`~repro.engine.ir.IRGraph`:

``ConstantFoldPass``
    Propagates constants through truth tables, drops don't-care inputs
    (support reduction), eliminates identity buffers, and prunes every node
    unreachable from the declared outputs.  The synthesizer-style pruning
    of Table 7 (``repro.hardware.resources.prune_netlist``) is this pass.

``FuseChainsPass``
    Fuses single-fanout LUT chains into wider tables.  Fusion is driven by
    the packed engine's cost model — a LUT costs ``~2**P`` word muxes — so a
    chain is merged exactly when the fused table is *strictly cheaper* than
    the pair it replaces (equal cost is rejected, see "The fusion cost
    rule"), which also cuts levels, groups and scatter/gather traffic.

``DedupTablesPass``
    Merges structurally identical nodes — same ordered inputs, same truth
    table — into one, rewriting every consumer (and declared output) to the
    surviving copy.  Trained banks repeat tables constantly (tied trees,
    duplicated constants, mirrored comparators), and in the lowered program
    each survivor costs its word cascade exactly once.  The pass only ever
    removes nodes, so program cost (see :func:`table_cost`) never increases
    — an invariant the test suite asserts.

``DecomposePass``
    Shannon-decomposes LUTs wider than the physical fabric onto
    ``max_inputs``-input tables plus mux nodes, exactly like the FPGA
    synthesiser does with ``P = 8`` designs (``repro.hardware.lut_decompose``
    is a thin wrapper over this pass, so hardware codegen and the engine
    share one implementation).

Pass ordering
=============

:func:`default_passes` runs **fold → fuse → dedup → decompose**, and the
order is load-bearing:

* folding first shrinks supports (a constant or don't-care input severs a
  chain link), which both exposes more single-fanout chains to the fuser and
  keeps fused tables small;
* deduplication runs *after* fusion, not before: merging two copies of a
  node raises its fanout above one, which would block the chain walk from
  inlining either copy — fuse first, then collapse whatever identical
  tables remain (including ones fusion itself just created);
* fusion runs before decomposition because fusing *then* splitting can
  re-balance a deep chain onto the fabric, whereas decomposing first would
  introduce multi-fanout mux nodes that block the chain walk;
* decomposition runs late so the invariant "no node wider than
  ``max_inputs``" is established in one place (fusion is additionally capped
  at the fabric width, so it never builds a table decomposition would
  immediately split again);
* a second fold runs after decomposition to clean up degenerate cofactors
  (a cofactor table that collapsed to a constant or a buffer), and a second
  dedup after that catches equal cofactor tables decomposition splits out
  of sibling wide LUTs.

Each pass is a semantics-preserving graph-to-graph rewrite, so inserting a
custom pass anywhere in the list is safe as long as it preserves the
input/output behaviour.

The fusion cost rule
====================

The packed engine evaluates a ``P``-input LUT with ``2**P - 1`` word muxes,
so table cost is ``~2**P``.  Fusing a producer (width ``Pp``) into its sole
consumer (width ``Pc``) yields a table on the union support of width ``W``;
the fusion is accepted iff

    ``2**W  <  2**Pp + 2**Pc``

i.e. strictly cheaper than the pair it replaces.  Equal cost is rejected on
purpose: the rewrite would be measured as a loss once the extra
scatter/gather of the wider group is counted, and strictness keeps the pass
monotone (every accepted fusion reduces total mux count, so the walk
terminates without a fixpoint budget).  ``_MAX_TABLE_WIDTH`` caps ``W`` as a
safety net against pathological chains.

Two costs, one per executor
===========================

:func:`table_cost` (``sum(2**P)``) is what the *NumPy* executor runs — full
cascades — and what the fusion rule and ``DedupTablesPass`` count.  The
generated C folds constants and shares equal cofactors, so there a table
costs :func:`mux_cost` statements (the length of
:func:`repro.engine.ir.mux_ops`, the walk the code generator formats) and a
program :func:`statement_cost`, which is what the native segmenter budgets
by.  A pass that lowers one should be shown not to raise the other.

Every pass preserves the graph's input/output semantics bit for bit: for any
binary batch, ``run(graph).to_netlist().evaluate_outputs`` equals the
original netlist's.  The property tests in ``tests/engine/test_ir_passes.py``
enforce this per pass and for the full pipeline.  Passes compute on tables
as integers ("Truth tables as integers" in :mod:`repro.engine.ir`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.ir import (
    IRGraph,
    IRNode,
    cofactor,
    mux_ops,
    reexpress,
    table_bits,
    table_support,
)

#: Truth table of a 2:1 mux with address bits (select, a, b):
#: ``select = 0 -> a``, ``select = 1 -> b``.  Decomposition emits these and
#: the lowered program evaluates them with a dedicated 3-op word mux.
MUX_TABLE = np.array([0, 0, 1, 1, 0, 1, 0, 1], dtype=np.uint8)
_MUX_BITS = table_bits(MUX_TABLE)

#: Hard ceiling on fused table width; ``2**16`` entries is the largest table
#: worth materialising (the cost rule keeps real fusions far below this).
_MAX_TABLE_WIDTH = 16


class Pass:
    """Base class: a named graph-to-graph rewrite."""

    name: str = "pass"

    def run(self, graph: IRGraph) -> IRGraph:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class PassManager:
    """Runs an ordered sequence of passes.

    With ``validate=True`` the graph invariants are re-checked after every
    pass — cheap insurance while developing a new pass, skipped in
    production compiles.
    """

    def __init__(self, passes: Iterable[Pass], validate: bool = False) -> None:
        self.passes: List[Pass] = list(passes)
        self.validate = validate

    def run(self, graph: IRGraph) -> IRGraph:
        for p in self.passes:
            graph = p.run(graph)
            if self.validate:
                graph.validate()
        return graph


# --------------------------------------------------------------------------
# constant folding + support reduction + dead-node pruning
# --------------------------------------------------------------------------
class ConstantFoldPass(Pass):
    """Fold constants, drop don't-care inputs, prune dead nodes.

    One topological sweep per invocation, over the nodes the outputs can
    reach (a third of a raw bank can be dead on arrival, and the sweep should
    not rewrite what it is about to delete); most nodes need none of the
    following and cost a few integer operations on :attr:`IRNode.bits`:

    * zero-input nodes and nodes whose table collapses are recorded as
      constants and substituted into every consumer's truth table;
    * inputs a table does not actually depend on are dropped (support
      reduction — Shannon cofactors on that input are equal);
    * identity buffers (1-input ``[0, 1]`` tables) are aliased away;
    * finally, every node the sweep disconnected is removed.
    """

    name = "constant-fold"

    def run(self, graph: IRGraph) -> IRGraph:
        const: Dict[str, int] = {}
        # never chains: a buffer's input was itself resolved when it was visited
        alias: Dict[str, str] = {}
        self._prune(graph)
        for node in graph.nodes:
            inputs = [alias.get(sig, sig) for sig in node.inputs] if alias else node.inputs
            if (
                inputs != node.inputs
                or not const.keys().isdisjoint(inputs)
                or len(set(inputs)) != len(inputs)
            ):
                self._rebuild_table(node, inputs, const)
            bits, n = node.bits, node.n_inputs
            support = table_support(bits, n)
            if len(support) < n:
                for j in sorted(set(range(n)).difference(support), reverse=True):
                    bits = cofactor(bits, n, j, 0)
                    n -= 1
                node.rewrite([node.inputs[j] for j in support], bits)
            if n == 0:
                const[node.name] = bits
            elif n == 1 and bits == 0b10:
                alias[node.name] = node.inputs[0]
        graph.outputs = [alias.get(sig, sig) for sig in graph.outputs]
        self._prune(graph)
        return graph

    @staticmethod
    def _prune(graph: IRGraph) -> None:
        live = graph.live_nodes()
        graph.remove_nodes(
            [node.name for node in graph.nodes if node.name not in live]
        )

    @staticmethod
    def _rebuild_table(node: IRNode, inputs: List[str], const: Dict[str, int]) -> None:
        """Re-express the table over the distinct non-constant inputs."""
        kept = list(dict.fromkeys(sig for sig in inputs if sig not in const))
        node.rewrite(kept, reexpress(node.bits, inputs, kept, const))


# --------------------------------------------------------------------------
# single-fanout chain fusion
# --------------------------------------------------------------------------
class FuseChainsPass(Pass):
    """Fuse single-fanout LUT chains into wider tables.

    A node read by exactly one consumer (and not declared an output) can be
    inlined into that consumer by composing the truth tables — when that is
    strictly cheaper (module docstring, "The fusion cost rule"), so chains
    over a shared support collapse to a single table while wide LUTs are
    left alone.  ``max_width`` additionally caps the fused width; when the
    pipeline later decomposes onto a physical fabric, the cap is the fabric
    width, so fusion never creates a table the decomposer would immediately
    split back apart.
    """

    name = "fuse-chains"

    def __init__(self, max_width: Optional[int] = None) -> None:
        if max_width is not None and max_width < 1:
            raise ValueError("max_width must be positive")
        self.max_width = min(max_width or _MAX_TABLE_WIDTH, _MAX_TABLE_WIDTH)

    def run(self, graph: IRGraph) -> IRGraph:
        changed = True
        while changed:
            changed = False
            fanout = graph.fanout_counts()
            outputs = set(graph.outputs)
            fused: set = set()
            for parent in graph.nodes:
                if parent.name in fused:
                    continue
                while True:
                    child = self._pick_child(graph, parent, fanout, outputs, fused)
                    if child is None:
                        break
                    self._fuse(parent, child, fanout)
                    fused.add(child.name)
                    changed = True
            graph.remove_nodes(fused)
        return graph

    def _pick_child(
        self,
        graph: IRGraph,
        parent: IRNode,
        fanout: Dict[str, int],
        outputs: set,
        fused: set,
    ) -> Optional[IRNode]:
        for sig in parent.inputs:
            if sig not in graph or sig in outputs or sig in fused:
                continue
            if fanout.get(sig) != 1:
                continue
            child = graph.node(sig)
            if child.n_inputs == 0:
                continue  # constants are ConstantFoldPass territory
            width = len(self._fused_inputs(parent, child))
            if width > self.max_width:
                continue
            if (1 << width) < (1 << parent.n_inputs) + (1 << child.n_inputs):
                return child
        return None

    @staticmethod
    def _fused_inputs(parent: IRNode, child: IRNode) -> List[str]:
        inputs = [sig for sig in parent.inputs if sig != child.name]
        for sig in child.inputs:
            if sig not in inputs:
                inputs.append(sig)
        return inputs

    def _fuse(self, parent: IRNode, child: IRNode, fanout: Dict[str, int]) -> None:
        """Inline ``child`` into ``parent``, composing the truth tables."""
        inputs = self._fused_inputs(parent, child)
        # the parent's two cofactors on the child, muxed by the child itself
        low, high = (
            reexpress(parent.bits, parent.inputs, inputs, {child.name: value})
            for value in (0, 1)
        )
        bits = low ^ ((low ^ high) & reexpress(child.bits, child.inputs, inputs))
        # Signals read by both parent and child are merged into one column,
        # so their fanout drops by the number of duplicate reads.
        for sig in set(parent.inputs) & set(child.inputs):
            if sig in fanout:
                fanout[sig] -= 1
        fanout.pop(child.name, None)
        parent.rewrite(inputs, bits)
        parent.metadata.setdefault("fused_from", []).append(child.name)


# --------------------------------------------------------------------------
# structural truth-table deduplication
# --------------------------------------------------------------------------
def table_cost(graph) -> int:
    """The packed engine's cost model: ``sum(2**P)`` over all live nodes.

    A ``P``-input LUT lowers to ``2**P - 1`` word muxes (plus a constant
    broadcast at ``P = 0``), so this is the mux-count proxy every
    cost-driven pass optimises against.  Duck-typed over anything with
    ``.nodes`` carrying ``n_inputs`` — both :class:`~repro.engine.ir.IRGraph`
    and :class:`~repro.core.netlist.LUTNetlist`.  The NumPy executor's price;
    the generated C is priced by :func:`statement_cost`.
    """
    return sum(1 << node.n_inputs for node in graph.nodes)


def mux_cost(table: np.ndarray) -> int:
    """Statements the generated C spends on one truth table: the length of
    :func:`repro.engine.ir.mux_ops`, at most ``2**P - 1`` and, unlike
    :func:`table_cost`, dependent on the table's content and input order."""
    table = np.asarray(table)
    return len(mux_ops(table_bits(table), table.size.bit_length() - 1)[0])


def statement_cost(graph) -> int:
    """Statements :func:`~repro.engine.native.generate_c_source` emits for a
    program: per node :func:`mux_cost` plus the slot store, and one for a
    constant or a mux-shaped node.  Duck-typed like :func:`table_cost`."""
    total = 0
    for node in graph.nodes:
        bits = table_bits(node.table)
        if node.n_inputs == 0 or (node.n_inputs == 3 and bits == _MUX_BITS):
            total += 1
        else:
            total += len(mux_ops(bits, node.n_inputs)[0]) + 1
    return total


class DedupTablesPass(Pass):
    """Merge structurally identical nodes into one shared copy.

    One topological sweep: each node's inputs are first rewritten through
    the alias map (so duplicates whose inputs were themselves duplicates
    still converge), then the node is keyed by ``(inputs, table bits)``.
    The first node with a given key survives; later ones are aliased to it
    and removed, with declared outputs re-pointed at the survivor (the IR
    contract allows output aliasing — ``ConstantFoldPass`` relies on the
    same rule).  Aliases never chain: a surviving node is by construction
    never itself aliased.

    When aliasing makes a consumer read the same surviving signal through
    two of its inputs (its two producers were duplicates of each other),
    the consumer's table is re-expressed over the distinct inputs — a
    strictly narrower table, so the netlist invariant "no duplicate input
    signals" holds and cost still only goes down.

    The pass only removes nodes and never widens a table, so
    :func:`table_cost` is monotonically non-increasing — asserted by the
    property tests, and the reason it can sit anywhere in the pipeline
    without a budget check.
    """

    name = "dedup-tables"

    def run(self, graph: IRGraph) -> IRGraph:
        seen: Dict[Tuple, str] = {}
        alias: Dict[str, str] = {}
        dropped: List[str] = []
        for node in graph.nodes:
            inputs = [alias.get(sig, sig) for sig in node.inputs]
            if len(set(inputs)) != len(inputs):
                ConstantFoldPass._rebuild_table(node, inputs, {})
            else:
                node.inputs = inputs
            key = (tuple(node.inputs), node.bits)
            survivor = seen.get(key)
            if survivor is None:
                seen[key] = node.name
            else:
                alias[node.name] = survivor
                dropped.append(node.name)
        graph.outputs = [alias.get(sig, sig) for sig in graph.outputs]
        graph.remove_nodes(dropped)
        return graph


# --------------------------------------------------------------------------
# decomposition onto the physical LUT fabric
# --------------------------------------------------------------------------
class DecomposePass(Pass):
    """Shannon-decompose wide LUTs onto ``max_inputs``-input tables.

    A ``P > max_inputs`` node splits recursively on its most significant
    input into two cofactor tables combined by a mux node (kind ``"mux"``,
    table :data:`MUX_TABLE`) — the software mirror of Xilinx F7/F8 muxes.
    The final mux inherits the original node's name, so downstream output
    declarations and consumers are untouched.  Cofactors are named
    ``<n>_c0`` / ``<n>_c1`` and intermediate muxes ``<n>_mux``; every mux
    records ``decomposed_from``.  ``repro.hardware.lut_decompose`` delegates
    here.
    """

    name = "decompose"

    def __init__(self, max_inputs: int = 6) -> None:
        if max_inputs < 2:
            raise ValueError("max_inputs must be at least 2")
        self.max_inputs = max_inputs

    def run(self, graph: IRGraph) -> IRGraph:
        if all(node.n_inputs <= self.max_inputs for node in graph.nodes):
            return graph  # already on the fabric
        result = IRGraph(n_primary_inputs=graph.n_primary_inputs)
        for node in graph.nodes:
            self._split(result, node, node.name, list(node.inputs), node.bits)
        result.outputs = list(graph.outputs)
        return result

    def _split(
        self,
        result: IRGraph,
        node: IRNode,
        name: str,
        signals: List[str],
        bits: int,
    ) -> str:
        if len(signals) <= self.max_inputs:
            result.add_node(name, node.kind, signals, bits, dict(node.metadata))
            return name
        half = 1 << (len(signals) - 1)  # entries per cofactor on the MSB
        rest = signals[1:]
        low = self._split(result, node, f"{name}_c0", rest, bits & ((1 << half) - 1))
        high = self._split(result, node, f"{name}_c1", rest, bits >> half)
        mux_name = f"{name}_mux" if name != node.name else name
        result.add_node(
            mux_name,
            "mux",
            [signals[0], low, high],
            _MUX_BITS,
            {"decomposed_from": node.name},
        )
        return mux_name


# --------------------------------------------------------------------------
# pipeline assembly
# --------------------------------------------------------------------------
def default_passes(max_lut_inputs: Optional[int] = None) -> Tuple[Pass, ...]:
    """The default pipeline: fold → fuse → dedup [→ decompose → fold → dedup].

    Without a fabric width the pipeline folds, fuses, and deduplicates;
    with ``max_lut_inputs`` it additionally decomposes wide LUTs onto the
    fabric, folds once more to clean up degenerate cofactors, and
    deduplicates again to collapse equal cofactor tables the split exposed.
    Fusion is capped at the fabric width so it never produces a table
    decomposition would immediately split again.
    """
    passes: List[Pass] = [
        ConstantFoldPass(),
        FuseChainsPass(max_width=max_lut_inputs),
        DedupTablesPass(),
    ]
    if max_lut_inputs is not None:
        passes.append(DecomposePass(max_inputs=max_lut_inputs))
        passes.append(ConstantFoldPass())
        passes.append(DedupTablesPass())
    return tuple(passes)


def optimize_netlist(
    netlist,
    *,
    passes: Optional[Sequence[Pass]] = None,
    max_lut_inputs: Optional[int] = None,
):
    """Run the pass pipeline on a netlist, returning an equivalent netlist.

    ``passes=None`` selects :func:`default_passes`; an explicit empty
    sequence returns the input untouched (the raw PR-1 lowering).
    """
    if passes is None:
        passes = default_passes(max_lut_inputs)
    elif max_lut_inputs is not None:
        raise ValueError(
            "max_lut_inputs configures the default pipeline; "
            "with an explicit pass list, add DecomposePass yourself"
        )
    if not passes:
        return netlist
    graph = PassManager(passes).run(IRGraph.from_netlist(netlist))
    return graph.to_netlist()
