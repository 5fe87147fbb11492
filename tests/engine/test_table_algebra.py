"""The integer truth-table algebra against its NumPy reference.

The compiler carries a table as one Python ``int`` (bit ``a`` = ``table[a]``)
and ``repro.engine.ir`` does its cofactors, support detection and
re-expression with shifts and masks.  The formulation those replaced — the
``reshape((2,) * n)`` cube, ``np.take`` cofactors, ``enumerate_binary_inputs``
gathers — lives on here, and only here, as the reference every operation must
equal on generated tables: widths 0-10 with planted don't-care inputs, plus
fixed cases at 12 and 16.  Then the two things built on the algebra: the
statement costs, which must be what the code generator really emits, and the
two views of ``IRNode``, which must not be able to disagree.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LUTNetlist
from repro.engine import (
    CompiledNetlist,
    ConstantFoldPass,
    DecomposePass,
    IRGraph,
    PassManager,
    default_passes,
    mux_cost,
    optimize_netlist,
    random_netlist,
    statement_cost,
)
from repro.engine import ir
from repro.engine.native import _emit_lut, _node_blocks
from repro.utils.bitops import binary_to_index, enumerate_binary_inputs

from test_codegen_golden import NETLISTS


# ------------------------------------------------------ the NumPy reference
def ref_support(table, n):
    cube = table.reshape((2,) * n)
    return [
        axis
        for axis in range(n)
        if not np.array_equal(np.take(cube, 0, axis=axis), np.take(cube, 1, axis=axis))
    ]


def ref_cofactor(table, n, axis, value):
    return np.take(table.reshape((2,) * n), value, axis=axis).reshape(-1)


def ref_reexpress(table, inputs, new_inputs, const):
    rows = enumerate_binary_inputs(len(new_inputs))
    columns = [
        np.full(rows.shape[0], const[sig], dtype=np.uint8)
        if sig in const
        else rows[:, new_inputs.index(sig)]
        for sig in inputs
    ]
    if not columns:
        return np.repeat(table, rows.shape[0])
    return table[binary_to_index(np.column_stack(columns))]


def planted_table(rng, n, dont_care):
    """A random ``n``-input table that ignores the inputs in ``dont_care``."""
    table = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
    address = np.arange(1 << n)
    for axis in dont_care:
        table = table[address & ~(1 << (n - 1 - axis))]
    return table


@st.composite
def tables(draw, max_width=10):
    n = draw(st.integers(0, max_width))
    dont_care = draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return planted_table(rng, n, dont_care), n


def wide_cases():
    rng = np.random.default_rng(16)
    return [
        (planted_table(rng, 12, {0, 5, 11}), 12),
        (planted_table(rng, 12, set()), 12),
        (planted_table(rng, 16, {1, 2, 9, 15}), 16),
    ]


def check_algebra(table, n, rng):
    bits = ir.table_bits(table)
    np.testing.assert_array_equal(ir.bits_table(bits, n), table)
    support = ir.table_support(bits, n)
    assert support == ref_support(table, n)
    for axis in range(n):
        halves = [ir.cofactor(bits, n, axis, value) for value in (0, 1)]
        for value in (0, 1):
            np.testing.assert_array_equal(
                ir.bits_table(halves[value], n - 1), ref_cofactor(table, n, axis, value)
            )
        # dropping a don't-care input is either cofactor
        assert (halves[0] == halves[1]) == (axis not in support)
    # re-expression: constants, one signal read twice, a permuted and padded list
    pool = [f"s{i}" for i in range(max(n, 1))]
    inputs = [pool[i] for i in rng.integers(0, len(pool), size=n)]
    const = {sig: int(rng.integers(0, 2)) for sig in set(inputs) if rng.random() < 0.3}
    new_inputs = sorted(set(inputs) - set(const)) + ["pad"] * int(rng.integers(0, 2))
    rng.shuffle(new_inputs)
    got = ir.reexpress(bits, inputs, new_inputs, const)
    np.testing.assert_array_equal(
        ir.bits_table(got, len(new_inputs)),
        ref_reexpress(table, inputs, new_inputs, const),
    )


class TestAgainstTheNumpyReference:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(tables(), st.integers(0, 2**32 - 1))
    def test_generated_tables(self, case, seed):
        check_algebra(*case, np.random.default_rng(seed))

    @pytest.mark.parametrize("case", range(3))
    def test_wide_tables(self, case):
        check_algebra(*wide_cases()[case], np.random.default_rng(case))

    def test_reexpress_is_the_identity_on_an_unchanged_list(self):
        inputs = ["a", "b", "c", "d"]
        assert ir.reexpress(0xBEEF, inputs, inputs) == 0xBEEF

    def test_reexpress_permutes_and_pads(self):
        # f(a, b) = a AND NOT b over (b, pad, a): entries with a = 1, b = 0
        table = np.array([0, 0, 1, 0], dtype=np.uint8)
        got = ir.reexpress(ir.table_bits(table), ["a", "b"], ["b", "pad", "a"])
        np.testing.assert_array_equal(
            ir.bits_table(got, 3), np.array([0, 1, 0, 1, 0, 0, 0, 0], dtype=np.uint8)
        )


# ----------------------------------------------------------- statement costs
def evaluate_ops(ops, root, n):
    """Run a ``mux_ops`` program on every address; the table it computes."""
    rows = enumerate_binary_inputs(n).astype(bool)
    values = {-1: np.zeros(1 << n, dtype=bool), -2: np.ones(1 << n, dtype=bool)}
    for d in range(n):
        values[-3 - 2 * d], values[-4 - 2 * d] = rows[:, d], ~rows[:, d]
    for k, (form, a, b, depth) in enumerate(ops):
        values[k] = np.where(rows[:, depth], values[b], values[a])
        assert form == 4 or {a, b} & {-1, -2}, "a one-arm form needs a constant arm"
    return values[root].astype(np.uint8)


class TestStatementCosts:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(tables(max_width=8))
    def test_mux_cost_is_what_emit_lut_emits(self, case):
        table, n = case
        statements = []
        _emit_lut(statements, [0], ir.table_bits(table), [f"s[{i}]" for i in range(n)])
        assert all(text.startswith("W t") for text in statements)
        assert mux_cost(table) == len(statements) <= max((1 << n) - 1, 0)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(tables(max_width=8))
    def test_mux_ops_compute_the_table(self, case):
        table, n = case
        ops, root = ir.mux_ops(ir.table_bits(table), n)
        np.testing.assert_array_equal(evaluate_ops(ops, root, n), table)

    @pytest.mark.parametrize("name", sorted(NETLISTS))
    def test_statement_cost_is_what_node_blocks_count(self, name):
        optimized = optimize_netlist(NETLISTS[name](), max_lut_inputs=6)
        blocks = _node_blocks(CompiledNetlist.from_netlist(optimized))
        assert statement_cost(optimized) == sum(count for _, count in blocks)
        assert statement_cost(IRGraph.from_netlist(optimized)) == statement_cost(optimized)

    def test_benchmark_fixture_statement_counts(self):
        """The per-fixture scoreboard docs/architecture.md quotes."""
        counts = {
            name: statement_cost(optimize_netlist(NETLISTS[name](), max_lut_inputs=6))
            for name in ("rinc_p6", "struct_p8", "random_dag")
        }
        assert counts == {"rinc_p6": 18244, "struct_p8": 8020, "random_dag": 8156}


# ------------------------------------------------- two views, one truth table
class TestNodeViews:
    def test_either_assignment_is_seen_through_both_views(self):
        graph = IRGraph(n_primary_inputs=2)
        node = graph.add_node("a", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
        assert node.bits == 0b0110
        node.table = np.array([1, 0, 0, 0])
        assert node.bits == 0b0001
        node.rewrite(["in1"], 0b10)
        np.testing.assert_array_equal(node.table, [0, 1])
        assert node.table.dtype == np.uint8
        graph.validate()

    def test_no_array_is_shared_with_the_node(self):
        """One stored form, so nothing can go stale: neither the array a table
        was assigned from nor the one a read returned is the node's own."""
        graph = IRGraph(n_primary_inputs=1)
        held = np.array([0, 1], dtype=np.uint8)
        node = graph.add_node("a", "rinc0", ["in0"], held)
        held[0] = 1
        node.table[1] = 0
        assert node.bits == 0b10
        np.testing.assert_array_equal(node.table, [0, 1])

    def test_validate_holds_the_inputs_to_the_table_size(self):
        graph = IRGraph(n_primary_inputs=3)
        node = graph.add_node("a", "rinc0", ["in0", "in1"], 0b0110)
        node.inputs = ["in0", "in1", "in2"]  # without a table to match
        with pytest.raises(ValueError, match="8 entries"):
            graph.validate()
        node.rewrite(node.inputs, 0b01100110)
        graph.validate()

    @pytest.mark.parametrize("seed", range(6))
    def test_table_assigned_by_hand_after_a_fold(self, seed):
        """A hand-written table between two pipeline runs is what compiles."""
        netlist = random_netlist(12, 40, seed=seed, lut_widths=(2, 3, 4, 5, 6, 7))
        graph = ConstantFoldPass().run(IRGraph.from_netlist(netlist))
        rng = np.random.default_rng(seed)
        by_hand = {
            node.name: rng.integers(0, 2, size=1 << node.n_inputs, dtype=np.uint8)
            for node in graph.nodes[::3]
        }
        expected = LUTNetlist(n_primary_inputs=12)
        for node in graph.nodes:
            table = by_hand.get(node.name, ir.bits_table(node.bits, node.n_inputs))
            expected.add_node(node.name, node.kind, list(node.inputs), table)
        for signal in graph.outputs:
            expected.mark_output(signal)
        for name, table in by_hand.items():
            graph.node(name).table = table
        rerun = PassManager(default_passes(4), validate=True).run(graph)
        X = rng.integers(0, 2, size=(200, 12), dtype=np.uint8)
        np.testing.assert_array_equal(
            rerun.to_netlist().evaluate_outputs(X), expected.evaluate_outputs(X)
        )


# ------------------------------------------------------------- wide tables
def test_a_20_input_node_folds_and_decomposes_with_bounded_masks():
    rng = np.random.default_rng(20)
    netlist = LUTNetlist(n_primary_inputs=20)
    netlist.add_node("one", "mat", [], np.array([1]))
    # reads a constant and ignores five of its inputs: folds to 14 inputs
    wide = planted_table(rng, 20, {1, 4, 8, 13, 19})
    netlist.add_node("wide", "mat", ["one"] + [f"in{i}" for i in range(19)], wide)
    netlist.mark_output("wide")
    graph = ConstantFoldPass().run(IRGraph.from_netlist(netlist))
    assert graph.node("wide").n_inputs == 14
    graph = DecomposePass(max_inputs=10).run(graph)
    graph.validate()
    assert max(node.n_inputs for node in graph.nodes) <= 10
    X = rng.integers(0, 2, size=(500, 20), dtype=np.uint8)
    np.testing.assert_array_equal(
        graph.to_netlist().evaluate_outputs(X), netlist.evaluate_outputs(X)
    )
    cached = sum(sys.getsizeof(mask) for masks in ir._AXIS_MASKS.values() for mask in masks)
    assert max(ir._AXIS_MASKS) <= ir._CACHED_MASK_WIDTH and cached < 100_000
