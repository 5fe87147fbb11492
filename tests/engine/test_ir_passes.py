"""Engine IR and compiler-pass tests.

Every pass must preserve netlist semantics bit for bit; the property tests
check each pass individually and the full pipeline against
``LUTNetlist.evaluate_outputs`` on random DAGs (LUT widths 2..10, ragged and
empty batches).  The structural tests pin down what each pass is *for*:
folding really folds, fusion really fuses under the cost model, and
decomposition matches the hardware flow node for node.
"""

import numpy as np
import pytest

from repro.core import LUTNetlist
from repro.engine import (
    ConstantFoldPass,
    DecomposePass,
    DedupTablesPass,
    FuseChainsPass,
    IRGraph,
    MUX_TABLE,
    PassManager,
    compile_netlist,
    default_passes,
    optimize_netlist,
    random_netlist,
    table_cost,
)
from repro.utils.rng import as_rng

ALL_PASSES = [
    ConstantFoldPass(),
    FuseChainsPass(),
    DedupTablesPass(),
    DecomposePass(max_inputs=4),
    DecomposePass(max_inputs=6),
]


def _random_case(seed):
    rng = as_rng(9000 + seed)
    n_primary = int(rng.integers(2, 32))
    n_nodes = int(rng.integers(1, 90))
    netlist = random_netlist(
        n_primary, n_nodes, seed=seed, lut_widths=(2, 3, 4, 5, 6, 7, 8, 9, 10)
    )
    n_samples = int(rng.integers(0, 200))
    X = rng.integers(0, 2, size=(n_samples, n_primary), dtype=np.uint8)
    return netlist, X


class TestIRGraph:
    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_is_lossless(self, seed):
        netlist, X = _random_case(seed)
        back = IRGraph.from_netlist(netlist).to_netlist()
        assert [n.name for n in back.nodes] == [n.name for n in netlist.nodes]
        assert [n.kind for n in back.nodes] == [n.kind for n in netlist.nodes]
        assert back.output_signals == netlist.output_signals
        np.testing.assert_array_equal(
            back.evaluate_outputs(X), netlist.evaluate_outputs(X)
        )

    def test_tables_are_copied(self):
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
        netlist.mark_output("a")
        graph = IRGraph.from_netlist(netlist)
        graph.node("a").table[:] = 0
        assert netlist.nodes[0].table[1] == 1

    def test_fanout_counts_outputs_as_reads(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("a", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
        netlist.add_node("b", "rinc0", ["a"], np.array([1, 0]))
        netlist.mark_output("a")
        netlist.mark_output("b")
        fanout = IRGraph.from_netlist(netlist).fanout_counts()
        assert fanout == {"a": 2, "b": 1}

    def test_validate_rejects_broken_graph(self):
        graph = IRGraph(n_primary_inputs=2)
        graph.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
        graph.node("a").inputs = ["in0", "in1"]  # table is now too small
        with pytest.raises(ValueError):
            graph.validate()


class TestPassEquivalence:
    """The heart of the compiler contract: passes never change semantics."""

    @pytest.mark.parametrize("seed", range(12))
    def test_each_pass_is_equivalent(self, seed):
        netlist, X = _random_case(seed)
        reference = netlist.evaluate_outputs(X)
        for p in ALL_PASSES:
            graph = p.run(IRGraph.from_netlist(netlist))
            graph.validate()
            np.testing.assert_array_equal(
                graph.to_netlist().evaluate_outputs(X),
                reference,
                err_msg=f"pass {p.name} diverged on seed {seed}",
            )

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("max_lut_inputs", [None, 6, 4])
    def test_full_pipeline_is_equivalent(self, seed, max_lut_inputs):
        netlist, X = _random_case(seed)
        optimized = optimize_netlist(netlist, max_lut_inputs=max_lut_inputs)
        np.testing.assert_array_equal(
            optimized.evaluate_outputs(X), netlist.evaluate_outputs(X)
        )
        compiled = compile_netlist(netlist, max_lut_inputs=max_lut_inputs)
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )

    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65])
    def test_pipeline_on_ragged_batches(self, n_samples):
        netlist = random_netlist(10, 40, seed=7, lut_widths=(2, 5, 8))
        rng = as_rng(7)
        X = rng.integers(0, 2, size=(n_samples, 10), dtype=np.uint8)
        compiled = compile_netlist(netlist, max_lut_inputs=6)
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_pass_manager_runs_in_order_with_validation(self):
        netlist, X = _random_case(3)
        manager = PassManager(default_passes(max_lut_inputs=6), validate=True)
        graph = manager.run(IRGraph.from_netlist(netlist))
        assert all(node.n_inputs <= 6 for node in graph.nodes)
        np.testing.assert_array_equal(
            graph.to_netlist().evaluate_outputs(X), netlist.evaluate_outputs(X)
        )


class TestConstantFold:
    def test_folds_constant_cone(self):
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("one", "mat", [], np.array([1]))
        netlist.add_node("inv", "rinc0", ["one"], np.array([1, 0]))
        netlist.add_node("and2", "mat", ["inv", "in0"], np.array([0, 0, 0, 1]))
        netlist.mark_output("and2")
        graph = ConstantFoldPass().run(IRGraph.from_netlist(netlist))
        # inv(1) == 0, and2(0, x) == 0: the whole cone folds to constant 0
        assert graph.n_nodes == 1
        assert graph.node("and2").is_constant()
        assert graph.node("and2").constant_value() == 0

    def test_support_reduction_drops_dont_care_inputs(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        # table ignores its second input: f(a, b) = not a
        netlist.add_node("f", "rinc0", ["in0", "in1"], np.array([1, 1, 0, 0]))
        netlist.mark_output("f")
        graph = ConstantFoldPass().run(IRGraph.from_netlist(netlist))
        assert graph.node("f").inputs == ["in0"]
        np.testing.assert_array_equal(graph.node("f").table, [1, 0])

    def test_support_reduced_buffer_aliases_to_its_input(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        # f(a, b) = a: support reduction leaves an identity buffer, which
        # aliases away entirely — the output becomes the primary input
        netlist.add_node("f", "rinc0", ["in0", "in1"], np.array([0, 0, 1, 1]))
        netlist.mark_output("f")
        graph = ConstantFoldPass().run(IRGraph.from_netlist(netlist))
        assert graph.n_nodes == 0
        assert graph.outputs == ["in0"]
        X = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(
            graph.to_netlist().evaluate_outputs(X), netlist.evaluate_outputs(X)
        )

    def test_identity_buffer_is_aliased_away(self):
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("buf", "rinc0", ["in0"], np.array([0, 1]))
        netlist.add_node("inv", "rinc0", ["buf"], np.array([1, 0]))
        netlist.mark_output("inv")
        graph = ConstantFoldPass().run(IRGraph.from_netlist(netlist))
        assert graph.n_nodes == 1
        assert graph.node("inv").inputs == ["in0"]

    def test_dead_nodes_pruned(self):
        netlist = random_netlist(8, 50, seed=11, n_outputs=2)
        graph = ConstantFoldPass().run(IRGraph.from_netlist(netlist))
        live = graph.live_nodes()
        assert all(node.name in live for node in graph.nodes)
        assert graph.n_nodes < 50

    def test_inverters_survive(self):
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("inv", "rinc0", ["in0"], np.array([1, 0]))
        netlist.mark_output("inv")
        graph = ConstantFoldPass().run(IRGraph.from_netlist(netlist))
        assert graph.n_nodes == 1


class TestFuseChains:
    def _chain(self, length, width=2):
        """A single chain of 2-input LUTs ending in the only output."""
        netlist = LUTNetlist(n_primary_inputs=2)
        previous = "in0"
        for i in range(length):
            netlist.add_node(
                f"c{i}", "rinc0", [previous, "in1"], np.array([0, 1, 1, 0])
            )
            previous = f"c{i}"
        netlist.mark_output(previous)
        return netlist

    def test_chain_collapses_to_one_lut(self):
        netlist = self._chain(40)
        graph = FuseChainsPass().run(IRGraph.from_netlist(netlist))
        # every link reads the same two signals, so the fused support stays 2
        assert graph.n_nodes == 1
        assert graph.node("c39").n_inputs == 2

    def test_fusion_respects_cost_model(self):
        # two disjoint-support 6-input LUTs: fusing would cost 2**11 > 2**7,
        # so the chain must be left alone
        netlist = LUTNetlist(n_primary_inputs=11)
        rng = as_rng(0)
        netlist.add_node(
            "a", "rinc0", [f"in{i}" for i in range(6)],
            rng.integers(0, 2, size=64, dtype=np.uint8),
        )
        netlist.add_node(
            "b", "mat", ["a"] + [f"in{i}" for i in range(6, 11)],
            rng.integers(0, 2, size=64, dtype=np.uint8),
        )
        netlist.mark_output("b")
        graph = FuseChainsPass().run(IRGraph.from_netlist(netlist))
        assert graph.n_nodes == 2

    def test_fusion_respects_max_width(self):
        # child (3 inputs) into parent (3 inputs, all shared): fused width
        # 3, cost 2**3 < 2**3 + 2**3 — admitted by the cost model
        netlist = LUTNetlist(n_primary_inputs=3)
        rng = as_rng(1)
        netlist.add_node(
            "a", "rinc0", ["in0", "in1", "in2"],
            rng.integers(0, 2, size=8, dtype=np.uint8),
        )
        netlist.add_node(
            "b", "mat", ["a", "in0", "in1"],
            rng.integers(0, 2, size=8, dtype=np.uint8),
        )
        netlist.mark_output("b")
        fused = FuseChainsPass().run(IRGraph.from_netlist(netlist))
        assert fused.n_nodes == 1
        capped = FuseChainsPass(max_width=2).run(IRGraph.from_netlist(netlist))
        assert capped.n_nodes == 2  # the width cap forbids it

    def test_cost_model_rejects_equal_and_widening_pairs(self):
        # disjoint 2-input child into 2-input parent: fused width 3, cost
        # 2**3 == 2**2 + 2**2 — an equal-cost fusion, rejected (it trades
        # saved gather/scatter for a deeper cascade)
        netlist = LUTNetlist(n_primary_inputs=3)
        rng = as_rng(2)
        netlist.add_node(
            "a", "rinc0", ["in0", "in1"], rng.integers(0, 2, size=4, dtype=np.uint8)
        )
        netlist.add_node(
            "b", "mat", ["a", "in2"], rng.integers(0, 2, size=4, dtype=np.uint8)
        )
        netlist.mark_output("b")
        graph = FuseChainsPass().run(IRGraph.from_netlist(netlist))
        assert graph.n_nodes == 2
        # child (3 inputs) into parent (2 inputs, disjoint): strictly
        # widening, 2**4 > 2**2 + 2**3 — also rejected
        netlist = LUTNetlist(n_primary_inputs=4)
        netlist.add_node(
            "c", "rinc0", ["in0", "in1", "in2"],
            rng.integers(0, 2, size=8, dtype=np.uint8),
        )
        netlist.add_node(
            "d", "mat", ["c", "in3"], rng.integers(0, 2, size=4, dtype=np.uint8)
        )
        netlist.mark_output("d")
        graph = FuseChainsPass().run(IRGraph.from_netlist(netlist))
        assert graph.n_nodes == 2

    def test_outputs_are_never_fused_away(self):
        netlist = self._chain(5)
        netlist.mark_output("c2")  # an interior link is externally visible
        graph = FuseChainsPass().run(IRGraph.from_netlist(netlist))
        names = {node.name for node in graph.nodes}
        assert "c2" in names and "c4" in names

    def test_fusion_reduces_depth_and_nodes(self):
        netlist = random_netlist(6, 80, seed=13, lut_widths=(2, 3), n_outputs=4)
        fused = FuseChainsPass().run(IRGraph.from_netlist(netlist))
        assert fused.n_nodes < 80
        assert fused.to_netlist().logic_depth() <= netlist.logic_depth()


class TestDedupTables:
    def _duplicated_trees(self):
        """Three copies of the same 2-input tree feeding one consumer."""
        netlist = LUTNetlist(n_primary_inputs=2)
        xor = np.array([0, 1, 1, 0], dtype=np.uint8)
        for i in range(3):
            netlist.add_node(f"t{i}", "rinc0", ["in0", "in1"], xor)
        netlist.add_node(
            "vote", "mat", ["t0", "t1", "t2"],
            np.array([0, 0, 0, 1, 0, 1, 1, 1], dtype=np.uint8),
        )
        netlist.mark_output("vote")
        return netlist

    def test_identical_tables_share_one_node(self):
        netlist = self._duplicated_trees()
        graph = DedupTablesPass().run(IRGraph.from_netlist(netlist))
        graph.validate()
        names = {node.name for node in graph.nodes}
        assert names == {"t0", "vote"}
        # the 3-way majority over three equal signals is the signal itself
        # after the consumer's table is re-expressed over distinct inputs
        assert graph.node("vote").inputs == ["t0"]
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(
            graph.to_netlist().evaluate_outputs(X),
            netlist.evaluate_outputs(X),
        )

    def test_transitive_duplicates_converge(self):
        # two identical chains: dedup at level 0 must expose (and collapse)
        # the level-1 duplicates whose inputs only match after aliasing
        netlist = LUTNetlist(n_primary_inputs=2)
        inv = np.array([1, 0], dtype=np.uint8)
        for side in ("a", "b"):
            netlist.add_node(f"{side}0", "rinc0", ["in0"], inv)
            netlist.add_node(f"{side}1", "rinc0", [f"{side}0"], inv)
        netlist.add_node(
            "xor", "mat", ["a1", "b1"], np.array([0, 1, 1, 0], dtype=np.uint8)
        )
        netlist.mark_output("xor")
        graph = DedupTablesPass().run(IRGraph.from_netlist(netlist))
        graph.validate()
        assert {node.name for node in graph.nodes} == {"a0", "a1", "xor"}

    def test_duplicate_outputs_are_re_pointed(self):
        netlist = LUTNetlist(n_primary_inputs=1)
        inv = np.array([1, 0], dtype=np.uint8)
        netlist.add_node("p", "rinc0", ["in0"], inv)
        netlist.add_node("q", "rinc0", ["in0"], inv)
        netlist.mark_output("p")
        netlist.mark_output("q")
        graph = DedupTablesPass().run(IRGraph.from_netlist(netlist))
        graph.validate()
        assert graph.outputs == ["p", "p"]
        X = np.array([[0], [1]], dtype=np.uint8)
        np.testing.assert_array_equal(
            graph.to_netlist().evaluate_outputs(X),
            netlist.evaluate_outputs(X),
        )

    def test_same_table_different_inputs_not_merged(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        inv = np.array([1, 0], dtype=np.uint8)
        netlist.add_node("p", "rinc0", ["in0"], inv)
        netlist.add_node("q", "rinc0", ["in1"], inv)
        netlist.mark_output("p")
        netlist.mark_output("q")
        graph = DedupTablesPass().run(IRGraph.from_netlist(netlist))
        assert graph.n_nodes == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_cost_never_increases(self, seed):
        """The satellite's cost-model assertion: dedup only removes work."""
        netlist, X = _random_case(seed)
        graph = IRGraph.from_netlist(netlist)
        before = table_cost(graph)
        graph = DedupTablesPass().run(graph)
        assert table_cost(graph) <= before
        np.testing.assert_array_equal(
            graph.to_netlist().evaluate_outputs(X),
            netlist.evaluate_outputs(X),
        )

    @pytest.mark.parametrize("max_lut_inputs", [None, 6, 4])
    def test_default_pipeline_cost_never_increases(self, max_lut_inputs):
        """End-to-end guard over the full (now dedup-bearing) pipeline on
        the shared-structure workload dedup exists for."""
        netlist, X = _random_case(5)
        optimized = optimize_netlist(netlist, max_lut_inputs=max_lut_inputs)
        if max_lut_inputs is None:
            # decomposition legitimately trades cost for fabric width, so
            # the monotonicity claim is for the non-decomposing pipeline
            assert table_cost(optimized) <= table_cost(netlist)
        np.testing.assert_array_equal(
            optimized.evaluate_outputs(X), netlist.evaluate_outputs(X)
        )


class TestDecompose:
    def test_matches_hardware_decomposition_exactly(self, rng):
        """Engine pass and hardware wrapper are one implementation."""
        from repro.hardware import decompose_netlist

        netlist = LUTNetlist(n_primary_inputs=9)
        table = rng.integers(0, 2, size=512, dtype=np.uint8)
        netlist.add_node("wide", "rinc0", [f"in{i}" for i in range(9)], table)
        netlist.mark_output("wide")
        via_pass = (
            DecomposePass(max_inputs=6).run(IRGraph.from_netlist(netlist)).to_netlist()
        )
        via_hardware = decompose_netlist(netlist, max_inputs=6)
        assert [n.name for n in via_pass.nodes] == [n.name for n in via_hardware.nodes]
        assert [n.kind for n in via_pass.nodes] == [n.kind for n in via_hardware.nodes]
        for a, b in zip(via_pass.nodes, via_hardware.nodes):
            assert a.input_signals == b.input_signals
            np.testing.assert_array_equal(a.table, b.table)

    def test_mux_nodes_use_the_canonical_table(self, rng):
        netlist = LUTNetlist(n_primary_inputs=8)
        table = rng.integers(0, 2, size=256, dtype=np.uint8)
        netlist.add_node("w", "rinc0", [f"in{i}" for i in range(8)], table)
        netlist.mark_output("w")
        graph = DecomposePass(max_inputs=6).run(IRGraph.from_netlist(netlist))
        muxes = [n for n in graph.nodes if n.kind == "mux"]
        assert len(muxes) == 3
        for mux in muxes:
            np.testing.assert_array_equal(mux.table, MUX_TABLE)
        assert muxes[-1].name == "w"  # the root mux keeps the node's name

    def test_rejects_tiny_fabric(self):
        with pytest.raises(ValueError):
            DecomposePass(max_inputs=1)


class TestOptimizeNetlist:
    def test_empty_pass_list_is_identity(self):
        netlist = random_netlist(5, 10, seed=2)
        assert optimize_netlist(netlist, passes=()) is netlist

    def test_explicit_passes_exclude_max_lut_inputs(self):
        netlist = random_netlist(5, 10, seed=2)
        with pytest.raises(ValueError):
            optimize_netlist(netlist, passes=(ConstantFoldPass(),), max_lut_inputs=6)

    def test_default_pipeline_decomposes_when_asked(self):
        netlist = random_netlist(16, 40, seed=3, lut_widths=(8,))
        optimized = optimize_netlist(netlist, max_lut_inputs=6)
        assert all(node.n_inputs <= 6 for node in optimized.nodes)
