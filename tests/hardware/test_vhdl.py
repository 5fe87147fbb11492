"""Tests for VHDL and testbench generation."""

import numpy as np
import pytest

from repro.core import LUTNetlist
from repro.hardware import generate_testbench, generate_vhdl, prune_netlist
from repro.hardware.vhdl.codegen import _vhdl_identifier


def _small_netlist():
    netlist = LUTNetlist(n_primary_inputs=3)
    netlist.add_node("xor01", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
    netlist.add_node("and2", "mat", ["xor01", "in2"], np.array([0, 0, 0, 1]))
    netlist.mark_output("and2")
    return netlist


class TestIdentifierSanitisation:
    def test_lowercased(self):
        assert _vhdl_identifier("Node1") == "node1"

    def test_special_characters_replaced(self):
        assert _vhdl_identifier("n0_mat-out.x") == "n0_mat_out_x"

    def test_leading_digit_prefixed(self):
        assert _vhdl_identifier("0node").startswith("s_")


class TestGenerateVhdl:
    def test_contains_entity_and_architecture(self):
        code = generate_vhdl(_small_netlist(), entity_name="classifier")
        assert "entity classifier is" in code
        assert "architecture lut_network of classifier" in code
        assert "end architecture lut_network;" in code

    def test_port_widths(self):
        code = generate_vhdl(_small_netlist())
        assert "features : in  std_logic_vector(2 downto 0);" in code
        assert "outputs  : out std_logic_vector(0 downto 0)" in code

    def test_one_constant_per_node(self):
        code = generate_vhdl(_small_netlist())
        assert code.count("constant table_") == 2

    def test_truth_tables_embedded(self):
        code = generate_vhdl(_small_netlist())
        assert '"0110"' in code  # XOR table
        assert '"0001"' in code  # AND table

    def test_outputs_wired(self):
        code = generate_vhdl(_small_netlist())
        assert "outputs(0) <= and2;" in code

    def test_requires_outputs(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
        with pytest.raises(ValueError):
            generate_vhdl(netlist)

    def test_trained_rinc_netlist_generates(self, rinc2_netlist):
        code = generate_vhdl(rinc2_netlist, entity_name="rinc_module")
        # one lookup assignment per node plus the output assignment
        assert code.count("<=") == rinc2_netlist.n_luts + len(rinc2_netlist.output_signals)
        assert f"std_logic_vector({rinc2_netlist.n_primary_inputs - 1} downto 0)" in code


class TestEmittedForms:
    def test_constant_node_emits_its_literal(self):
        # a table that ignores its input folds to a 0-input node
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("k", "rinc0", ["in0"], np.array([1, 1]))
        netlist.mark_output("k")
        pruned = prune_netlist(netlist)
        assert [node.n_inputs for node in pruned.nodes] == [0]
        code = generate_vhdl(pruned)
        assert "  k <= '1';" in code
        assert "std_logic_vector'()" not in code

    def test_one_input_index_is_an_aggregate(self):
        netlist = LUTNetlist(n_primary_inputs=3)
        netlist.add_node("inv", "rinc0", ["in2"], np.array([1, 0]))
        netlist.mark_output("inv")
        code = generate_vhdl(netlist)
        assert "inv <= table_inv(to_integer(unsigned(std_logic_vector'(0 => features(2)))));" in code

    def test_colliding_names_made_unique(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("Node", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
        netlist.add_node("node", "rinc0", ["in0", "in1"], np.array([0, 0, 0, 1]))
        netlist.add_node("outputs", "mat", ["Node", "node"], np.array([0, 1, 1, 1]))
        for name in ("Node", "node", "outputs"):
            netlist.mark_output(name)
        code = generate_vhdl(netlist)
        for ident in ("node", "node_1", "outputs_1"):
            assert code.count(f"  signal {ident} : std_logic;") == 1
            assert code.count(f"  constant table_{ident} :") == 1
        assert "outputs_1 <= table_outputs_1(to_integer(unsigned(std_logic_vector'(node & node_1))));" in code
        assert "outputs(0) <= node;" in code
        assert "outputs(1) <= node_1;" in code
        assert "outputs(2) <= outputs_1;" in code


class TestGenerateTestbench:
    def test_contains_dut_and_asserts(self):
        netlist = _small_netlist()
        stimulus = np.array([[0, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        bench = generate_testbench(netlist, stimulus, entity_name="classifier")
        assert "entity work.classifier" in bench
        assert bench.count("assert outputs =") == 3
        assert "severity error" in bench

    def test_expected_values_match_simulation(self):
        netlist = _small_netlist()
        stimulus = np.array([[1, 0, 1]], dtype=np.uint8)  # xor=1, and in2=1 -> 1
        bench = generate_testbench(netlist, stimulus)
        assert 'assert outputs = "1"' in bench

    def test_wrong_stimulus_width_rejected(self):
        with pytest.raises(ValueError):
            generate_testbench(_small_netlist(), np.zeros((2, 5), dtype=np.uint8))

    def test_empty_stimulus_rejected(self):
        with pytest.raises(ValueError):
            generate_testbench(_small_netlist(), np.zeros((0, 3), dtype=np.uint8))

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            generate_testbench(
                _small_netlist(), np.zeros((1, 3), dtype=np.uint8), check_interval_ns=0
            )

    def test_feature_vector_bit_order(self):
        """features(i) in the testbench literal corresponds to primary input i."""
        netlist = LUTNetlist(n_primary_inputs=3)
        netlist.add_node("buf", "rinc0", ["in2"], np.array([0, 1]))
        netlist.mark_output("buf")
        stimulus = np.array([[0, 0, 1]], dtype=np.uint8)  # only in2 is high
        bench = generate_testbench(netlist, stimulus)
        # VHDL literal is MSB (index 2) first -> "100"
        assert 'features <= "100";' in bench
        assert 'assert outputs = "1"' in bench
