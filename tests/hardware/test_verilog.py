"""Tests for Verilog and Verilog-testbench generation."""

import numpy as np
import pytest

from repro.core import LUTNetlist
from repro.hardware import generate_verilog, generate_verilog_testbench, prune_netlist
from repro.hardware.verilog.codegen import verilog_identifier


def _small_netlist():
    netlist = LUTNetlist(n_primary_inputs=3)
    netlist.add_node("xor01", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
    netlist.add_node("and2", "mat", ["xor01", "in2"], np.array([0, 0, 0, 1]))
    netlist.mark_output("and2")
    return netlist


class TestIdentifier:
    def test_lowercased_and_sanitised(self):
        assert verilog_identifier("N0-mat.out") == "n0_mat_out"

    def test_leading_digit(self):
        assert verilog_identifier("0node").startswith("s_")

    def test_leading_underscore_allowed(self):
        assert verilog_identifier("_temp") == "_temp"


class TestGenerateVerilog:
    def test_module_structure(self):
        code = generate_verilog(_small_netlist(), module_name="classifier")
        assert "module classifier (" in code
        assert "endmodule" in code
        assert "input  wire [2:0] features" in code
        assert "output wire [0:0] outputs" in code

    def test_truth_tables_embedded_lsb_first(self):
        code = generate_verilog(_small_netlist())
        # XOR table [0,1,1,0] -> literal with address 0 as the LSB: 0110
        assert "4'b0110" in code
        # AND table [0,0,0,1] -> 1000
        assert "4'b1000" in code

    def test_one_assign_per_node_plus_outputs(self):
        netlist = _small_netlist()
        code = generate_verilog(netlist)
        assert code.count("assign ") == netlist.n_luts + len(netlist.output_signals)

    def test_requires_outputs(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
        with pytest.raises(ValueError):
            generate_verilog(netlist)

    def test_trained_rinc_netlist_generates(self, rinc2_netlist):
        code = generate_verilog(rinc2_netlist, module_name="rinc_module")
        assert f"[{rinc2_netlist.n_primary_inputs - 1}:0] features" in code
        assert code.count("localparam") == rinc2_netlist.n_luts

    def test_matches_vhdl_backend_tables(self, rinc2_netlist):
        """Both backends embed the same truth tables for the same netlist."""
        from repro.hardware import generate_vhdl

        verilog = generate_verilog(rinc2_netlist)
        vhdl = generate_vhdl(rinc2_netlist)
        for node in rinc2_netlist.nodes:
            vhdl_literal = '"' + "".join(str(int(b)) for b in node.table) + '"'
            verilog_literal = (
                f"{len(node.table)}'b" + "".join(str(int(b)) for b in reversed(node.table))
            )
            assert vhdl_literal in vhdl
            assert verilog_literal in verilog


class TestEmittedForms:
    def test_constant_node_emits_its_literal(self):
        # a table that ignores its input folds to a 0-input node
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("k", "rinc0", ["in0"], np.array([1, 1]))
        netlist.mark_output("k")
        pruned = prune_netlist(netlist)
        assert [node.n_inputs for node in pruned.nodes] == [0]
        code = generate_verilog(pruned)
        assert "  assign k = 1'b1;" in code
        assert "[{}]" not in code

    def test_colliding_names_made_unique(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("Node", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
        netlist.add_node("node", "rinc0", ["in0", "in1"], np.array([0, 0, 0, 1]))
        netlist.add_node("features", "mat", ["Node", "node"], np.array([0, 1, 1, 1]))
        for name in ("Node", "node", "features"):
            netlist.mark_output(name)
        code = generate_verilog(netlist)
        for ident in ("node", "node_1", "features_1"):
            assert code.count(f"  wire {ident};") == 1
            assert code.count(f"TABLE_{ident.upper()} =") == 1
        assert "assign features_1 = TABLE_FEATURES_1[{node, node_1}];" in code
        assert "assign outputs[0] = node;" in code
        assert "assign outputs[1] = node_1;" in code
        assert "assign outputs[2] = features_1;" in code


class TestGenerateVerilogTestbench:
    def test_contains_dut_and_checks(self):
        netlist = _small_netlist()
        stimulus = np.array([[0, 0, 1], [1, 0, 1]], dtype=np.uint8)
        bench = generate_verilog_testbench(netlist, stimulus, module_name="classifier")
        assert "classifier dut" in bench
        assert bench.count("if (outputs !==") == 2
        assert "$finish;" in bench

    def test_expected_value_matches_simulation(self):
        netlist = _small_netlist()
        stimulus = np.array([[1, 0, 1]], dtype=np.uint8)  # xor=1 and in2=1 -> 1
        bench = generate_verilog_testbench(netlist, stimulus)
        assert "if (outputs !== 1'b1)" in bench

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            generate_verilog_testbench(_small_netlist(), np.zeros((1, 7), dtype=np.uint8))

    def test_empty_stimulus_rejected(self):
        with pytest.raises(ValueError):
            generate_verilog_testbench(_small_netlist(), np.zeros((0, 3), dtype=np.uint8))

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            generate_verilog_testbench(
                _small_netlist(), np.zeros((1, 3), dtype=np.uint8), check_interval_ns=0
            )

    def test_feature_bit_order(self):
        """features[i] corresponds to primary input i in the stimulus literal."""
        netlist = LUTNetlist(n_primary_inputs=3)
        netlist.add_node("buf", "rinc0", ["in2"], np.array([0, 1]))
        netlist.mark_output("buf")
        stimulus = np.array([[0, 0, 1]], dtype=np.uint8)  # only in2 high
        bench = generate_verilog_testbench(netlist, stimulus)
        assert "features = 3'b100;" in bench
        assert "if (outputs !== 1'b1)" in bench
