"""Tests for the LUT netlist container."""

import numpy as np
import pytest

from repro.core import LUTNetlist
from repro.core.netlist import is_primary_input, primary_input, primary_input_index


class TestSignalNames:
    def test_round_trip(self):
        assert primary_input_index(primary_input(17)) == 17

    def test_is_primary_input(self):
        assert is_primary_input("in3")
        assert not is_primary_input("node_1")
        assert not is_primary_input("input")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            primary_input(-1)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            primary_input_index("foo")


class TestReservedNamespace:
    """Regression: node names must not shadow primary inputs (and vice versa)."""

    def test_inputs_property(self):
        netlist = LUTNetlist(n_primary_inputs=3)
        assert netlist.inputs == ["in0", "in1", "in2"]

    def test_instance_detection_is_range_aware(self):
        netlist = LUTNetlist(n_primary_inputs=4)
        assert netlist.is_primary_input("in0")
        assert netlist.is_primary_input("in3")
        assert not netlist.is_primary_input("in4")  # syntactically valid, not declared
        assert not netlist.is_primary_input("node_1")

    def test_in_range_node_name_rejected(self):
        netlist = LUTNetlist(n_primary_inputs=4)
        with pytest.raises(ValueError, match="reserved"):
            netlist.add_node("in3", "rinc0", ["in0"], np.array([0, 1]))

    def test_out_of_range_in_name_is_a_legal_node(self):
        """A node named like ``in12`` beyond the input range is a plain node
        and must resolve to its own value, not to a primary input."""
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("in12", "rinc0", ["in0"], np.array([1, 0]))  # NOT in0
        netlist.add_node("reader", "mat", ["in12"], np.array([0, 1]))
        netlist.mark_output("reader")
        X = np.array([[0, 0], [1, 0]], dtype=np.uint8)
        # reader == in12 == NOT in0
        np.testing.assert_array_equal(netlist.evaluate_outputs(X)[:, 0], [1, 0])

    def test_out_of_range_in_name_as_output(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("in7", "rinc0", ["in1"], np.array([1, 0]))
        netlist.mark_output("in7")
        X = np.array([[0, 0], [0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(netlist.evaluate_outputs(X)[:, 0], [1, 0])

    def test_out_of_range_reference_still_rejected(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        with pytest.raises(ValueError, match="out of range"):
            netlist.add_node("a", "rinc0", ["in5"], np.array([0, 1]))

    def test_node_named_like_input_excluded_from_used_inputs(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("in9", "rinc0", ["in0"], np.array([0, 1]))
        netlist.add_node("b", "mat", ["in9", "in1"], np.array([0, 0, 0, 1]))
        np.testing.assert_array_equal(netlist.used_primary_inputs(), [0, 1])


def _xor_netlist():
    """Small two-level netlist: out = (in0 XOR in1) AND in2."""
    netlist = LUTNetlist(n_primary_inputs=3)
    netlist.add_node("xor01", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
    netlist.add_node("and2", "mat", ["xor01", "in2"], np.array([0, 0, 0, 1]))
    netlist.mark_output("and2")
    return netlist


class TestBuilding:
    # every rejection of add_node / mark_output, with its message:
    # test_table_validation.py
    def test_invalid_primary_input_count(self):
        with pytest.raises(ValueError):
            LUTNetlist(n_primary_inputs=0)

    def test_get_node(self):
        netlist = _xor_netlist()
        assert netlist.get_node("xor01").kind == "rinc0"
        with pytest.raises(KeyError):
            netlist.get_node("missing")


class TestEvaluation:
    def test_evaluate_known_function(self):
        netlist = _xor_netlist()
        X = np.array(
            [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 1]], dtype=np.uint8
        )
        out = netlist.evaluate_outputs(X)
        np.testing.assert_array_equal(out[:, 0], [0, 1, 0, 0])

    def test_wrong_input_width_rejected(self):
        netlist = _xor_netlist()
        with pytest.raises(ValueError):
            netlist.evaluate(np.zeros((2, 5), dtype=np.uint8))

    def test_no_outputs_declared(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
        with pytest.raises(RuntimeError):
            netlist.evaluate_outputs(np.zeros((1, 2), dtype=np.uint8))

    def test_primary_input_as_output(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
        netlist.mark_output("in1")
        X = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(netlist.evaluate_outputs(X)[:, 0], [1, 0])

    def test_evaluate_outputs_checks_its_inputs_once(self, monkeypatch):
        from repro.core import netlist as netlist_mod

        checks = []
        check = netlist_mod.check_binary_matrix
        monkeypatch.setattr(
            netlist_mod,
            "check_binary_matrix",
            lambda X, name: checks.append(name) or check(X, name),
        )
        netlist = _xor_netlist()
        netlist.mark_output("in0")  # a primary-input output reads X itself
        X = np.array([[0, 0, 1], [1, 1, 1]], dtype=bool)
        out = netlist.evaluate_outputs(X)
        assert checks == ["X_bits"]
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [[0, 0], [0, 1]])
        with pytest.raises(ValueError, match="^X_bits must contain only 0/1"):
            netlist.evaluate_outputs(np.full((1, 3), 2))


class TestStatistics:
    def test_n_luts_and_kinds(self):
        netlist = _xor_netlist()
        assert netlist.n_luts == 2
        assert netlist.count_by_kind() == {"rinc0": 1, "mat": 1}

    def test_used_primary_inputs(self):
        netlist = _xor_netlist()
        np.testing.assert_array_equal(netlist.used_primary_inputs(), [0, 1, 2])

    def test_logic_depth(self):
        netlist = _xor_netlist()
        assert netlist.logic_depth() == 2

    def test_logic_depth_single_level(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("a", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
        netlist.mark_output("a")
        assert netlist.logic_depth() == 1

    def test_logic_depth_empty(self):
        assert LUTNetlist(n_primary_inputs=1).logic_depth() == 0
