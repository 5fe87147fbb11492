"""Tests for wide-LUT decomposition."""

import numpy as np
import pytest

from repro.core import LUTNetlist
from repro.hardware import decompose_netlist, luts6_required
from repro.utils.bitops import enumerate_binary_inputs


class TestLuts6Required:
    @pytest.mark.parametrize("n_inputs,expected", [(1, 1), (4, 1), (6, 1), (7, 2), (8, 4), (10, 16)])
    def test_xilinx_counts(self, n_inputs, expected):
        assert luts6_required(n_inputs) == expected

    def test_paper_claim_for_p8(self):
        """Each 8-input LUT requires four 6-input Xilinx LUTs (§4.2)."""
        assert luts6_required(8, 6) == 4

    def test_other_physical_width(self):
        assert luts6_required(6, 4) == 4

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            luts6_required(0)
        with pytest.raises(ValueError):
            luts6_required(4, max_inputs=1)


class TestDecomposeNetlist:
    def _random_wide_netlist(self, rng, n_inputs=8):
        netlist = LUTNetlist(n_primary_inputs=n_inputs)
        table = (rng.random(2**n_inputs) < 0.5).astype(np.uint8)
        netlist.add_node("wide", "rinc0", [f"in{i}" for i in range(n_inputs)], table)
        netlist.mark_output("wide")
        return netlist

    @pytest.mark.parametrize("n_inputs", [4, 8, 9])
    def test_functional_equivalence(self, rng, n_inputs):
        netlist = self._random_wide_netlist(rng, n_inputs)
        decomposed = decompose_netlist(netlist, max_inputs=6)
        X = enumerate_binary_inputs(n_inputs)
        np.testing.assert_array_equal(
            netlist.evaluate_outputs(X), decomposed.evaluate_outputs(X)
        )

    def test_narrow_lut_untouched(self, rng):
        netlist = self._random_wide_netlist(rng, n_inputs=4)
        decomposed = decompose_netlist(netlist, max_inputs=6)
        (node,) = decomposed.nodes
        assert node.name == "wide" and node.input_signals == netlist.nodes[0].input_signals
        np.testing.assert_array_equal(node.table, netlist.nodes[0].table)

    @pytest.mark.parametrize("n_inputs", [8, 9])
    def test_all_nodes_within_width(self, rng, n_inputs):
        decomposed = decompose_netlist(self._random_wide_netlist(rng, n_inputs), max_inputs=6)
        assert all(node.n_inputs <= 6 for node in decomposed.nodes)

    @pytest.mark.parametrize("n_inputs,cofactors", [(7, 2), (8, 4), (9, 8)])
    def test_cofactor_count(self, rng, n_inputs, cofactors):
        """2**(P-6) cofactor LUTs under a binary tree of one fewer muxes."""
        decomposed = decompose_netlist(self._random_wide_netlist(rng, n_inputs), max_inputs=6)
        kinds = decomposed.count_by_kind()
        assert kinds == {"rinc0": cofactors, "mux": cofactors - 1}

    def test_invalid_max_inputs(self, rng):
        with pytest.raises(ValueError):
            decompose_netlist(self._random_wide_netlist(rng, n_inputs=3), max_inputs=1)

    def test_rinc_netlist_equivalence(self, wide_rinc_netlist, small_teacher_task):
        """Decomposing a trained P=8 RINC netlist preserves its predictions."""
        X = small_teacher_task.X_test
        decomposed = decompose_netlist(wide_rinc_netlist, max_inputs=6)
        np.testing.assert_array_equal(
            wide_rinc_netlist.evaluate_outputs(X), decomposed.evaluate_outputs(X)
        )
        assert all(node.n_inputs <= 6 for node in decomposed.nodes)

    def test_depth_increases_after_decomposition(self, wide_rinc_netlist):
        decomposed = decompose_netlist(wide_rinc_netlist, max_inputs=6)
        assert decomposed.logic_depth() > wide_rinc_netlist.logic_depth()
