"""Tests for the resource model and synthesizer-style pruning."""

import numpy as np
import pytest

from repro.core import LUTNetlist, MATModule, RINCClassifier
from repro.hardware import prune_netlist, resource_report
from repro.hardware.resources import output_layer_luts
from repro.utils.bitops import enumerate_binary_inputs


class TestOutputLayerLuts:
    def test_paper_value(self):
        # 10 classes x 8 bits = 80 LUTs (§4.3)
        assert output_layer_luts(10, 8) == 80

    def test_invalid(self):
        with pytest.raises(ValueError):
            output_layer_luts(0, 8)


class TestPaperLutCounts:
    def test_svhn_manual_calculation(self):
        """Reproduce the §4.3 arithmetic: 43 LUTs per RINC-2, 2660 total."""
        per_module = RINCClassifier.full_lut_count(6, 2)
        assert per_module == 43
        total = per_module * 60 + output_layer_luts(10, 8)
        assert total == 2660


_TREE_TABLES = [
    np.array([0, 1, 1, 0]),
    np.array([0, 0, 0, 1]),
    np.array([0, 1, 0, 1]),
    np.array([1, 0, 0, 1]),
]


def _netlist_with_weak_mat(weights):
    """2-input trees feeding one MAT whose metadata carries the given weights."""
    weights = np.asarray(weights, dtype=float)
    netlist = LUTNetlist(n_primary_inputs=2 * len(weights))
    tree_names = []
    for idx in range(len(weights)):
        name = f"t{idx}"
        netlist.add_node(
            name,
            "rinc0",
            [f"in{2 * idx}", f"in{2 * idx + 1}"],
            _TREE_TABLES[idx % len(_TREE_TABLES)],
        )
        tree_names.append(name)
    mat = MATModule(weights=weights)
    netlist.add_node(
        "mat",
        "mat",
        tree_names,
        mat.to_lut().table,
        {"weights": weights, "threshold": 0.0},
    )
    netlist.mark_output("mat")
    return netlist


class TestPruneNetlist:
    # t2's table [0, 1, 0, 1] is a wire from in5: pruning absorbs it into
    # its consumer whatever the MAT weights are.

    def test_balanced_weights_prune_only_the_wire(self):
        netlist = _netlist_with_weak_mat([1.0, 1.0, 1.0])
        pruned = prune_netlist(netlist)
        assert pruned.n_luts == 3
        assert [node.name for node in pruned.nodes] == ["t0", "t1", "mat"]
        assert pruned.nodes[-1].input_signals == ["t0", "t1", "in5"]

    def test_dominant_weight_prunes_all_others(self):
        # a weight of 2.0 outvotes the other two regardless of their outputs,
        # so both of their trees are dead logic
        netlist = _netlist_with_weak_mat([2.0, 1.0, 1e-9])
        pruned = prune_netlist(netlist)
        # the MAT reduces to a wire from t0, so t0 itself is the output
        assert pruned.n_luts == 1
        assert [node.name for node in pruned.nodes] == ["t0"]
        assert pruned.output_signals == ["t0"]

    def test_negligible_weight_tree_removed(self):
        # weights 1.0/1.0/0.9 all interact, only the 1e-9 tree is dead logic
        netlist = _netlist_with_weak_mat([1.0, 1.0, 0.9, 1e-9])
        pruned = prune_netlist(netlist)
        assert pruned.n_luts == 3  # t3 is dead logic, t2 a wire
        assert [node.name for node in pruned.nodes] == ["t0", "t1", "mat"]

    def test_unreferenced_node_removed(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("used", "rinc0", ["in0"], np.array([0, 1]))
        netlist.add_node("dead", "rinc0", ["in1"], np.array([0, 1]))
        netlist.mark_output("used")
        pruned = prune_netlist(netlist)
        # "used" is a wire from in0 too, so no node is left at all
        assert [node.name for node in pruned.nodes] == []
        assert pruned.output_signals == ["in0"]


def _mat_weight_reference(netlist):
    """What pruning by AdaBoost weight alone keeps, and what it drops.

    Returns the names of the nodes the outputs still reach once every MAT
    input :meth:`MATModule.effective_inputs` drops is cut, and the dropped
    ``(mat, signal)`` pairs.
    """
    reads, dropped = {}, []
    for node in netlist.nodes:
        signals = list(node.input_signals)
        if node.kind == "mat" and "weights" in node.metadata:
            mat = MATModule(
                weights=np.asarray(node.metadata["weights"], dtype=float),
                threshold=float(node.metadata.get("threshold", 0.0)),
            )
            keep = set(mat.effective_inputs().tolist())
            dropped += [(node.name, sig) for i, sig in enumerate(signals) if i not in keep]
            signals = [sig for i, sig in enumerate(signals) if i in keep]
        reads[node.name] = signals
    kept, stack = set(), list(netlist.output_signals)
    while stack:
        signal = stack.pop()
        if signal in reads and signal not in kept:
            kept.add(signal)
            stack.extend(reads[signal])
    return kept, dropped


class TestPruneCoversMatWeightReference:
    """Pruning removes everything the MAT-weight reference removes, bit-exactly."""

    def _check(self, netlist, X):
        kept, dropped = _mat_weight_reference(netlist)
        pruned = prune_netlist(netlist)
        by_name = {node.name: node for node in pruned.nodes}
        assert by_name.keys() <= kept
        for mat_name, signal in dropped:
            if mat_name in by_name:
                assert signal not in by_name[mat_name].input_signals
        np.testing.assert_array_equal(
            netlist.evaluate_outputs(X), pruned.evaluate_outputs(X)
        )
        return dropped

    @pytest.mark.parametrize(
        "weights,n_dropped",
        [([2.0, 1.0, 1e-9], 2), ([1.0, 1.0, 0.9, 1e-9], 1), ([1.0, 1.0, 1.0], 0)],
    )
    def test_weak_mat(self, weights, n_dropped):
        netlist = _netlist_with_weak_mat(weights)
        X = enumerate_binary_inputs(netlist.n_primary_inputs)
        assert len(self._check(netlist, X)) == n_dropped

    def test_rinc2_netlist(self, rinc2_netlist, small_teacher_task):
        assert len(self._check(rinc2_netlist, small_teacher_task.X_test)) == 2

    def test_trained_poetbin(self, trained_poetbin):
        clf, X, _, _ = trained_poetbin
        self._check(clf.to_netlist(), X)


class TestResourceReport:
    def test_report_fields(self, rinc2_netlist):
        report = resource_report(rinc2_netlist, n_classes=10, output_bits=8)
        assert report.logical_luts > 0
        assert report.physical_luts >= report.logical_luts
        assert report.output_layer_luts == 80
        assert report.total_physical_luts == report.physical_luts + 80
        assert 0.0 <= report.pruned_fraction <= 1.0

    def test_wide_luts_cost_more_physical(self, wide_rinc_netlist):
        report = resource_report(wide_rinc_netlist, prune=False)
        # the four 8-input tree LUTs cost four physical LUTs each; the 4-input
        # MAT LUT still fits in one
        assert report.luts_by_kind == {"rinc0": 4, "mat": 1}
        assert report.physical_luts == 4 * 4 + 1

    def test_narrow_luts_one_to_one(self, rinc2_netlist):
        report = resource_report(rinc2_netlist, prune=False)
        assert report.physical_luts == report.logical_luts

    def test_pruning_reported(self):
        netlist = _netlist_with_weak_mat([1.0, 1.0, 0.9, 1e-9])
        report = resource_report(netlist)
        assert report.pruned_luts == 2  # t3 (dead) and t2 (a wire)
        assert report.pruned_fraction == pytest.approx(2 / 5)

    def test_constant_node_is_not_a_physical_lut(self):
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("k", "rinc0", ["in0"], np.array([1, 1]))
        netlist.mark_output("k")
        report = resource_report(netlist)
        assert (report.logical_luts, report.physical_luts) == (1, 0)

    def test_kind_counts(self, rinc2_netlist):
        report = resource_report(rinc2_netlist, prune=False)
        assert report.luts_by_kind["rinc0"] == 12  # 3 subgroups x 4 trees
        assert report.luts_by_kind["mat"] == 4  # 3 inner + 1 outer
