"""Tests for netlist serialization (save / load round trips)."""

import json

import numpy as np
import pytest

from repro.core import (
    LUTNetlist,
    RINCClassifier,
    load_netlist,
    netlist_from_dict,
    netlist_to_dict,
    save_netlist,
)
from repro.datasets import make_binary_teacher_task


def _small_netlist():
    netlist = LUTNetlist(n_primary_inputs=4)
    netlist.add_node("a", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
    netlist.add_node(
        "m",
        "mat",
        ["a", "in2"],
        np.array([0, 0, 0, 1]),
        {"weights": np.array([0.7, 0.3]), "threshold": 0.0},
    )
    netlist.mark_output("m")
    return netlist


class TestDictRoundTrip:
    def test_structure_preserved(self):
        original = _small_netlist()
        restored = netlist_from_dict(netlist_to_dict(original))
        assert restored.n_primary_inputs == original.n_primary_inputs
        assert restored.n_luts == original.n_luts
        assert restored.output_signals == original.output_signals

    def test_evaluation_identical(self):
        original = _small_netlist()
        restored = netlist_from_dict(netlist_to_dict(original))
        from repro.utils.bitops import enumerate_binary_inputs

        X = enumerate_binary_inputs(4)
        np.testing.assert_array_equal(
            original.evaluate_outputs(X), restored.evaluate_outputs(X)
        )

    def test_mat_weights_restored_as_arrays(self):
        restored = netlist_from_dict(netlist_to_dict(_small_netlist()))
        weights = restored.get_node("m").metadata["weights"]
        assert isinstance(weights, np.ndarray)
        np.testing.assert_allclose(weights, [0.7, 0.3])

    def test_payload_is_json_serialisable(self):
        payload = netlist_to_dict(_small_netlist())
        text = json.dumps(payload)
        assert "rinc0" in text

    def test_unknown_version_rejected(self):
        payload = netlist_to_dict(_small_netlist())
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            netlist_from_dict(payload)


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        original = _small_netlist()
        path = save_netlist(original, tmp_path / "netlist.json")
        assert path.exists()
        restored = load_netlist(path)
        assert restored.n_luts == original.n_luts

    def test_trained_rinc_round_trip(self, tmp_path):
        """A trained RINC netlist survives serialization bit-exactly."""
        data = make_binary_teacher_task(n_train=800, n_test=200, n_features=64, seed=5)
        rinc = RINCClassifier(n_inputs=5, n_levels=1).fit(data.X_train, data.y_train)
        netlist, signal = rinc.to_netlist(n_primary_inputs=64)
        netlist.mark_output(signal)
        restored = load_netlist(save_netlist(netlist, tmp_path / "rinc.json"))
        np.testing.assert_array_equal(
            restored.evaluate_outputs(data.X_test),
            netlist.evaluate_outputs(data.X_test),
        )

    def test_pruning_still_works_after_reload(self, tmp_path):
        """A reloaded netlist prunes to the same nodes as the original."""
        from repro.hardware import prune_netlist

        original = _small_netlist()
        restored = load_netlist(save_netlist(original, tmp_path / "n.json"))
        pruned = prune_netlist(restored)
        assert netlist_to_dict(pruned) == netlist_to_dict(prune_netlist(original))
