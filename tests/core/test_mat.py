"""Tests for the MAT (multiply-add-threshold) module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MATModule
from repro.utils.bitops import enumerate_binary_inputs


class TestConstruction:
    def test_basic(self):
        mat = MATModule(weights=[1.0, 2.0, 0.5])
        assert mat.n_inputs == 3

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            MATModule(weights=[])

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            MATModule(weights=np.ones(17))

    def test_from_adaboost(self):
        mat = MATModule.from_adaboost(np.array([0.3, 0.7]))
        assert mat.threshold == 0.0
        np.testing.assert_array_equal(mat.weights, [0.3, 0.7])


class TestEvaluate:
    def test_majority_vote_equal_weights(self):
        mat = MATModule(weights=[1.0, 1.0, 1.0])
        bits = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 1], [0, 0, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(mat.evaluate(bits), [1, 0, 1, 0])

    def test_weighted_vote_dominant_input(self):
        mat = MATModule(weights=[5.0, 1.0, 1.0])
        bits = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(mat.evaluate(bits), [1, 0])

    def test_tie_resolves_to_one(self):
        mat = MATModule(weights=[1.0, 1.0])
        bits = np.array([[1, 0]], dtype=np.uint8)
        assert mat.evaluate(bits)[0] == 1

    def test_matches_adaboost_sign_rule(self, rng):
        alphas = rng.uniform(0.1, 2.0, size=5)
        mat = MATModule.from_adaboost(alphas)
        bits = (rng.random((50, 5)) < 0.5).astype(np.uint8)
        signed = 2.0 * bits - 1.0
        expected = (signed @ alphas >= 0).astype(np.uint8)
        np.testing.assert_array_equal(mat.evaluate(bits), expected)

    def test_wrong_width_rejected(self):
        mat = MATModule(weights=[1.0, 1.0])
        with pytest.raises(ValueError):
            mat.evaluate(np.zeros((2, 3), dtype=np.uint8))


class TestToLut:
    def test_lut_matches_direct_evaluation(self, rng):
        weights = rng.uniform(-1.0, 2.0, size=4)
        mat = MATModule(weights=weights, threshold=0.3)
        lut = mat.to_lut()
        combos = enumerate_binary_inputs(4)
        np.testing.assert_array_equal(lut.evaluate(combos), mat.evaluate(combos))

    def test_custom_input_indices(self):
        mat = MATModule(weights=[1.0, 1.0])
        lut = mat.to_lut(input_indices=np.array([7, 3]))
        np.testing.assert_array_equal(lut.input_indices, [7, 3])

    def test_wrong_indices_length_rejected(self):
        mat = MATModule(weights=[1.0, 1.0])
        with pytest.raises(ValueError):
            mat.to_lut(input_indices=np.array([1, 2, 3]))


class TestEffectiveInputs:
    def test_all_inputs_matter_with_equal_weights(self):
        mat = MATModule(weights=[1.0, 1.0, 1.0])
        np.testing.assert_array_equal(mat.effective_inputs(), [0, 1, 2])

    def test_negligible_weight_pruned(self):
        # the third weight is too small to ever flip the decision: the partial
        # sums of the first two inputs (+-2 +-1) are never within 1e-6 of zero
        mat = MATModule(weights=[2.0, 1.0, 1e-6])
        assert 2 not in mat.effective_inputs()

    def test_zero_weight_pruned(self):
        mat = MATModule(weights=[1.0, 0.0])
        np.testing.assert_array_equal(mat.effective_inputs(), [0])


def test_table_to_lut_and_effective_inputs_reuse_one_enumeration(monkeypatch):
    """Once a width is enumerated, the MAT's table, LUT and pruning read
    the shared array: nothing is enumerated again."""
    from repro.utils import bitops

    mat = MATModule(weights=[2.0, 1.0, 1e-6, -1.5, 0.5, 0.25])
    table = mat.table()
    monkeypatch.setattr(bitops, "index_to_binary", None)  # a rebuild fails
    np.testing.assert_array_equal(mat.table(), table)
    np.testing.assert_array_equal(mat.to_lut().table, table)
    assert 2 not in mat.effective_inputs()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_mat_lut_equivalence_property(n, seed):
    """The pre-computed LUT always agrees with the arithmetic MAT decision."""
    rng = np.random.default_rng(seed)
    mat = MATModule(weights=rng.normal(size=n), threshold=float(rng.normal()))
    combos = enumerate_binary_inputs(n)
    np.testing.assert_array_equal(mat.to_lut().evaluate(combos), mat.evaluate(combos))
