"""Tests for the LUT primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LUT


class TestConstruction:
    def test_basic(self):
        lut = LUT(input_indices=[3, 1], table=[0, 1, 1, 0])
        assert lut.n_inputs == 2

    # every rejection, with its message: test_table_validation.py


class TestEvaluate:
    def test_xor_lut(self):
        lut = LUT(input_indices=[0, 1], table=[0, 1, 1, 0])  # XOR
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(lut.evaluate(X), [0, 1, 1, 0])

    def test_indices_pick_correct_columns(self):
        lut = LUT(input_indices=[2], table=[0, 1])  # identity on column 2
        X = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(lut.evaluate(X), [0, 1])

    def test_first_index_is_msb(self):
        lut = LUT(input_indices=[0, 1], table=[0, 0, 1, 1])  # output = input 0
        X = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(lut.evaluate(X), [1, 0])

    def test_too_narrow_input_rejected(self):
        lut = LUT(input_indices=[5], table=[0, 1])
        with pytest.raises(ValueError):
            lut.evaluate(np.zeros((2, 3), dtype=np.uint8))

    def test_evaluate_local(self):
        lut = LUT(input_indices=[7, 9], table=[1, 0, 0, 1])
        bits = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(lut.evaluate_local(bits), [1, 1])

    def test_evaluate_local_wrong_width(self):
        lut = LUT(input_indices=[0, 1], table=[0, 1, 1, 0])
        with pytest.raises(ValueError):
            lut.evaluate_local(np.zeros((2, 3), dtype=np.uint8))


class TestHelpers:
    def test_truth_table_layout(self):
        lut = LUT(input_indices=[0, 1], table=[0, 1, 1, 0])
        tt = lut.truth_table()
        assert tt.shape == (4, 3)
        np.testing.assert_array_equal(tt[:, -1], lut.table)

    def test_from_function_majority(self):
        lut = LUT.from_function(
            np.array([0, 1, 2]), lambda bits: (bits.sum(axis=1) >= 2).astype(np.uint8)
        )
        assert lut.table.sum() == 4  # majority of 3 bits is true for 4 of 8 combos

    def test_metadata_default(self):
        lut = LUT(input_indices=[0], table=[0, 1])
        assert lut.metadata == {}


@settings(max_examples=30, deadline=None)
@given(
    n_inputs=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_lut_evaluation_matches_table_property(n_inputs, seed):
    """Evaluating the enumerated combinations always returns the table itself."""
    rng = np.random.default_rng(seed)
    table = (rng.random(2**n_inputs) < 0.5).astype(np.uint8)
    lut = LUT(input_indices=np.arange(n_inputs), table=table)
    from repro.utils.bitops import enumerate_binary_inputs

    np.testing.assert_array_equal(lut.evaluate(enumerate_binary_inputs(n_inputs)), table)
