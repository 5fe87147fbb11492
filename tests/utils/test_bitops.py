"""Tests for repro.utils.bitops, including property-based round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitops import (
    binary_to_index,
    enumerate_binary_inputs,
    index_to_binary,
)


class TestBinaryToIndex:
    def test_simple_values(self):
        bits = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 1, 1]])
        np.testing.assert_array_equal(binary_to_index(bits), [0, 1, 4, 7])

    def test_first_column_is_msb(self):
        assert binary_to_index(np.array([1, 0])) == 2

    def test_1d_input_returns_scalar(self):
        result = binary_to_index(np.array([1, 0, 1]))
        assert result == 5

    def test_zero_width(self):
        np.testing.assert_array_equal(
            binary_to_index(np.zeros((4, 0), dtype=np.uint8)), [0, 0, 0, 0]
        )

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            binary_to_index(np.zeros((2, 2, 2)))


class TestIndexToBinary:
    def test_round_trip_small(self):
        idx = np.arange(16)
        bits = index_to_binary(idx, 4)
        np.testing.assert_array_equal(binary_to_index(bits), idx)

    def test_width(self):
        assert index_to_binary(np.array([3]), 5).shape == (1, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            index_to_binary(np.array([8]), 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            index_to_binary(np.array([-1]), 3)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            index_to_binary(np.array([0]), -1)


class TestEnumerateBinaryInputs:
    def test_shape(self):
        table = enumerate_binary_inputs(4)
        assert table.shape == (16, 4)

    def test_addresses_in_order(self):
        table = enumerate_binary_inputs(5)
        np.testing.assert_array_equal(binary_to_index(table), np.arange(32))

    def test_zero_bits(self):
        table = enumerate_binary_inputs(0)
        assert table.shape == (1, 0)

    def test_width_limit(self):
        with pytest.raises(ValueError):
            enumerate_binary_inputs(30)

    def test_one_read_only_array_per_width(self):
        table = enumerate_binary_inputs(6)
        assert enumerate_binary_inputs(6) is table
        assert enumerate_binary_inputs(5) is not table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        np.testing.assert_array_equal(binary_to_index(table), np.arange(64))


@settings(max_examples=50, deadline=None)
@given(
    n_bits=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_index_binary_round_trip_property(n_bits, data):
    """index -> bits -> index is the identity for any address."""
    index = data.draw(st.integers(min_value=0, max_value=2**n_bits - 1))
    bits = index_to_binary(np.array([index]), n_bits)
    assert binary_to_index(bits)[0] == index


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=20),
    cols=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_binary_index_round_trip_property(rows, cols, seed):
    """bits -> index -> bits is the identity for any binary matrix."""
    rng = np.random.default_rng(seed)
    bits = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
    idx = binary_to_index(bits)
    np.testing.assert_array_equal(index_to_binary(idx, cols), bits)
