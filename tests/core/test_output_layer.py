"""Tests for the sparse quantised output layer."""

import numpy as np
import pytest

from repro.core import SparseQuantizedOutputLayer
from repro.core.output_layer import quantize_symmetric


class TestQuantizeSymmetric:
    def test_preserves_zero(self):
        np.testing.assert_array_equal(quantize_symmetric(np.zeros(4), 8), np.zeros(4))

    def test_max_value_preserved(self):
        values = np.array([-2.0, 1.0, 2.0])
        quantised = quantize_symmetric(values, 8)
        assert quantised.max() == pytest.approx(2.0)

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        for bits in (4, 8, 16):
            quantised = quantize_symmetric(values, bits)
            step = np.abs(values).max() / (2 ** (bits - 1) - 1)
            assert np.max(np.abs(values - quantised)) <= step / 2 + 1e-12

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=200)
        err4 = np.abs(values - quantize_symmetric(values, 4)).max()
        err8 = np.abs(values - quantize_symmetric(values, 8)).max()
        err16 = np.abs(values - quantize_symmetric(values, 16)).max()
        assert err16 <= err8 <= err4

    def test_rejects_single_bit(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(3), 1)


def _make_intermediate_task(rng, n=600, n_classes=4, fan_in=5):
    """Intermediate bits where block j being mostly-on indicates class j."""
    y = rng.integers(0, n_classes, size=n)
    bits = (rng.random((n, n_classes * fan_in)) < 0.15).astype(np.uint8)
    for cls in range(n_classes):
        mask = y == cls
        block = (rng.random((mask.sum(), fan_in)) < 0.85).astype(np.uint8)
        bits[np.ix_(mask, np.arange(cls * fan_in, (cls + 1) * fan_in))] = block
    return bits, y


class TestSparseOutputLayer:
    def test_learns_block_structure(self, rng):
        bits, y = _make_intermediate_task(rng)
        layer = SparseQuantizedOutputLayer(n_classes=4, fan_in=5, epochs=20, seed=0)
        layer.fit(bits, y)
        assert layer.score(bits, y) > 0.9

    def test_prediction_shape_and_range(self, rng):
        bits, y = _make_intermediate_task(rng, n=200)
        layer = SparseQuantizedOutputLayer(n_classes=4, fan_in=5, epochs=5, seed=0).fit(bits, y)
        preds = layer.predict(bits)
        assert preds.shape == (200,)
        assert preds.min() >= 0 and preds.max() < 4

    def test_weights_are_sparse_blocks(self, rng):
        bits, y = _make_intermediate_task(rng, n=300)
        layer = SparseQuantizedOutputLayer(n_classes=4, fan_in=5, epochs=5, seed=0).fit(bits, y)
        assert layer.weights_.shape == (4, 5)

    def test_lut_count(self, rng):
        bits, y = _make_intermediate_task(rng, n=200)
        layer = SparseQuantizedOutputLayer(
            n_classes=4, fan_in=5, n_bits=8, epochs=3, seed=0
        ).fit(bits, y)
        assert layer.lut_count() == 8 * 4

    def test_quantisation_error_smaller_with_more_bits(self, rng):
        bits, y = _make_intermediate_task(rng, n=400)
        errors = {}
        for n_bits in (4, 8):
            layer = SparseQuantizedOutputLayer(
                n_classes=4, fan_in=5, n_bits=n_bits, epochs=10, seed=0
            ).fit(bits, y)
            errors[n_bits] = layer.quantisation_error()
        assert errors[8] <= errors[4]

    def test_wrong_input_width_rejected(self, rng):
        layer = SparseQuantizedOutputLayer(n_classes=3, fan_in=4)
        with pytest.raises(ValueError):
            layer.fit(np.zeros((10, 5), dtype=np.uint8), np.zeros(10, dtype=int))

    def test_unfitted_predict_rejected(self):
        layer = SparseQuantizedOutputLayer(n_classes=3, fan_in=4)
        with pytest.raises(RuntimeError):
            layer.predict(np.zeros((2, 12), dtype=np.uint8))

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            SparseQuantizedOutputLayer(n_classes=1, fan_in=4)
        with pytest.raises(ValueError):
            SparseQuantizedOutputLayer(n_classes=3, fan_in=0)
        with pytest.raises(ValueError):
            SparseQuantizedOutputLayer(n_classes=3, fan_in=4, n_bits=1)
        with pytest.raises(ValueError):
            SparseQuantizedOutputLayer(n_classes=3, fan_in=4, epochs=0)


class TestPackedReadout:
    """The table-lookup packed scorer vs the float reference path."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(77)
        bits, y = _make_intermediate_task(rng, n=400)
        layer = SparseQuantizedOutputLayer(n_classes=4, fan_in=5, epochs=8, seed=0)
        return layer.fit(bits, y), bits, y

    def test_scores_match_reference(self, fitted):
        from repro.engine import pack_bits

        layer, bits, _y = fitted
        packed = pack_bits(bits)
        np.testing.assert_allclose(
            layer.decision_scores_packed(packed, bits.shape[0]),
            layer.decision_scores(bits),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_labels_match_reference(self, fitted):
        from repro.engine import pack_bits

        layer, bits, _y = fitted
        packed = pack_bits(bits)
        np.testing.assert_array_equal(
            layer.predict_packed(packed, bits.shape[0]), layer.predict(bits)
        )

    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 200, 5000])
    def test_ragged_batches(self, fitted, n_samples):
        from repro.engine import pack_bits

        layer, bits, _y = fitted
        chunk = np.resize(bits, (n_samples, bits.shape[1]))  # 5000 spans blocks
        packed = pack_bits(chunk)
        scores = layer.decision_scores_packed(packed, n_samples)
        assert scores.shape == (n_samples, 4)
        if n_samples:
            np.testing.assert_allclose(
                scores, layer.decision_scores(chunk), rtol=1e-9, atol=1e-12
            )

    def test_integer_weights_round_trip(self, fitted):
        layer, _bits, _y = fitted
        ints, scale, _table = layer._readout()
        np.testing.assert_allclose(ints * scale, layer.weights_, rtol=1e-9)
        assert np.abs(ints).max() <= 2 ** (layer.n_bits - 1) - 1

    def test_score_table_is_the_neuron_as_a_lut(self, fitted):
        """Entry ``[j, i]`` is neuron ``j``'s score on the bits of ``i``,
        LSB = the neuron's first input."""
        layer, _bits, _y = fitted
        table = layer.score_table()
        assert table.shape == (4, 2**5) and table.dtype == np.float64
        assert table.flags.c_contiguous and not table.flags.writeable
        index_bits = (np.arange(2**5)[:, None] >> np.arange(5)) & 1
        for neuron in range(4):
            np.testing.assert_allclose(
                table[neuron],
                index_bits @ layer.weights_[neuron] + layer.biases_[neuron],
                rtol=1e-9,
                atol=1e-12,
            )
        assert layer.score_table() is table  # built once, then cached

    def test_garbage_padding_is_ignored(self, fitted):
        from repro.engine import pack_bits

        layer, bits, _y = fitted
        packed = pack_bits(bits[:70])
        poisoned = packed.copy()
        poisoned[:, -1] |= ~np.uint64(0) << np.uint64(6)
        np.testing.assert_array_equal(
            layer.decision_scores_packed(poisoned, 70),
            layer.decision_scores_packed(packed, 70),
        )

    def test_in_place_weight_edit_reaches_the_packed_path(self):
        """The read-out cache is keyed on contents: writing into
        ``weights_`` (same array object) or replacing ``biases_`` must
        change the packed scores exactly as it changes the reference."""
        from repro.engine import pack_bits

        layer = SparseQuantizedOutputLayer(n_classes=2, fan_in=2, n_bits=3)
        layer.weights_ = np.array([[3.0, 1.0], [2.0, -3.0]])
        layer.biases_ = np.array([0.5, -0.5])
        bits = np.array([[1, 0, 1, 1], [1, 1, 0, 1]], dtype=np.uint8)
        packed = pack_bits(bits)
        np.testing.assert_allclose(
            layer.decision_scores_packed(packed, 2), layer.decision_scores(bits)
        )
        layer.weights_[0, 0] = -1.0
        np.testing.assert_allclose(
            layer.decision_scores_packed(packed, 2), layer.decision_scores(bits)
        )
        layer.biases_ = np.array([7.0, 8.0])
        np.testing.assert_allclose(
            layer.decision_scores_packed(packed, 2), layer.decision_scores(bits)
        )
        layer.biases_[1] = -2.0
        np.testing.assert_allclose(
            layer.decision_scores_packed(packed, 2), layer.decision_scores(bits)
        )

    def test_off_grid_weights_are_rejected_not_requantised(self):
        from repro.engine import pack_bits

        layer = SparseQuantizedOutputLayer(n_classes=2, fan_in=2)
        layer.weights_ = np.array([[1.0, 0.5], [0.25, 1.0]])  # 0.5 * 127 = 63.5
        layer.biases_ = np.zeros(2)
        packed = pack_bits(np.ones((1, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="quantize_symmetric"):
            layer.decision_scores_packed(packed, 1)
        with pytest.raises(ValueError, match="quantize_symmetric"):
            layer.score_table()
        layer.weights_ = quantize_symmetric(layer.weights_, layer.n_bits)
        np.testing.assert_allclose(
            layer.decision_scores_packed(packed, 1),
            layer.decision_scores(np.ones((1, 4), dtype=np.uint8)),
        )

    def test_misshapen_parameters_rejected(self):
        layer = SparseQuantizedOutputLayer(n_classes=2, fan_in=2)
        layer.weights_ = np.ones((2, 3))
        layer.biases_ = np.zeros(2)
        with pytest.raises(ValueError, match="shapes"):
            layer.score_table()

    def test_wide_fan_in_has_no_table_and_sums_words(self):
        """``fan_in > 16``: ``2**fan_in`` entries per neuron is no longer a
        table worth building; the bit-sliced adders serve it."""
        from repro.engine import pack_bits

        rng = np.random.default_rng(5)
        layer = SparseQuantizedOutputLayer(n_classes=2, fan_in=17)
        layer.weights_ = quantize_symmetric(rng.normal(size=(2, 17)), 8)
        layer.biases_ = quantize_symmetric(rng.normal(size=2), 8)
        assert layer.score_table() is None
        bits = rng.integers(0, 2, size=(150, 34), dtype=np.uint8)
        np.testing.assert_allclose(
            layer.decision_scores_packed(pack_bits(bits), 150),
            layer.decision_scores(bits),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_pickle_drops_the_cache(self, fitted):
        import pickle

        layer, bits, _y = fitted
        layer.score_table()
        clone = pickle.loads(pickle.dumps(layer))
        assert "_readout_cache_" not in clone.__dict__
        np.testing.assert_array_equal(clone.score_table(), layer.score_table())

    def test_all_zero_weights_are_safe(self):
        layer = SparseQuantizedOutputLayer(n_classes=2, fan_in=2)
        layer.weights_ = np.zeros((2, 2))
        layer.biases_ = np.array([0.5, -0.5])
        from repro.engine import pack_bits

        bits = np.ones((3, 4), dtype=np.uint8)
        scores = layer.decision_scores_packed(pack_bits(bits), 3)
        np.testing.assert_allclose(scores, [[0.5, -0.5]] * 3)

    def test_packed_shape_rejected(self, fitted):
        layer, _bits, _y = fitted
        with pytest.raises(ValueError):
            layer.decision_scores_packed(np.zeros((3, 2), dtype=np.uint64), 10)
        with pytest.raises(ValueError):
            layer.decision_scores_packed(np.zeros((20, 1), dtype=np.uint64), 100)


class TestPackedWeightedSums:
    """Property tests of the bit-sliced adder primitive."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_integer_dot(self, seed):
        from repro.engine import pack_bits
        from repro.engine.bitpack import packed_weighted_sums

        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 14))
        n = int(rng.integers(0, 300))
        bits = rng.integers(0, 2, size=(n, m), dtype=np.uint8)
        weights = rng.integers(-200, 201, size=m)
        np.testing.assert_array_equal(
            packed_weighted_sums(pack_bits(bits), weights, n),
            bits.astype(np.int64) @ weights,
        )

    @pytest.mark.parametrize("n", [0, 1, 65, 5000])
    def test_leading_axes_are_independent_groups(self, n):
        """One counter per group, rippling together: same sums as one call
        per group (5000 samples span two unpack blocks)."""
        from repro.engine import pack_bits
        from repro.engine.bitpack import packed_weighted_sums

        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, size=(n, 3, 5), dtype=np.uint8)
        weights = rng.integers(-90, 91, size=(3, 5))
        weights[1] = 0  # a group that never raises a plane
        packed = np.stack([pack_bits(bits[:, g]) for g in range(3)])
        sums = packed_weighted_sums(packed, weights, n)
        assert sums.shape == (n, 3) and sums.dtype == np.int64
        np.testing.assert_array_equal(
            sums, np.einsum("ngk,gk->ng", bits.astype(np.int64), weights)
        )

    def test_garbage_padding_is_ignored(self):
        from repro.engine.bitpack import packed_weighted_sums

        packed = np.full((2, 1), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        # only 3 samples are real; the remaining 61 padding bits are all set
        np.testing.assert_array_equal(
            packed_weighted_sums(packed, np.array([2, 3]), 3), [5, 5, 5]
        )

    def test_rejects_float_weights(self):
        from repro.engine.bitpack import packed_weighted_sums

        with pytest.raises(ValueError):
            packed_weighted_sums(
                np.zeros((1, 1), dtype=np.uint64), np.array([0.5]), 4
            )
