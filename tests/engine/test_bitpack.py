"""Round-trip and layout tests for the uint64 bit packer."""

import numpy as np
import pytest

from repro.engine import WORD_BITS, n_words, pack_bits, unpack_bits


class TestNWords:
    def test_exact_multiples(self):
        assert n_words(0) == 0
        assert n_words(64) == 1
        assert n_words(128) == 2

    def test_ragged(self):
        assert n_words(1) == 1
        assert n_words(63) == 1
        assert n_words(65) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            n_words(-1)


class TestLayout:
    def test_word_bits_is_64(self):
        assert WORD_BITS == 64

    def test_shape(self):
        packed = pack_bits(np.zeros((130, 5), dtype=np.uint8))
        assert packed.shape == (5, 3)
        assert packed.dtype == np.uint64

    def test_sample_bit_position(self):
        """Sample s lands at bit s % 64 of word s // 64 (little-endian)."""
        bits = np.zeros((70, 2), dtype=np.uint8)
        bits[3, 0] = 1
        bits[65, 1] = 1
        packed = pack_bits(bits)
        assert packed[0, 0] == np.uint64(1) << np.uint64(3)
        assert packed[0, 1] == 0
        assert packed[1, 0] == 0
        assert packed[1, 1] == np.uint64(1) << np.uint64(1)

    def test_padding_bits_are_zero(self):
        packed = pack_bits(np.ones((3, 1), dtype=np.uint8))
        assert packed[0, 0] == np.uint64(0b111)


class TestRoundTrip:
    @pytest.mark.parametrize("n_samples", [1, 2, 63, 64, 65, 100, 128, 200])
    @pytest.mark.parametrize("n_signals", [1, 3, 17])
    def test_random_matrices(self, rng, n_samples, n_signals):
        bits = rng.integers(0, 2, size=(n_samples, n_signals), dtype=np.uint8)
        restored = unpack_bits(pack_bits(bits), n_samples)
        assert restored.dtype == np.uint8
        np.testing.assert_array_equal(restored, bits)

    def test_empty_batch(self):
        bits = np.zeros((0, 4), dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (4, 0)
        np.testing.assert_array_equal(unpack_bits(packed, 0), bits)

    def test_no_signals(self):
        bits = np.zeros((10, 0), dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (0, 1)
        np.testing.assert_array_equal(unpack_bits(packed, 10), bits)

    def test_single_sample(self, rng):
        bits = rng.integers(0, 2, size=(1, 9), dtype=np.uint8)
        np.testing.assert_array_equal(unpack_bits(pack_bits(bits), 1), bits)

    def test_truncating_unpack(self, rng):
        """Unpacking fewer samples than packed drops the tail."""
        bits = rng.integers(0, 2, size=(100, 3), dtype=np.uint8)
        np.testing.assert_array_equal(unpack_bits(pack_bits(bits), 40), bits[:40])

    def test_non_uint8_input(self):
        bits = [[0, 1], [1, 0], [1, 1]]
        np.testing.assert_array_equal(unpack_bits(pack_bits(bits), 3), bits)

    @pytest.mark.parametrize("n_samples", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("n_signals", [1, 13, 256])
    def test_row_block_edges(self, rng, n_samples, n_signals):
        """``pack_bits`` transposes 1024 rows at a time: the words must not
        depend on where the block edges fall, nor on the input's layout."""
        bits = rng.integers(0, 2, size=(n_samples, n_signals), dtype=np.uint8)
        # the definition, sample by sample: bit s % 64 of word [f, s // 64]
        expected = np.zeros((n_signals, n_words(n_samples)), dtype=np.uint64)
        rows, cols = np.nonzero(bits)
        np.bitwise_or.at(
            expected,
            (cols, rows // WORD_BITS),
            np.uint64(1) << (rows % WORD_BITS).astype(np.uint64),
        )
        packed = pack_bits(bits)
        assert packed.dtype == np.uint64 and packed.flags.c_contiguous
        np.testing.assert_array_equal(packed, expected)
        np.testing.assert_array_equal(pack_bits(bits.astype(bool)), expected)
        strided = np.zeros((n_samples, 2 * n_signals), dtype=np.uint8)
        strided[:, ::2] = bits
        np.testing.assert_array_equal(pack_bits(strided[:, ::2]), expected)
        np.testing.assert_array_equal(pack_bits(np.asfortranarray(bits)), expected)
        np.testing.assert_array_equal(unpack_bits(packed, n_samples), bits)


class TestValidation:
    def test_pack_rejects_non_binary(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([[0, 2]]))

    def test_pack_rejects_1d(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([0, 1]))

    def test_unpack_rejects_1d(self):
        with pytest.raises(ValueError):
            unpack_bits(np.zeros(3, dtype=np.uint64), 1)

    def test_unpack_rejects_overflow(self):
        packed = pack_bits(np.zeros((64, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            unpack_bits(packed, 65)

    def test_unpack_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            unpack_bits(np.zeros((2, 1), dtype=np.uint64), -1)


def _poison_padding(packed, k):
    """Set every padding bit past sample ``k`` in the last word to 1."""
    poisoned = packed.copy()
    tail = k - (packed.shape[1] - 1) * WORD_BITS
    if 0 < tail < WORD_BITS:
        poisoned[:, -1] |= ~np.uint64(0) << np.uint64(tail)
    return poisoned


class TestMaskPadding:
    def test_no_padding_returns_input_unchanged(self):
        from repro.engine import mask_padding

        packed = pack_bits(np.ones((64, 3), dtype=np.uint8))
        assert mask_padding(packed, 64) is packed  # no copy when clean

    def test_poisoned_tail_is_zeroed(self):
        from repro.engine import mask_padding

        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(70, 5), dtype=np.uint8)
        packed = _poison_padding(pack_bits(bits), 70)
        masked = mask_padding(packed, 70)
        np.testing.assert_array_equal(masked, pack_bits(bits))
        np.testing.assert_array_equal(unpack_bits(masked, 70), bits)

    def test_surplus_whole_words_are_zeroed(self):
        from repro.engine import mask_padding

        bits = np.ones((5, 3), dtype=np.uint8)
        packed = pack_bits(bits)  # (3, 1)
        surplus = np.concatenate(
            [packed, np.full((3, 2), ~np.uint64(0))], axis=1
        )
        masked = mask_padding(surplus, 5)
        np.testing.assert_array_equal(masked[:, 1:], 0)
        np.testing.assert_array_equal(unpack_bits(masked[:, :1], 5), bits)


class TestConcatPacked:
    def test_matches_pack_of_concatenation(self):
        """concat_packed(pack(a), pack(b), ...) == pack(concat(a, b, ...))."""
        from repro.engine import concat_packed

        rng = np.random.default_rng(2)
        for trial in range(25):
            n_signals = int(rng.integers(1, 9))
            ks = [int(rng.integers(1, 130)) for _ in range(rng.integers(1, 6))]
            rows = [
                rng.integers(0, 2, size=(k, n_signals), dtype=np.uint8)
                for k in ks
            ]
            merged = concat_packed(
                [_poison_padding(pack_bits(r), k) for r, k in zip(rows, ks)],
                ks,
            )
            np.testing.assert_array_equal(
                merged,
                pack_bits(np.concatenate(rows, axis=0)),
                err_msg=f"trial {trial}, ks={ks}",
            )

    def test_word_aligned_fast_path(self):
        from repro.engine import concat_packed

        rng = np.random.default_rng(3)
        rows = [
            rng.integers(0, 2, size=(64, 4), dtype=np.uint8),
            rng.integers(0, 2, size=(128, 4), dtype=np.uint8),
            rng.integers(0, 2, size=(7, 4), dtype=np.uint8),
        ]
        merged = concat_packed([pack_bits(r) for r in rows], [64, 128, 7])
        np.testing.assert_array_equal(
            merged, pack_bits(np.concatenate(rows, axis=0))
        )

    def test_single_chunk(self):
        from repro.engine import concat_packed

        bits = np.ones((5, 2), dtype=np.uint8)
        merged = concat_packed([_poison_padding(pack_bits(bits), 5)], [5])
        np.testing.assert_array_equal(merged, pack_bits(bits))

    def test_validation(self):
        from repro.engine import concat_packed

        a = pack_bits(np.ones((3, 2), dtype=np.uint8))
        b = pack_bits(np.ones((3, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            concat_packed([], [])
        with pytest.raises(ValueError):
            concat_packed([a], [3, 3])  # count mismatch
        with pytest.raises(ValueError):
            concat_packed([a, b], [3, 3])  # signal-count mismatch
        with pytest.raises(ValueError):
            concat_packed([a], [200])  # too few words for the claim
