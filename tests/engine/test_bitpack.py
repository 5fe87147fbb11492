"""Round-trip and layout tests for the uint64 bit packer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import WORD_BITS, concat_packed, n_words, pack_bits, unpack_bits


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
        """The words are the definition's, whatever the row count's remainder
        by 8 and by 64 and whatever the input's layout."""
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


# ------------------------------------------ the layout against np.packbits
def ref_pack(bits):
    planes = np.zeros((bits.shape[1], n_words(bits.shape[0]) * WORD_BITS), np.uint8)
    planes[:, : bits.shape[0]] = np.asarray(bits, dtype=np.uint8).T
    return np.packbits(planes, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def ref_unpack(packed, n_samples):
    as_bytes = np.ascontiguousarray(packed.astype("<u8")).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=n_samples, bitorder="little").T


def ref_concat(chunks, counts):
    return ref_pack(np.concatenate([ref_unpack(c, k) for c, k in zip(chunks, counts)]))


EDGE_COUNTS = [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000]
sample_counts = st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(0, 300))
signal_counts = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 16, 256]), st.integers(0, 40))
seeds = st.integers(0, 2**32 - 1)


def _laid_out(bits, layout):
    if layout == "fortran":
        return np.asfortranarray(bits)
    if layout == "sliced":  # every other row and column of a larger matrix
        wide = np.zeros((2 * bits.shape[0], 2 * bits.shape[1] + 1), dtype=bits.dtype)
        wide[::2, 1::2] = bits
        return wide[::2, 1::2]
    if layout == "unaligned":  # contiguous, but not on a word boundary
        raw = np.zeros(bits.size * bits.itemsize + 1, dtype=np.uint8)
        view = raw[1:].view(bits.dtype).reshape(bits.shape)
        view[...] = bits
        return view
    return bits


class TestAgainstPackbits:
    """``pack_bits`` / ``unpack_bits`` / ``concat_packed`` equal the three
    ``np.packbits`` references above on every shape, dtype and layout."""

    @settings(max_examples=150, deadline=None)
    @given(
        seeds,
        sample_counts,
        signal_counts,
        st.sampled_from([bool, np.uint8, np.int64, np.float64]),
        st.sampled_from(["c", "fortran", "sliced", "unaligned"]),
    )
    def test_pack_and_round_trip(self, seed, n_samples, n_signals, dtype, layout):
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(n_samples, n_signals)
        ).astype(dtype)
        packed = pack_bits(_laid_out(bits, layout))
        assert packed.dtype == np.uint64 and packed.flags.c_contiguous
        np.testing.assert_array_equal(packed, ref_pack(bits))
        restored = unpack_bits(packed, n_samples)
        assert restored.dtype == np.uint8 and restored.flags.c_contiguous
        np.testing.assert_array_equal(restored, bits)

    @settings(max_examples=150, deadline=None)
    @given(seeds, sample_counts, signal_counts, st.integers(0, 2), st.booleans())
    def test_unpack_truncates_and_ignores_padding(
        self, seed, n_samples, n_signals, spare_words, sliced
    ):
        rng = np.random.default_rng(seed)
        words = n_words(n_samples) + spare_words
        packed = rng.integers(0, 2**64, size=(n_signals, 2 * words), dtype=np.uint64)
        packed = packed[:, ::2] if sliced else packed[:, :words]
        np.testing.assert_array_equal(
            unpack_bits(packed, n_samples), ref_unpack(packed, n_samples)
        )

    @pytest.mark.parametrize(
        "bad, dtype",
        [
            (2, np.uint8),
            (2, np.int64),
            (2, np.float64),
            (-1, np.int8),
            (-1, np.int64),
            (-1, np.float64),
            (0.5, np.float64),
            (float("nan"), np.float64),
        ],
    )
    def test_one_bad_value_is_rejected(self, bad, dtype):
        bits = np.zeros((9, 17), dtype=dtype)
        bits[8, 16] = bad
        with pytest.raises(ValueError, match="^bits must contain only 0/1 values$"):
            pack_bits(bits)

    @settings(max_examples=200, deadline=None)
    @given(
        seeds,
        st.integers(0, 9),
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0, 1, 63, 64, 65, 128]), st.integers(0, 200)
                ),
                st.integers(0, 1),  # words beyond what the count needs
            ),
            min_size=1,
            max_size=70,
        ),
        st.booleans(),
    )
    def test_concat(self, seed, n_signals, blocks, narrow):
        """Any mix of counts and widths, garbage in every padding lane; with
        ``narrow`` every block is at most a word, the case a flush sends."""
        rng = np.random.default_rng(seed)
        counts = [min(k, WORD_BITS) if narrow else k for k, _ in blocks]
        widths = [
            max(n_words(k), 1) if narrow else n_words(k) + spare
            for k, (_, spare) in zip(counts, blocks)
        ]
        chunks = [
            rng.integers(0, 2**64, size=(n_signals, width), dtype=np.uint64)
            for width in widths
        ]
        merged = concat_packed(chunks, counts)
        assert merged.dtype == np.uint64
        np.testing.assert_array_equal(merged, ref_concat(chunks, counts))
