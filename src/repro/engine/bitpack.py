"""Bit-packing of binary sample batches into machine words.

The bit-packed layout is the software analogue of the FPGA datapath: one
``uint64`` word holds the value of one binary *signal* for 64 *samples*, so a
single bitwise CPU instruction evaluates that signal for a whole word of
samples at once.  A batch of ``n`` samples over ``F`` signals therefore
becomes an ``(F, ceil(n / 64))`` matrix of words — signals along the rows,
samples along the bit axis.

Bit order is little-endian within a word: sample ``s`` lives at bit
``s % 64`` of word ``s // 64``.  Words are padded with zero bits past the
last sample; consumers that invert signals may leave garbage in the padding,
which :func:`unpack_bits` discards by truncating to the requested sample
count.

Packing is a bit-matrix transpose, done in word lanes rather than bit by
bit.  A row of ``uint8`` bits is read as ``uint64`` lanes of eight signals;
eight consecutive sample rows, row ``r`` shifted left by ``r``, OR into one
lane whose every byte is already a packed byte — of one signal, for those
eight samples::

    sample 8g+0   [s0 s1 s2 .. s7]            one lane = 8 signal bytes
    sample 8g+1   [s0 s1 s2 .. s7] << 1
       ...                                    OR
    sample 8g+7   [s0 s1 s2 .. s7] << 7
                  ----------------------
                  [B0 B1 B2 .. B7]            byte k: signal k, samples 8g..8g+7

What is left is a *byte* transpose of a matrix eight times smaller than the
input.  :func:`unpack_bits` runs it backwards: transpose the packed bytes,
then ``(lane >> r) & 0x0101010101010101`` is sample row ``8g + r``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import is_binary

#: Number of samples carried by one packed word.
WORD_BITS = 64

#: dtype of a packed word, with explicit byte order so that the byte-level
#: (de)packing below is platform independent.
_WORD_DTYPE = np.dtype("<u8")

#: samples whose planes :func:`lookup_scores` and
#: :func:`packed_weighted_sums` unpack at once (cache-sized, word-aligned)
_COUNT_BLOCK = 64 * WORD_BITS

#: lane arithmetic of the byte transpose: sample row ``r`` of a group of eight
#: lands at bit ``r`` of every byte of the lane
_ROW_SHIFT = np.arange(8, dtype=_WORD_DTYPE)
_ROW_BIT = np.left_shift(np.ones(8, dtype=_WORD_DTYPE), _ROW_SHIFT)
_LANE_ONES = np.array(0x0101010101010101, dtype=_WORD_DTYPE)


def n_words(n_samples: int) -> int:
    """Number of ``uint64`` words needed to hold ``n_samples`` bits."""
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    return (n_samples + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a binary sample matrix into words, samples along the bit axis.

    Parameters
    ----------
    bits:
        Array of shape ``(n_samples, n_signals)`` containing 0/1 values.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of shape ``(n_signals, n_words(n_samples))`` where
        bit ``s % 64`` of word ``[f, s // 64]`` is ``bits[s, f]``.
    """
    arr = np.asarray(bits)
    if arr.ndim != 2:
        raise ValueError(f"bits must be 2-D, got shape {arr.shape}")
    if not is_binary(arr):
        raise ValueError("bits must contain only 0/1 values")
    samples, signals = arr.shape
    groups, lanes = -(-samples // 8), -(-signals // 8)
    if arr.dtype == np.bool_:
        arr = arr.view(np.uint8)
    if not (
        arr.dtype == np.uint8
        and arr.flags.c_contiguous
        and (samples, signals) == (8 * groups, 8 * lanes)
    ):
        # whole lanes of whole row groups, nothing more
        whole = np.zeros((8 * groups, 8 * lanes), dtype=np.uint8)
        whole[:samples, :signals] = arr
        arr = whole
    # OR the eight rows of a group, row r shifted to bit r: the bytes never
    # carry into each other, so the OR is a sum of products
    packed = np.einsum(
        "grl,r->gl", arr.view(_WORD_DTYPE).reshape(groups, 8, lanes), _ROW_BIT
    )
    packed_bytes = packed.view(np.uint8).reshape(groups, 8 * lanes)
    planes = np.zeros((signals, n_words(samples) * (WORD_BITS // 8)), dtype=np.uint8)
    planes[:, :groups] = packed_bytes[:, :signals].T
    return planes.view(_WORD_DTYPE).astype(np.uint64, copy=False)


def _plane_bytes(planes: np.ndarray) -> np.ndarray:
    """``(n_signals, n_words)`` words as ``(n_signals, 8 * n_words)`` bytes,
    sample ``s`` at bit ``s % 8`` of byte ``s // 8`` on every platform."""
    as_bytes = np.ascontiguousarray(planes.astype(_WORD_DTYPE, copy=False))
    signals, words = planes.shape
    return as_bytes.view(np.uint8).reshape(signals, words * (WORD_BITS // 8))


def check_score_table(
    table: np.ndarray, n_planes: int, words: int, n_samples: int
) -> int:
    """Validate a read-out ``table`` against the planes it indexes; returns
    the fan-in ``p``.

    ``table`` must be a C-contiguous ``float64`` array of shape
    ``(n_planes // p, 2**p)`` and ``n_samples`` must fit in ``words``
    packed words — the checks every ``run_scores`` makes before reading a plane
    (or handing a pointer to C).
    """
    if not isinstance(table, np.ndarray) or table.dtype != np.float64:
        raise ValueError("table must be a float64 array")
    if table.ndim != 2 or not table.flags.c_contiguous:
        raise ValueError(
            f"table must be a C-contiguous 2-D array, got shape {table.shape}"
        )
    n_groups, size = table.shape
    p = size.bit_length() - 1
    if p < 1 or size != 1 << p or n_groups * p != n_planes:
        raise ValueError(
            f"table must have shape (n_planes // p, 2**p) for {n_planes} "
            f"planes, got {table.shape}"
        )
    if n_samples < 0 or n_samples > words * WORD_BITS:
        raise ValueError(f"cannot recover {n_samples} samples from {words} words")
    return p


def lookup_scores(planes: np.ndarray, n_samples: int, table: np.ndarray) -> np.ndarray:
    """Per-sample table look-up straight from packed planes.

    Planes ``g*p .. g*p + p - 1`` are, LSB first, the bits of sample ``s``'s
    index into ``table[g]`` — the software form of the paper's output
    neuron, a function of ``p`` intermediate bits realised as a LUT.  No
    arithmetic happens here: the result holds the table's own entries.

    Parameters
    ----------
    planes:
        ``uint64`` array of shape ``(n_groups * p, n_words)`` as produced
        by :func:`pack_bits`.  Padding bits may hold garbage; only the
        first ``n_samples`` lanes are read.
    n_samples:
        Number of samples to recover.
    table:
        C-contiguous ``float64`` array of shape ``(n_groups, 2**p)``.

    Returns
    -------
    numpy.ndarray
        ``float64`` array of shape ``(n_samples, n_groups)``.
    """
    planes = np.asarray(planes, dtype=np.uint64)
    if planes.ndim != 2:
        raise ValueError(f"planes must be 2-D, got shape {planes.shape}")
    p = check_score_table(table, planes.shape[0], planes.shape[1], n_samples)
    n_groups, size = table.shape
    scores = np.empty((n_samples, n_groups), dtype=np.float64)
    as_bytes = _plane_bytes(planes)
    index_dtype = np.min_scalar_type(size - 1)
    shifts = np.arange(p, dtype=index_dtype).reshape(1, p, 1)
    # a block at a time, so transient memory does not grow with the batch
    for lo in range(0, n_samples, _COUNT_BLOCK):
        hi = min(lo + _COUNT_BLOCK, n_samples)
        # plane-wise expansion: each plane's samples stay contiguous
        bits = np.unpackbits(
            as_bytes[:, lo // 8 : (hi + 7) // 8],
            axis=1,
            count=hi - lo,
            bitorder="little",
        ).reshape(n_groups, p, hi - lo)
        index = np.bitwise_or.reduce(bits << shifts, axis=1)
        scores[lo:hi] = np.take_along_axis(table, index.astype(np.intp), axis=1).T
    return scores


def packed_weighted_sums(
    packed: np.ndarray, weights: np.ndarray, n_samples: int
) -> np.ndarray:
    """Per-sample integer dot product of packed signals with integer weights.

    Computes ``sum_k weights[k] * bit[s, k]`` for every sample ``s`` without
    unpacking the signals: each weight's binary planes are accumulated into a
    bit-sliced (vertical) counter with word-wide full adders — the software
    form of a hardware popcount tree.  Only the few count planes of the
    result are unpacked at the end, so the cost scales with ``log2(sum
    |weights|)`` words per sample instead of one byte per signal per sample.

    Leading axes are independent *groups* (one output neuron each, with its
    own signals and weights) whose counters ripple in lock-step, so the
    number of NumPy calls — what a one-word serving batch pays for — does
    not grow with the number of neurons.

    The output layer uses this only when its fan-in is too wide to tabulate
    (see :func:`lookup_scores` for the table form every paper-shaped layer
    takes).

    Parameters
    ----------
    packed:
        ``uint64`` array of shape ``(..., n_signals, n_words)``; each
        ``(n_signals, n_words)`` block is as produced by :func:`pack_bits`.
        Padding bits may hold garbage; the corresponding samples are
        truncated from the result.
    weights:
        Integer weights of shape ``(..., n_signals)``; any sign.
    n_samples:
        Number of samples to recover.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of shape ``(n_samples, ...)``.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim < 2:
        raise ValueError(f"packed must be at least 2-D, got shape {packed.shape}")
    weights = np.asarray(weights)
    if weights.shape != packed.shape[:-1]:
        raise ValueError(
            f"weights must have shape {packed.shape[:-1]}, got {weights.shape}"
        )
    if not np.issubdtype(weights.dtype, np.integer):
        raise ValueError("weights must be integers (quantise first)")
    weights = weights.astype(np.int64)
    groups = packed.shape[:-2]
    total = np.zeros((n_samples,) + groups, dtype=np.int64)
    for sign in (1, -1):
        planes = _vertical_accumulate(packed, np.maximum(sign * weights, 0))
        if not planes:
            continue
        rows = len(planes) * int(np.prod(groups, dtype=np.int64))
        stacked = np.stack(planes, axis=-2).reshape(rows, packed.shape[-1])
        place = sign * (np.int64(1) << np.arange(len(planes), dtype=np.int64))
        # unpack and weigh the count planes a cache-sized block at a time
        for lo in range(0, n_samples, _COUNT_BLOCK):
            hi = min(lo + _COUNT_BLOCK, n_samples)
            counts = unpack_bits(stacked[:, lo // WORD_BITS : n_words(hi)], hi - lo)
            counts = counts.reshape((hi - lo,) + groups + (len(planes),))
            total[lo:hi] += counts.astype(np.int64) @ place
    return total


def _vertical_accumulate(packed: np.ndarray, magnitudes: np.ndarray) -> list:
    """Bit-sliced sums ``sum_k magnitudes[..., k] * packed[..., k, :]``: a
    list of count planes, each ``(..., n_words)``.

    Each set bit ``j`` of a weight adds its signal's word row at plane ``j``
    of the counter; carries ripple upward through word-wide half adders
    (``sum = a ^ b``, ``carry = a & b``), exactly like a hardware counter
    column.  A group whose weight lacks bit ``j`` adds zero words there.
    """
    planes: list = []
    n_bits = int(magnitudes.max(initial=0)).bit_length()
    # all-ones words where bit ``j`` of the magnitude is set, else zero
    select = (-((magnitudes[..., None] >> np.arange(n_bits)) & 1)).astype(np.uint64)
    wanted = select.any(axis=tuple(range(select.ndim - 2)))
    for k, plane in zip(*np.nonzero(wanted)):
        carry = packed[..., k, :] & select[..., k, plane, None]
        level = int(plane)
        while len(planes) < level:  # counter not yet this tall
            planes.append(np.zeros_like(carry))
        while True:
            if level == len(planes):
                planes.append(carry)
                break
            carry_out = planes[level] & carry
            planes[level] = planes[level] ^ carry
            if not carry_out.any():
                break
            carry = carry_out
            level += 1
    return planes


def mask_padding(packed: np.ndarray, n_samples: int) -> np.ndarray:
    """Zero the padding bits past ``n_samples`` in the last word (a copy
    when masking is needed, the input unchanged otherwise).

    Consumers that invert signals leave garbage in the padding; anything
    that *merges* packed blocks (:func:`concat_packed`) must clear it first
    or one block's garbage lands inside the next block's samples.
    """
    arr = np.asarray(packed, dtype=np.uint64)
    if arr.ndim != 2:
        raise ValueError(f"packed must be 2-D, got shape {arr.shape}")
    words = arr.shape[1]
    if n_samples < 0 or n_samples > words * WORD_BITS:
        raise ValueError(
            f"n_samples must lie in [0, {words * WORD_BITS}], got {n_samples}"
        )
    tail_bits = n_samples - (words - 1) * WORD_BITS if words else 0
    if words == 0 or tail_bits == WORD_BITS:
        return arr
    arr = arr.copy()
    if tail_bits <= 0:  # more words than the samples need: whole words die
        live_words = n_words(n_samples)
        arr[:, live_words:] = 0
        tail_bits = n_samples - (live_words - 1) * WORD_BITS
        if live_words == 0 or tail_bits == WORD_BITS:
            return arr
        words = live_words
    mask = np.uint64((1 << tail_bits) - 1)
    arr[:, words - 1] &= mask
    return arr


def concat_packed(chunks, n_samples_list) -> np.ndarray:
    """Concatenate packed blocks along the *sample* (bit) axis, staying packed.

    The packed-domain analogue of ``np.concatenate(rows_list)`` followed by
    :func:`pack_bits`: block ``i``'s samples land at bit offset
    ``sum(n_samples_list[:i])`` of the result, without ever expanding to
    bytes.  Blocks whose sample counts are not multiples of 64 are merged
    by word-wide shifts with carry into the neighbouring word — a few
    vector ops per block, independent of the sample count.

    This is what lets the serving layer coalesce many small *pre-packed*
    requests into one engine-shaped word matrix: clients pack once, the
    queue concatenates words, and the engine never sees bytes.

    Parameters
    ----------
    chunks:
        Sequence of ``uint64`` arrays, each ``(n_signals, n_words(k_i))``
        as produced by :func:`pack_bits` (padding bits may hold garbage —
        they are masked here).  All blocks must agree on ``n_signals``.
    n_samples_list:
        Per-block sample counts ``k_i`` (each ``>= 0``).

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of shape ``(n_signals, n_words(sum(k_i)))``.
    """
    chunks = [np.asarray(c, dtype=np.uint64) for c in chunks]
    counts = [int(k) for k in n_samples_list]
    if len(chunks) != len(counts):
        raise ValueError(
            f"{len(chunks)} chunks but {len(counts)} sample counts"
        )
    if not chunks:
        raise ValueError("concat_packed needs at least one chunk")
    signals = chunks[0].shape[0]
    for chunk, k in zip(chunks, counts):
        if chunk.ndim != 2 or chunk.shape[0] != signals:
            raise ValueError(
                f"all chunks must be 2-D with {signals} signal rows, "
                f"got shape {chunk.shape}"
            )
        if chunk.shape[1] < n_words(k):
            raise ValueError(
                f"chunk of {chunk.shape[1]} words cannot hold {k} samples"
            )
    if 0 in counts:  # empty blocks contribute nothing
        chunks = [chunk for chunk, k in zip(chunks, counts) if k]
        counts = [k for k in counts if k]
    out = np.zeros((signals, n_words(sum(counts))), dtype=np.uint64)
    if not chunks:
        return out
    if not any(k % WORD_BITS for k in counts):
        # whole words only: nothing to mask, nothing to shift
        pieces = [chunk[:, : k // WORD_BITS] for chunk, k in zip(chunks, counts)]
        return np.concatenate(pieces, axis=1, out=out)
    if {chunk.shape[1] for chunk in chunks} == {1}:
        # What a serving flush is: many requests of at most a word each.
        # Mask and shift them all at once, one chunk per row.  Chunks come in
        # offset order and none is longer than a word, so every output word
        # but perhaps the last has a run of chunks starting in it, which
        # reduceat ORs; only the last chunk of a run can reach into the next
        # word, and its spill is zero when it does not.
        k = np.array(counts)
        start = np.cumsum(k) - k
        word, bit = start >> 6, (start & 63).astype(np.uint64)
        rows = np.concatenate(chunks).reshape(len(chunks), signals)
        keep = ~np.uint64(0) >> (WORD_BITS - k).astype(np.uint64)
        rows &= keep[:, np.newaxis]
        first = np.searchsorted(word, np.arange(word[-1] + 1))
        out[:, : first.size] = np.bitwise_or.reduceat(
            rows << bit[:, np.newaxis], first, axis=0
        ).T
        last = np.append(first[1:], len(chunks)) - 1
        # >> 64 is not a shift: two steps, so that bit 0 spills nothing
        spill = rows[last] >> np.uint64(1)
        spill >>= (np.uint64(63) - bit[last])[:, np.newaxis]
        out[:, 1:] |= spill[: out.shape[1] - 1].T
        return out
    offset = 0
    for chunk, k in zip(chunks, counts):
        live = mask_padding(chunk[:, : n_words(k)], k)
        word, bit = divmod(offset, WORD_BITS)
        span = live.shape[1]
        if bit == 0:
            out[:, word : word + span] |= live
        else:
            shift = np.uint64(bit)
            unshift = np.uint64(WORD_BITS - bit)
            out[:, word : word + span] |= live << shift
            spill = live >> unshift
            # the last spill word may fall past the result when the final
            # samples fit below the word boundary; masked bits make it zero
            stop = min(word + 1 + span, out.shape[1])
            out[:, word + 1 : stop] |= spill[:, : stop - word - 1]
        offset += k
    return out


def unpack_bits(packed: np.ndarray, n_samples: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`, truncated to ``n_samples`` rows.

    Parameters
    ----------
    packed:
        ``uint64`` array of shape ``(n_signals, n_words)``.
    n_samples:
        Number of samples to recover; must fit in the packed words.

    Returns
    -------
    numpy.ndarray
        ``uint8`` matrix of shape ``(n_samples, n_signals)``.
    """
    arr = np.asarray(packed, dtype=np.uint64)
    if arr.ndim != 2:
        raise ValueError(f"packed must be 2-D, got shape {arr.shape}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    signals, words = arr.shape
    if n_samples > words * WORD_BITS:
        raise ValueError(
            f"packed data holds {words * WORD_BITS} bits per signal, "
            f"cannot recover {n_samples} samples"
        )
    groups, lanes = -(-n_samples // 8), -(-signals // 8)
    # pack_bits backwards: transpose the packed bytes, then row r of a group
    # of eight samples is bit r of every byte of the lane
    packed = np.zeros((groups, 8 * lanes), dtype=np.uint8)
    packed[:, :signals] = _plane_bytes(arr[:, : n_words(n_samples)])[:, :groups].T
    rows = packed.view(_WORD_DTYPE)[:, np.newaxis, :] >> _ROW_SHIFT[:, np.newaxis]
    rows &= _LANE_ONES
    unpacked = rows.view(np.uint8).reshape(8 * groups, 8 * lanes)
    return np.ascontiguousarray(unpacked[:n_samples, :signals])
