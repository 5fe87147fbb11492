"""Bit-level helpers used throughout the LUT machinery.

A Look-Up Table over ``P`` binary inputs is addressed by the integer formed
from those input bits.  The functions here convert between bit matrices and
LUT addresses and enumerate all addresses; packing samples into words is
:mod:`repro.engine.bitpack`'s.  The most significant bit corresponds to the
*first* input (index 0), matching how the level-wise decision tree assigns
features to levels: the feature chosen at level 0 is the top of the tree
and therefore the most significant address bit.
"""

from __future__ import annotations

import numpy as np


def binary_to_index(bits: np.ndarray) -> np.ndarray:
    """Convert rows of binary values to LUT addresses.

    Parameters
    ----------
    bits:
        Array of shape ``(n, P)`` (or ``(P,)``) containing 0/1 values.  The
        first column is the most significant bit.

    Returns
    -------
    numpy.ndarray
        Integer addresses of shape ``(n,)`` (or a scalar array for 1-D input).
    """
    arr = np.asarray(bits)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
        squeeze = True
    else:
        squeeze = False
    if arr.ndim != 2:
        raise ValueError(f"bits must be 1-D or 2-D, got shape {arr.shape}")
    n_bits = arr.shape[1]
    if n_bits == 0:
        result = np.zeros(arr.shape[0], dtype=np.int64)
    else:
        weights = (1 << np.arange(n_bits - 1, -1, -1)).astype(np.int64)
        result = arr.astype(np.int64) @ weights
    return result[0] if squeeze else result


def index_to_binary(index: np.ndarray, n_bits: int) -> np.ndarray:
    """Convert LUT addresses back to binary rows of width ``n_bits``."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    idx = np.atleast_1d(np.asarray(index, dtype=np.int64))
    if np.any(idx < 0) or (n_bits < 63 and np.any(idx >= (1 << n_bits))):
        raise ValueError("index out of range for the requested bit width")
    shifts = np.arange(n_bits - 1, -1, -1)
    return ((idx[:, np.newaxis] >> shifts) & 1).astype(np.uint8)


#: widths whose enumeration is kept (2**16 rows x 16 columns is 1 MiB)
_CACHED_WIDTH = 16
_ENUMERATIONS: dict = {}


def enumerate_binary_inputs(n_bits: int) -> np.ndarray:
    """Return all ``2**n_bits`` binary input combinations, in address order.

    The array is read-only: for widths up to 16 every caller shares one
    array per width (copy it to write).
    """
    combos = _ENUMERATIONS.get(n_bits)
    if combos is not None:
        return combos
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    if n_bits > 24:
        raise ValueError(
            f"refusing to enumerate 2**{n_bits} combinations; "
            "LUTs wider than 24 inputs are not representable explicitly"
        )
    combos = index_to_binary(np.arange(1 << n_bits), n_bits)
    combos.setflags(write=False)
    if n_bits <= _CACHED_WIDTH:
        _ENUMERATIONS[n_bits] = combos
    return combos
