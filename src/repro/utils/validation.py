"""Input validation helpers shared across the library."""

from __future__ import annotations

import numpy as np


def check_consistent_lengths(**named_arrays: np.ndarray) -> None:
    """Raise ``ValueError`` when the named arrays differ in first-axis length."""
    lengths = {name: np.asarray(arr).shape[0] for name, arr in named_arrays.items()}
    if len(set(lengths.values())) > 1:
        details = ", ".join(f"{name}={length}" for name, length in lengths.items())
        raise ValueError(f"inconsistent first-axis lengths: {details}")


def is_binary(arr: np.ndarray) -> bool:
    """Whether every element of ``arr`` is 0 or 1.

    ``bool`` and ``uint8`` — what every batch path hands over — are settled
    by the dtype or one ``max``; any other dtype gets the element-wise test,
    which is also what rejects NaN.
    """
    if arr.size == 0 or arr.dtype == np.bool_:
        return True
    if arr.dtype == np.uint8:
        return bool(arr.max() <= 1)
    return bool(np.all((arr == 0) | (arr == 1)))


def check_binary_matrix(X: np.ndarray, name: str = "X") -> np.ndarray:
    """Validate and return a 2-D 0/1 matrix as ``uint8``."""
    arr = np.asarray(X)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not is_binary(arr):
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr.astype(np.uint8, copy=False)


def check_binary_vector(y: np.ndarray, name: str = "y") -> np.ndarray:
    """Validate and return a 1-D 0/1 vector as ``uint8``."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not is_binary(arr):
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr.astype(np.uint8, copy=False)


def check_labels(y: np.ndarray, n_classes: int, name: str = "y") -> np.ndarray:
    """Validate integer class labels in ``[0, n_classes)``."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        return arr.astype(np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.round(arr)
        if not np.allclose(arr, rounded):
            raise ValueError(f"{name} must contain integer class labels")
        arr = rounded
    arr = arr.astype(np.int64)
    if arr.min() < 0 or arr.max() >= n_classes:
        raise ValueError(
            f"{name} labels must lie in [0, {n_classes}), "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    return arr


def check_probability(value: float, name: str = "value") -> float:
    """Validate a scalar probability in ``[0, 1]``."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value
