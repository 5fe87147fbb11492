"""Look-Up Table representation.

A LUT is the fundamental hardware primitive PoET-BiN targets: ``P`` binary
inputs, one binary output, with the full truth table stored explicitly.  Every
trained RINC-0 tree and every MAT module reduces to exactly one LUT, which is
what makes the architecture power-efficient — inference is pure table lookup
with no multiplications, additions or weight fetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.bitops import binary_to_index, enumerate_binary_inputs
from repro.utils.validation import check_binary_matrix, is_binary


@dataclass
class LUT:
    """An explicit truth table over a subset of binary inputs.

    Attributes
    ----------
    input_indices:
        Which columns of the presented binary input vector feed this LUT
        (level order: the first index is the most significant address bit).
    table:
        Output bit for every address, length ``2 ** len(input_indices)``.
    name:
        Optional identifier used in netlists and generated VHDL.
    """

    input_indices: np.ndarray
    table: np.ndarray
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # checked before the casts, which would turn 0.7 or 0.5 into 0
        indices = np.asarray(self.input_indices)
        table = np.asarray(self.table)
        if indices.ndim != 1:
            raise ValueError("input_indices must be 1-D")
        values = indices.tolist()
        if indices.dtype.kind not in "biu" and not all(float(v).is_integer() for v in values):
            raise ValueError("input_indices must be integers")
        if values and min(values) < 0:
            raise ValueError("input_indices must be non-negative")
        if len(set(values)) != len(values):
            raise ValueError("input_indices must be distinct")
        expected = 1 << len(values)
        if table.shape != (expected,):
            raise ValueError(
                f"table must have {expected} entries for {len(values)} "
                f"inputs, got shape {table.shape}"
            )
        if not is_binary(table):
            raise ValueError("table entries must be 0/1")
        self.input_indices = indices.astype(np.int64, copy=False)
        self.table = table.astype(np.uint8, copy=False)

    @property
    def n_inputs(self) -> int:
        """Number of LUT inputs (the paper's ``P``)."""
        return int(len(self.input_indices))

    def evaluate(self, X_bits: np.ndarray) -> np.ndarray:
        """Look up the output for each row of the full binary input matrix."""
        X_bits = check_binary_matrix(X_bits, "X_bits")
        if self.n_inputs and X_bits.shape[1] <= int(self.input_indices.max()):
            raise ValueError(
                f"input matrix has {X_bits.shape[1]} columns but the LUT reads "
                f"index {int(self.input_indices.max())}"
            )
        addresses = binary_to_index(X_bits[:, self.input_indices])
        return self.table[addresses]

    def evaluate_local(self, bits: np.ndarray) -> np.ndarray:
        """Look up outputs when ``bits`` columns are already the LUT's inputs."""
        bits = check_binary_matrix(bits, "bits")
        if bits.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input columns, got {bits.shape[1]}"
            )
        return self.table[binary_to_index(bits)]

    def truth_table(self) -> np.ndarray:
        """Return the full (inputs, output) truth table as a 2-D array."""
        inputs = enumerate_binary_inputs(self.n_inputs)
        return np.column_stack([inputs, self.table])

    @classmethod
    def from_function(cls, input_indices: np.ndarray, func, name: str = "") -> "LUT":
        """Build a LUT by evaluating ``func`` on every input combination.

        ``func`` receives the enumerated local input matrix of shape
        ``(2**P, P)`` and must return the corresponding binary outputs.
        """
        combos = enumerate_binary_inputs(len(input_indices))
        outputs = np.asarray(func(combos)).ravel()
        return cls(input_indices=input_indices, table=outputs, name=name)
