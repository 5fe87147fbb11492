"""The MAT (Multiply-Add-Threshold) module.

In the RINC architecture each group of ``P`` weak classifiers is combined by
multiplying the binary classifier outputs with their AdaBoost weights, adding,
and thresholding (Fig. 2 of the paper).  Because the MAT unit has ``P`` binary
inputs and one binary output, the whole operation is pre-computed into a
single LUT — this is the step that removes all arithmetic from inference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.lut import LUT
from repro.utils.bitops import enumerate_binary_inputs
from repro.utils.validation import check_binary_matrix


class MATModule:
    """Weighted vote of binary inputs, thresholded, expressible as one LUT.

    The decision implemented is the discrete-AdaBoost rule over 0/1 votes:
    ``output = 1  iff  sum_i w_i * (2 b_i - 1) >= threshold``.

    Parameters
    ----------
    weights:
        Vote weights (the AdaBoost alphas), one per binary input.
    threshold:
        Decision threshold applied to the ±1-encoded weighted sum.  The
        AdaBoost rule uses 0.
    """

    def __init__(self, weights: np.ndarray, threshold: float = 0.0) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if weights.size > 16:
            raise ValueError("a MAT module wider than 16 inputs cannot be a single LUT")
        self.weights = weights
        self.threshold = float(threshold)

    @classmethod
    def from_adaboost(cls, alphas: np.ndarray) -> "MATModule":
        """MAT module implementing the AdaBoost decision over 0/1 votes."""
        return cls(weights=np.asarray(alphas, dtype=np.float64), threshold=0.0)

    @property
    def n_inputs(self) -> int:
        return int(self.weights.size)

    def weighted_sum(self, bits: np.ndarray) -> np.ndarray:
        """±1-encoded weighted sum for each row of ``bits``."""
        bits = check_binary_matrix(bits, "bits")
        if bits.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input columns, got {bits.shape[1]}"
            )
        signed = 2.0 * bits.astype(np.float64) - 1.0
        return signed @ self.weights

    def evaluate(self, bits: np.ndarray) -> np.ndarray:
        """Binary MAT output (ties resolve to 1, matching AdaBoost's sign)."""
        return (self.weighted_sum(bits) >= self.threshold).astype(np.uint8)

    def to_lut(self, input_indices: Optional[np.ndarray] = None, name: str = "") -> LUT:
        """Pre-compute the MAT decision for all ``2**P`` input combinations."""
        if input_indices is None:
            input_indices = np.arange(self.n_inputs)
        input_indices = np.asarray(input_indices, dtype=np.int64)
        if input_indices.shape != (self.n_inputs,):
            raise ValueError("input_indices must provide one index per MAT input")
        combos = enumerate_binary_inputs(self.n_inputs)
        table = self.evaluate(combos)
        return LUT(input_indices=input_indices, table=table, name=name)

    def effective_inputs(self, tolerance: float = 1e-12) -> np.ndarray:
        """Indices of inputs that can actually change the MAT decision.

        An input whose weight is too small relative to the margin of the other
        inputs can never flip the thresholded output; the Xilinx synthesizer
        prunes the corresponding upstream logic (§4.3 of the paper).  This is
        the reference the resource model's pruning is tested against: the
        pruned netlist reads none of the inputs it drops.
        """
        keep = []
        combos = enumerate_binary_inputs(self.n_inputs)
        out = self.evaluate(combos)
        for i, w_i in enumerate(self.weights):
            # An input matters iff toggling it changes the thresholded output
            # for at least one assignment of the remaining inputs.
            flipped = combos.copy()
            flipped[:, i] ^= 1
            if np.any(out != self.evaluate(flipped)) and abs(w_i) > tolerance:
                keep.append(i)
        return np.asarray(keep, dtype=np.int64)
