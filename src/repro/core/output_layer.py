"""Sparsely connected, quantised output layer (§2.2.2 of the paper).

Each of the ``nc`` output neurons is connected to only ``P`` intermediate-layer
bits, so a neuron's pre-activation is a function of ``P`` binary inputs and can
be realised with ``q`` LUTs (one per output bit of the ``q``-bit quantised
value).  The layer is retrained on the *predicted* RINC outputs so that its
weights adapt to the RINC approximation errors, then quantised to ``q`` bits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.batching import BatchedPredictorMixin
from repro.nn.layers.dense import Dense
from repro.nn.losses import SquaredHingeLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.schedulers import ExponentialDecay
from repro.nn.trainer import Trainer
from repro.utils.rng import SeedLike
from repro.utils.validation import check_binary_matrix, check_labels


def quantize_symmetric(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Uniform symmetric quantisation of an array to ``n_bits`` signed levels.

    The scale maps the largest absolute value to the largest representable
    integer ``2**(n_bits-1) - 1``; an all-zero input is returned unchanged.
    """
    if n_bits < 2:
        raise ValueError("n_bits must be at least 2")
    values = np.asarray(values, dtype=np.float64)
    max_abs = np.max(np.abs(values)) if values.size else 0.0
    if max_abs == 0.0:
        return values.copy()
    levels = 2 ** (n_bits - 1) - 1
    scale = max_abs / levels
    return np.round(values / scale) * scale


class SparseQuantizedOutputLayer(BatchedPredictorMixin):
    """Multiclass read-out over RINC outputs with per-neuron sparse fan-in.

    Parameters
    ----------
    n_classes:
        Number of output neurons ``nc``.
    fan_in:
        Number of intermediate bits each output neuron reads (the paper's
        ``P``); output neuron ``j`` reads bits ``j*P .. (j+1)*P - 1``.
    n_bits:
        Quantisation precision ``q`` of the retrained weights (8 in the
        paper's final configuration).
    """

    def __init__(
        self,
        n_classes: int,
        fan_in: int,
        n_bits: int = 8,
        epochs: int = 40,
        learning_rate: float = 0.01,
        seed: SeedLike = 0,
    ) -> None:
        if n_classes <= 1:
            raise ValueError("n_classes must be at least 2")
        if fan_in <= 0:
            raise ValueError("fan_in must be positive")
        if n_bits < 2:
            raise ValueError("n_bits must be at least 2")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.n_classes = n_classes
        self.fan_in = fan_in
        self.n_bits = n_bits
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self.weights_: Optional[np.ndarray] = None  # (n_classes, fan_in) quantised
        self.biases_: Optional[np.ndarray] = None  # (n_classes,) quantised
        self.float_weights_: Optional[np.ndarray] = None
        self.float_biases_: Optional[np.ndarray] = None
        self._integer_weights_cache_: Optional[tuple] = None

    @property
    def n_inputs(self) -> int:
        """Width of the expected intermediate bit vector (``nc * P``)."""
        return self.n_classes * self.fan_in

    # ------------------------------------------------------------------ fit
    def fit(self, intermediate_bits: np.ndarray, y: np.ndarray) -> "SparseQuantizedOutputLayer":
        """Retrain the sparse read-out on predicted intermediate bits."""
        bits = check_binary_matrix(intermediate_bits, "intermediate_bits")
        if bits.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} intermediate bits, got {bits.shape[1]}"
            )
        y = check_labels(y, self.n_classes, "y")

        # The sparse layer is a bank of independent small dense layers, but a
        # single masked dense layer trains identically and far more simply.
        dense = Dense(self.n_inputs, self.n_classes, seed=self.seed)
        mask = np.zeros((self.n_inputs, self.n_classes), dtype=np.float64)
        for cls in range(self.n_classes):
            mask[cls * self.fan_in : (cls + 1) * self.fan_in, cls] = 1.0
        dense.params["W"] *= mask

        model = Sequential([dense])
        trainer = Trainer(
            model,
            SquaredHingeLoss(),
            Adam(model.layers, learning_rate=self.learning_rate),
            schedule=ExponentialDecay(self.learning_rate, 0.95),
            seed=self.seed,
        )
        X_float = bits.astype(np.float64)
        # Re-apply the sparsity mask after every epoch of training: gradients
        # for masked-out weights are discarded, mimicking a truly sparse layer.
        for epoch in range(self.epochs):
            trainer.fit(X_float, y, epochs=1, batch_size=64)
            dense.params["W"] *= mask

        self.float_weights_ = np.array(
            [
                dense.params["W"][cls * self.fan_in : (cls + 1) * self.fan_in, cls]
                for cls in range(self.n_classes)
            ]
        )
        self.float_biases_ = dense.params["b"].copy()
        self.weights_ = quantize_symmetric(self.float_weights_, self.n_bits)
        self.biases_ = quantize_symmetric(self.float_biases_, self.n_bits)
        self._integer_weights_cache_ = None
        return self

    # -------------------------------------------------------------- predict
    def _check_fitted(self) -> None:
        if self.weights_ is None or self.biases_ is None:
            raise RuntimeError("this output layer has not been fitted yet")

    def _integer_weights(self) -> tuple:
        """Quantised weights as ``(int_matrix, scale)``; exact by construction.

        Symmetric quantisation maps every weight to ``k * scale`` with
        integer ``k`` in ``[-(2**(q-1) - 1), 2**(q-1) - 1]`` and the largest
        magnitude hitting the extreme level exactly, so the scale is
        recoverable from the stored quantised weights alone — no extra
        serialised state is needed for the packed path.

        The result is cached: the packed serving path calls this once per
        request, and for one-sample requests the recovery arithmetic would
        otherwise rival the engine evaluation itself.  The cache is keyed
        on the identity of ``weights_``, so both :meth:`fit` and direct
        reassignment of the public attribute (the pattern benchmarks and
        deserialisation use) invalidate it.
        """
        cached = self._integer_weights_cache_
        if cached is None or cached[0] is not self.weights_:
            levels = 2 ** (self.n_bits - 1) - 1
            max_abs = (
                float(np.max(np.abs(self.weights_))) if self.weights_.size else 0.0
            )
            if max_abs == 0.0:
                ints, scale = np.zeros_like(self.weights_, dtype=np.int64), 1.0
            else:
                scale = max_abs / levels
                ints = np.round(self.weights_ / scale).astype(np.int64)
            cached = (self.weights_, ints, scale)
            self._integer_weights_cache_ = cached
        return cached[1], cached[2]

    def decision_scores(self, intermediate_bits: np.ndarray) -> np.ndarray:
        """Quantised pre-activations of every output neuron."""
        self._check_fitted()
        bits = check_binary_matrix(intermediate_bits, "intermediate_bits")
        if bits.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} intermediate bits, got {bits.shape[1]}"
            )
        scores = np.empty((bits.shape[0], self.n_classes), dtype=np.float64)
        for cls in range(self.n_classes):
            block = bits[:, cls * self.fan_in : (cls + 1) * self.fan_in].astype(np.float64)
            scores[:, cls] = block @ self.weights_[cls] + self.biases_[cls]
        return scores

    def predict(self, intermediate_bits: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return np.argmax(self.decision_scores(intermediate_bits), axis=1)

    # ------------------------------------------------------- packed fast path
    def decision_scores_packed(
        self, packed_bits: np.ndarray, n_samples: int
    ) -> np.ndarray:
        """Decision scores straight from packed intermediate words.

        ``packed_bits`` is the ``(nc * P, n_words)`` ``uint64`` matrix the
        compiled RINC bank emits (one row per intermediate bit, samples on
        the bit axis) — exactly ``CompiledNetlist.run_packed``'s output, so
        serving never unpacks between the RINC bank and the read-out.  Each
        neuron's quantised weights are integers times a common scale, so its
        pre-activation is ``scale * (popcount-weighted sum) + bias``,
        evaluated with bit-sliced word adders
        (:func:`~repro.engine.bitpack.packed_weighted_sums`); only the few
        count planes of the result are ever unpacked.

        Matches :meth:`decision_scores` up to float summation order (the
        weighted sum is exact in integers; the single ``scale`` multiply can
        differ from the float dot product by rounding ulps).
        """
        self._check_fitted()
        packed = np.asarray(packed_bits, dtype=np.uint64)
        if packed.ndim != 2 or packed.shape[0] != self.n_inputs:
            raise ValueError(
                f"packed_bits must have shape ({self.n_inputs}, n_words), "
                f"got {packed.shape}"
            )
        if n_samples < 0 or n_samples > packed.shape[1] * 64:
            raise ValueError(
                f"cannot recover {n_samples} samples from {packed.shape[1]} words"
            )
        from repro.engine.bitpack import packed_weighted_sums

        int_weights, scale = self._integer_weights()
        # one counter per output neuron, all rippling together
        sums = packed_weighted_sums(
            packed.reshape(self.n_classes, self.fan_in, packed.shape[1]),
            int_weights,
            n_samples,
        )
        return scale * sums + self.biases_

    def predict_packed(self, packed_bits: np.ndarray, n_samples: int) -> np.ndarray:
        """Predicted labels from packed intermediate words (see above)."""
        return np.argmax(self.decision_scores_packed(packed_bits, n_samples), axis=1)

    def score(self, intermediate_bits: np.ndarray, y: np.ndarray) -> float:
        """Accuracy against integer labels."""
        y = check_labels(y, self.n_classes, "y")
        return float(np.mean(self.predict(intermediate_bits) == y))

    # --------------------------------------------------------------- hardware
    def lut_count(self) -> int:
        """``q`` LUTs per output neuron (each neuron reads only ``P`` bits)."""
        self._check_fitted()
        return self.n_bits * self.n_classes

    def quantisation_error(self) -> float:
        """Largest absolute weight change introduced by quantisation."""
        self._check_fitted()
        return float(
            max(
                np.max(np.abs(self.weights_ - self.float_weights_), initial=0.0),
                np.max(np.abs(self.biases_ - self.float_biases_), initial=0.0),
            )
        )
