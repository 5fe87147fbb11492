"""Sparsely connected, quantised output layer (§2.2.2 of the paper).

Each of the ``nc`` output neurons is connected to only ``P`` intermediate-layer
bits, so a neuron's pre-activation is a function of ``P`` binary inputs and can
be realised with ``q`` LUTs (one per output bit of the ``q``-bit quantised
value).  The layer is retrained on the *predicted* RINC outputs so that its
weights adapt to the RINC approximation errors, then quantised to ``q`` bits.

The packed serving path takes that literally: each neuron's ``2**P`` possible
pre-activations are tabulated once (:meth:`SparseQuantizedOutputLayer.score_table`)
and inference is a table look-up, with no arithmetic per sample.
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

#: widest fan-in whose ``2**fan_in``-entry score table is built; beyond it
#: (never the paper's ``P <= 8``) the packed read-out sums bit-sliced words
MAX_TABLE_FAN_IN = 16


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
        return self

    # -------------------------------------------------------------- predict
    def _check_fitted(self) -> None:
        if self.weights_ is None or self.biases_ is None:
            raise RuntimeError("this output layer has not been fitted yet")

    def __getstate__(self) -> dict:
        """Pickle the parameters, never the derived read-out cache (nor the
        cache attribute older versions of this class pickled)."""
        state = self.__dict__.copy()
        state.pop("_readout_cache_", None)
        state.pop("_integer_weights_cache_", None)
        return state

    def _readout(self) -> tuple:
        """``(int_weights, scale, table)`` of the packed read-out.

        Symmetric quantisation maps every weight to ``k * scale`` with
        integer ``k`` in ``[-(2**(q-1) - 1), 2**(q-1) - 1]`` and the largest
        magnitude hitting the extreme level exactly, so the scale is
        recoverable from the stored quantised weights alone — no extra
        serialised state is needed for the packed path.  ``table[j, i]`` is
        neuron ``j``'s score ``scale * (integer weighted sum of the bits of
        i, LSB = the neuron's first input) + bias``; ``None`` when
        ``fan_in > MAX_TABLE_FAN_IN``.

        Cached on the *contents* of ``weights_``/``biases_``/``n_bits``
        (the serving path asks once per batch; the key costs under a
        microsecond), so refitting, reassigning either attribute and
        writing into one in place all rebuild it.  Weights that are not
        on the ``n_bits`` grid raise instead of being silently re-quantised
        into scores :meth:`decision_scores` would not give.
        """
        weights = np.asarray(self.weights_, dtype=np.float64)
        biases = np.asarray(self.biases_, dtype=np.float64)
        key = (weights.tobytes(), biases.tobytes(), self.n_bits)
        cached = getattr(self, "_readout_cache_", None)
        if cached is not None and cached[0] == key:
            return cached[1:]
        if weights.shape != (self.n_classes, self.fan_in) or biases.shape != (
            self.n_classes,
        ):
            raise ValueError(
                f"weights_/biases_ must have shapes ({self.n_classes}, "
                f"{self.fan_in}) and ({self.n_classes},), got {weights.shape} "
                f"and {biases.shape}"
            )
        max_abs = float(np.max(np.abs(weights)))
        if max_abs == 0.0:
            ints, scale = np.zeros(weights.shape, dtype=np.int64), 1.0
        else:
            scale = max_abs / (2 ** (self.n_bits - 1) - 1)
            ints = np.round(weights / scale).astype(np.int64)
            if np.max(np.abs(ints * scale - weights)) > 1e-9 * max_abs:
                raise ValueError(
                    f"weights_ are not on the {self.n_bits}-bit symmetric "
                    "grid the packed read-out serves; pass them through "
                    "quantize_symmetric first"
                )
        table = None
        if self.fan_in <= MAX_TABLE_FAN_IN:
            index = np.arange(1 << self.fan_in)[:, None]
            index_bits = (index >> np.arange(self.fan_in)) & 1
            table = np.ascontiguousarray((scale * (index_bits @ ints.T) + biases).T)
            table.setflags(write=False)  # shared with every caller
        self._readout_cache_ = (key, ints, scale, table)
        return ints, scale, table

    def score_table(self) -> Optional[np.ndarray]:
        """Every neuron as the look-up table it is: ``(n_classes,
        2**fan_in)`` ``float64``, read-only.

        Entry ``[j, i]`` is neuron ``j``'s decision score when its ``fan_in``
        intermediate bits spell ``i`` LSB-first — what an engine's
        ``run_scores`` and :func:`~repro.engine.bitpack.lookup_scores` index.
        ``None`` for a layer with ``fan_in > MAX_TABLE_FAN_IN``, which has
        no table; :meth:`scores_from_engine` serves either kind.
        """
        self._check_fitted()
        return self._readout()[2]

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
        sample's ``P`` bits index the neuron's :meth:`score_table`
        (:func:`~repro.engine.bitpack.lookup_scores`); a layer too wide for
        a table (``fan_in > MAX_TABLE_FAN_IN``) evaluates the same
        expression per sample with bit-sliced word adders
        (:func:`~repro.engine.bitpack.packed_weighted_sums`).

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
        from repro.engine.bitpack import lookup_scores, packed_weighted_sums

        int_weights, scale, table = self._readout()
        if table is not None:
            return lookup_scores(packed, n_samples, table)
        # one counter per output neuron, all rippling together
        sums = packed_weighted_sums(
            packed.reshape(self.n_classes, self.fan_in, packed.shape[1]),
            int_weights,
            n_samples,
        )
        return scale * sums + self.biases_

    def scores_from_engine(
        self, engine, packed_features: np.ndarray, n_samples: int
    ) -> np.ndarray:
        """Packed *feature* words to ``(n_samples, n_classes)`` scores on
        ``engine``, the compiled RINC bank feeding this layer.

        One :meth:`~repro.engine.compiled_netlist.PackedEngine.run_scores`
        call — bank and table look-up together, fused into the kernel on
        the native engines — and bit-identical to
        :meth:`decision_scores_packed` on ``engine.run_packed``'s output,
        which is what a layer too wide to tabulate gets instead.  Whether
        the layer has a table is decided here and nowhere else.
        """
        table = self.score_table()
        if table is None:
            return self.decision_scores_packed(
                engine.run_packed(packed_features), n_samples
            )
        return engine.run_scores(packed_features, n_samples, table)

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
