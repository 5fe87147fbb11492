"""The complete PoET-BiN classifier.

A PoET-BiN classifier is a bank of RINC-L modules — one per neuron of the
teacher network's intermediate layer (``nc x P`` neurons) — followed by the
sparsely connected, ``q``-bit quantised output layer.  Training follows the
paper's student/teacher recipe:

1. each RINC-L module is trained to emulate one intermediate-layer bit, then
2. the output layer is retrained on the *predicted* RINC outputs so it adapts
   to their approximation errors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.core.netlist import LUTNetlist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.compiled_netlist import PackedEngine
from repro.core.output_layer import SparseQuantizedOutputLayer
from repro.core.rinc import RINCClassifier
from repro.utils.metrics import accuracy
from repro.utils.rng import SeedLike
from repro.utils.validation import check_binary_matrix, check_labels


class PoETBiNClassifier:
    """LUT-only multiclass classifier (the paper's final architecture).

    Parameters
    ----------
    n_classes:
        Number of classes ``nc``.
    n_inputs:
        LUT input width ``P`` (6 or 8 in the paper).
    n_levels:
        RINC hierarchy depth ``L`` (2 in all the paper's experiments).
    branching:
        Per-level boosting width of each RINC module (see
        :class:`~repro.core.rinc.RINCClassifier`); defaults to ``P`` everywhere.
    intermediate_per_class:
        Number of intermediate bits (RINC modules) per class; the paper uses
        ``P`` so the intermediate layer has ``nc * P`` neurons.
    output_bits:
        Quantisation precision ``q`` of the output layer.
    """

    def __init__(
        self,
        n_classes: int,
        n_inputs: int = 8,
        n_levels: int = 2,
        branching: Optional[Sequence[int]] = None,
        intermediate_per_class: Optional[int] = None,
        output_bits: int = 8,
        output_epochs: int = 40,
        output_learning_rate: float = 0.01,
        seed: SeedLike = 0,
        verbose: bool = False,
    ) -> None:
        if n_classes <= 1:
            raise ValueError("n_classes must be at least 2")
        self.n_classes = n_classes
        self.n_inputs = n_inputs
        self.n_levels = n_levels
        self.branching = branching
        self.intermediate_per_class = (
            n_inputs if intermediate_per_class is None else intermediate_per_class
        )
        if self.intermediate_per_class <= 0:
            raise ValueError("intermediate_per_class must be positive")
        self.output_bits = output_bits
        self.output_epochs = output_epochs
        self.output_learning_rate = output_learning_rate
        self.seed = seed
        self.verbose = verbose
        self.rinc_modules_: List[RINCClassifier] = []
        self.output_layer_: Optional[SparseQuantizedOutputLayer] = None
        self.n_features_: Optional[int] = None
        # engine backend ("numpy"/"native"/"native-mt"/"auto") -> engine
        self._compiled_: dict = {}

    @property
    def n_intermediate(self) -> int:
        """Total number of intermediate bits (= number of RINC modules)."""
        return self.n_classes * self.intermediate_per_class

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        X_features: np.ndarray,
        intermediate_targets: np.ndarray,
        y: np.ndarray,
    ) -> "PoETBiNClassifier":
        """Train the RINC bank and retrain the sparse output layer.

        Parameters
        ----------
        X_features:
            Binary feature matrix from the (binarised) feature extractor,
            shape ``(n, F)``.
        intermediate_targets:
            Binary intermediate-layer activations of the teacher network,
            shape ``(n, nc * intermediate_per_class)``.
        y:
            Integer class labels, shape ``(n,)``.
        """
        X_features = check_binary_matrix(X_features, "X_features")
        intermediate_targets = check_binary_matrix(
            intermediate_targets, "intermediate_targets"
        )
        y = check_labels(y, self.n_classes, "y")
        if intermediate_targets.shape[1] != self.n_intermediate:
            raise ValueError(
                f"expected {self.n_intermediate} intermediate targets, "
                f"got {intermediate_targets.shape[1]}"
            )
        if X_features.shape[0] != intermediate_targets.shape[0]:
            raise ValueError("X_features and intermediate_targets length mismatch")
        self.n_features_ = X_features.shape[1]
        # invalidate cached engines before mutating the RINC bank
        self._compiled_ = {}

        self.rinc_modules_ = []
        for neuron in range(self.n_intermediate):
            module = RINCClassifier(
                n_inputs=self.n_inputs,
                n_levels=self.n_levels,
                branching=self.branching,
            )
            module.fit(X_features, intermediate_targets[:, neuron])
            self.rinc_modules_.append(module)
            if self.verbose:  # pragma: no cover - logging only
                emulation = module.score(X_features, intermediate_targets[:, neuron])
                print(
                    f"RINC module {neuron + 1}/{self.n_intermediate}: "
                    f"emulation accuracy {emulation:.4f}"
                )

        predicted_bits = self.predict_intermediate(X_features)
        self.output_layer_ = SparseQuantizedOutputLayer(
            n_classes=self.n_classes,
            fan_in=self.intermediate_per_class,
            n_bits=self.output_bits,
            epochs=self.output_epochs,
            learning_rate=self.output_learning_rate,
            seed=self.seed,
        )
        self.output_layer_.fit(predicted_bits, y)
        return self

    # -------------------------------------------------------------- predict
    def _check_fitted(self) -> None:
        if not self.rinc_modules_ or self.output_layer_ is None:
            raise RuntimeError("this PoET-BiN classifier has not been fitted yet")

    def predict_intermediate(self, X_features: np.ndarray) -> np.ndarray:
        """Predicted intermediate bits, one column per RINC module."""
        if not self.rinc_modules_:
            raise RuntimeError("this PoET-BiN classifier has not been fitted yet")
        X_features = check_binary_matrix(X_features, "X_features")
        return np.column_stack([m.predict(X_features) for m in self.rinc_modules_])

    def predict(self, X_features: np.ndarray) -> np.ndarray:
        """Predicted class labels (module-by-module reference path)."""
        self._check_fitted()
        return self.output_layer_.predict(self.predict_intermediate(X_features))

    def compiled_netlist(self, engine_backend: str = "numpy") -> "PackedEngine":
        """The bit-packed engine for this classifier, compiled on first use.

        ``engine_backend`` names the evaluation engine (see
        :func:`~repro.engine.compiled_netlist.build_engine`): the NumPy
        word-op interpreter (default), the generated-C native engine
        (``"native"``), the same build threaded up to the core count
        (``"native-mt"``, which shards large batches across word ranges
        in-process), or ``"auto"`` (native when the host has a C
        toolchain, else NumPy) — cached per name.  A native engine comes
        back before its C build has run and answers on the NumPy program
        until the build lands (see
        :meth:`~repro.engine.native.NativeCompiledNetlist.attach`;
        ``engine.wait()`` blocks until then).
        """
        self._check_fitted()
        engine = self._compiled_.get(engine_backend)
        if engine is None:
            from repro.engine.compiled_netlist import attach_engine

            engine = attach_engine(self.to_netlist(), engine_backend)
            self._compiled_[engine_backend] = engine
        return engine

    def _engine(
        self, engine: Optional["PackedEngine"], engine_backend: Optional[str]
    ) -> "PackedEngine":
        """The engine a batch method runs on: the one the caller built
        (``engine``) or this classifier's cached one for ``engine_backend``
        (default ``"numpy"``; ``"native-mt"`` uses the host's cores)."""
        if engine is None:
            return self.compiled_netlist(engine_backend or "numpy")
        if engine_backend is not None:
            raise ValueError("provide at most one of engine and engine_backend")
        return engine

    def predict_intermediate_batch(
        self,
        X_features: np.ndarray,
        batch_size: Optional[int] = None,
        engine: Optional["PackedEngine"] = None,
        engine_backend: Optional[str] = None,
    ) -> np.ndarray:
        """Intermediate bits via the bit-packed engine; matches
        :meth:`predict_intermediate` bit for bit.  ``engine_backend`` names
        this classifier's cached evaluator — ``"numpy"`` (default),
        ``"native"`` (generated C), ``"native-mt"`` (threaded
        native) or ``"auto"``; ``engine`` instead runs on an
        engine the caller built (see :meth:`_engine`)."""
        from repro.engine import predict_in_batches

        engine = self._engine(engine, engine_backend)
        X_features = check_binary_matrix(X_features, "X_features")
        return predict_in_batches(engine.predict_batch, X_features, batch_size)

    def predict_batch(
        self,
        X_features: np.ndarray,
        batch_size: Optional[int] = None,
        engine: Optional["PackedEngine"] = None,
        engine_backend: Optional[str] = None,
    ) -> np.ndarray:
        """Predicted class labels, packed end to end.

        The whole serving path stays in packed words: the RINC bank is
        evaluated by the compiled netlist (this classifier's cached engine
        for ``engine_backend``, or the caller's ``engine``), and its
        packed outputs index the output layer's score table directly —
        nothing is unpacked between the RINC bank and the final scores.
        The intermediate bits are bit-identical to
        :meth:`predict_intermediate`; labels match :meth:`predict` except
        in the measure-zero case of two classes whose float scores tie
        within rounding ulps (a table entry is one multiply of an exact
        integer sum, the float reference accumulates per-weight rounding —
        see
        :meth:`~repro.core.output_layer.SparseQuantizedOutputLayer.decision_scores_packed`).
        """
        from repro.engine import pack_bits, predict_in_batches

        engine = self._engine(engine, engine_backend)
        X_features = check_binary_matrix(X_features, "X_features")

        def predict_chunk(chunk: np.ndarray) -> np.ndarray:
            scores = self.output_layer_.scores_from_engine(
                engine, pack_bits(chunk), chunk.shape[0]
            )
            return np.argmax(scores, axis=1)

        return predict_in_batches(predict_chunk, X_features, batch_size)

    def decision_scores_batch(
        self,
        X_features: np.ndarray,
        batch_size: Optional[int] = None,
        engine: Optional["PackedEngine"] = None,
        engine_backend: Optional[str] = None,
    ) -> np.ndarray:
        """Per-class decision scores ``(n, nc)``, packed end to end.

        The serving-layer entry point: one ``engine.run_scores`` call
        yields the scores (bit-identical to
        :meth:`~repro.core.output_layer.SparseQuantizedOutputLayer.decision_scores_packed`
        on the bank's packed outputs), and ``argmax`` over them reproduces
        :meth:`predict_batch` — so a server can return labels *and*
        confidences from a single packed evaluation instead of running the
        bank twice.  The server passes the ``engine`` it resolved at
        registration.
        """
        self._check_fitted()
        from repro.engine import pack_bits, predict_in_batches

        engine = self._engine(engine, engine_backend)
        X_features = check_binary_matrix(X_features, "X_features")

        def scores_chunk(chunk: np.ndarray) -> np.ndarray:
            return self.output_layer_.scores_from_engine(
                engine, pack_bits(chunk), chunk.shape[0]
            )

        return predict_in_batches(scores_chunk, X_features, batch_size)

    def decision_scores_packed_batch(
        self,
        packed: np.ndarray,
        n_samples: int,
        engine: Optional["PackedEngine"] = None,
        engine_backend: Optional[str] = None,
    ) -> np.ndarray:
        """Per-class scores ``(n_samples, nc)`` from *already-packed* rows.

        The binary wire protocol's zero-copy entry point: ``packed`` is the
        :func:`~repro.engine.bitpack.pack_bits` layout — uint64 bit-planes
        of shape ``(n_features, n_words(n_samples))`` — so a client that
        packed once ships the words and the server evaluates them directly,
        never expanding back to a byte matrix.  ``argmax`` over the result
        matches :meth:`predict_batch` on the corresponding unpacked rows
        exactly (both read out the same packed intermediate bits).  Padding
        bits past ``n_samples`` in the last word may hold anything; the
        read-out only consumes the live lanes.
        """
        self._check_fitted()
        from repro.engine import n_words

        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        if packed.ndim != 2:
            raise ValueError(f"packed must be 2-D, got shape {packed.shape}")
        n_samples = int(n_samples)
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if packed.shape[0] != self.n_features_:
            raise ValueError(
                f"packed carries {packed.shape[0]} feature planes, this "
                f"model expects {self.n_features_}"
            )
        expected_words = n_words(n_samples)
        if packed.shape[1] != expected_words:
            raise ValueError(
                f"packed has {packed.shape[1]} words per plane, but "
                f"{n_samples} samples need {expected_words}"
            )
        engine = self._engine(engine, engine_backend)
        return self.output_layer_.scores_from_engine(engine, packed, n_samples)

    def score(self, X_features: np.ndarray, y: np.ndarray) -> float:
        """Multiclass accuracy."""
        y = check_labels(y, self.n_classes, "y")
        return accuracy(y, self.predict(X_features))

    def emulation_accuracy(
        self, X_features: np.ndarray, intermediate_targets: np.ndarray
    ) -> np.ndarray:
        """Per-module accuracy at emulating its intermediate-layer bit."""
        self._check_fitted()
        intermediate_targets = check_binary_matrix(
            intermediate_targets, "intermediate_targets"
        )
        predicted = self.predict_intermediate(X_features)
        return np.mean(predicted == intermediate_targets, axis=0)

    # --------------------------------------------------------------- hardware
    def lut_count(self) -> int:
        """Total LUTs: RINC modules plus the quantised output layer."""
        self._check_fitted()
        rinc = sum(m.lut_count() for m in self.rinc_modules_)
        return rinc + self.output_layer_.lut_count()

    def to_netlist(self) -> LUTNetlist:
        """Netlist of all RINC modules; outputs are the intermediate bits.

        The quantised output layer is arithmetic over ``P`` bits per neuron
        and is accounted for separately (``q`` LUTs per neuron) by the
        resource model; the netlist covers the purely boolean part.
        """
        self._check_fitted()
        netlist = LUTNetlist(n_primary_inputs=self.n_features_)
        for index, module in enumerate(self.rinc_modules_):
            _, signal = module.to_netlist(netlist=netlist, prefix=f"n{index}")
            netlist.mark_output(signal)
        return netlist
