"""RINC-L: the hierarchical AdaBoost classifier (Algorithm 2 of the paper).

A RINC-L module with LUT width ``P`` is built recursively:

* RINC-0 is a single level-wise decision tree (one LUT, ``P`` inputs).
* RINC-l (l >= 1) trains up to ``P`` RINC-(l-1) sub-classifiers with discrete
  AdaBoost and combines their binary outputs with a MAT module — which is
  itself one LUT.

With ``L`` levels the module reaches ``P**(L+1)`` input bits using
``(P**(L+1) - 1) / (P - 1)`` LUTs (``P**L`` trees plus ``sum_{l<L} P**l`` MAT
modules).  The
paper's experiments use RINC-2 with P=6 or P=8 and a number of trees that is
not always the full ``P**2`` (e.g. 32 or 40), which the ``branching`` argument
expresses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.boosting.adaboost import AdaBoost
from repro.core.lut import LUT
from repro.core.mat import MATModule
from repro.core.netlist import LUTNetlist, primary_input
from repro.core.rinc0 import RINC0


class RINCClassifier:
    """Hierarchical boosted LUT classifier (RINC-L).

    Parameters
    ----------
    n_inputs:
        LUT input width ``P``.
    n_levels:
        Number of hierarchical AdaBoost levels ``L``.  ``0`` degenerates to a
        single RINC-0 tree.
    branching:
        Number of sub-classifiers boosted at each level, outermost first.
        Each entry must lie in ``[1, n_inputs]`` (a MAT module cannot combine
        more votes than its LUT has inputs).  Defaults to ``n_inputs`` at
        every level.

    Attributes
    ----------
    children_:
        The trained sub-classifiers of the outermost level (RINC-(L-1)
        instances, or a single :class:`RINC0` when ``n_levels == 0``).
    mat_:
        The MAT module combining the outermost sub-classifiers.
    """

    def __init__(
        self,
        n_inputs: int,
        n_levels: int,
        branching: Optional[Sequence[int]] = None,
    ) -> None:
        if n_inputs <= 0:
            raise ValueError("n_inputs must be positive")
        if n_levels < 0:
            raise ValueError("n_levels must be non-negative")
        if branching is None:
            branching = [n_inputs] * n_levels
        branching = list(branching)
        if len(branching) != n_levels:
            raise ValueError(
                f"branching must have {n_levels} entries, got {len(branching)}"
            )
        for width in branching:
            if not 1 <= width <= n_inputs:
                raise ValueError(
                    f"branching entries must lie in [1, {n_inputs}], got {width}"
                )
        self.n_inputs = n_inputs
        self.n_levels = n_levels
        self.branching: Tuple[int, ...] = tuple(branching)
        self.children_: List[object] = []
        self.mat_: Optional[MATModule] = None
        self._leaf: Optional[RINC0] = None
        # n_features -> compiled engine (the netlist reads primary inputs,
        # so its shape depends on the width of X)
        self._compiled_: dict = {}

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "RINCClassifier":
        """Train with hierarchical AdaBoost (Algorithm 2)."""
        # the netlist changes with refitting: drop every cached engine
        self._compiled_ = {}
        if self.n_levels == 0:
            self._leaf = RINC0(self.n_inputs).fit(X, y, sample_weight=sample_weight)
            self.children_ = [self._leaf]
            self.mat_ = None
            return self

        child_levels = self.n_levels - 1
        child_branching = self.branching[1:]

        def factory(_round_index: int) -> "RINCClassifier":
            return RINCClassifier(
                n_inputs=self.n_inputs,
                n_levels=child_levels,
                branching=child_branching,
            )

        booster = AdaBoost(factory, n_rounds=self.branching[0])
        booster.fit(X, y, sample_weight=sample_weight)
        self.children_ = [record.learner for record in booster.rounds_]
        self.mat_ = MATModule.from_adaboost(booster.alphas_)
        return self

    # -------------------------------------------------------------- predict
    @property
    def is_fitted(self) -> bool:
        if self.n_levels == 0:
            return self._leaf is not None and self._leaf.is_fitted
        return self.mat_ is not None

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("this RINC classifier has not been fitted yet")

    def child_outputs(self, X: np.ndarray) -> np.ndarray:
        """Binary outputs of the outermost sub-classifiers, one column each."""
        self._check_fitted()
        if self.n_levels == 0:
            return self._leaf.predict(X)[:, np.newaxis]
        return np.column_stack([child.predict(X) for child in self.children_])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary prediction of the full hierarchical module."""
        self._check_fitted()
        if self.n_levels == 0:
            return self._leaf.predict(X)
        return self.mat_.evaluate(self.child_outputs(X))

    def predict_batch(
        self, X: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Binary prediction via the bit-packed engine; matches :meth:`predict`.

        The module's netlist runs through the engine's optimising pass
        pipeline and is compiled on first use, cached per feature width.
        """
        from repro.engine import compile_netlist, predict_in_batches
        from repro.utils.validation import check_binary_matrix

        self._check_fitted()
        X = check_binary_matrix(X, "X")
        n_features = X.shape[1]
        engine = self._compiled_.get(n_features)
        if engine is None:
            netlist, signal = self.to_netlist(n_primary_inputs=n_features)
            netlist.mark_output(signal)
            engine = compile_netlist(netlist)
            self._compiled_[n_features] = engine
        return predict_in_batches(engine.predict_batch, X, batch_size)[:, 0]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Unweighted accuracy on (X, y)."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # --------------------------------------------------------------- hardware
    def lut_count(self) -> int:
        """Total LUTs: one per tree plus one MAT LUT per internal module."""
        self._check_fitted()
        if self.n_levels == 0:
            return 1
        return 1 + sum(child.lut_count() for child in self.children_)

    @staticmethod
    def full_lut_count(n_inputs: int, n_levels: int) -> int:
        """Closed-form LUT count for a full RINC-L: ``(P**(L+1) - 1)/(P - 1)``.

        This is the formula of §2.1.3 (the sum of ``P**l`` for ``l = 0..L``)
        and equals :meth:`lut_count` when every level uses the full branching
        factor ``P``.
        """
        if n_inputs <= 1:
            return n_levels + 1
        return (n_inputs ** (n_levels + 1) - 1) // (n_inputs - 1)

    def max_input_bits(self) -> int:
        """Upper bound on distinct feature bits reachable: ``prod(branching) * P``."""
        bits = self.n_inputs
        for width in self.branching:
            bits *= width
        return bits

    def selected_features(self) -> np.ndarray:
        """Sorted union of feature indices used by all trees in the module."""
        self._check_fitted()
        if self.n_levels == 0:
            return np.unique(self._leaf.feature_indices)
        return np.unique(np.concatenate([c.selected_features() for c in self.children_]))

    def to_netlist(
        self,
        netlist: Optional[LUTNetlist] = None,
        n_primary_inputs: Optional[int] = None,
        prefix: str = "rinc",
    ) -> Tuple[LUTNetlist, str]:
        """Append this module's LUTs to ``netlist`` and return its output signal.

        When ``netlist`` is None a new one is created; ``n_primary_inputs``
        must then be given (the width of the binary feature vector).
        """
        self._check_fitted()
        if netlist is None:
            if n_primary_inputs is None:
                raise ValueError("n_primary_inputs is required when creating a netlist")
            netlist = LUTNetlist(n_primary_inputs=n_primary_inputs)

        if self.n_levels == 0:
            lut = self._leaf.to_lut(name=f"{prefix}_t")
            signal = netlist.add_node(
                name=f"{prefix}_t",
                kind="rinc0",
                input_signals=[primary_input(int(i)) for i in lut.input_indices],
                table=lut.table,
            )
            return netlist, signal

        child_signals = []
        for idx, child in enumerate(self.children_):
            _, signal = child.to_netlist(netlist=netlist, prefix=f"{prefix}_{idx}")
            child_signals.append(signal)
        mat_lut: LUT = self.mat_.to_lut(name=f"{prefix}_mat")
        signal = netlist.add_node(
            name=f"{prefix}_mat",
            kind="mat",
            input_signals=child_signals,
            table=mat_lut.table,
            metadata={"weights": self.mat_.weights.copy(), "threshold": self.mat_.threshold},
        )
        return netlist, signal
