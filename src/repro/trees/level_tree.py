"""Level-wise decision tree — Algorithm 1 of the paper (the RINC-0 trainer).

A conventional decision tree grows node by node, choosing a possibly different
feature at every node.  The paper instead trains *level-wise*: every node of a
level tests the same feature, so a tree of depth ``P`` uses exactly ``P``
distinct features and its leaf table is precisely a ``P``-input LUT.  This
maximises the use of a fixed-input LUT (which is constrained by the number of
distinct inputs, not by depth or node count) and makes leaf lookup O(1).

The implementation vectorises the inner loops of Algorithm 1: at each level the
weighted class histograms of every candidate feature are obtained with a single
sparse matrix product (samples grouped by current node and class, multiplied by
the binary feature matrix), so selecting a feature costs O(n_samples x
n_features) with no per-feature Python loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.utils.bitops import binary_to_index
from repro.utils.validation import (
    check_binary_matrix,
    check_binary_vector,
    check_consistent_lengths,
)


def _weighted_child_entropy(class0: np.ndarray, class1: np.ndarray) -> np.ndarray:
    """Weighted entropy contribution ``total * H(class0, class1)``, elementwise.

    Equals ``-(class0 * log2(class0/total) + class1 * log2(class1/total))``
    with the usual ``0 log 0 = 0`` convention; used to score candidate
    features of one tree level in a fully vectorised way.
    """
    total = class0 + class1
    with np.errstate(divide="ignore", invalid="ignore"):
        term0 = np.where(class0 > 0, class0 * np.log2(np.where(class0 > 0, class0, 1.0)), 0.0)
        term1 = np.where(class1 > 0, class1 * np.log2(np.where(class1 > 0, class1, 1.0)), 0.0)
        norm = np.where(total > 0, total * np.log2(np.where(total > 0, total, 1.0)), 0.0)
    return norm - term0 - term1


class LevelWiseDecisionTree:
    """Binary classifier over binary features, trained level-wise.

    Parameters
    ----------
    n_inputs:
        Number of levels == number of distinct features selected == LUT input
        width ``P``.  The fitted tree is exactly one ``P``-input LUT.
    excluded_features:
        Features that must not be selected (used by callers that want
        non-overlapping trees).

    Attributes
    ----------
    feature_indices_:
        The selected features, in level order (level 0 first — the most
        significant LUT address bit).
    table_:
        Leaf labels for every LUT address, shape ``(2**n_inputs,)``.
    """

    def __init__(
        self,
        n_inputs: int,
        excluded_features: Optional[Sequence[int]] = None,
    ) -> None:
        if n_inputs <= 0:
            raise ValueError("n_inputs must be positive")
        if n_inputs > 16:
            raise ValueError(
                "n_inputs above 16 would require enumerating more than 65536 "
                "LUT entries; the paper uses 6 to 8"
            )
        self.n_inputs = n_inputs
        self.excluded_features = tuple(excluded_features or ())
        self.feature_indices_: Optional[np.ndarray] = None
        self.table_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "LevelWiseDecisionTree":
        """Select features level-by-level and fill the leaf table."""
        from scipy import sparse  # here, so that serving never imports SciPy
        X = check_binary_matrix(X, "X")
        y = check_binary_vector(y, "y")
        check_consistent_lengths(X=X, y=y)
        n_samples, n_features = X.shape
        if n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        if sample_weight is None:
            weights = np.full(n_samples, 1.0 / n_samples)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64)
            if weights.shape != (n_samples,):
                raise ValueError("sample_weight must have shape (n_samples,)")
            if np.any(weights < 0):
                raise ValueError("sample weights must be non-negative")
            if weights.sum() <= 0:
                raise ValueError("sample weights must not all be zero")

        available = np.ones(n_features, dtype=bool)
        for idx in self.excluded_features:
            if not 0 <= idx < n_features:
                raise ValueError(f"excluded feature {idx} out of range")
            available[idx] = False
        if available.sum() < self.n_inputs:
            raise ValueError(
                f"need at least {self.n_inputs} available features, "
                f"have {int(available.sum())}"
            )

        y_int = y.astype(np.int64)
        X_float = X.astype(np.float64)
        selected: list[int] = []
        # node index of each sample in the partially built tree (i bits so far)
        node_idx = np.zeros(n_samples, dtype=np.int64)
        for level in range(self.n_inputs):
            n_nodes = 1 << level
            # group samples by (current node, class); one sparse matmul then
            # yields the weighted count of feature==1 per group and feature.
            group = node_idx * 2 + y_int
            grouping = sparse.csr_matrix(
                (weights, (group, np.arange(n_samples))), shape=(n_nodes * 2, n_samples)
            )
            ones_count = np.asarray(grouping @ X_float)  # (n_nodes*2, F)
            group_total = np.asarray(grouping.sum(axis=1)).ravel()  # (n_nodes*2,)
            zeros_count = group_total[:, np.newaxis] - ones_count
            # per candidate feature, the children class counts are
            #   bit=1 child of node m: (ones_count[2m], ones_count[2m+1])
            #   bit=0 child of node m: (zeros_count[2m], zeros_count[2m+1])
            c1_class0 = ones_count[0::2, :]
            c1_class1 = ones_count[1::2, :]
            c0_class0 = zeros_count[0::2, :]
            c0_class1 = zeros_count[1::2, :]
            level_entropy = _weighted_child_entropy(c1_class0, c1_class1)
            level_entropy += _weighted_child_entropy(c0_class0, c0_class1)
            level_entropy = level_entropy.sum(axis=0)  # (F,)
            level_entropy[~available] = np.inf
            best_feature = int(np.argmin(level_entropy))
            selected.append(best_feature)
            available[best_feature] = False
            node_idx = (node_idx << 1) | X[:, best_feature]

        # Leaf labels: weighted majority class per node, ties resolved to 1
        # (Algorithm 1 appends 1 when S0 <= S1).
        n_leaves = 1 << self.n_inputs
        leaf_counts = np.bincount(
            node_idx * 2 + y_int, weights=weights, minlength=n_leaves * 2
        ).reshape(n_leaves, 2)
        self.table_ = (leaf_counts[:, 0] <= leaf_counts[:, 1]).astype(np.uint8)
        self.feature_indices_ = np.asarray(selected, dtype=np.int64)
        return self

    # -------------------------------------------------------------- predict
    def _check_fitted(self) -> None:
        if self.feature_indices_ is None or self.table_ is None:
            raise RuntimeError("this tree has not been fitted yet")

    def decision_path(self, X: np.ndarray) -> np.ndarray:
        """LUT address (leaf index) of every sample."""
        self._check_fitted()
        X = check_binary_matrix(X, "X")
        if X.shape[1] <= int(self.feature_indices_.max()):
            raise ValueError("X has fewer features than the tree was trained on")
        return binary_to_index(X[:, self.feature_indices_])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted binary labels."""
        return self.table_[self.decision_path(X)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Unweighted accuracy on (X, y)."""
        y = check_binary_vector(y, "y")
        return float(np.mean(self.predict(X) == y))

    # ------------------------------------------------------------------ LUT
    def to_lut(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(feature_indices, table)`` — the LUT this tree encodes."""
        self._check_fitted()
        return self.feature_indices_.copy(), self.table_.copy()
