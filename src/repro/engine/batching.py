"""Shared batched-prediction API.

Every classifier in the library exposes the same batched entry point,
``predict_batch(X, batch_size=None)``.  Models with a bit-packed fast path
(PoET-BiN, RINC) override it to run the compiled engine; arithmetic models
(the output layer, the baselines) inherit :class:`BatchedPredictorMixin`,
which chunks the batch so memory stays bounded under serving-sized inputs.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np


def predict_in_batches(
    predict: Callable[[np.ndarray], np.ndarray],
    X: np.ndarray,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """Apply ``predict`` to ``X`` in row chunks and concatenate the results.

    ``batch_size=None`` runs the whole batch at once.  Empty inputs are
    passed straight through so the model decides the output shape.
    """
    X = np.asarray(X)
    if batch_size is None or X.shape[0] <= batch_size:
        return predict(X)
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    chunks = [
        predict(X[start : start + batch_size])
        for start in range(0, X.shape[0], batch_size)
    ]
    return np.concatenate(chunks, axis=0)


class BatchedPredictorMixin:
    """Default ``predict_batch`` for models whose ``predict`` is vectorised."""

    def predict_batch(
        self, X: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Predict in row chunks of ``batch_size`` (all rows when ``None``)."""
        return predict_in_batches(self.predict, X, batch_size)
