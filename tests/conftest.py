"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def trained_poetbin():
    """A small fitted PoET-BiN classifier: ``(clf, X, targets, y)``.

    Shared by the engine equivalence tests and the serving tests that need
    a real classifier (engine selection and ownership); tests that need
    pristine engine caches take ``copy.copy(clf)`` and reset ``_compiled_``.
    """
    from repro.core import PoETBiNClassifier
    from repro.utils.rng import as_rng

    rng = as_rng(0)
    n, n_features, n_classes, per_class = 400, 48, 3, 2
    X = (rng.random((n, n_features)) < 0.5).astype(np.uint8)
    n_intermediate = n_classes * per_class
    targets = np.empty((n, n_intermediate), dtype=np.uint8)
    for j in range(n_intermediate):
        support = rng.choice(n_features, size=5, replace=False)
        w = rng.normal(size=5)
        targets[:, j] = (X[:, support] @ w - w.sum() / 2 >= 0).astype(np.uint8)
    block = targets.reshape(n, n_classes, per_class).sum(axis=2).astype(float)
    y = np.argmax(block + rng.normal(scale=0.05, size=block.shape), axis=1)
    clf = PoETBiNClassifier(
        n_classes=n_classes,
        n_inputs=4,
        n_levels=1,
        branching=(3,),
        intermediate_per_class=per_class,
        output_epochs=3,
        seed=0,
    ).fit(X, targets, y)
    return clf, X, targets, y
