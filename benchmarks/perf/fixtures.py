"""The fixed programs the benchmark runs, and its seeded inputs.

Programs (the trained classifier and three synthetic netlists) are the same
on every run: their content digests are frozen in ``fixture_digests.json``
and a run whose digest differs fails instead of reporting numbers that
cannot be compared.  ``--seed`` changes only the *inputs* — feature rows,
packed batches, request order, arrival times.

The classifier takes ~12 s to fit, which no run can afford, so the first
run in a checkout fits it and caches the pickle under ``out/`` (untracked;
delete ``out/`` after changing training code).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Dict, NamedTuple

import numpy as np

from benchmarks.perf import adapters
from benchmarks.perf.measure import now
from benchmarks.perf.procs import HERE, OUT_DIR

N_FEATURES = 256
N_CLASSES = 10
POOL_ROWS = 4096
DIGEST_FILE = HERE / "fixture_digests.json"
CLF_CACHE = OUT_DIR / "fixtures" / "clf_p6.pkl"


class Fixtures(NamedTuple):
    clf: "adapters.PoETBiNClassifier"
    programs: Dict[str, object]  # name -> LUTNetlist; the four compile inputs
    digests: Dict[str, str]
    fixture_s: float


def _training_task(n: int = 2000, per_class: int = 6, seed: int = 7):
    """``benchmarks/conftest.py::trained_reduced_poetbin``'s task at 256 features."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, N_FEATURES)) < 0.5).astype(np.uint8)
    n_intermediate = N_CLASSES * per_class
    targets = np.empty((n, n_intermediate), dtype=np.uint8)
    for j in range(n_intermediate):
        support = rng.choice(N_FEATURES, size=8, replace=False)
        w = rng.normal(size=8)
        targets[:, j] = (X[:, support] @ w - w.sum() / 2 >= 0).astype(np.uint8)
    block = targets.reshape(n, N_CLASSES, per_class).sum(axis=2).astype(float)
    y = np.argmax(block + rng.normal(scale=0.05, size=block.shape), axis=1)
    return X, targets, y


def _fit_classifier():
    X, targets, y = _training_task()
    return adapters.PoETBiNClassifier(
        n_classes=N_CLASSES,
        n_inputs=6,
        n_levels=2,
        branching=(6, 6),
        intermediate_per_class=6,
        output_epochs=10,
        seed=0,
    ).fit(X, targets, y)


def _load_classifier():
    try:
        with open(CLF_CACHE, "rb") as handle:
            return pickle.load(handle)  # written below by this benchmark only
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        pass
    clf = _fit_classifier()
    CLF_CACHE.parent.mkdir(parents=True, exist_ok=True)
    tmp = CLF_CACHE.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(clf, handle)
    os.replace(tmp, CLF_CACHE)
    return clf


def fresh_classifier():
    """A private copy with empty engine caches (its first call compiles)."""
    with open(CLF_CACHE, "rb") as handle:
        return pickle.load(handle)


def netlist_digest(netlist) -> str:
    body = json.dumps(adapters.netlist_to_dict(netlist), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _classifier_digest(clf) -> str:
    hasher = hashlib.sha256(netlist_digest(clf.to_netlist()).encode())
    for array in (clf.output_layer_.weights_, clf.output_layer_.biases_):
        hasher.update(np.round(array, 6).astype("<f8").tobytes())
    return hasher.hexdigest()[:16]


def synthetic_programs() -> Dict[str, object]:
    """The three generated netlists (cheap: no training, no cache)."""
    return {
        "rinc_p6": adapters.rinc_bank_netlist(
            N_FEATURES, 960, 160, 60, lut_width=6, seed=2
        ),
        "struct_p8": adapters.structured_bank_netlist(
            N_FEATURES, 960, 160, 60, lut_width=8, tree_depth=3
        ),
        "random_dag": adapters.random_netlist(N_FEATURES, 600, n_outputs=60),
    }


def build() -> Fixtures:
    """Every fixed program, with digests; outside all timed regions."""
    t0 = now()
    clf = _load_classifier()
    programs = {"clf_p6": clf.to_netlist(), **synthetic_programs()}
    digests = {name: netlist_digest(p) for name, p in programs.items()}
    digests["clf_p6"] = _classifier_digest(clf)
    return Fixtures(clf, programs, digests, now() - t0)


def check_digests(digests: Dict[str, str]) -> None:
    frozen = json.loads(DIGEST_FILE.read_text())
    if digests != frozen:
        changed = sorted(k for k in frozen if digests.get(k) != frozen[k])
        raise SystemExit(
            f"fixture digests differ from {DIGEST_FILE.name} for {changed}: "
            f"got {digests}. The programs under measurement changed, so these "
            "numbers would not be comparable with earlier ones; if that is "
            "intended, update the digest file in a benchmark-only change."
        )


# ------------------------------------------------------------- seeded inputs
def feature_rows(seed: int, n: int) -> np.ndarray:
    """``n`` uniformly random 0/1 feature rows — the training distribution."""
    rng = np.random.default_rng([seed, n])
    return (rng.random((n, N_FEATURES)) < 0.5).astype(np.uint8)


def packed_batch(seed: int, n_inputs: int, n_words: int) -> np.ndarray:
    rng = np.random.default_rng([seed, n_inputs, n_words])
    return rng.integers(
        0, np.iinfo(np.uint64).max, size=(n_inputs, n_words),
        dtype=np.uint64, endpoint=True,
    )
