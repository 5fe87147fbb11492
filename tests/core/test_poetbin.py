"""Tests for the complete PoET-BiN classifier."""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core import PoETBiNClassifier
from repro.core.rinc import RINCClassifier
from repro.datasets import make_binary_intermediate_task
from repro.utils.rng import as_rng


def _make_student_task(seed=0, n=900, n_features=64, n_classes=3, per_class=4):
    """Synthetic binary features + intermediate-bit targets + labels.

    The intermediate bits are noisy functions of small feature subsets and the
    label is derived from the per-class bit blocks, mimicking the role of the
    teacher network.
    """
    rng = as_rng(seed)
    X = (rng.random((n, n_features)) < 0.5).astype(np.uint8)
    n_intermediate = n_classes * per_class
    targets = np.empty((n, n_intermediate), dtype=np.uint8)
    for j in range(n_intermediate):
        support = rng.choice(n_features, size=6, replace=False)
        weights = rng.normal(size=6)
        bias = weights.sum() / 2
        targets[:, j] = (X[:, support] @ weights - bias >= 0).astype(np.uint8)
    block_scores = targets.reshape(n, n_classes, per_class).sum(axis=2).astype(np.float64)
    block_scores += rng.normal(scale=0.1, size=block_scores.shape)
    y = np.argmax(block_scores, axis=1).astype(np.int64)
    return X, targets, y


@pytest.fixture(scope="module")
def student_task():
    return _make_student_task()


class TestFitPredict:
    def test_end_to_end_accuracy(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(
            n_classes=3,
            n_inputs=5,
            n_levels=1,
            intermediate_per_class=4,
            output_epochs=15,
            seed=0,
        )
        clf.fit(X[:700], targets[:700], y[:700])
        assert clf.score(X[700:], y[700:]) > 0.6

    def test_intermediate_predictions_binary(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(
            n_classes=3, n_inputs=4, n_levels=1, intermediate_per_class=4,
            output_epochs=5, seed=0,
        ).fit(X[:400], targets[:400], y[:400])
        bits = clf.predict_intermediate(X[400:500])
        assert bits.shape == (100, 12)
        assert set(np.unique(bits)) <= {0, 1}

    def test_emulation_accuracy_above_chance(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(
            n_classes=3, n_inputs=5, n_levels=1, intermediate_per_class=4,
            output_epochs=5, seed=0,
        ).fit(X[:700], targets[:700], y[:700])
        emulation = clf.emulation_accuracy(X[700:], targets[700:])
        assert emulation.shape == (12,)
        assert emulation.mean() > 0.6

    def test_number_of_rinc_modules(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(
            n_classes=3, n_inputs=4, n_levels=0, intermediate_per_class=4,
            output_epochs=3, seed=0,
        ).fit(X[:300], targets[:300], y[:300])
        assert len(clf.rinc_modules_) == 12
        assert clf.n_intermediate == 12


class TestValidation:
    def test_wrong_target_width(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(n_classes=3, n_inputs=4, intermediate_per_class=4)
        with pytest.raises(ValueError):
            clf.fit(X, targets[:, :5], y)

    def test_mismatched_lengths(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(n_classes=3, n_inputs=4, intermediate_per_class=4)
        with pytest.raises(ValueError):
            clf.fit(X[:10], targets[:20], y[:20])

    def test_unfitted_predict(self):
        clf = PoETBiNClassifier(n_classes=3, n_inputs=4)
        with pytest.raises(RuntimeError):
            clf.predict(np.zeros((2, 16), dtype=np.uint8))

    def test_invalid_n_classes(self):
        with pytest.raises(ValueError):
            PoETBiNClassifier(n_classes=1)

    def test_invalid_intermediate_per_class(self):
        with pytest.raises(ValueError):
            PoETBiNClassifier(n_classes=3, intermediate_per_class=0)


class TestHardwareView:
    def test_lut_count_formula(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(
            n_classes=3, n_inputs=4, n_levels=1, intermediate_per_class=4,
            output_bits=8, output_epochs=3, seed=0,
        ).fit(X[:300], targets[:300], y[:300])
        per_module = RINCClassifier.full_lut_count(4, 1)  # 5 LUTs
        expected = 12 * per_module + 8 * 3
        assert clf.lut_count() == expected

    def test_netlist_reproduces_intermediate_bits(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(
            n_classes=3, n_inputs=4, n_levels=1, intermediate_per_class=4,
            output_epochs=3, seed=0,
        ).fit(X[:300], targets[:300], y[:300])
        netlist = clf.to_netlist()
        hardware_bits = netlist.evaluate_outputs(X[300:400])
        np.testing.assert_array_equal(hardware_bits, clf.predict_intermediate(X[300:400]))

    def test_netlist_output_count(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(
            n_classes=3, n_inputs=4, n_levels=0, intermediate_per_class=4,
            output_epochs=3, seed=0,
        ).fit(X[:200], targets[:200], y[:200])
        netlist = clf.to_netlist()
        assert len(netlist.output_signals) == 12


class TestServingEntryPoints:
    def test_decision_scores_batch_matches_predict_batch(self, student_task):
        X, targets, y = student_task
        clf = PoETBiNClassifier(
            n_classes=3, n_inputs=4, n_levels=1, intermediate_per_class=4,
            output_epochs=5, seed=0,
        ).fit(X[:400], targets[:400], y[:400])
        batch = X[400:500]
        scores = clf.decision_scores_batch(batch)
        assert scores.shape == (100, 3)
        np.testing.assert_array_equal(
            np.argmax(scores, axis=1), clf.predict_batch(batch)
        )
        # the packed scores equal the arithmetic read-out on the predicted
        # intermediate bits, up to float summation order
        reference = clf.output_layer_.decision_scores(
            clf.predict_intermediate(batch)
        )
        np.testing.assert_allclose(scores, reference, rtol=1e-9, atol=1e-9)

    def test_decision_scores_batch_requires_fit(self):
        clf = PoETBiNClassifier(n_classes=3, n_inputs=4)
        with pytest.raises(RuntimeError):
            clf.decision_scores_batch(np.zeros((2, 16), dtype=np.uint8))


class TestScoringGoesThroughRunScores:
    """Features -> scores is one ``engine.run_scores`` call per chunk; a
    read-out too wide for a table falls back to ``run_packed`` + adders."""

    class _Spy:
        def __init__(self, engine):
            self.engine, self.calls = engine, []

        def run_scores(self, *args):
            self.calls.append("run_scores")
            return self.engine.run_scores(*args)

        def run_packed(self, *args):
            self.calls.append("run_packed")
            return self.engine.run_packed(*args)

    def test_three_scoring_methods_make_one_call_each(self, trained_poetbin):
        from repro.engine import pack_bits

        clf, X, _targets, _y = trained_poetbin
        spy = self._Spy(clf.compiled_netlist())
        batch = X[:100]
        labels = clf.predict_batch(batch, engine=spy)
        scores = clf.decision_scores_batch(batch, engine=spy)
        packed_scores = clf.decision_scores_packed_batch(
            pack_bits(batch), 100, engine=spy
        )
        assert spy.calls == ["run_scores"] * 3
        np.testing.assert_array_equal(scores, packed_scores)
        np.testing.assert_array_equal(labels, np.argmax(scores, axis=1))
        np.testing.assert_array_equal(
            scores,
            clf.output_layer_.decision_scores_packed(
                clf.compiled_netlist().run_packed(pack_bits(batch)), 100
            ),
        )
        spy.calls.clear()
        clf.decision_scores_batch(batch, batch_size=30, engine=spy)
        assert spy.calls == ["run_scores"] * 4

    def test_wide_read_out_keeps_the_adder_route(self):
        rng = as_rng(2)
        n_features, per_class = 24, 17
        X = (rng.random((200, n_features)) < 0.5).astype(np.uint8)
        targets = X[:, rng.integers(0, n_features, size=2 * per_class)]
        y = (targets[:, :per_class].sum(1) < targets[:, per_class:].sum(1)).astype(int)
        clf = PoETBiNClassifier(
            n_classes=2, n_inputs=2, n_levels=1, intermediate_per_class=per_class,
            output_epochs=2, seed=0,
        ).fit(X, targets, y)
        assert clf.output_layer_.score_table() is None
        spy = self._Spy(clf.compiled_netlist())
        scores = clf.decision_scores_batch(X, engine=spy)
        assert spy.calls == ["run_packed"]
        np.testing.assert_allclose(
            scores,
            clf.output_layer_.decision_scores(clf.predict_intermediate(X)),
            rtol=1e-9,
            atol=1e-9,
        )
        np.testing.assert_array_equal(clf.predict_batch(X), np.argmax(scores, axis=1))


class TestParentPickleCompatibility:
    """``data/poetbin_pr14.pkl`` was written by the commit before the
    table read-out: its output layer carries ``_integer_weights_cache_``
    and no table, its classifier a compiled NumPy engine, and ``scores``
    are that commit's ``decision_scores_batch(X)``."""

    @pytest.fixture()
    def saved(self):
        path = Path(__file__).parent / "data" / "poetbin_pr14.pkl"
        with open(path, "rb") as handle:
            return pickle.load(handle)  # written by this repository's own code

    def test_unpickles_serves_and_repickles(self, saved):
        clf, X, scores = saved["clf"], saved["X"], saved["scores"]
        layer_state = clf.output_layer_.__dict__
        assert "_integer_weights_cache_" in layer_state
        assert "_readout_cache_" not in layer_state
        # the very doubles the parent served, on the engine it pickled...
        np.testing.assert_array_equal(clf.decision_scores_batch(X), scores)
        np.testing.assert_array_equal(clf.predict_batch(X), np.argmax(scores, axis=1))
        # ...and the pickle of a classifier that has served holds neither cache
        clone = pickle.loads(pickle.dumps(clf))
        clone_state = clone.output_layer_.__dict__
        assert "_integer_weights_cache_" not in clone_state
        assert "_readout_cache_" not in clone_state
        np.testing.assert_array_equal(clone.decision_scores_batch(X), scores)

    def test_serves_the_same_scores_natively(self, saved):
        from repro.engine.native import toolchain_available

        if not toolchain_available():
            pytest.skip("no C compiler on this host")
        clf, X, scores = saved["clf"], saved["X"], saved["scores"]
        np.testing.assert_array_equal(
            clf.decision_scores_batch(X, engine_backend="native"), scores
        )


class TestOnGeneratedMulticlassTask:
    def test_beats_chance_on_intermediate_task(self):
        data = make_binary_intermediate_task(
            n_train=800, n_test=200, n_features=64, n_classes=5, n_hidden=20,
            n_active=10, seed=3,
        )
        # use the hidden generative bits themselves as intermediate targets by
        # training a quick PoET-BiN whose targets are random projections of X
        rng = as_rng(0)
        per_class = 3
        n_intermediate = 5 * per_class
        targets = np.empty((data.n_train, n_intermediate), dtype=np.uint8)
        test_targets = np.empty((data.n_test, n_intermediate), dtype=np.uint8)
        for j in range(n_intermediate):
            support = rng.choice(64, size=8, replace=False)
            w = rng.normal(size=8)
            b = w.sum() / 2
            targets[:, j] = (data.X_train[:, support] @ w - b >= 0).astype(np.uint8)
            test_targets[:, j] = (data.X_test[:, support] @ w - b >= 0).astype(np.uint8)
        clf = PoETBiNClassifier(
            n_classes=5, n_inputs=5, n_levels=1, intermediate_per_class=per_class,
            output_epochs=10, seed=0,
        ).fit(data.X_train, targets, data.y_train)
        assert clf.score(data.X_test, data.y_test) > 1.0 / 5
