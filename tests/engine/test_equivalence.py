"""Property-based equivalence: the packed engine vs. the naive simulator.

The compiled engine must be *bit-identical* to ``LUTNetlist.evaluate_outputs``
on arbitrary netlists, and the classifiers' ``predict_batch`` fast paths must
reproduce their slow paths exactly.
"""

import numpy as np
import pytest

from repro.core import PoETBiNClassifier, RINCClassifier
from repro.engine import compile_netlist, random_netlist
from repro.utils.rng import as_rng


class TestRandomNetlistEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_dags(self, seed):
        """Random widths P in {2..8}, random depth, random batch size."""
        rng = as_rng(1000 + seed)
        n_primary = int(rng.integers(4, 48))
        n_nodes = int(rng.integers(1, 150))
        netlist = random_netlist(
            n_primary, n_nodes, seed=seed, lut_widths=(2, 3, 4, 5, 6, 7, 8)
        )
        compiled = compile_netlist(netlist)
        n_samples = int(rng.integers(1, 300))
        X = rng.integers(0, 2, size=(n_samples, n_primary), dtype=np.uint8)
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8])
    def test_single_width(self, rng, width):
        netlist = random_netlist(16, 40, seed=width, lut_widths=(width,))
        compiled = compile_netlist(netlist)
        X = rng.integers(0, 2, size=(129, 16), dtype=np.uint8)
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )

    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 200])
    def test_ragged_batches(self, rng, n_samples):
        netlist = random_netlist(12, 30, seed=3)
        compiled = compile_netlist(netlist)
        X = rng.integers(0, 2, size=(n_samples, 12), dtype=np.uint8)
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_deep_chain(self, rng):
        """A deliberately deep DAG exercises many levels and slot reuse."""
        netlist = random_netlist(6, 120, seed=9, lut_widths=(2, 3))
        compiled = compile_netlist(netlist)
        assert compiled.n_groups >= 10
        X = rng.integers(0, 2, size=(150, 6), dtype=np.uint8)
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_exhaustive_small_netlist(self):
        """All 2**10 input combinations of a small netlist, checked exactly."""
        netlist = random_netlist(10, 25, seed=4)
        compiled = compile_netlist(netlist)
        X = np.array(
            [[(i >> b) & 1 for b in range(10)] for i in range(1024)], dtype=np.uint8
        )
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_native_backend_exhaustive(self):
        """The generated-C backend over the same exhaustive input space.

        The deep fuzz lives in ``test_native_backend``; this is the
        equivalence suite's cross-check that ``backend="native"`` sits
        behind the same contract as the NumPy engine.
        """
        from repro.engine.native import toolchain_available

        if not toolchain_available():
            pytest.skip("no C compiler on this host")
        netlist = random_netlist(10, 25, seed=4)
        native = compile_netlist(netlist, backend="native")
        X = np.array(
            [[(i >> b) & 1 for b in range(10)] for i in range(1024)], dtype=np.uint8
        )
        np.testing.assert_array_equal(
            native.predict_batch(X), netlist.evaluate_outputs(X)
        )


class TestClassifierFastPaths:
    @pytest.fixture(scope="class")
    def trained(self, trained_poetbin):
        return trained_poetbin

    def test_poetbin_predict_batch_matches_predict(self, trained):
        clf, X, _targets, _y = trained
        np.testing.assert_array_equal(clf.predict_batch(X), clf.predict(X))

    def test_poetbin_chunked_matches(self, trained):
        clf, X, _targets, _y = trained
        np.testing.assert_array_equal(
            clf.predict_batch(X, batch_size=64), clf.predict(X)
        )

    def test_poetbin_intermediate_batch_matches(self, trained):
        clf, X, _targets, _y = trained
        np.testing.assert_array_equal(
            clf.predict_intermediate_batch(X), clf.predict_intermediate(X)
        )

    def test_poetbin_engine_is_cached(self, trained):
        clf, _X, _targets, _y = trained
        assert clf.compiled_netlist() is clf.compiled_netlist()

    def test_poetbin_native_backend_matches(self, trained):
        from repro.engine.native import toolchain_available

        if not toolchain_available():
            pytest.skip("no C compiler on this host")
        clf, X, _targets, _y = trained
        np.testing.assert_array_equal(
            clf.predict_batch(X, engine_backend="native"), clf.predict(X)
        )
        # per-backend engine caches are independent and both sticky
        assert clf.compiled_netlist("native") is clf.compiled_netlist("native")
        assert clf.compiled_netlist("native") is not clf.compiled_netlist()
        # a cold cache answers on NumPy until the background build lands
        assert clf.compiled_netlist("native").wait()
        assert clf.compiled_netlist("native").backend == "native"

    def test_rinc_predict_batch_matches_predict(self, trained):
        clf, X, targets, _y = trained
        module = RINCClassifier(n_inputs=4, n_levels=1, branching=(2,))
        module.fit(X, targets[:, 0])
        np.testing.assert_array_equal(module.predict_batch(X), module.predict(X))
        np.testing.assert_array_equal(
            module.predict_batch(X, batch_size=33), module.predict(X)
        )

    def test_output_layer_predict_batch(self, trained):
        clf, X, _targets, _y = trained
        bits = clf.predict_intermediate(X)
        np.testing.assert_array_equal(
            clf.output_layer_.predict_batch(bits, batch_size=50),
            clf.output_layer_.predict(bits),
        )

    def test_unfitted_rejected(self):
        clf = PoETBiNClassifier(n_classes=2, n_inputs=4)
        with pytest.raises(RuntimeError):
            clf.predict_batch(np.zeros((1, 4), dtype=np.uint8))

    def test_packed_end_to_end_never_unpacks_intermediates(self, trained, monkeypatch):
        """The serving path must not unpack between RINC bank and read-out.

        The unpacked read-out (``output_layer_.predict`` on a 0/1 bit
        matrix) is forbidden during ``predict_batch``; the labels must come
        from the popcount-based packed scorer and still match the reference
        path exactly.
        """
        clf, X, _targets, _y = trained
        expected = clf.predict(X)

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("packed serving fell back to the unpacked read-out")

        monkeypatch.setattr(clf.output_layer_, "predict", forbidden)
        monkeypatch.setattr(clf.output_layer_, "decision_scores", forbidden)
        np.testing.assert_array_equal(clf.predict_batch(X), expected)
        np.testing.assert_array_equal(
            clf.predict_batch(X, batch_size=77), expected
        )

    def test_pre_refactor_pickle_attributes_are_tolerated(self, trained):
        """A classifier pickled before the private-pool cache was removed
        carries a ``_sharded_`` dict (and RINC caches keyed by a tuple):
        tolerated on load, never required."""
        import copy
        import pickle

        clf, X, _targets, _y = trained
        old = copy.copy(clf)
        old._compiled_ = {}
        old._sharded_ = {}
        old.rinc_modules_ = [copy.copy(m) for m in clf.rinc_modules_]
        old.rinc_modules_[0]._compiled_ = {(X.shape[1], None): object()}
        restored = pickle.loads(pickle.dumps(old))
        np.testing.assert_array_equal(restored.predict_batch(X), clf.predict(X))
        module = restored.rinc_modules_[0]
        np.testing.assert_array_equal(module.predict_batch(X), module.predict(X))

    def test_caller_built_engine_and_pool_match(self, trained):
        """The classifier holds no pool: an engine the caller built runs
        as ``engine=``, and a pool serving the classifier's netlist answers
        its intermediate bits and, through the read-out, its scores."""
        from repro.engine import WorkerPool, compile_netlist, pack_bits

        clf, X, _targets, _y = trained
        engine = compile_netlist(clf.to_netlist())
        np.testing.assert_array_equal(
            clf.predict_batch(X, batch_size=129, engine=engine), clf.predict(X)
        )
        with pytest.raises(ValueError, match="at most one"):
            clf.predict_batch(X, engine=engine, engine_backend="numpy")
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            pool.attach("clf", clf.to_netlist())
            np.testing.assert_array_equal(
                pool.evaluate_outputs("clf", X), clf.predict_intermediate(X)
            )
            np.testing.assert_array_equal(
                clf.output_layer_.decision_scores_packed(
                    pool.run_packed("clf", pack_bits(X)), len(X)
                ),
                clf.decision_scores_batch(X),
            )
