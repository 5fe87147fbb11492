"""Worker-pool tests: the multi-model contract and the pool's own lifecycle.

Word blocks of a packed batch are independent, so a pool must reproduce the
serial engine bit for bit — that, for every pool flavour, is
``test_engine_conformance``'s job.  Here: several netlists attached to one
pool, the model set fixed at the fork, shard interleaving under concurrent
per-model load, fallback, cleanup, and the exact calls of the benchmark's
pool row.
"""

import threading

import numpy as np
import pytest

from repro.engine import (
    WorkerPool,
    compile_netlist,
    pack_bits,
    random_netlist,
    shard_bounds,
    unpack_bits,
)
from repro.engine.native import toolchain_available
from repro.engine.parallel import _worker_init, _worker_run
from repro.utils.rng import as_rng

needs_cc = pytest.mark.skipif(
    not toolchain_available(), reason="no C compiler on this host"
)


class TestShardBounds:
    def test_covers_exactly_once(self):
        for n_words in (0, 1, 5, 64, 157):
            for n_shards in (1, 2, 3, 8):
                bounds = shard_bounds(n_words, n_shards)
                covered = [w for lo, hi in bounds for w in range(lo, hi)]
                assert covered == list(range(n_words))

    def test_near_equal_split(self):
        bounds = shard_bounds(10, 3)
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_no_shards(self):
        with pytest.raises(ValueError):
            shard_bounds(8, 0)


class TestLifecycle:
    def test_small_batches_fall_back_to_serial(self):
        netlist = random_netlist(24, 60, seed=21, n_outputs=8)
        rng = as_rng(7)
        with WorkerPool(n_workers=4, min_words_per_worker=8) as pool:
            pool.attach("m", netlist)
            X = rng.integers(0, 2, size=(64, 24), dtype=np.uint8)  # one word
            # never sharded: the OS pool is not even created
            pool.evaluate_outputs("m", X)
            assert pool._resources["pool"] is None

    def test_abandoned_pool_is_reclaimed_by_gc(self):
        """Dropping a pool without close() must still release its workers."""
        import gc

        netlist = random_netlist(8, 10, seed=28)
        pool = WorkerPool(n_workers=2, min_words_per_worker=1)
        pool.attach("m", netlist)
        rng = as_rng(11)
        pool.evaluate_outputs(
            "m", rng.integers(0, 2, size=(300, 8), dtype=np.uint8)
        )
        resources = pool._resources
        assert resources["pool"] is not None
        del pool
        gc.collect()
        assert resources["pool"] is None

    def test_single_worker_degenerates_to_serial(self):
        with WorkerPool(n_workers=1, backend="process") as pool:
            assert pool.backend == "serial"


class TestWorkerPool:
    """The multi-model contract: one pool, many attached netlists."""

    @pytest.fixture(scope="class")
    def models(self):
        # two models with different widths and output counts, so any shard
        # routed to the wrong model's engine fails loudly
        netlist_a = random_netlist(24, 60, seed=31, n_outputs=8)
        netlist_b = random_netlist(16, 40, seed=32, n_outputs=3)
        return {
            "a": (netlist_a, compile_netlist(netlist_a)),
            "b": (netlist_b, compile_netlist(netlist_b)),
        }

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_two_models_bit_exact(self, models, backend):
        rng = as_rng(12)
        with WorkerPool(
            n_workers=2, backend=backend, min_words_per_worker=1
        ) as pool:
            for name, (netlist, _) in models.items():
                pool.attach(name, netlist)
            for name, (netlist, serial) in models.items():
                n_inputs = netlist.n_primary_inputs
                for n_samples in (0, 1, 65, 700):
                    X = rng.integers(
                        0, 2, size=(n_samples, n_inputs), dtype=np.uint8
                    )
                    np.testing.assert_array_equal(
                        pool.evaluate_outputs(name, X),
                        serial.predict_batch(X),
                        err_msg=f"{backend}, model {name}, {n_samples} samples",
                    )

    def test_attach_after_fork_raises(self, models):
        """The fork fixes the model set: a later attach names ``warm_up``,
        registers nothing, and the attached models keep serving."""
        netlist_a, serial_a = models["a"]
        netlist_b, _ = models["b"]
        X = as_rng(13).integers(0, 2, size=(700, 24), dtype=np.uint8)
        with WorkerPool(
            n_workers=2, backend="process", min_words_per_worker=1
        ) as pool:
            pool.attach("a", netlist_a)
            pool.warm_up()
            if pool.backend != "process":  # pragma: no cover - no fork host
                pytest.skip("process backend unavailable on this host")
            with pytest.raises(RuntimeError, match="warm_up"):
                pool.attach("b", netlist_b)
            with pytest.raises(RuntimeError, match="warm_up"):
                pool.attach(None, netlist_b)
            with pytest.raises(KeyError, match=r"attached: \['a'\]"):
                pool.serial_engine("b")
            for _ in range(3):
                np.testing.assert_array_equal(
                    pool.evaluate_outputs("a", X), serial_a.predict_batch(X)
                )
            assert pool.backend == "process"

    def test_concurrent_per_model_load_interleaves_shards(self, models):
        """Threads hammering different models concurrently stay bit-exact."""
        errors = []
        rng = as_rng(14)
        batches = {
            name: rng.integers(
                0, 2, size=(1500, netlist.n_primary_inputs), dtype=np.uint8
            )
            for name, (netlist, _) in models.items()
        }
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            for name, (netlist, _) in models.items():
                pool.attach(name, netlist)
            pool.warm_up()

            def hammer(name):
                _, serial = models[name]
                expected = serial.predict_batch(batches[name])
                try:
                    for _ in range(5):
                        np.testing.assert_array_equal(
                            pool.evaluate_outputs(name, batches[name]),
                            expected,
                        )
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append((name, error))

            threads = [
                threading.Thread(target=hammer, args=(name,))
                for name in models
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors, errors

    def test_fallback_to_serial_releases_shared_memory(self, models):
        """The serial backend never leases shm again: fallback must unlink
        the free pairs instead of hoarding them for the process lifetime,
        and serve every later batch on the model's own engine."""
        netlist_a, serial_a = models["a"]
        rng = as_rng(17)
        X = rng.integers(0, 2, size=(700, 24), dtype=np.uint8)
        with WorkerPool(
            n_workers=2, backend="process", min_words_per_worker=1
        ) as pool:
            pool.attach("a", netlist_a)
            expected = serial_a.predict_batch(X)
            np.testing.assert_array_equal(
                pool.evaluate_outputs("a", X), expected
            )
            if pool.backend != "process":  # pragma: no cover - no fork host
                pytest.skip("process backend unavailable on this host")
            assert pool._resources["shm_free"]
            with pytest.warns(RuntimeWarning, match="falling back"):
                pool._fall_back_to_serial(OSError("injected"), stacklevel=2)
            assert pool.backend == "serial"
            assert pool._resources["pool"] is None
            assert pool._resources["shm_free"] == []
            assert pool._resources["shm_all"] == []
            # the pool still serves, bit-exactly, on the model's own engine
            np.testing.assert_array_equal(
                pool.evaluate_outputs("a", X), expected
            )
            assert pool._resources["shm_all"] == []
            # and never forks again
            pool.warm_up()
            assert pool._resources["pool"] is None

    def test_a_fallen_back_pool_accepts_attaches(self, models):
        """A pool that fell back to serial never forks again, so the fixed
        model set no longer applies: a later attach serves bit-exactly."""
        netlist_a, _ = models["a"]
        netlist_b, serial_b = models["b"]
        X = as_rng(19).integers(0, 2, size=(700, 16), dtype=np.uint8)
        with WorkerPool(
            n_workers=2, backend="process", min_words_per_worker=1
        ) as pool:
            pool.attach("a", netlist_a)
            pool.warm_up()
            if pool.backend != "process":  # pragma: no cover - no fork host
                pytest.skip("process backend unavailable on this host")
            with pytest.warns(RuntimeWarning, match="falling back"):
                pool._fall_back_to_serial(OSError("injected"), stacklevel=2)
            pool.attach("b", netlist_b)
            np.testing.assert_array_equal(
                pool.evaluate_outputs("b", X), serial_b.predict_batch(X)
            )

    def test_attach_validation(self):
        with WorkerPool(n_workers=2) as pool:
            with pytest.raises(ValueError, match="non-empty string"):
                pool.attach("", random_netlist(8, 10, seed=33))
            pool.attach("m", random_netlist(8, 10, seed=38))
            with pytest.raises(ValueError, match="already attached"):
                pool.attach("m", random_netlist(8, 10, seed=38))
            # auto-generated ids skip names the user already took
            pool.attach("model-0", random_netlist(8, 10, seed=36))
            auto = pool.attach(None, random_netlist(8, 10, seed=37))
            assert auto != "model-0"
        with pytest.raises(ValueError):
            WorkerPool(n_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(backend="gpu")
        # the thread backend is gone: in-process threads are the engine's
        with pytest.raises(ValueError, match="'process', 'serial'"):
            WorkerPool(backend="thread")
        with pytest.raises(ValueError):
            WorkerPool(min_words_per_worker=0)

    def test_closed_pool_rejects_everything(self):
        pool = WorkerPool(n_workers=2)
        pool.attach("m", random_netlist(8, 10, seed=34))
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.attach("n", random_netlist(8, 10, seed=35))
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_packed("m", np.zeros((8, 1), dtype=np.uint64))


class TestWorkerHelpers:
    def test_worker_roundtrip_inline(self):
        """Drive the process-backend worker functions in this process."""
        from multiprocessing import shared_memory

        netlist = random_netlist(12, 20, seed=27, n_outputs=3)
        serial = compile_netlist(netlist)
        rng = as_rng(10)
        X = rng.integers(0, 2, size=(500, 12), dtype=np.uint8)
        packed = pack_bits(X)
        words = packed.shape[1]
        shm_in = shared_memory.SharedMemory(create=True, size=packed.nbytes)
        shm_out = shared_memory.SharedMemory(create=True, size=3 * words * 8)
        try:
            np.ndarray(packed.shape, dtype=np.uint64, buffer=shm_in.buf)[:] = packed
            _worker_init({"m": netlist})
            for lo, hi in shard_bounds(words, 3):
                _worker_run(
                    ("m", "numpy", shm_in.name, shm_out.name, 12, 3, words, lo, hi)
                )
            out = np.ndarray((3, words), dtype=np.uint64, buffer=shm_out.buf)
            np.testing.assert_array_equal(out, serial.run_packed(packed))
            # a key the fork did not hand over fails loudly
            with pytest.raises(RuntimeError, match="no netlist"):
                _worker_run(
                    ("late", "numpy", shm_in.name, shm_out.name, 12, 3, words, 0, 1)
                )
        finally:
            from repro.engine.parallel import _WORKER

            for shm in _WORKER.get("shm", {}).values():
                shm.close()
            _WORKER.clear()
            shm_in.close()
            shm_in.unlink()
            shm_out.close()
            shm_out.unlink()


@needs_cc
class TestBenchmarkPoolRow:
    def test_the_pool_rows_calls_stay_bit_exact(self):
        """The calls the benchmark's ``pool.*`` trace row makes, in its
        order: a forced process pool serving a native model."""
        netlist = random_netlist(24, 60, seed=41, n_outputs=8)
        X = as_rng(42).integers(0, 2, size=(700, 24), dtype=np.uint8)
        packed = pack_bits(X)
        with WorkerPool(
            n_workers=2, backend="process", prefer_threads=False
        ) as pool:
            pool.attach("rinc", netlist, engine_backend="native")
            pool.warm_up()
            assert pool.backend == "process"
            assert pool.serial_engine("rinc").n_nodes > 0
            for words in (packed, packed[:, :1]):
                n = min(len(X), 64 * words.shape[1])
                np.testing.assert_array_equal(
                    unpack_bits(pool.run_packed("rinc", words), n),
                    netlist.evaluate_outputs(X[:n]),
                )
