"""One conformance suite for every engine: same bits, same surface.

Whatever runs the words — the NumPy interpreter, the generated-C engine,
its autotuned multithreaded tier, or a :class:`ShardedEngine` handle over a
process / thread / serial :class:`WorkerPool` — an engine must reproduce
``LUTNetlist.evaluate_outputs`` bit for bit on ragged batches and expose
the shared :class:`PackedEngine` surface, because the classifiers and the
serving layer hold engines as objects and know nothing else about them.
"""

import numpy as np
import pytest

from repro.engine import (
    PackedEngine,
    ShardedEngine,
    WorkerPool,
    compile_netlist,
    pack_bits,
    random_netlist,
)
from repro.engine.native import toolchain_available
from repro.utils.rng import as_rng

N_INPUTS = 24

needs_cc = pytest.mark.skipif(
    not toolchain_available(), reason="no C compiler on this host"
)


def _in_process(backend):
    return lambda netlist: (compile_netlist(netlist, backend=backend), None)


def _pool_bound(pool_backend, n_workers, engine_backend="numpy"):
    def build(netlist):
        pool = WorkerPool(
            n_workers=n_workers, backend=pool_backend, min_words_per_worker=1
        )
        handle = ShardedEngine(netlist, pool=pool, engine_backend=engine_backend)
        return handle, pool

    return build


def _engine_param(build, backend, id, needs_toolchain=False):
    return pytest.param(
        (build, backend), id=id, marks=[needs_cc] if needs_toolchain else []
    )


ENGINES = [
    _engine_param(_in_process("numpy"), "numpy", "numpy"),
    _engine_param(_in_process("native"), "native", "native", True),
    _engine_param(_in_process("native-mt"), "native-mt", "native-mt", True),
    _engine_param(_pool_bound("process", 2), "numpy", "pool-process"),
    _engine_param(_pool_bound("process", 5), "numpy", "pool-process-x5"),
    _engine_param(_pool_bound("thread", 2), "numpy", "pool-thread"),
    _engine_param(_pool_bound("thread", 5), "numpy", "pool-thread-x5"),
    _engine_param(_pool_bound("serial", 2), "numpy", "pool-serial"),
    _engine_param(
        _pool_bound("serial", 2, "native"), "native", "pool-serial-native", True
    ),
    _engine_param(
        _pool_bound("process", 2, "native"), "native", "pool-process-native", True
    ),
    _engine_param(
        _pool_bound("thread", 2, "native"), "native", "pool-thread-native", True
    ),
    _engine_param(
        _pool_bound("thread", 2, "native-mt"),
        "native-mt",
        "pool-thread-native-mt",
        True,
    ),
]


@pytest.fixture(scope="module")
def netlist():
    return random_netlist(N_INPUTS, 60, seed=21, n_outputs=8)


@pytest.fixture(scope="module", params=ENGINES)
def engine(request, netlist):
    build, backend = request.param
    built, pool = build(netlist)
    yield built, backend
    built.close()
    if pool is not None:
        pool.close()


class TestConformance:
    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 1000])
    def test_bit_exact_on_ragged_batches(self, engine, netlist, n_samples):
        built, _ = engine
        X = as_rng(5 + n_samples).integers(
            0, 2, size=(n_samples, N_INPUTS), dtype=np.uint8
        )
        expected = netlist.evaluate_outputs(X)
        np.testing.assert_array_equal(built.evaluate_outputs(X), expected)
        np.testing.assert_array_equal(built.predict_batch(X), expected)
        packed_out = built.run_packed(pack_bits(X))
        assert packed_out.dtype == np.uint64
        assert packed_out.shape == (built.n_outputs, pack_bits(X).shape[1])

    def test_shared_attribute_surface(self, engine, netlist):
        built, backend = engine
        assert isinstance(built, PackedEngine)
        assert built.n_primary_inputs == netlist.n_primary_inputs
        assert built.n_outputs == len(netlist.output_signals)
        assert built.backend == backend
        assert isinstance(built.threads, int) and built.threads >= 1
        assert isinstance(built.unroll, int) and built.unroll >= 1
        if backend != "native-mt":
            assert (built.threads, built.unroll) == (1, 1)
        for method in ("run_packed", "evaluate_outputs", "predict_batch", "close"):
            assert callable(getattr(built, method))

    def test_wrong_shapes_rejected(self, engine):
        built, _ = engine
        with pytest.raises(ValueError):
            built.run_packed(np.zeros((3, 4), dtype=np.uint64))
        with pytest.raises(ValueError):
            built.predict_batch(np.zeros((5, N_INPUTS + 1), dtype=np.uint8))


class TestHandleLifecycle:
    """What is specific to the pool-bound handle: it owns one attachment."""

    def test_close_detaches_only_its_own_attachment(self, netlist):
        other = random_netlist(16, 40, seed=32, n_outputs=3)
        rng = as_rng(16)
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            view_a = ShardedEngine(netlist, pool=pool, model_id="a")
            view_b = ShardedEngine(other, pool=pool)
            assert view_a.model_id == "a"
            assert sorted(pool.model_ids) == sorted(["a", view_b.model_id])
            X = rng.integers(0, 2, size=(300, N_INPUTS), dtype=np.uint8)
            np.testing.assert_array_equal(
                view_a.predict_batch(X), netlist.evaluate_outputs(X)
            )
            view_a.close()  # detaches "a", pool stays up for the other
            view_a.close()  # idempotent
            assert pool.model_ids == [view_b.model_id]
            X_b = rng.integers(0, 2, size=(300, 16), dtype=np.uint8)
            np.testing.assert_array_equal(
                view_b.predict_batch(X_b), other.evaluate_outputs(X_b)
            )
            with pytest.raises(RuntimeError, match="closed"):
                view_a.predict_batch(X)

    def test_stale_handle_cannot_detach_a_reused_id(self, netlist):
        """A closed handle stays closed even when its id is attached again:
        closing it twice must not detach the newcomer."""
        with WorkerPool(n_workers=2) as pool:
            first = ShardedEngine(netlist, pool=pool, model_id="m")
            first.close()
            second = ShardedEngine(netlist, pool=pool, model_id="m")
            first.close()
            assert pool.model_ids == ["m"]
            with pytest.raises(RuntimeError, match="closed"):
                first.run_packed(np.zeros((N_INPUTS, 1), dtype=np.uint64))
            second.close()
            assert pool.model_ids == []

    def test_attach_options_reach_the_pool(self):
        """``max_lut_inputs`` and ``engine_backend`` are attach options."""
        wide = random_netlist(16, 30, seed=22, lut_widths=(8,), n_outputs=4)
        X = as_rng(8).integers(0, 2, size=(300, 16), dtype=np.uint8)
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            with ShardedEngine(wide, pool=pool, max_lut_inputs=6) as handle:
                optimized = pool.optimized_netlist(handle.model_id)
                assert all(node.n_inputs <= 6 for node in optimized.nodes)
                np.testing.assert_array_equal(
                    handle.predict_batch(X), wide.evaluate_outputs(X)
                )
            with ShardedEngine(wide, pool=pool, engine_backend="auto") as handle:
                expected = "native" if toolchain_available() else "numpy"
                assert handle.backend == expected
                assert pool.serial_engine(handle.model_id).backend == expected
            with pytest.raises(ValueError, match="engine backend"):
                ShardedEngine(wide, pool=pool, engine_backend="fortran")
            assert pool.model_ids == []
