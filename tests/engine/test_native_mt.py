"""The native runtime's threads and vector width: one build per program.

Splits from ``test_native_backend`` (which covers codegen, the build cache
and the toolchain fallback): everything here exercises the multithreaded/
SIMD surface — ragged shard math across thread counts, the unrolled source
structure, the host probe that picks the one build's flags and lanes, the
``native-mt`` backend (the same build with more threads) through
``build_engine``/``compile_netlist`` and the worker pool, and the
oversubscription rules between pool processes and engine threads.

The correctness tests run on any host with a C toolchain regardless of
core count — with one core the shards simply queue on the shared
executor, and bit-exactness must hold all the same.
"""

import re

import numpy as np
import pytest

from repro.engine import (
    NativeCompiledNetlist,
    WorkerPool,
    compile_netlist,
    pack_bits,
    random_netlist,
)
from repro.engine import native as native_mod
from repro.engine.native import (
    default_thread_count,
    find_compiler,
    generate_c_source,
    toolchain_available,
    vector_lanes,
)
from repro.utils.rng import as_rng

needs_cc = pytest.mark.skipif(
    not toolchain_available(), reason="no C compiler on this host"
)


def _program(seed=0, n_primary=24, n_nodes=50):
    netlist = random_netlist(n_primary, n_nodes, seed=seed)
    return netlist, compile_netlist(netlist)


# ------------------------------------------------------------- shard math
@needs_cc
class TestWordShardMath:
    """Ragged splits: every (threads, words, samples) shape stays exact."""

    @pytest.mark.parametrize("threads", [1, 2, 7])
    def test_bit_exact_across_thread_counts(self, threads):
        netlist, program = _program(seed=31)
        numpy_engine = program
        engine = NativeCompiledNetlist(
            program, threads=threads, min_words_per_thread=1
        )
        rng = as_rng(32)
        # n_samples % 64 != 0 (ragged tail word), n_words % threads != 0
        # (uneven shards), and the 1-word batch that must not split at all
        for n_samples in (1, 63, 64, 65, 7 * 64 + 13, 1024):
            X = rng.integers(0, 2, size=(n_samples, 24), dtype=np.uint8)
            packed = pack_bits(X)
            np.testing.assert_array_equal(
                engine.run_packed(packed), numpy_engine.run_packed(packed)
            )

    @pytest.mark.parametrize("threads", [1, 2, 7])
    def test_interior_shard_edges_fall_on_lane_multiples(self, threads):
        """Every shard but the last starts and ends on a multiple of
        ``unroll``, so at most one padded block runs per call — and the
        ragged shapes stay bit-exact."""
        _, program = _program(seed=31)
        engine = NativeCompiledNetlist(
            program, threads=threads, unroll=4, min_words_per_thread=1,
        )
        calls = []
        real, run_scores_range = engine._entry

        def recording(*args):
            calls.append(args[2:4])
            return real(*args)

        engine._entry = (recording, run_scores_range)
        rng = as_rng(32)
        for n_samples in (1, 63, 64, 65, 7 * 64 + 13, 23 * 64 + 5, 1024):
            X = rng.integers(0, 2, size=(n_samples, 24), dtype=np.uint8)
            packed = pack_bits(X)
            calls.clear()
            np.testing.assert_array_equal(
                engine.run_packed(packed), program.run_packed(packed)
            )
            words = packed.shape[1]
            edges = sorted(calls)
            assert edges[0][0] == 0 and edges[-1][1] == words
            assert all(hi == lo for (_, hi), (lo, _) in zip(edges, edges[1:]))
            assert all(hi % 4 == 0 for _, hi in edges[:-1])
            assert all(hi > lo for lo, hi in edges)
            assert len(edges) <= threads

    def test_more_threads_than_words(self):
        """threads > n_words: empty shards are skipped, not submitted."""
        _, program = _program(seed=33, n_primary=12, n_nodes=20)
        engine = NativeCompiledNetlist(
            program, threads=7, min_words_per_thread=1
        )
        packed = as_rng(34).integers(
            0, np.iinfo(np.uint64).max, size=(12, 3), dtype=np.uint64,
            endpoint=True,
        )
        reference = NativeCompiledNetlist(program).run_packed(packed)
        np.testing.assert_array_equal(engine.run_packed(packed), reference)

    def test_small_batches_stay_single_threaded(self, monkeypatch):
        """Below the words-per-thread grain the executor is never touched."""
        _, program = _program(seed=35, n_primary=8, n_nodes=15)
        engine = NativeCompiledNetlist(
            program, threads=4, min_words_per_thread=32
        )

        def banned():
            raise AssertionError("executor used for a sub-grain batch")

        monkeypatch.setattr(native_mod, "_shared_executor", banned)
        packed = np.zeros((8, 63), dtype=np.uint64)  # 63 // 32 == 1 shard
        engine.run_packed(packed)  # must run inline on the calling thread
        monkeypatch.undo()
        packed = np.zeros((8, 64), dtype=np.uint64)  # 2 shards: may split
        engine.run_packed(packed)

    def test_empty_batch_with_threads(self):
        _, program = _program(seed=36, n_primary=8, n_nodes=10)
        engine = NativeCompiledNetlist(
            program, threads=4, min_words_per_thread=1
        )
        out = engine.run_packed(np.zeros((8, 0), dtype=np.uint64))
        assert out.shape == (engine.n_outputs, 0)

    def test_validation(self):
        _, program = _program(seed=37, n_primary=8, n_nodes=10)
        with pytest.raises(ValueError, match="threads"):
            NativeCompiledNetlist(program, threads=0)
        with pytest.raises(ValueError, match="min_words_per_thread"):
            NativeCompiledNetlist(program, min_words_per_thread=0)


# --------------------------------------------------------- vector codegen
class TestVectorCodegen:
    def test_unrolled_source_structure(self):
        _, program = _program(seed=41, n_primary=10, n_nodes=20)
        for unroll in (2, 4, 8):
            source = generate_c_source(program, unroll=unroll)
            # one width, the vector one: no scalar twin, no scalar driver
            assert f"vector_size({unroll * 8})" in source
            assert f"typedef uint64_t w{unroll} " in source
            assert f"run_word_w{unroll}" in source
            assert re.search(r"\bw1\b|_w1\b", source) is None
            assert "restrict" in source
            # the exported entry points the thread shards call
            assert "void run_range(" in source
            assert "void run_scores_range(" in source

    def test_scalar_source_has_no_vector_types(self):
        _, program = _program(seed=41, n_primary=10, n_nodes=20)
        source = generate_c_source(program, unroll=1)
        assert "vector_size" not in source
        assert "void run_range(" in source  # exported at every unroll

    def test_unroll_validation(self):
        _, program = _program(seed=41, n_primary=10, n_nodes=20)
        with pytest.raises(ValueError, match="unroll"):
            generate_c_source(program, unroll=0)

    @needs_cc
    @pytest.mark.parametrize("unroll", [2, 4, 8])
    def test_unrolled_builds_are_bit_exact(self, unroll):
        netlist, program = _program(seed=42)
        engine = NativeCompiledNetlist(program, unroll=unroll)
        rng = as_rng(43)
        for n_samples in (1, 65, 64 * unroll + 7, 512):
            X = rng.integers(0, 2, size=(n_samples, 24), dtype=np.uint8)
            np.testing.assert_array_equal(
                engine.predict_batch(X), netlist.evaluate_outputs(X)
            )

    @pytest.mark.parametrize(
        "macros, lanes",
        [
            ("#define __AVX2__ 1\n#define __AVX512F__ 1\n", 8),
            ("#define __AVX__ 1\n#define __AVX2__ 1\n", 4),
            (None, 4),
        ],
        ids=["avx512", "avx2-only", "failing-query"],
    )
    def test_vector_lanes_from_the_fast_targets_macros(
        self, tmp_path, monkeypatch, macros, lanes
    ):
        """The lane count is what ``cc -O1 -march=native -dM -E``
        predefines, asked once per process and compiler; a failed query
        means 4 lanes and flags without ``-march=native``."""
        log = tmp_path / "queries.log"
        fake_cc = tmp_path / "fake-cc"
        answer = f"printf '{macros}'" if macros else "echo 'no' >&2; exit 1"
        fake_cc.write_text(f'#!/bin/sh\necho "$@" >> {log}\n{answer}\n')
        fake_cc.chmod(0o755)
        monkeypatch.setattr(native_mod, "find_compiler", lambda: [str(fake_cc)])
        monkeypatch.setattr(native_mod, "_host_builds", {})
        assert native_mod.vector_lanes() == lanes
        assert native_mod.vector_lanes() == lanes
        (query,) = log.read_text().splitlines()
        assert query.split()[:4] == [*native_mod._CFLAGS, "-dM", "-E"]
        flags = native_mod._host_build([str(fake_cc)])[0]
        assert flags == (native_mod._CFLAGS if macros else ("-O1",))
        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
        assert native_mod.vector_lanes() == 4

    @needs_cc
    def test_unknown_opt_tier_rejected(self):
        _, program = _program(seed=44, n_primary=8, n_nodes=10)
        with pytest.raises(ValueError, match="opt_tier"):
            NativeCompiledNetlist(program, opt_tier="ludicrous")
        # the instance's own value is the one accepted
        engine = NativeCompiledNetlist(program)
        again = NativeCompiledNetlist(program, opt_tier=engine.opt_tier)
        assert again.digest == engine.digest


# ---------------------------------------------------------- one build
@needs_cc
class TestOneBuild:
    """``"native"`` and ``"native-mt"`` run one build of a program: the
    host's flags at the host's lane count, differing only in threads."""

    def test_one_build_per_program(self, tmp_path, monkeypatch):
        netlist, _ = _program(seed=51, n_primary=24, n_nodes=50)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        compiles = []
        real = native_mod._run_compilers

        def spy(commands):
            compiles.extend(commands)
            return real(commands)

        monkeypatch.setattr(native_mod, "_run_compilers", spy)
        single = compile_netlist(netlist, backend="native")
        assert len(compiles) == 1  # one unit: the link command is the build
        threaded = compile_netlist(netlist, backend="native-mt")
        assert len(compiles) == 1  # the second attach is a cache hit
        names = sorted(path.name for path in tmp_path.iterdir())
        assert [n for n in names if n.endswith(".so")] == [f"{single.digest}.so"]
        assert not [n for n in names if n.endswith(".json")]
        assert single.digest == threaded.digest
        assert single.unroll == threaded.unroll == vector_lanes()
        assert single.opt_tier == threaded.opt_tier
        assert (single.backend, single.threads) == ("native", 1)
        assert (threaded.backend, threaded.threads) == (
            "native-mt", default_thread_count(),
        )
        rng = as_rng(52)
        k = vector_lanes()
        # ragged word counts around K, and one wide enough to shard
        for n_words in (1, k - 1, k + 1, 2 * k + 3, 70):
            n_samples = 64 * n_words - 13
            X = rng.integers(0, 2, size=(n_samples, 24), dtype=np.uint8)
            expected = netlist.evaluate_outputs(X)
            np.testing.assert_array_equal(single.predict_batch(X), expected)
            np.testing.assert_array_equal(threaded.predict_batch(X), expected)

    def test_host_without_march_native(self, tmp_path, monkeypatch):
        """A compiler that rejects ``-march=native``: the probe yields
        ``-O1`` alone at 4 lanes, and that build runs bit-exact."""
        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do\n'
            ' if [ "$arg" = "-march=native" ]; then\n'
            "  echo 'unrecognized -march=native' >&2; exit 1\n"
            " fi\n"
            "done\n"
            f'exec {" ".join(find_compiler())} "$@"\n'
        )
        fake_cc.chmod(0o755)
        monkeypatch.setattr(native_mod, "find_compiler", lambda: [str(fake_cc)])
        monkeypatch.setattr(native_mod, "_host_builds", {})
        assert vector_lanes() == 4
        netlist, program = _program(seed=54, n_primary=10, n_nodes=15)
        engine = NativeCompiledNetlist(program, cache_dir=str(tmp_path / "cache"))
        assert (engine.opt_tier, engine.unroll) == ("-O1", 4)
        X = as_rng(55).integers(0, 2, size=(333, 10), dtype=np.uint8)
        np.testing.assert_array_equal(
            engine.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_tuned_classmethod(self, tmp_path):
        netlist, program = _program(seed=56)
        engine = NativeCompiledNetlist.tuned(program, cache_dir=str(tmp_path))
        assert engine.backend == "native-mt"
        assert engine.threads == default_thread_count()
        X = as_rng(57).integers(0, 2, size=(200, 24), dtype=np.uint8)
        np.testing.assert_array_equal(
            engine.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_one_codegen_per_program_and_unroll(self, tmp_path, monkeypatch):
        """An attach generates its source once, at the host's lanes, and
        a second attach of the same program generates the same bytes."""
        _, program = _program(seed=60)
        generated = []
        real = native_mod.generate_c_source

        def spy(program, unroll=None):
            generated.append(unroll)
            return real(program, unroll)

        monkeypatch.setattr(native_mod, "generate_c_source", spy)
        cold = NativeCompiledNetlist.tuned(program, cache_dir=str(tmp_path))
        assert generated == [vector_lanes()]
        warm = NativeCompiledNetlist.tuned(program, cache_dir=str(tmp_path))
        assert generated == [vector_lanes()] * 2
        assert warm.digest == cold.digest


# ------------------------------------------------------- backend plumbing
@needs_cc
class TestNativeMTBackend:
    def test_compile_netlist_native_mt(self):
        netlist = random_netlist(16, 30, seed=61)
        engine = compile_netlist(netlist, backend="native-mt")
        assert isinstance(engine, NativeCompiledNetlist)
        assert engine.backend == "native-mt"
        assert (engine.threads, engine.unroll) == (
            default_thread_count(), vector_lanes(),
        )
        X = as_rng(62).integers(0, 2, size=(300, 16), dtype=np.uint8)
        np.testing.assert_array_equal(
            engine.predict_batch(X), netlist.evaluate_outputs(X)
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_on_loop_means_one_thread(self, threads):
        """Where a server may evaluate the engine is the engine's to say:
        on its event loop only at one thread, read from ``threads`` live."""
        _netlist, program = _program(seed=65)
        engine = NativeCompiledNetlist(program, threads=threads)
        assert engine.on_loop is (threads == 1)
        engine.threads = 3 - threads
        assert engine.on_loop is (threads == 2)

    def test_native_mt_without_toolchain_raises(self, monkeypatch):
        from repro.engine import NativeUnavailableError

        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
        netlist = random_netlist(8, 12, seed=64)
        with pytest.raises(NativeUnavailableError):
            compile_netlist(netlist, backend="native-mt")


# --------------------------------------------------- pool composition
@needs_cc
class TestPoolComposition:
    """Processes x threads must compose without oversubscription."""

    def test_workers_run_a_threaded_model_at_one_thread(self):
        """A worker builds a ``native-mt`` model as ``"native"``: the
        parent's build (same digest, same cached object) at one thread, so
        processes x threads is the worker count."""
        from multiprocessing import shared_memory

        from repro.engine.parallel import _WORKER, _worker_init, _worker_run

        netlist = random_netlist(12, 25, seed=71)
        X = as_rng(72).integers(0, 2, size=(400, 12), dtype=np.uint8)
        packed = pack_bits(X)
        words = packed.shape[1]
        with WorkerPool(
            n_workers=2,
            backend="process",
            prefer_threads=False,
            min_words_per_worker=1,
        ) as pool:
            model = pool.attach(None, netlist, engine_backend="native-mt")
            entry = pool._entry(model)
            assert entry.serial.backend == "native-mt"
            assert entry.serial.threads == default_thread_count()
            np.testing.assert_array_equal(
                pool.evaluate_outputs(model, X), netlist.evaluate_outputs(X)
            )
            n_outputs = entry.serial.n_outputs
            shm_in = shared_memory.SharedMemory(create=True, size=packed.nbytes)
            shm_out = shared_memory.SharedMemory(
                create=True, size=n_outputs * words * 8
            )
            try:
                np.ndarray(
                    packed.shape, dtype=np.uint64, buffer=shm_in.buf
                )[:] = packed
                _worker_init({entry.model_id: entry.netlist})
                _worker_run(
                    (
                        entry.model_id,
                        entry.serial.backend,
                        shm_in.name,
                        shm_out.name,
                        12,
                        n_outputs,
                        words,
                        0,
                        words,
                    )
                )
                worker = _WORKER["engines"][entry.model_id]
                assert (worker.backend, worker.threads) == ("native", 1)
                assert worker.digest == entry.serial.digest
                out = np.ndarray(
                    (n_outputs, words), dtype=np.uint64, buffer=shm_out.buf
                )
                np.testing.assert_array_equal(
                    out, entry.serial.run_packed(packed)
                )
            finally:
                for shm in _WORKER.get("shm", {}).values():
                    shm.close()
                _WORKER.clear()
                for shm in (shm_in, shm_out):
                    shm.close()
                    shm.unlink()

    def test_threaded_engine_skips_the_pool(self):
        """An engine that threads in-process runs on the serial path."""
        netlist = random_netlist(10, 20, seed=73)
        with WorkerPool(n_workers=2, backend="process") as pool:
            model = pool.attach(None, netlist, engine_backend="native-mt")
            entry = pool._entry(model)
            entry.serial.threads = 4  # force the heuristic regardless of host
            assert pool._prefer_in_process(entry)
            entry.serial.threads = 1
            assert not pool._prefer_in_process(entry)

    def test_prefer_threads_false_forces_pool_sharding(self):
        netlist = random_netlist(10, 20, seed=74)
        with WorkerPool(
            n_workers=2, backend="process", prefer_threads=False
        ) as pool:
            model = pool.attach(None, netlist, engine_backend="native-mt")
            entry = pool._entry(model)
            entry.serial.threads = 4
            assert not pool._prefer_in_process(entry)
            # and the pool path stays bit-exact for such a model
            X = as_rng(75).integers(0, 2, size=(600, 10), dtype=np.uint8)
            np.testing.assert_array_equal(
                pool.evaluate_outputs(model, X), netlist.evaluate_outputs(X)
            )

    def test_numpy_models_unaffected_by_heuristic(self):
        """The heuristic only triggers on engines that expose threads > 1."""
        netlist = random_netlist(10, 18, seed=78)
        with WorkerPool(n_workers=2, backend="process") as pool:
            model = pool.attach(None, netlist, engine_backend="numpy")
            assert not pool._prefer_in_process(pool._entry(model))
            assert pool.serial_engine(model).threads == 1
