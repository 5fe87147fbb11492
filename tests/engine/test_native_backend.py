"""The generated-C backend: bit-exactness, caching, and toolchain fallback.

The fuzz half mirrors ``test_equivalence``: random DAGs across every LUT
width (including the mux-group lowering via ``max_lut_inputs`` and the
constant/arity-0 cases), native vs NumPy vs the naive simulator, ragged
batch tails included.  The fallback half forces the no-toolchain path:
``backend="auto"`` must degrade to the NumPy engine silently and
``backend="native"`` must raise the typed error.  The index half drives
the ``<key>.prog`` entries a warm compile is served from through what can
go wrong with them.
"""

import ast
import importlib.util
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.netlist import LUTNetlist, primary_input
from repro.engine import (
    CompiledNetlist,
    NativeCompiledNetlist,
    NativeUnavailableError,
    build_engine,
    compile_netlist,
    pack_bits,
    random_netlist,
)
from repro.engine import compiled_netlist as compiled_mod
from repro.engine import native as native_mod
from repro.engine.compiled_netlist import attach_engine
from repro.engine.native import (
    build_shared_object,
    find_compiler,
    generate_c_source,
    toolchain_available,
)
from repro.utils.rng import as_rng

needs_cc = pytest.mark.skipif(
    not toolchain_available(), reason="no C compiler on this host"
)


@needs_cc
class TestNativeEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags_three_way(self, seed):
        """native == numpy == naive on random DAGs, widths 2..8."""
        rng = as_rng(7000 + seed)
        n_primary = int(rng.integers(4, 40))
        n_nodes = int(rng.integers(1, 90))
        netlist = random_netlist(
            n_primary, n_nodes, seed=seed, lut_widths=(2, 3, 4, 5, 6, 7, 8)
        )
        numpy_engine = compile_netlist(netlist)
        native_engine = compile_netlist(netlist, backend="native")
        assert isinstance(native_engine, NativeCompiledNetlist)
        n_samples = int(rng.integers(1, 260))
        X = rng.integers(0, 2, size=(n_samples, n_primary), dtype=np.uint8)
        reference = netlist.evaluate_outputs(X)
        np.testing.assert_array_equal(numpy_engine.predict_batch(X), reference)
        np.testing.assert_array_equal(native_engine.predict_batch(X), reference)

    def test_mux_decomposed_program(self):
        """Wide LUTs through the P=4 fabric: the mux-group statement path."""
        netlist = random_netlist(24, 60, seed=11, lut_widths=(6, 7, 8))
        native_engine = compile_netlist(
            netlist, backend="native", max_lut_inputs=4
        )
        assert native_engine.program.n_groups > 0
        rng = as_rng(12)
        for n_samples in (1, 63, 64, 65, 200):
            X = rng.integers(0, 2, size=(n_samples, 24), dtype=np.uint8)
            np.testing.assert_array_equal(
                native_engine.predict_batch(X), netlist.evaluate_outputs(X)
            )

    def test_constant_and_narrow_luts(self):
        """Arity-0 (constant broadcast) and arity-1 nodes survive folding."""
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node(
            name="const1", kind="mat", input_signals=[],
            table=np.array([1], dtype=np.uint8),
        )
        netlist.add_node(
            name="const0", kind="mat", input_signals=[],
            table=np.array([0], dtype=np.uint8),
        )
        netlist.add_node(
            name="inv", kind="mat",
            input_signals=[primary_input(0)],
            table=np.array([1, 0], dtype=np.uint8),
        )
        netlist.add_node(
            name="mix", kind="mat",
            input_signals=["const1", "inv", primary_input(1)],
            table=np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8),
        )
        netlist.output_signals = ["const1", "const0", "inv", "mix"]
        # passes=() keeps the constants in the program instead of folding
        # them away before lowering — the codegen must broadcast them
        native_engine = compile_netlist(netlist, backend="native", passes=())
        X = as_rng(3).integers(0, 2, size=(130, 2), dtype=np.uint8)
        np.testing.assert_array_equal(
            native_engine.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_ragged_batch_sizes_one_engine(self):
        """One engine instance across growing/shrinking batches stays exact."""
        netlist = random_netlist(16, 40, seed=21)
        native_engine = compile_netlist(netlist, backend="native")
        numpy_engine = compile_netlist(netlist)
        rng = as_rng(22)
        for n_samples in (1, 64, 5, 500, 65, 1, 128):
            X = rng.integers(0, 2, size=(n_samples, 16), dtype=np.uint8)
            packed = pack_bits(X)
            np.testing.assert_array_equal(
                native_engine.run_packed(packed),
                numpy_engine.run_packed(packed),
            )

    def test_empty_word_block(self):
        netlist = random_netlist(8, 10, seed=5)
        native_engine = compile_netlist(netlist, backend="native")
        empty = np.zeros((8, 0), dtype=np.uint64)
        out = native_engine.run_packed(empty)
        assert out.shape == (native_engine.n_outputs, 0)

    def test_shared_object_cached_by_digest(self, tmp_path):
        """Same program twice: the second build is a file-cache hit."""
        netlist = random_netlist(10, 12, seed=9)
        program = compile_netlist(netlist)
        assert isinstance(program, CompiledNetlist)
        first = NativeCompiledNetlist(program, cache_dir=str(tmp_path))
        so_mtime = (tmp_path / f"{first.digest}.so").stat().st_mtime_ns
        second = NativeCompiledNetlist(program, cache_dir=str(tmp_path))
        assert second.digest == first.digest
        assert (tmp_path / f"{first.digest}.so").stat().st_mtime_ns == so_mtime
        # and the source is kept next to the object for debugging
        assert (tmp_path / f"{first.digest}.c").exists()

    def test_digest_covers_source(self, tmp_path):
        a = generate_c_source(compile_netlist(random_netlist(8, 9, seed=1)))
        b = generate_c_source(compile_netlist(random_netlist(8, 9, seed=2)))
        assert a != b
        da, _ = build_shared_object(a, cache_dir=str(tmp_path))
        db, _ = build_shared_object(b, cache_dir=str(tmp_path))
        assert da != db

    def test_digest_covers_the_target(self, tmp_path, monkeypatch):
        """Two CPUs with one lane count and one command line — a compiler
        whose probe reports other macros — get different objects, so a
        shared cache never hands one host the other's instructions."""
        macros = tmp_path / "macros"
        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text(
            "#!/bin/sh\n"
            f'case " $* " in *" -dM "*) cat {macros}; exit 0;; esac\n'
            f'exec {" ".join(find_compiler())} "$@"\n'
        )
        fake_cc.chmod(0o755)
        monkeypatch.setattr(native_mod, "find_compiler", lambda: [str(fake_cc)])
        source = generate_c_source(
            compile_netlist(random_netlist(8, 9, seed=3)), unroll=8
        )
        digests = []
        for features in ("__AVX512F__ __AVX512VL__", "__AVX512F__ __AVX512FP16__",
                         "__AVX512F__ __AVX512VL__"):
            macros.write_text(
                "".join(f"#define {name} 1\n" for name in features.split())
            )
            monkeypatch.setattr(native_mod, "_host_builds", {})
            assert native_mod.vector_lanes() == 8
            digest, _ = build_shared_object(source, cache_dir=str(tmp_path / "c"))
            digests.append(digest)
        assert digests[0] != digests[1]
        assert digests[0] == digests[2]  # the same target: a cache hit
        assert len(list((tmp_path / "c").glob("*.so"))) == 2


def _multi_unit_source(monkeypatch):
    """``(source, n_units)`` of a small netlist cut into several units."""
    monkeypatch.setattr(native_mod, "_SEGMENT_STATEMENTS", 10)
    monkeypatch.setattr(native_mod, "_UNIT_STATEMENTS", 40)
    source = generate_c_source(compile_netlist(random_netlist(10, 30, seed=77)))
    n_units = source.count(native_mod._UNIT_MARKER) + 1
    assert n_units >= 4
    return source, n_units


def _race_two_builders(tmp_path, source, cc_wrapper):
    """Two processes building ``source`` at once through a logging ``$CC``
    wrapper; returns ``(compiler invocations, cache dir, digest)``.

    The children rendezvous on a barrier so both reach
    ``build_shared_object`` with the cache cold — without the
    ``<digest>.lock`` serialisation both would invoke the compiler.
    """
    import multiprocessing as mp

    wrapper, log = cc_wrapper()
    cache = tmp_path / "cache"
    ctx = mp.get_context("fork")
    barrier = ctx.Barrier(2)
    results = ctx.Queue()

    def racer():
        os.environ["CC"] = str(wrapper)
        native_mod._compiler_cache = native_mod._UNSET  # re-discover $CC
        barrier.wait()
        digest, path = build_shared_object(source, cache_dir=str(cache))
        results.put((digest, os.path.getsize(path)))

    procs = [ctx.Process(target=racer) for _ in range(2)]
    for p in procs:
        p.start()
    outcomes = [results.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    digests = {d for d, _ in outcomes}
    assert len(digests) == 1
    return len(log.read_text().splitlines()), cache, digests.pop()


@needs_cc
class TestConcurrentBuilders:
    def test_racing_processes_compile_once(self, tmp_path, cc_wrapper):
        """Two processes building the same digest: exactly one build — one
        compile per unit and one link — both get a working object, no
        corruption."""
        source = generate_c_source(
            compile_netlist(random_netlist(10, 30, seed=77))
        )
        n_units = source.count(native_mod._UNIT_MARKER) + 1
        # one build total across both processes (the loser waited on the
        # lock file and reused the winner's atomically-published object)
        invocations, cache, digest = _race_two_builders(tmp_path, source, cc_wrapper)
        assert invocations == n_units + 1
        # the published object is loadable and correct in this process
        so_path = str(cache / f"{digest}.so")
        run, _ = native_mod._load_entry_points(digest, so_path)
        assert run is not None

    def test_racing_processes_build_the_units_once(
        self, tmp_path, monkeypatch, cc_wrapper
    ):
        """The multi-unit twin: one compile per unit and one link across
        both racers — one build per digest per host."""
        source, n_units = _multi_unit_source(monkeypatch)
        invocations, cache, digest = _race_two_builders(tmp_path, source, cc_wrapper)
        assert invocations == n_units + 1
        run, _ = native_mod._load_entry_points(digest, str(cache / f"{digest}.so"))
        assert run is not None

    def test_stale_tmp_files_are_cleaned(self, tmp_path, monkeypatch):
        """Success or failure, two units or many: no ``.tmp`` names and no
        objects stay behind, and a failed build publishes nothing."""
        small = generate_c_source(
            compile_netlist(random_netlist(6, 8, seed=42))
        )
        several, _ = _multi_unit_source(monkeypatch)
        for source in (small, several):
            digest, _ = build_shared_object(source, cache_dir=str(tmp_path))
            broken = source + "this is not C\n"  # lands in the last unit
            with pytest.raises(NativeUnavailableError, match="C build failed"):
                build_shared_object(broken, cache_dir=str(tmp_path))
            names = sorted(path.name for path in tmp_path.iterdir())
            assert [n for n in names if not n.endswith(".lock")] == [
                f"{digest}.c", f"{digest}.so",
            ]
            for path in tmp_path.iterdir():
                path.unlink()

    @pytest.mark.parametrize("failing", ["first unit", "second unit", "link"])
    def test_failed_compiler_run_leaves_nothing_behind(
        self, tmp_path, monkeypatch, failing, cc_wrapper
    ):
        """The k-th compiler invocation fails: the compiler running beside
        it is terminated and waited for, no temp and no object survives,
        nothing is published, the error names the failed command — and the
        same build then succeeds."""
        source, n_units = _multi_unit_source(monkeypatch)
        fail_on, hang_on = {
            "first unit": (1, 2),
            "second unit": (2, 1),
            "link": (n_units + 1, None),  # the link runs alone
        }[failing]
        if os.cpu_count() == 1:
            hang_on = None  # one compiler at a time: nothing runs beside it
        wrapper, log = cc_wrapper(fail_on=fail_on, hang_on=hang_on)
        monkeypatch.setattr(native_mod, "find_compiler", lambda: [str(wrapper)])
        cache = tmp_path / "cache"
        with pytest.raises(NativeUnavailableError, match="injected failure") as info:
            build_shared_object(source, cache_dir=str(cache))
        message = str(info.value)
        assert str(wrapper) in message
        assert (" -c " in message) == (failing != "link")
        assert [p.name for p in cache.iterdir() if p.suffix != ".lock"] == []
        started = [line.split() for line in log.read_text().splitlines()]
        assert "survived" not in [what for _, what in started]
        # nothing was started after the failure, and every compiler is reaped
        assert len(started) <= fail_on + (os.cpu_count() or 1)
        for _, pid in started:
            with pytest.raises(ProcessLookupError):
                os.kill(int(pid), 0)
        digest, so_path = build_shared_object(source, cache_dir=str(cache))
        assert sorted(p.name for p in cache.iterdir() if p.suffix != ".lock") == [
            f"{digest}.c", f"{digest}.so",
        ]
        assert native_mod._load_entry_points(digest, so_path)[0] is not None


@pytest.fixture
def default_cache(tmp_path, monkeypatch):
    """The per-user default cache path, moved under ``tmp_path``."""
    import tempfile

    monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    return tmp_path / "tmp" / f"repro-native-{os.geteuid()}"


@needs_cc
class TestDefaultCacheDirectory:
    """The default cache sits in the shared temp root under a name anyone
    can compute: only a private directory of this user is trusted."""

    def _planted(self, tmp_path, cache):
        """A fake ``.so`` at the digest this netlist's build would use."""
        netlist = random_netlist(8, 10, seed=81)
        source = generate_c_source(compile_netlist(netlist))
        digest, _ = build_shared_object(source, cache_dir=str(tmp_path / "own"))
        planted = cache / f"{digest}.so"
        planted.write_bytes(b"not an object: loading this would fail")
        return netlist, planted

    def _assert_refused(self, tmp_path, cache, monkeypatch):
        import re

        netlist, planted = self._planted(tmp_path, cache)

        def no_load(*args):
            raise AssertionError("an object in a refused cache was loaded")

        monkeypatch.setattr(native_mod, "_load_entry_points", no_load)
        with pytest.raises(NativeUnavailableError, match=re.escape(str(cache))):
            compile_netlist(netlist, backend="native")
        with pytest.warns(RuntimeWarning, match="refusing"):
            engine = compile_netlist(netlist, backend="auto")
        assert engine.backend == "numpy"
        assert sorted(p.name for p in cache.iterdir()) == [planted.name]

    def test_world_writable_directory_refused(
        self, tmp_path, default_cache, monkeypatch
    ):
        default_cache.mkdir()
        default_cache.chmod(0o777)
        self._assert_refused(tmp_path, default_cache, monkeypatch)

    def test_group_writable_directory_refused_until_removed(
        self, tmp_path, default_cache, monkeypatch
    ):
        """Our own directory left ``0o775`` (what ``os.makedirs`` gives
        under umask 002) is refused too, with the remedy in the message;
        once removed it comes back private and serves native again."""
        import shutil
        import stat

        default_cache.mkdir()
        default_cache.chmod(0o775)
        load = native_mod._load_entry_points
        self._assert_refused(tmp_path, default_cache, monkeypatch)
        monkeypatch.setattr(native_mod, "_load_entry_points", load)
        netlist = random_netlist(8, 10, seed=86)
        with pytest.raises(NativeUnavailableError, match="remove it"):
            compile_netlist(netlist, backend="native")
        shutil.rmtree(default_cache)
        engine = compile_netlist(netlist, backend="native")
        assert stat.S_IMODE(default_cache.stat().st_mode) == 0o700
        X = as_rng(87).integers(0, 2, size=(70, 8), dtype=np.uint8)
        np.testing.assert_array_equal(
            engine.predict_batch(X), netlist.evaluate_outputs(X)
        )

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() != 0,
        reason="chown to another uid needs root",
    )
    def test_directory_of_another_user_refused(
        self, tmp_path, default_cache, monkeypatch
    ):
        default_cache.mkdir(mode=0o700)
        os.chown(default_cache, 12345, -1)
        self._assert_refused(tmp_path, default_cache, monkeypatch)

    def test_symlinked_directory_refused(
        self, tmp_path, default_cache, monkeypatch
    ):
        """A link planted at the default name is refused even when it
        points at a private directory: the path itself is checked."""
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        default_cache.symlink_to(target, target_is_directory=True)
        self._assert_refused(tmp_path, default_cache, monkeypatch)

    def test_explicit_directory_taken_as_is(
        self, tmp_path, default_cache, monkeypatch
    ):
        """``$REPRO_NATIVE_CACHE`` is the operator's choice: a directory
        others may write is used, not refused, and the default is unused."""
        chosen = tmp_path / "shared"
        chosen.mkdir()
        chosen.chmod(0o777)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(chosen))
        netlist = random_netlist(8, 10, seed=83)
        engine = compile_netlist(netlist, backend="native")
        assert engine.shared_object == str(chosen / f"{engine.digest}.so")
        assert not default_cache.exists()
        X = as_rng(84).integers(0, 2, size=(70, 8), dtype=np.uint8)
        np.testing.assert_array_equal(
            engine.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_fresh_directory_created_private(self, default_cache):
        import stat

        netlist = random_netlist(8, 10, seed=82)
        engine = compile_netlist(netlist, backend="native")
        assert stat.S_IMODE(default_cache.stat().st_mode) == 0o700
        assert engine.shared_object == str(default_cache / f"{engine.digest}.so")
        # and the private directory is trusted on the next attach
        assert compile_netlist(netlist, backend="native").digest == engine.digest


class TestToolchainFallback:
    def test_auto_without_toolchain_degrades_to_numpy(self, monkeypatch):
        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
        netlist = random_netlist(8, 12, seed=3)
        engine = compile_netlist(netlist, backend="auto")
        assert isinstance(engine, CompiledNetlist)
        assert engine.backend == "numpy"
        X = as_rng(4).integers(0, 2, size=(70, 8), dtype=np.uint8)
        np.testing.assert_array_equal(
            engine.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_native_without_toolchain_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
        netlist = random_netlist(8, 12, seed=3)
        with pytest.raises(NativeUnavailableError, match="toolchain"):
            compile_netlist(netlist, backend="native")

    def test_bad_backend_name_rejected(self):
        netlist = random_netlist(8, 12, seed=3)
        with pytest.raises(ValueError, match="backend"):
            compile_netlist(netlist, backend="fortran")

    def test_one_fallback_rule_for_every_caller(self, monkeypatch):
        """``build_engine`` is where the fallback is decided, so the pool's
        attach (strict) and its workers (``strict=False``) follow it too."""
        from repro.engine import WorkerPool, build_engine

        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
        netlist = random_netlist(8, 12, seed=3)
        for backend in ("native", "native-mt"):
            with pytest.raises(NativeUnavailableError):
                build_engine(netlist, backend)
            # worker-side: degrade to the bit-exact NumPy engine instead
            assert build_engine(netlist, backend, strict=False).backend == "numpy"
        with WorkerPool(n_workers=2, backend="serial") as pool:
            with pytest.raises(NativeUnavailableError):
                pool.attach("m", netlist, engine_backend="native")
            pool.attach("m", netlist, engine_backend="auto")
            assert pool.serial_engine("m").backend == "numpy"

    @needs_cc
    def test_auto_with_toolchain_goes_native(self):
        netlist = random_netlist(8, 12, seed=3)
        engine = compile_netlist(netlist, backend="auto")
        assert engine.backend == "native"


@needs_cc
class TestNativeValidation:
    def test_wrong_plane_count_rejected(self):
        netlist = random_netlist(8, 10, seed=6)
        native_engine = compile_netlist(netlist, backend="native")
        with pytest.raises(ValueError, match="shape"):
            native_engine.run_packed(np.zeros((3, 2), dtype=np.uint64))

    def test_compiler_discovery_honors_cc_env(self, monkeypatch):
        cc = find_compiler()
        assert cc is not None
        monkeypatch.setenv("CC", cc[0])
        assert native_mod._discover_compiler() == [cc[0]]
        monkeypatch.setenv("CC", "/nonexistent/compiler-xyz")
        # an unusable $CC falls through to PATH discovery, not a crash
        assert native_mod._discover_compiler() is not None


def _build_threads():
    import threading

    return [t for t in threading.enumerate() if t.name == "repro-native-build"]


#: (n_samples, seed) of the batches every tier must answer bit for bit
_SWAP_BATCHES = [(n, 90 + n) for n in (0, 1, 63, 64, 65, 1000)]


def _swap_case():
    """A netlist of 8 outputs and a 2 x 16 read-out table over them."""
    netlist = random_netlist(24, 40, seed=88, n_outputs=8)
    table = as_rng(89).normal(size=(2, 16))
    return netlist, table


def _check_tier(engine, netlist, table):
    """``run_packed`` and ``run_scores`` on ragged batches whose padding
    lanes hold garbage: bit-exact against ``evaluate_outputs``."""
    from repro.engine import lookup_scores, unpack_bits

    for n, seed in _SWAP_BATCHES:
        rng = as_rng(seed)
        X = rng.integers(0, 2, size=(n, 24), dtype=np.uint8)
        packed = pack_bits(X)
        if packed.shape[1] and n % 64:
            packed[:, -1] |= rng.integers(0, 2**63, size=24, dtype=np.uint64) << np.uint64(n % 64)
        expected = netlist.evaluate_outputs(X)
        np.testing.assert_array_equal(unpack_bits(engine.run_packed(packed), n), expected)
        np.testing.assert_array_equal(
            engine.run_scores(packed, n, table),
            lookup_scores(pack_bits(expected), n, table),
        )


@needs_cc
class TestTieredAttach:
    """``NativeCompiledNetlist.attach`` — what a classifier's engine cache
    builds — answers on the NumPy program until its C build lands, then on
    the shared object; every blocking entry point still returns a built
    engine and starts no thread."""

    def test_bit_exact_before_across_and_after_the_swap(self, held_build):
        import threading

        from repro.engine.compiled_netlist import attach_engine

        netlist, table = _swap_case()
        engine = attach_engine(netlist, "native")
        assert [t.daemon for t in _build_threads()] == [False]
        assert engine.wait(0) is False
        assert (engine.backend, engine.on_loop) == ("numpy", False)
        _check_tier(engine, netlist, table)
        stop, failures = threading.Event(), []

        def across():
            while not stop.is_set():
                try:
                    _check_tier(engine, netlist, table)
                except AssertionError as error:  # pragma: no cover - reported below
                    failures.append(error)
                    return

        evaluator = threading.Thread(target=across)
        evaluator.start()
        held_build.mkdir()
        try:
            assert engine.wait(60) is True
        finally:
            stop.set()
            evaluator.join(120)
        assert not evaluator.is_alive()
        assert failures == []
        assert (engine.backend, engine.on_loop) == ("native", True)
        assert _build_threads() == []
        _check_tier(engine, netlist, table)

    def test_native_mt_tier_reports_its_backend_after_the_swap(
        self, held_build, monkeypatch
    ):
        from repro.engine.compiled_netlist import attach_engine

        monkeypatch.setattr(native_mod, "default_thread_count", lambda: 2)
        netlist, table = _swap_case()
        engine = attach_engine(netlist, "native-mt")
        assert (engine.backend, engine.threads, engine.on_loop) == ("numpy", 2, False)
        _check_tier(engine, netlist, table)
        held_build.mkdir()
        assert engine.wait(60)
        assert (engine.backend, engine.on_loop) == ("native-mt", False)
        _check_tier(engine, netlist, table)

    def test_failed_build_leaves_numpy_serving_and_warns(
        self, tmp_path, monkeypatch, cc_wrapper
    ):
        import re

        from repro.engine.compiled_netlist import attach_engine

        wrapper, _log = cc_wrapper(fail_on=1)
        monkeypatch.setattr(native_mod, "find_compiler", lambda: [str(wrapper)])
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        netlist, table = _swap_case()
        with pytest.warns(RuntimeWarning, match=re.escape(str(wrapper))):
            engine = attach_engine(netlist, "native")
            assert engine.wait(60) is False
        assert (engine.backend, engine.on_loop) == ("numpy", False)
        assert _build_threads() == []
        _check_tier(engine, netlist, table)
        assert not (tmp_path / "cache" / f"{engine.digest}.so").exists()

    def test_a_cached_object_attaches_with_no_thread(self, tmp_path, monkeypatch):
        import threading

        from repro.engine.compiled_netlist import attach_engine

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        netlist, table = _swap_case()
        built = compile_netlist(netlist, backend="native")
        before = threading.enumerate()
        engine = attach_engine(netlist, "native")
        assert threading.enumerate() == before
        assert engine.digest == built.digest
        assert (engine.backend, engine.wait(0)) == ("native", True)
        _check_tier(engine, netlist, table)

    def test_blocking_entry_points_start_no_thread(self, tmp_path, monkeypatch):
        """Cold cache each time: ``compile_netlist``, the constructor and
        :meth:`tuned` return built engines with no thread left behind."""
        import threading

        netlist, table = _swap_case()
        program = CompiledNetlist.from_netlist(netlist)
        builds = [
            lambda: compile_netlist(netlist, backend="native"),
            lambda: NativeCompiledNetlist(program),
            lambda: NativeCompiledNetlist.tuned(program),
        ]
        for index, build in enumerate(builds):
            monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / str(index)))
            before = threading.enumerate()
            engine = build()
            assert threading.enumerate() == before
            assert engine.wait(0) and engine.backend.startswith("native")
            _check_tier(engine, netlist, table)

    def test_no_toolchain_is_decided_at_attach(self, monkeypatch):
        from repro.engine.compiled_netlist import attach_engine

        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
        netlist, _table = _swap_case()
        with pytest.raises(NativeUnavailableError, match="toolchain"):
            attach_engine(netlist, "native")
        assert isinstance(attach_engine(netlist, "auto"), CompiledNetlist)
        assert _build_threads() == []

    def test_the_cache_directory_is_read_at_attach(self, held_build, tmp_path, monkeypatch):
        """``$REPRO_NATIVE_CACHE`` changed while the build runs does not
        move it: the object lands where the attach said."""
        from repro.engine.compiled_netlist import attach_engine

        netlist, _table = _swap_case()
        engine = attach_engine(netlist, "native")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "elsewhere"))
        held_build.mkdir()
        assert engine.wait(60)
        assert engine.shared_object == str(tmp_path / "cache" / f"{engine.digest}.so")
        assert os.path.exists(engine.shared_object)
        assert not (tmp_path / "elsewhere").exists()


# ------------------------------------------------------------ the index
@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty ``$REPRO_NATIVE_CACHE``."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    return cache


@pytest.fixture
def pipeline_calls(monkeypatch):
    """``{"passes": n, "codegen": n}``: how often ``compile_netlist`` ran the
    pass pipeline and the code generator since the fixture was set up."""
    calls = {"passes": 0, "codegen": 0}
    optimize, generate = compiled_mod.optimize_netlist, native_mod.generate_c_source

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(compiled_mod, "optimize_netlist", counted("passes", optimize))
    monkeypatch.setattr(native_mod, "generate_c_source", counted("codegen", generate))
    return calls


def _index_case():
    return random_netlist(12, 30, seed=131, n_outputs=6)


def _assert_serves(engine, netlist, seed=132):
    width = netlist.n_primary_inputs
    X = as_rng(seed).integers(0, 2, size=(150, width), dtype=np.uint8)
    np.testing.assert_array_equal(engine.predict_batch(X), netlist.evaluate_outputs(X))


def _compile_counting(netlist, calls, **options):
    """``(engine, whether the compile was an index hit)``."""
    before = dict(calls)
    engine = compile_netlist(netlist, backend="native", **options)
    return engine, calls == before


def _entries(cache):
    return sorted(cache.glob("*.prog"))


@needs_cc
class TestInputIndex:
    """A warm native compile is served from ``<key>.prog``: the lowered
    program and its object's digest, keyed by the netlist it was given."""

    def test_a_warm_compile_runs_no_pass_and_no_codegen(
        self, fresh_cache, pipeline_calls
    ):
        netlist = _index_case()
        cold, hit = _compile_counting(netlist, pipeline_calls, max_lut_inputs=4)
        assert not hit and pipeline_calls == {"passes": 1, "codegen": 1}
        assert len(_entries(fresh_cache)) == 1
        warm, hit = _compile_counting(netlist, pipeline_calls, max_lut_inputs=4)
        assert hit
        assert (warm.digest, warm.shared_object) == (cold.digest, cold.shared_object)
        assert (warm.backend, warm.on_loop, warm.wait(0)) == ("native", True, True)
        _assert_serves(warm, netlist)
        assert warm.c_source == cold.c_source  # generated only now, when read
        assert pipeline_calls["codegen"] == 2
        # another fabric width, and an explicit pipeline, are not this entry
        assert not _compile_counting(netlist, pipeline_calls, max_lut_inputs=3)[1]
        assert len(_entries(fresh_cache)) == 2
        from repro.engine import default_passes

        passes = default_passes(4)
        assert not _compile_counting(netlist, pipeline_calls, passes=passes)[1]
        assert len(_entries(fresh_cache)) == 2

    def test_one_entry_serves_every_native_backend(self, fresh_cache, pipeline_calls):
        netlist = _index_case()
        compile_netlist(netlist, backend="native")
        calls = dict(pipeline_calls)
        engines = [
            compile_netlist(netlist, backend="native-mt"),
            compile_netlist(netlist, backend="auto"),
            attach_engine(netlist, "native-mt"),
            attach_engine(netlist, "auto"),
        ]
        assert pipeline_calls == calls
        assert [e.backend for e in engines] == ["native-mt", "native"] * 2
        assert [e.wait(0) for e in engines] == [True] * 4
        for engine in engines:
            _assert_serves(engine, netlist)
        assert len(_entries(fresh_cache)) == 1

    def test_a_changed_table_entry_is_a_miss(self, fresh_cache, pipeline_calls):
        netlist = _index_case()
        before, _ = _compile_counting(netlist, pipeline_calls)
        [node] = [n for n in netlist.nodes if n.name == netlist.output_signals[0]]
        node.table[3] ^= 1
        after, hit = _compile_counting(netlist, pipeline_calls)
        assert not hit and after.digest != before.digest
        _assert_serves(after, netlist)
        X = as_rng(133).integers(0, 2, size=(400, 12), dtype=np.uint8)
        assert not np.array_equal(before.predict_batch(X), after.predict_batch(X))
        node.table[3] ^= 1  # and back: the first entry still answers
        assert _compile_counting(netlist, pipeline_calls)[0].digest == before.digest

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "garbage", "wrong type", "wrong shape", "unknown digest"],
    )
    def test_a_damaged_entry_is_a_miss_and_is_rewritten(
        self, fresh_cache, pipeline_calls, damage
    ):
        netlist = _index_case()
        _compile_counting(netlist, pipeline_calls)
        [entry] = _entries(fresh_cache)
        good = entry.read_bytes()
        other = CompiledNetlist.from_netlist(
            random_netlist(12, 8, seed=134, n_outputs=2)
        )
        entry.write_bytes({
            "truncated": good[: len(good) // 2],
            "garbage": b"\x80\x05not a pickle at all",
            "wrong type": pickle.dumps({"digest": "0" * 24}),
            "wrong shape": pickle.dumps((pickle.loads(good)[0], other)),
            "unknown digest": pickle.dumps(("../" + "0" * 21, pickle.loads(good)[1])),
        }[damage])
        engine, hit = _compile_counting(netlist, pipeline_calls)
        assert not hit
        _assert_serves(engine, netlist)
        assert entry.read_bytes() == good  # rewritten, readable again
        assert _compile_counting(netlist, pipeline_calls)[1]

    def test_an_entry_whose_object_is_gone_is_a_miss(self, fresh_cache, pipeline_calls):
        netlist = _index_case()
        cold, _ = _compile_counting(netlist, pipeline_calls)
        os.unlink(cold.shared_object)
        engine, hit = _compile_counting(netlist, pipeline_calls)
        assert not hit and os.path.exists(cold.shared_object)
        _assert_serves(engine, netlist)
        assert _compile_counting(netlist, pipeline_calls)[1]

    @pytest.mark.parametrize("what", ["salt", "target"])
    def test_a_key_of_another_salt_or_target_is_a_miss(
        self, fresh_cache, pipeline_calls, monkeypatch, what
    ):
        """Entries written by other pipeline code, or for another CPU
        sharing the directory, are never found."""
        netlist = _index_case()
        _compile_counting(netlist, pipeline_calls)
        if what == "salt":
            monkeypatch.setattr(native_mod, "_salt", b"edited pipeline source")
        else:
            compiler = tuple(find_compiler())
            flags, lanes, _ = native_mod._host_build(compiler)
            monkeypatch.setitem(
                native_mod._host_builds, compiler, (flags, lanes, "other")
            )
        engine, hit = _compile_counting(netlist, pipeline_calls)
        assert not hit and len(_entries(fresh_cache)) == 2
        _assert_serves(engine, netlist)
        assert _compile_counting(netlist, pipeline_calls)[1]
        monkeypatch.undo()
        assert len(_entries(fresh_cache)) == 2

    def test_names_and_widths_of_other_types(self, fresh_cache, pipeline_calls):
        """``add_node`` takes names of any ``str`` type: NumPy strings, and
        a NumPy integer width, are keyed like any other; names of a
        ``str`` subclass, which the key cannot encode, compile in full
        every time and write no entry."""

        class Name(str):
            pass

        def netlist_of(name):
            netlist = LUTNetlist(n_primary_inputs=4)
            inputs = [name("in0"), name("in3")]
            netlist.add_node(name("x"), "mat", inputs, np.array([0, 1, 1, 0]))
            netlist.mark_output(name("x"))
            return netlist

        keyed = netlist_of(np.str_)
        for width in (None, np.int64(4)):
            assert not _compile_counting(keyed, pipeline_calls, max_lut_inputs=width)[1]
            assert _compile_counting(keyed, pipeline_calls, max_lut_inputs=width)[1]
        assert len(_entries(fresh_cache)) == 2
        unkeyed = netlist_of(Name)
        for _ in range(2):
            engine, hit = _compile_counting(unkeyed, pipeline_calls)
            assert not hit
            _assert_serves(engine, unkeyed)
        assert len(_entries(fresh_cache)) == 2

    def test_a_failed_index_write_never_fails_the_compile(
        self, fresh_cache, pipeline_calls
    ):
        netlist = _index_case()
        fresh_cache.mkdir()
        path, _ = native_mod.look_up(netlist, None, "native", True)
        os.mkdir(path)  # nothing can be read from, or renamed onto, it
        for _ in range(2):
            engine, hit = _compile_counting(netlist, pipeline_calls)
            assert not hit
            _assert_serves(engine, netlist)
        assert sorted(p.name for p in fresh_cache.iterdir() if ".tmp" in p.name) == []

    def test_two_processes_racing_the_first_write(self, fresh_cache, pipeline_calls):
        import multiprocessing as mp

        netlist = _index_case()
        ctx = mp.get_context("fork")
        barrier, results = ctx.Barrier(2), ctx.Queue()

        def racer():
            barrier.wait()
            engine = compile_netlist(netlist, backend="native")
            X = as_rng(135).integers(0, 2, size=(150, 12), dtype=np.uint8)
            exact = np.array_equal(engine.predict_batch(X), netlist.evaluate_outputs(X))
            results.put((engine.digest, exact))

        procs = [ctx.Process(target=racer) for _ in range(2)]
        for proc in procs:
            proc.start()
        outcomes = [results.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert [exact for _, exact in outcomes] == [True, True]
        assert len({digest for digest, _ in outcomes}) == 1
        assert len(_entries(fresh_cache)) == 1
        assert [p.name for p in fresh_cache.iterdir() if ".tmp" in p.name] == []
        engine, hit = _compile_counting(netlist, pipeline_calls)
        assert hit and engine.digest == outcomes[0][0]
        _assert_serves(engine, netlist)


_FRESH_INTERPRETER = """
import hashlib, json, sys
from repro.engine import compiled_netlist, native, random_netlist
from repro.engine.compiled_netlist import attach_engine, compile_netlist

calls = []


def counted(name, real):
    return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)


for module, name in ((compiled_netlist, "optimize_netlist"),
                     (native, "generate_c_source")):
    setattr(module, name, counted(name, getattr(module, name)))
netlist = random_netlist(12, 30, seed=131, n_outputs=6)
engines = [compile_netlist(netlist, backend="native", max_lut_inputs=4),
           attach_engine(netlist, "native-mt")]
before = list(calls)
print(json.dumps({
    "calls": before,
    "engines": [[e.digest, e.backend, e.on_loop, e.wait(0),
                 hashlib.sha256(e.c_source.encode()).hexdigest()] for e in engines],
}))
"""


@needs_cc
def test_a_fresh_interpreter_finds_the_build(fresh_cache):
    """A server restart, a replica: another process compiling the same
    netlist on a warm cache runs no pass and no code generation, and gets
    the cold engine's build."""
    import hashlib

    netlist = _index_case()
    cold = [
        compile_netlist(netlist, backend="native", max_lut_inputs=4),
        compile_netlist(netlist, backend="native-mt"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    child = json.loads(out)
    assert child["calls"] == []
    assert child["engines"] == [
        [e.digest, e.backend, e.on_loop, True,
         hashlib.sha256(e.c_source.encode()).hexdigest()]
        for e in cold
    ]


#: modules the pipeline imports whose code decides neither the program nor
#: its source, and why
NOT_IN_THE_PROGRAM = {
    "repro.engine.bitpack": "packs sample words and checks read-out tables: "
    "evaluation only",
}


def _repro_imports(name):
    """The ``repro.engine`` / ``repro.core`` modules (not packages) module
    ``name`` imports anywhere in its body, deferred imports included."""
    modules = {
        f"{package}.{info.name}"
        for package in ("repro.engine", "repro.core")
        for info in pkgutil.iter_modules(importlib.import_module(package).__path__)
        if not info.ispkg
    }
    tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = name.rsplit(".", node.level)[0]
                base = f"{package}.{base}" if base else package
            named.add(base)
            named.update(f"{base}.{alias.name}" for alias in node.names)
    return named & modules


def test_the_salt_covers_the_pipeline():
    """Every module the salted ones reach decides the program — and is
    salted — or is named above as not deciding it: an edit anywhere else
    could serve a stale program from the index."""
    salted = set(native_mod._PIPELINE_MODULES)
    reached, todo = set(), list(salted)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_repro_imports(name))
    assert reached - salted == set(NOT_IN_THE_PROGRAM)
    import hashlib

    hasher = hashlib.sha256()
    for name in native_mod._PIPELINE_MODULES:
        hasher.update(Path(importlib.util.find_spec(name).origin).read_bytes())
    assert native_mod._pipeline_salt() == hasher.digest()


class TestUnusableCache:
    """``$REPRO_NATIVE_CACHE`` naming a regular file: unavailable, so
    ``"auto"`` serves NumPy and ``"native"`` raises the typed error."""

    @pytest.fixture
    def file_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "a-file"
        path.write_text("not a directory")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(path))
        return path

    @pytest.mark.parametrize(
        "entry", ["compile_netlist", "attach_engine", "build_engine"]
    )
    def test_auto_falls_back_and_native_raises(self, file_cache, entry):
        call = {
            "compile_netlist": lambda n, b: compile_netlist(n, backend=b),
            "attach_engine": attach_engine,
            "build_engine": build_engine,
        }[entry]
        netlist = _index_case()
        with pytest.raises(NativeUnavailableError, match=str(file_cache)):
            call(netlist, "native")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if find_compiler() is None else "error")
            if find_compiler() is not None:
                with pytest.warns(RuntimeWarning, match=str(file_cache)):
                    engine = call(netlist, "auto")
            else:
                engine = call(netlist, "auto")
        assert isinstance(engine, CompiledNetlist) and engine.backend == "numpy"
        _assert_serves(engine, netlist)
        assert file_cache.read_text() == "not a directory"


#: one direct call per public entry point; the fallback warning names it
FALLBACK_CALLS = {
    "compile_netlist": lambda netlist: compile_netlist(netlist, backend="auto"),
    "build_engine": lambda netlist: build_engine(netlist, "auto"),
    "attach_engine": lambda netlist: attach_engine(netlist, "auto"),
}


@needs_cc
@pytest.mark.parametrize("entry", sorted(FALLBACK_CALLS))
def test_the_fallback_warning_names_the_caller(tmp_path, monkeypatch, entry):
    cache = tmp_path / "a-file"
    cache.write_text("")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    call = FALLBACK_CALLS[entry]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        engine = call(_index_case())
    [warning] = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "falling back" in str(warning.message)
    where = (warning.filename, warning.lineno)
    assert where == (__file__, call.__code__.co_firstlineno)
    assert engine.backend == "numpy"


#: each entry point at ``"auto"``, and how often it runs the passes
LOWERING_CALLS = {
    "compile_netlist": (lambda netlist: compile_netlist(netlist, backend="auto"), 1),
    "attach_engine": (lambda netlist: attach_engine(netlist, "auto"), 1),
    "build_engine": (lambda netlist: build_engine(netlist, "auto"), 0),
}


@pytest.mark.parametrize("where", ["look-up", "build"])
@pytest.mark.parametrize("entry", sorted(LOWERING_CALLS))
def test_a_fallback_lowers_once(tmp_path, monkeypatch, entry, where):
    """A native path that gives up — before the look-up (a cache that is a
    file) or at the build — falls back on the program it lowered: the
    passes and the lowering run once, not again for the NumPy engine."""
    if where == "look-up":
        cache = tmp_path / "a-file"
        cache.write_text("")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    else:
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))

        def unavailable(*_args, **_kwargs):
            raise NativeUnavailableError("no build here")

        monkeypatch.setattr(NativeCompiledNetlist, "_plan", unavailable)
    calls = {"passes": 0, "lowering": 0}
    optimize, lower = compiled_mod.optimize_netlist, CompiledNetlist.from_netlist

    def optimize_counted(*args, **kwargs):
        calls["passes"] += 1
        return optimize(*args, **kwargs)

    def lower_counted(netlist):
        calls["lowering"] += 1
        return lower(netlist)

    monkeypatch.setattr(compiled_mod, "optimize_netlist", optimize_counted)
    monkeypatch.setattr(CompiledNetlist, "from_netlist", lower_counted)
    call, passes = LOWERING_CALLS[entry]
    netlist = _index_case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        engine = call(netlist)
    assert engine.backend == "numpy"
    assert calls == {"passes": passes, "lowering": 1}
    _assert_serves(engine, netlist)


@pytest.mark.parametrize("strict", [True, False])
def test_a_lowering_error_is_not_a_fallback(tmp_path, monkeypatch, strict):
    """An error of the lowering itself raises as it is, under either
    contract, with no 'native backend unavailable' warning."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))

    def broken(_netlist):
        raise ValueError("cannot lower this")

    monkeypatch.setattr(CompiledNetlist, "from_netlist", broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cannot lower this"):
            build_engine(_index_case(), "native", strict=strict)
