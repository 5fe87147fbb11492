"""The generated-C backend: bit-exactness, caching, and toolchain fallback.

The fuzz half mirrors ``test_equivalence``: random DAGs across every LUT
width (including the mux-group lowering via ``max_lut_inputs`` and the
constant/arity-0 cases), native vs NumPy vs the naive simulator, ragged
batch tails included.  The fallback half forces the no-toolchain path:
``backend="auto"`` must degrade to the NumPy engine silently and
``backend="native"`` must raise the typed error.
"""

import os

import numpy as np
import pytest

from repro.core.netlist import LUTNetlist, primary_input
from repro.engine import (
    CompiledNetlist,
    NativeCompiledNetlist,
    NativeUnavailableError,
    compile_netlist,
    pack_bits,
    random_netlist,
)
from repro.engine import native as native_mod
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


def _cc_wrapper(directory, fail_on=None, hang_on=None):
    """A ``$CC`` wrapper that logs each invocation and delegates to the real
    compiler — except its ``fail_on``-th invocation, which fails at once,
    and its ``hang_on``-th, which (when it starts before that failure)
    first waits ~10 s to be terminated and logs ``survived`` if nobody did.

    Invocations take their number by ``mkdir`` (atomic, so concurrent
    compilers never share one) and log it with their pid through
    ``O_APPEND``; ``exec`` keeps that pid for the compiler itself.  The
    host probe (``-dM -E``, once per process and compiler) builds nothing:
    it goes straight to the real compiler, unnumbered.
    Returns ``(wrapper path, log path)``.
    """
    import stat

    log = directory / "cc_invocations.log"
    tickets = directory / "cc_tickets"
    tickets.mkdir()
    wrapper = directory / "cc_wrapper.sh"
    real = " ".join(find_compiler())
    wrapper.write_text(
        "#!/bin/sh\n"
        f'case " $* " in *" -dM "*) exec {real} "$@";; esac\n'
        "n=1\n"
        f'while ! mkdir "{tickets}/$n" 2>/dev/null; do n=$((n+1)); done\n'
        f'echo "$n $$" >> {log}\n'
        f'if [ "$n" = "{fail_on}" ]; then\n'
        f' mkdir "{tickets}/failed"; echo "injected failure" >&2; exit 1\n'
        "fi\n"
        f'if [ "$n" = "{hang_on}" ] && [ ! -e "{tickets}/failed" ]; then\n'
        " i=0; while [ $i -lt 1000 ]; do sleep 0.01; i=$((i+1)); done\n"
        f' echo "$n survived" >> {log}\n'
        "fi\n"
        f'exec {real} "$@"\n'
    )
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IEXEC)
    return wrapper, log


def _multi_unit_source(monkeypatch):
    """``(source, n_units)`` of a small netlist cut into several units."""
    monkeypatch.setattr(native_mod, "_SEGMENT_STATEMENTS", 10)
    monkeypatch.setattr(native_mod, "_UNIT_STATEMENTS", 40)
    source = generate_c_source(compile_netlist(random_netlist(10, 30, seed=77)))
    n_units = source.count(native_mod._UNIT_MARKER) + 1
    assert n_units >= 4
    return source, n_units


def _race_two_builders(tmp_path, source):
    """Two processes building ``source`` at once through a logging ``$CC``
    wrapper; returns ``(compiler invocations, cache dir, digest)``.

    The children rendezvous on a barrier so both reach
    ``build_shared_object`` with the cache cold — without the
    ``<digest>.lock`` serialisation both would invoke the compiler.
    """
    import multiprocessing as mp

    wrapper, log = _cc_wrapper(tmp_path)
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
    def test_racing_processes_compile_once(self, tmp_path):
        """Two processes building the same digest: exactly one compiler
        run, both get a working object, no corruption."""
        source = generate_c_source(
            compile_netlist(random_netlist(10, 30, seed=77))
        )
        # one compile total across both processes (the loser waited on the
        # lock file and reused the winner's atomically-published object)
        invocations, cache, digest = _race_two_builders(tmp_path, source)
        assert invocations == 1
        # the published object is loadable and correct in this process
        so_path = str(cache / f"{digest}.so")
        run, _ = native_mod._load_entry_points(digest, so_path)
        assert run is not None

    def test_racing_processes_build_the_units_once(self, tmp_path, monkeypatch):
        """The multi-unit twin: one compile per unit and one link across
        both racers — one build per digest per host."""
        source, n_units = _multi_unit_source(monkeypatch)
        invocations, cache, digest = _race_two_builders(tmp_path, source)
        assert invocations == n_units + 1
        run, _ = native_mod._load_entry_points(digest, str(cache / f"{digest}.so"))
        assert run is not None

    def test_stale_tmp_files_are_cleaned(self, tmp_path, monkeypatch):
        """Success or failure, one unit or several: no ``.tmp`` names and
        no objects stay behind, and a failed build publishes nothing."""
        one_unit = generate_c_source(
            compile_netlist(random_netlist(6, 8, seed=42))
        )
        several, _ = _multi_unit_source(monkeypatch)
        for source in (one_unit, several):
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
        self, tmp_path, monkeypatch, failing
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
        wrapper, log = _cc_wrapper(tmp_path, fail_on=fail_on, hang_on=hang_on)
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
