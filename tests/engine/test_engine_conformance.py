"""One conformance suite for every engine: same bits, same surface.

Whatever runs the words — the NumPy interpreter, the generated-C engine or
the same build threaded (``native-mt``), compiled cold or found in the
cache's index — an engine must reproduce
``LUTNetlist.evaluate_outputs`` bit for bit on ragged batches and expose
the shared :class:`PackedEngine` surface, because the classifiers and the
serving layer hold engines as objects and know nothing else about them.
That surface includes ``run_scores``, the bank and the table-lookup
read-out in one call, which must return the very doubles the read-out
formula gives, on every engine.

A process / serial :class:`WorkerPool` (or a process pool fallen back to
serial) is not an engine, but every configuration of it answers the same
oracle on the same ragged batches through ``pool.run_packed(model_id,
...)``.
"""

import ctypes
import os
import re
import shutil
import subprocess
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.netlist import LUTNetlist, primary_input
from repro.engine import (
    PackedEngine,
    WorkerPool,
    compile_netlist,
    pack_bits,
    random_netlist,
    unpack_bits,
)
from repro.engine import compiled_netlist as compiled_mod
from repro.engine.bitpack import lookup_scores
from repro.engine.compiled_netlist import CompiledNetlist
from repro.engine import native as native_mod
from repro.engine.native import (
    NativeCompiledNetlist,
    generate_c_source,
    toolchain_available,
)
from repro.engine.passes import MUX_TABLE
from repro.utils.rng import as_rng

N_INPUTS = 24

needs_cc = pytest.mark.skipif(
    not toolchain_available(), reason="no C compiler on this host"
)


def _in_process(backend):
    return lambda netlist: compile_netlist(netlist, backend=backend)


def _index_hit(backend):
    """The ``backend`` engine of a second compile on a fresh cache: found
    in the index, with no pass, lowering or code generation run."""

    def banned(*_args, **_kwargs):
        raise AssertionError("an index hit ran the pipeline")

    def build(netlist):
        with tempfile.TemporaryDirectory() as cache, \
                pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NATIVE_CACHE", cache)
            compile_netlist(netlist, backend=backend)
            patch.setattr(compiled_mod, "optimize_netlist", banned)
            patch.setattr(CompiledNetlist, "from_netlist", banned)
            patch.setattr(native_mod, "generate_c_source", banned)
            return compile_netlist(netlist, backend=backend)

    return build


def _sharded_native(netlist):
    """native-mt with a one-word grain: a 3-word batch runs as 2 shards."""
    return NativeCompiledNetlist(
        CompiledNetlist.from_netlist(netlist), threads=2, min_words_per_thread=1
    )


def _pool(pool_backend, n_workers, engine_backend="numpy", **options):
    """A pool serving the netlist as model ``"m"``, split down to one word
    per worker so that ragged batches really shard."""

    def build(netlist):
        pool = WorkerPool(
            n_workers=n_workers,
            backend=pool_backend,
            min_words_per_worker=1,
            **options,
        )
        pool.attach("m", netlist, engine_backend=engine_backend)
        return pool

    return build


def _fallen_back(engine_backend="numpy"):
    """A process pool that forked and served, then lost its workers: every
    batch after that runs on the model's own engine."""
    build = _pool("process", 2, engine_backend, prefer_threads=False)

    def fall_back(netlist):
        pool = build(netlist)
        pool.run_packed(
            "m", np.zeros((netlist.n_primary_inputs, 4), dtype=np.uint64)
        )
        assert pool._resources["pool"] is not None
        with pytest.warns(RuntimeWarning, match="falling back to the serial"):
            pool._fall_back_to_serial(OSError("injected"), stacklevel=2)
        assert pool.backend == "serial" and pool._resources["pool"] is None
        return pool

    return fall_back


def _engine_param(build, backend, id, needs_toolchain=False):
    return pytest.param(
        (build, backend), id=id, marks=[needs_cc] if needs_toolchain else []
    )


ENGINES = [
    _engine_param(_in_process("numpy"), "numpy", "numpy"),
    _engine_param(_in_process("native"), "native", "native", True),
    _engine_param(_in_process("native-mt"), "native-mt", "native-mt", True),
    _engine_param(_sharded_native, "native-mt", "native-mt-2x1word", True),
    _engine_param(_index_hit("native"), "native", "native-index-hit", True),
    _engine_param(_index_hit("native-mt"), "native-mt", "native-mt-index-hit", True),
]

POOLS = [
    _engine_param(_pool("process", 2), "numpy", "pool-process"),
    _engine_param(_pool("process", 5), "numpy", "pool-process-x5"),
    _engine_param(_pool("serial", 2), "numpy", "pool-serial"),
    _engine_param(
        _pool("serial", 2, "native"), "native", "pool-serial-native", True
    ),
    _engine_param(
        _pool("process", 2, "native"), "native", "pool-process-native", True
    ),
    _engine_param(
        # forked workers run the threaded model at one thread each
        _pool("process", 2, "native-mt", prefer_threads=False),
        "native-mt",
        "pool-process-native-mt",
        True,
    ),
    _engine_param(
        # the pool stands aside: the engine's own threads shard the batch
        _pool("process", 2, "native-mt"),
        "native-mt",
        "pool-process-native-mt-aside",
        True,
    ),
    _engine_param(
        _pool("process", 5, "native"), "native", "pool-process-x5-native", True
    ),
    _engine_param(_fallen_back(), "numpy", "pool-fallback"),
    _engine_param(
        _fallen_back("native-mt"), "native-mt", "pool-fallback-native-mt", True
    ),
]


@pytest.fixture(scope="module")
def netlist():
    return random_netlist(N_INPUTS, 60, seed=21, n_outputs=8)


@pytest.fixture(scope="module", params=ENGINES)
def engine(request, netlist):
    build, backend = request.param
    with build(netlist) as built:
        yield built, backend


@pytest.fixture(scope="module", params=POOLS)
def pool(request, netlist):
    build, backend = request.param
    with build(netlist) as built:
        yield built, backend


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
        if backend == "numpy":
            assert (built.threads, built.unroll) == (1, 1)
        elif backend == "native":
            assert (built.threads, built.unroll) == (1, native_mod.vector_lanes())
        # only a single-thread native engine may evaluate on a server's
        # event loop
        assert built.on_loop is (
            backend.startswith("native") and built.threads == 1
        )
        for method in (
            "run_packed",
            "run_scores",
            "evaluate_outputs",
            "predict_batch",
            "close",
        ):
            assert callable(getattr(built, method))

    def test_wrong_shapes_rejected(self, engine):
        built, _ = engine
        with pytest.raises(ValueError):
            built.run_packed(np.zeros((3, 4), dtype=np.uint64))
        with pytest.raises(ValueError):
            built.predict_batch(np.zeros((5, N_INPUTS + 1), dtype=np.uint8))


class TestPoolConformance:
    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 1000])
    def test_bit_exact_on_ragged_batches(self, pool, netlist, n_samples):
        built, _ = pool
        X = as_rng(5 + n_samples).integers(
            0, 2, size=(n_samples, N_INPUTS), dtype=np.uint8
        )
        expected = netlist.evaluate_outputs(X)
        packed = pack_bits(X)
        packed_out = built.run_packed("m", packed)
        assert packed_out.dtype == np.uint64
        assert packed_out.shape == (len(netlist.output_signals), packed.shape[1])
        np.testing.assert_array_equal(unpack_bits(packed_out, n_samples), expected)
        np.testing.assert_array_equal(built.evaluate_outputs("m", X), expected)

    def test_the_serial_engine_is_the_named_backend(self, pool):
        built, backend = pool
        assert built.serial_engine("m").backend == backend

    def test_wrong_shapes_rejected(self, pool):
        built, _ = pool
        with pytest.raises(ValueError):
            built.run_packed("m", np.zeros((3, 4), dtype=np.uint64))
        with pytest.raises(ValueError):
            built.evaluate_outputs(
                "m", np.zeros((5, N_INPUTS + 1), dtype=np.uint8)
            )

    def test_attach_options_reach_the_pool(self):
        """``max_lut_inputs`` and ``engine_backend`` are attach options.
        One pool per option: the first pool's batch forks it, which then
        takes no further attach."""
        wide = random_netlist(16, 30, seed=22, lut_widths=(8,), n_outputs=4)
        X = as_rng(8).integers(0, 2, size=(300, 16), dtype=np.uint8)
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            pool.attach("m", wide, max_lut_inputs=6)
            optimized = pool._entry("m").netlist
            assert all(node.n_inputs <= 6 for node in optimized.nodes)
            np.testing.assert_array_equal(
                pool.evaluate_outputs("m", X), wide.evaluate_outputs(X)
            )
        with WorkerPool(n_workers=2, min_words_per_worker=1) as pool:
            pool.attach("m", wide, engine_backend="auto")
            expected = "native" if toolchain_available() else "numpy"
            assert pool.serial_engine("m").backend == expected
            with pytest.raises(ValueError, match="engine backend"):
                pool.attach("n", wide, engine_backend="fortran")
            with pytest.raises(KeyError, match="not attached"):
                pool.serial_engine("n")


def _readout_case(fan_in, n_groups, seed):
    """A bank with ``fan_in * n_groups`` outputs and a read-out over them:
    ``(netlist, int_weights, scale, biases, table)``, the table built by
    the output layer's own expression."""
    rng = as_rng(seed)
    sub = random_netlist(N_INPUTS, 60, seed=21, n_outputs=fan_in * n_groups)
    int_weights = rng.integers(-127, 128, size=(n_groups, fan_in))
    int_weights[0, 0] = 0
    if n_groups > 1:
        int_weights[1] = -np.abs(int_weights[1])  # an all-negative neuron
    scale = 0.37 / 127
    biases = rng.normal(size=n_groups)
    index_bits = (np.arange(1 << fan_in)[:, None] >> np.arange(fan_in)) & 1
    table = np.ascontiguousarray((scale * (index_bits @ int_weights.T) + biases).T)
    return sub, int_weights, scale, biases, table


@pytest.fixture(
    scope="class",
    # 12/16 take the native epilogue's second index byte, 17 is past it
    params=[(1, 10), (5, 4), (6, 10), (8, 1), (8, 4), (12, 2), (16, 1), (17, 1)],
    ids=lambda shape: f"p{shape[0]}-g{shape[1]}",
)
def case(request):
    fan_in, n_groups = request.param
    return _readout_case(fan_in, n_groups, seed=fan_in * 31 + n_groups)


def _readout_batch(n_samples):
    """``(X, packed)``: ``n_samples`` random rows, packed with all-ones
    garbage in the padding lanes."""
    X = as_rng(9 + n_samples).integers(
        0, 2, size=(n_samples, N_INPUTS), dtype=np.uint8
    )
    packed = pack_bits(X)
    tail = n_samples % 64
    if tail:
        packed[:, -1] |= ~np.uint64(0) << np.uint64(tail)
    return X, packed


def _assert_the_formula(scores, case, X):
    """``scores`` are the read-out formula the table replaced, to the bit."""
    sub, int_weights, scale, biases, _table = case
    bits = sub.evaluate_outputs(X).astype(np.int64)
    sums = np.einsum(
        "ngk,gk->ng", bits.reshape((len(X),) + int_weights.shape), int_weights
    )
    np.testing.assert_array_equal(scores, scale * sums + biases)


def _assert_bad_read_outs_rejected(run_scores, table):
    """``run_scores(packed, n_samples, table)`` raises ``ValueError`` on a
    malformed table, a sample count its words cannot hold, or packed
    inputs of the wrong width."""
    packed = np.zeros((N_INPUTS, 2), dtype=np.uint64)
    bad_tables = [
        table[:, :-1],  # not 2**p wide
        np.ascontiguousarray(table[:, : table.shape[1] // 2]),  # p - 1
        np.vstack([table, table]),  # n_groups * p != n_outputs
        table.astype(np.float32),
        table.astype(np.int64),
        np.asfortranarray(np.vstack([table, table]))[: table.shape[0]],  # strided
        table.ravel(),
    ]
    for bad in bad_tables:
        with pytest.raises(ValueError):
            run_scores(packed, 100, bad)
    with pytest.raises(ValueError):
        run_scores(packed, 129, table)
    with pytest.raises(ValueError):
        run_scores(packed, -1, table)
    with pytest.raises(ValueError):
        run_scores(np.zeros((3, 2), dtype=np.uint64), 100, table)


class TestRunScores:
    """``run_scores`` == ``run_packed`` + ``lookup_scores`` == the formula
    the table replaced, to the bit, whatever runs the words."""

    @pytest.fixture(scope="class", params=ENGINES)
    def built(self, request, case):
        build, _backend = request.param
        with build(case[0]) as engine:
            yield engine

    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 150, 1000])
    def test_bit_identical_scores(self, built, case, n_samples):
        table = case[4]
        X, packed = _readout_batch(n_samples)
        scores = built.run_scores(packed, n_samples, table)
        assert scores.dtype == np.float64
        assert scores.shape == (n_samples, table.shape[0])
        assert scores.flags.c_contiguous
        np.testing.assert_array_equal(
            scores, lookup_scores(built.run_packed(packed), n_samples, table)
        )
        _assert_the_formula(scores, case, X)

    def test_table_and_sample_count_validated(self, built, case):
        _assert_bad_read_outs_rejected(built.run_scores, case[4])


class TestPoolReadOut:
    """A pool's words feed the read-out as an engine's do: on every
    read-out shape, ``lookup_scores`` over ``pool.run_packed`` is the
    formula the table replaced, to the bit."""

    @pytest.fixture(scope="class", params=POOLS)
    def pool(self, request, case):
        build, _backend = request.param
        with build(case[0]) as built:
            yield built

    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 150, 1000])
    def test_bit_identical_scores(self, pool, case, n_samples):
        X, packed = _readout_batch(n_samples)
        scores = lookup_scores(pool.run_packed("m", packed), n_samples, case[4])
        _assert_the_formula(scores, case, X)

    def test_table_and_sample_count_validated(self, pool, case):
        _assert_bad_read_outs_rejected(
            lambda packed, n_samples, table: lookup_scores(
                pool.run_packed("m", packed), n_samples, table
            ),
            case[4],
        )


@needs_cc
class TestNativeRunScoresIsFused:
    def test_one_c_call_per_shard_and_no_run_packed(self, monkeypatch):
        sub, _w, _s, _b, table = _readout_case(6, 4, seed=3)
        engine = NativeCompiledNetlist(
            CompiledNetlist.from_netlist(sub), threads=2, min_words_per_thread=1
        )
        calls = []
        real = engine._entry[1]  # (run_range, run_scores_range)

        def counting(*args):
            calls.append(args[3:5])
            return real(*args)

        def banned(*_args, **_kwargs):
            raise AssertionError("native run_scores went through run_packed")

        monkeypatch.setattr(engine, "_entry", (banned, counting))
        monkeypatch.setattr(engine, "run_packed", banned)
        k = engine.unroll
        n = 64 * (3 * k - 1) + 2  # 3K words: 2 shards, cut on a lane multiple
        X = as_rng(1).integers(0, 2, size=(n, N_INPUTS), dtype=np.uint8)
        scores = engine.run_scores(pack_bits(X), n, table)
        assert sorted(calls) == [(0, k), (k, 3 * k)]
        reference = CompiledNetlist.from_netlist(sub)
        np.testing.assert_array_equal(
            scores, reference.run_scores(pack_bits(X), n, table)
        )
        calls.clear()
        engine.run_scores(pack_bits(X[:1]), 1, table)  # sub-grain: one call
        assert calls == [(0, 1)]

    def test_bad_arguments_never_reach_c(self, monkeypatch):
        sub, _w, _s, _b, table = _readout_case(6, 4, seed=3)
        engine = NativeCompiledNetlist(CompiledNetlist.from_netlist(sub))

        def banned(*_args):
            raise AssertionError("unvalidated arguments reached C")

        monkeypatch.setattr(engine, "_entry", (engine._entry[0], banned))
        packed = np.zeros((N_INPUTS, 1), dtype=np.uint64)
        for bad in (table[:, :32], table[:3], table.astype(np.float32), table.T):
            with pytest.raises(ValueError):
                engine.run_scores(packed, 10, bad)
        with pytest.raises(ValueError):
            engine.run_scores(packed, 65, table)
        assert engine.run_scores(packed[:, :0], 0, table).shape == (0, 4)

    def test_table_wider_than_the_epilogue_takes_the_base_route(self, monkeypatch):
        """``copy_scores`` builds 16-bit indices; a 17-bit table must not
        reach it (it would alias lanes silently)."""
        sub, _w, _s, _b, table = _readout_case(17, 1, seed=5)
        engine = NativeCompiledNetlist(CompiledNetlist.from_netlist(sub))

        def banned(*_args):
            raise AssertionError("a 17-bit table reached the 16-bit epilogue")

        monkeypatch.setattr(engine, "_entry", (engine._entry[0], banned))
        X = as_rng(3).integers(0, 2, size=(200, N_INPUTS), dtype=np.uint8)
        np.testing.assert_array_equal(
            engine.run_scores(pack_bits(X), 200, table),
            lookup_scores(engine.run_packed(pack_bits(X)), 200, table),
        )

    def test_generated_c_moves_scores_without_arithmetic(self):
        """No ``double``/``float`` anywhere in the unit: scores are copied
        as 64-bit patterns, so no FP flag can touch them — and the unit is
        generic in the read-out's shape, keyed by the netlist alone."""
        sub, *_ = _readout_case(6, 4, seed=3)
        engine = NativeCompiledNetlist(CompiledNetlist.from_netlist(sub))
        assert "void run_scores_range(" in engine.c_source
        assert "double" not in engine.c_source
        assert "float" not in engine.c_source
        other = _readout_case(8, 3, seed=4)[4]  # same 24 outputs, p=8
        X = as_rng(2).integers(0, 2, size=(70, N_INPUTS), dtype=np.uint8)
        np.testing.assert_array_equal(
            engine.run_scores(pack_bits(X), 70, other),
            lookup_scores(engine.run_packed(pack_bits(X)), 70, other),
        )


def _node_adder(netlist, rng):
    """``add(arity, readable, table=None)``: append a LUT reading ``arity``
    distinct signals of ``readable`` (random table unless given)."""

    def add(arity, readable, table=None):
        if table is None:
            table = rng.integers(0, 2, size=1 << arity, dtype=np.uint8)
        reads = rng.choice(len(readable), size=arity, replace=False)
        return netlist.add_node(
            name=f"n{len(netlist.nodes)}",
            kind="mat",
            input_signals=[readable[i] for i in reads],
            table=table,
        )

    return add


def _every_arity_netlist(seed):
    """Two levels, lowered without passes so every node reaches the executor:
    five LUTs of each arity 0-10 over the primary inputs, three of each arity
    1-10 and four mux-shaped ones reading anything earlier, one 12-input LUT.
    Uniformly random tables, so every basis row is gathered from."""
    rng = as_rng(seed)
    netlist = LUTNetlist(n_primary_inputs=N_INPUTS)

    add = _node_adder(netlist, rng)
    inputs = [primary_input(i) for i in range(N_INPUTS)]
    first = [add(arity, inputs) for arity in range(11) for _ in range(5)]
    second = [add(arity, inputs + first) for arity in range(1, 11) for _ in range(3)]
    second += [add(3, inputs + first, MUX_TABLE) for _ in range(4)]
    second.append(add(12, inputs + first))
    netlist.output_signals = second + first[::2]
    return netlist


class TestNumpyExecutorDifferential:
    """The entry-major cascade against ``LUTNetlist.evaluate_outputs``: every
    arity, chunk boundaries wherever a shrunken budget puts them (a group of
    five is then 2 + 2 + 1 or 3 + 2 or one node at a time), every word-count
    edge, garbage in the padding lanes, and one instance across an
    alternating sequence of batch sizes (scratch reuse, then growth)."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 700, 5_000, 40_000, 1 << 20]),
        st.permutations([0, 1, 63, 64, 65, 1000, 1, 64]),
    )
    def test_equals_the_reference(self, seed, budget, sizes):
        netlist = _every_arity_netlist(seed)
        program = CompiledNetlist.from_netlist(netlist)
        arities = {g.arity for g in program._groups if hasattr(g, "arity")}
        assert arities == set(range(11)) | {12}
        rng = as_rng(seed + 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled_mod, "_LUT_CHUNK_BYTES", budget)
            for n_samples in sizes:
                X = rng.integers(0, 2, size=(n_samples, N_INPUTS), dtype=np.uint8)
                packed = pack_bits(X)
                if n_samples % 64:  # whatever a caller left past the last sample
                    packed[:, -1] |= rng.integers(
                        0, 2**64, size=N_INPUTS, dtype=np.uint64
                    ) << np.uint64(n_samples % 64)
                np.testing.assert_array_equal(
                    unpack_bits(program.run_packed(packed), n_samples),
                    netlist.evaluate_outputs(X),
                    err_msg=f"{n_samples} samples, budget {budget}",
                )


SEGMENT_BUDGET = 8
UNIT_BUDGET = 24


def _boundary_netlist():
    """100 raw nodes, lowered without passes so all of them reach the code
    generator: 32 constants and 40 muxes over the primary inputs — two runs
    of one-statement blocks longer than a unit, so a unit boundary falls
    inside each — then 2-, 4- and 6-input LUTs reading anything earlier,
    the widest of them a block larger than either budget."""
    rng = as_rng(77)
    netlist = LUTNetlist(n_primary_inputs=N_INPUTS)

    add = _node_adder(netlist, rng)
    inputs = [primary_input(i) for i in range(N_INPUTS)]
    constants = [add(0, inputs) for _ in range(32)]
    muxes = [add(3, inputs, MUX_TABLE) for _ in range(40)]
    luts = []
    for arity in [2, 4, 2, 4, 2, 4, 6] * 4:
        luts.append(add(arity, inputs + constants + muxes + luts))
    netlist.output_signals = luts[-16:] + constants[:2] + muxes[:2]
    return netlist


def _segment_bodies(unit_source, width=1):
    """Per ``seg*`` function of one width: its node blocks, one per line."""
    bodies = re.findall(
        rf"void seg\d+_w{width}\(W\* restrict s\) \{{\n(.*?)\n\}}\n", unit_source, re.S
    )
    return [body.split("\n") for body in bodies]


@needs_cc
class TestSegmentAndUnitBoundaries:
    """Where the code generator cuts ``seg*`` functions and translation
    units is invisible: same bits, same exports, same source on any host."""

    @pytest.fixture(scope="class")
    def tiny_budgets(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native_mod, "_SEGMENT_STATEMENTS", SEGMENT_BUDGET)
            patch.setattr(native_mod, "_UNIT_STATEMENTS", UNIT_BUDGET)
            yield

    @pytest.fixture(scope="class")
    def netlist(self):
        return _boundary_netlist()

    @pytest.fixture(scope="class", params=[1, 4], ids=["w1", "w4"])
    def built(self, request, netlist, tiny_budgets, tmp_path_factory):
        return NativeCompiledNetlist(
            CompiledNetlist.from_netlist(netlist),
            cache_dir=str(tmp_path_factory.mktemp("units")),
            unroll=request.param,
        )

    def test_the_source_really_is_cut_everywhere(self, built):
        units = built.c_source.split(native_mod._UNIT_MARKER)
        assert len(units) >= 3
        assert "void run_range(" in units[0]
        assert all("run_range" not in unit for unit in units[1:])
        segments = [
            body for unit in units for body in _segment_bodies(unit, built.unroll)
        ]
        assert len(segments) >= 20
        sizes = [sum(block.count(";") for block in body) for body in segments]
        # a segment is over budget only when one node block alone is
        over = [body for body, size in zip(segments, sizes) if size > SEGMENT_BUDGET]
        assert over and all(len(body) == 1 for body in over)
        # and some unit starts on a constant, some unit on a mux
        first_blocks = [
            _segment_bodies(unit, built.unroll)[0][0] for unit in units[1:]
        ]
        assert any(re.fullmatch(r"s\[\d+\] = C[01];", b) for b in first_blocks)
        assert any(re.fullmatch(r"s\[\d+\] = s\[\d+\] \^ .*", b) for b in first_blocks)
        # one width per source: a vector build carries no scalar twin
        widths = set(re.findall(r"\bw(\d+)\b|_w(\d+)\b", built.c_source))
        assert {a or b for a, b in widths} == {str(built.unroll)}

    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 1000])
    def test_bit_exact_across_the_cuts(self, built, netlist, n_samples):
        X = as_rng(5 + n_samples).integers(
            0, 2, size=(n_samples, N_INPUTS), dtype=np.uint8
        )
        expected = netlist.evaluate_outputs(X)
        np.testing.assert_array_equal(built.evaluate_outputs(X), expected)
        table = as_rng(6).normal(size=(5, 1 << 4))  # 20 outputs = 5 x 4 bits
        np.testing.assert_array_equal(
            built.run_scores(pack_bits(X), n_samples, table),
            lookup_scores(pack_bits(expected), n_samples, table),
        )

    def test_source_depends_on_the_program_alone(self, built, monkeypatch):
        sources = {built.c_source}  # generated on this host's core count
        for n_cpus in (1, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: n_cpus)
            sources.add(generate_c_source(built.program, unroll=built.unroll))
        assert len(sources) == 1

    def test_object_exports_the_entry_points_only(self, built):
        lib = ctypes.CDLL(built.shared_object)
        assert lib.run_range and lib.run_scores_range
        k = built.unroll
        last = len(re.findall(rf"^seg\d+_w{k}\(s\);$", built.c_source, re.M)) - 1
        for hidden in (f"seg0_w{k}", f"seg{last}_w{k}", f"run_word_w{k}"):
            assert f"{hidden}(" in built.c_source
            with pytest.raises(AttributeError):
                getattr(lib, hidden)
        if shutil.which("nm"):
            listing = subprocess.run(
                ["nm", "-D", "--defined-only", built.shared_object],
                capture_output=True, text=True, check=True,
            ).stdout
            functions = {
                line.split()[-1] for line in listing.splitlines()
                if line.split()[-2:-1] == ["T"]
            }
            assert functions == {"run_range", "run_scores_range"}

    def test_kept_source_is_the_whole_source(self, built):
        kept = os.path.join(
            os.path.dirname(built.shared_object), f"{built.digest}.c"
        )
        with open(kept) as handle:
            assert handle.read() == built.c_source
        leftovers = set(os.listdir(os.path.dirname(kept))) - {
            f"{built.digest}.c", f"{built.digest}.so", f"{built.digest}.lock",
        }
        assert leftovers == set()


def _ragged_words(n_words, seed):
    """``(X, packed)`` filling ``n_words`` words, the last one 51 samples
    long with all-random garbage in its 13 padding lanes."""
    rng = as_rng(seed)
    n_samples = max(64 * n_words - 13, 0)
    X = rng.integers(0, 2, size=(n_samples, N_INPUTS), dtype=np.uint8)
    packed = pack_bits(X)
    if n_words:
        packed[:, -1] |= rng.integers(
            0, 2**64, size=N_INPUTS, dtype=np.uint64
        ) << np.uint64(51)
    return X, packed


def _ptr(array):
    return array.ctypes.data_as(native_mod._WORD_PTR)


#: word counts around a vector build's K lanes
WORD_COUNTS = {
    "0": lambda k: 0,
    "1": lambda k: 1,
    "K-1": lambda k: k - 1,
    "K": lambda k: k,
    "K+1": lambda k: k + 1,
    "2K+3": lambda k: 2 * k + 3,
    "1000": lambda k: 1000,
}


@needs_cc
class TestVectorTail:
    """A vector build runs whole K-word blocks and ends a ragged range in one
    zero-padded K-word block that writes nothing at or past ``hi`` — no
    scalar twin.  Every word count around K, either export, one or two
    shards, and adjacent ranges run in either order give the same bits."""

    N_GROUPS, P = 3, 4  # the read-out over the twelve outputs

    @pytest.fixture(scope="class")
    def netlist(self):
        return random_netlist(N_INPUTS, 60, seed=23, n_outputs=self.N_GROUPS * self.P)

    @pytest.fixture(scope="class")
    def table(self):
        return as_rng(24).normal(size=(self.N_GROUPS, 1 << self.P))

    @pytest.fixture(scope="class", params=[2, 4, 8], ids=lambda k: f"w{k}")
    def built(self, request, netlist, tmp_path_factory):
        return NativeCompiledNetlist(
            CompiledNetlist.from_netlist(netlist),
            cache_dir=str(tmp_path_factory.mktemp("lanes")),
            unroll=request.param,
            min_words_per_thread=1,
        )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("words", list(WORD_COUNTS))
    def test_every_word_count(self, built, netlist, table, words, threads):
        n_words = WORD_COUNTS[words](built.unroll)
        X, packed = _ragged_words(n_words, seed=n_words)
        n = X.shape[0]
        built.threads = threads
        expected = netlist.evaluate_outputs(X)
        out = built.run_packed(packed)
        np.testing.assert_array_equal(unpack_bits(out, n), expected)
        scores = built.run_scores(packed, n, table)
        np.testing.assert_array_equal(scores, lookup_scores(out, n, table))
        np.testing.assert_array_equal(
            scores, lookup_scores(pack_bits(expected), n, table)
        )

    @pytest.mark.parametrize("cut", ["K-1", "K+1", "2K+3"])
    @pytest.mark.parametrize(
        "high_first", [False, True], ids=["low-first", "high-first"]
    )
    def test_adjacent_ranges_in_either_order(
        self, built, netlist, table, cut, high_first
    ):
        """``[0, c)`` and ``[c, n)`` through the raw exports on shared
        buffers: the padded block of ``[0, c)`` computes lanes past ``c`` but
        must not write them over the output words or score rows the other
        range wrote first."""
        n_words = 4 * built.unroll + 3
        cut = WORD_COUNTS[cut](built.unroll)
        X, packed = _ragged_words(n_words, seed=cut)
        n = X.shape[0]
        out = np.zeros((built.n_outputs, n_words), dtype=np.uint64)
        scores = np.zeros((n, self.N_GROUPS))
        ranges = [(0, cut), (cut, n_words)]
        run_range, run_scores_range = built._entry
        for lo, hi in reversed(ranges) if high_first else ranges:
            run_range(_ptr(packed), _ptr(out), lo, hi, n_words)
            run_scores_range(
                _ptr(packed), _ptr(table), _ptr(scores),
                lo, hi, n_words, n, self.N_GROUPS, self.P,
            )
        expected = netlist.evaluate_outputs(X)
        np.testing.assert_array_equal(unpack_bits(out, n), expected)
        np.testing.assert_array_equal(
            scores, lookup_scores(built.run_packed(packed), n, table)
        )
        np.testing.assert_array_equal(
            scores, lookup_scores(pack_bits(expected), n, table)
        )

