"""Unit tests of the compiled program: structure, slots, and error paths."""

import numpy as np
import pytest

from repro.core import LUTNetlist
from repro.engine import CompiledNetlist, compile_netlist, pack_bits, random_netlist


def _xor_and_netlist():
    netlist = LUTNetlist(n_primary_inputs=3)
    netlist.add_node("xor01", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
    netlist.add_node("and2", "mat", ["xor01", "in2"], np.array([0, 0, 0, 1]))
    netlist.mark_output("and2")
    return netlist


class TestCompilation:
    def test_known_function(self):
        compiled = compile_netlist(_xor_and_netlist())
        X = np.array([[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(compiled.predict_batch(X)[:, 0], [0, 1, 0, 0])

    def test_statistics_raw_lowering(self):
        """``passes=()`` lowers the netlist structure unchanged."""
        compiled = compile_netlist(_xor_and_netlist(), passes=())
        assert compiled.n_nodes == 2
        assert compiled.n_groups == 2
        assert compiled.n_primary_inputs == 3
        assert compiled.n_outputs == 1

    def test_default_pipeline_fuses_shared_support_chain(self):
        """The pipeline collapses a chain whose links share their support."""
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("xor01", "rinc0", ["in0", "in1"], np.array([0, 1, 1, 0]))
        netlist.add_node("and01", "mat", ["xor01", "in0"], np.array([0, 0, 0, 1]))
        netlist.mark_output("and01")
        compiled = compile_netlist(netlist)
        assert compiled.n_nodes == 1
        assert compiled.n_groups == 1
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_default_pipeline_keeps_cost_neutral_pairs(self):
        """Disjoint 2-input LUTs are not fused (equal cost, deeper cascade)."""
        compiled = compile_netlist(_xor_and_netlist())
        assert compiled.n_nodes == 2
        X = np.array([[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(compiled.predict_batch(X)[:, 0], [0, 1, 0, 0])

    def test_from_netlist_equals_helper(self):
        netlist = _xor_and_netlist()
        assert isinstance(CompiledNetlist.from_netlist(netlist), CompiledNetlist)

    def test_no_outputs_rejected(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
        with pytest.raises(ValueError):
            compile_netlist(netlist)

    def test_same_arity_nodes_grouped(self):
        """All width-P LUTs of one level collapse into a single step."""
        netlist = LUTNetlist(n_primary_inputs=8)
        for i in range(20):
            netlist.add_node(
                f"n{i}", "rinc0", ["in0", f"in{i % 8}" if i % 8 else "in1"],
                np.array([0, 1, 1, 0]),
            )
            netlist.mark_output(f"n{i}")
        compiled = compile_netlist(netlist)
        assert compiled.n_groups == 1

    def test_slot_reuse_bounds_working_set(self):
        """A deep chain needs far fewer slots than inputs + nodes."""
        netlist = LUTNetlist(n_primary_inputs=2)
        previous = "in0"
        for i in range(100):
            netlist.add_node(f"c{i}", "rinc0", [previous, "in1"], np.array([0, 1, 1, 0]))
            previous = f"c{i}"
        netlist.mark_output(previous)
        compiled = compile_netlist(netlist)
        assert compiled.n_slots < 10  # not 102: dead chain links are recycled

    def test_output_slots_never_recycled(self):
        """Every declared output must survive to the end of the program."""
        netlist = random_netlist(8, 60, seed=5, n_outputs=10)
        compiled = compile_netlist(netlist)
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(100, 8), dtype=np.uint8)
        np.testing.assert_array_equal(
            compiled.predict_batch(X), netlist.evaluate_outputs(X)
        )


class TestEvaluation:
    def test_primary_input_passthrough_output(self):
        netlist = LUTNetlist(n_primary_inputs=2)
        netlist.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
        netlist.mark_output("a")
        netlist.mark_output("in1")
        compiled = compile_netlist(netlist)
        X = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(compiled.predict_batch(X), [[0, 1], [1, 0]])

    def test_netlist_with_no_nodes(self):
        """Pure pass-through netlists (outputs are primary inputs) compile."""
        netlist = LUTNetlist(n_primary_inputs=3)
        netlist.mark_output("in2")
        netlist.mark_output("in0")
        compiled = compile_netlist(netlist)
        assert compiled.n_groups == 0
        X = np.array([[1, 0, 0], [0, 0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(compiled.predict_batch(X), [[0, 1], [1, 0]])

    def test_constant_node(self):
        """A zero-input LUT is a constant signal across the whole batch."""
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("one", "mat", [], np.array([1]))
        netlist.add_node("zero", "mat", [], np.array([0]))
        netlist.mark_output("one")
        netlist.mark_output("zero")
        compiled = compile_netlist(netlist)
        X = np.zeros((70, 1), dtype=np.uint8)
        out = compiled.predict_batch(X)
        np.testing.assert_array_equal(out[:, 0], np.ones(70, dtype=np.uint8))
        np.testing.assert_array_equal(out[:, 1], np.zeros(70, dtype=np.uint8))

    def test_inverter(self):
        """NOT gates fill padding with ones; unpack must truncate them."""
        netlist = LUTNetlist(n_primary_inputs=1)
        netlist.add_node("inv", "rinc0", ["in0"], np.array([1, 0]))
        netlist.mark_output("inv")
        compiled = compile_netlist(netlist)
        X = np.zeros((3, 1), dtype=np.uint8)
        np.testing.assert_array_equal(
            compiled.predict_batch(X)[:, 0], np.ones(3, dtype=np.uint8)
        )

    def test_empty_batch(self):
        compiled = compile_netlist(_xor_and_netlist())
        out = compiled.predict_batch(np.zeros((0, 3), dtype=np.uint8))
        assert out.shape == (0, 1)

    def test_wrong_width_rejected(self):
        compiled = compile_netlist(_xor_and_netlist())
        with pytest.raises(ValueError):
            compiled.predict_batch(np.zeros((2, 5), dtype=np.uint8))

    def test_non_binary_rejected(self):
        compiled = compile_netlist(_xor_and_netlist())
        with pytest.raises(ValueError):
            compiled.predict_batch(np.full((2, 3), 2))

    def test_run_packed_shape_rejected(self):
        compiled = compile_netlist(_xor_and_netlist())
        with pytest.raises(ValueError):
            compiled.run_packed(np.zeros((5, 1), dtype=np.uint64))

    def test_run_packed_round_trip(self, rng):
        netlist = _xor_and_netlist()
        compiled = compile_netlist(netlist)
        X = rng.integers(0, 2, size=(130, 3), dtype=np.uint8)
        packed_out = compiled.run_packed(pack_bits(X))
        assert packed_out.shape == (1, 3)
        from repro.engine import unpack_bits

        np.testing.assert_array_equal(
            unpack_bits(packed_out, 130), netlist.evaluate_outputs(X)
        )

    def test_scratch_buffers_stable_across_batch_sizes(self, rng):
        """Ragged batches reuse one grow-only scratch allocation.

        Serving traffic alternates between big and small batches, so the
        flat state and chunk buffers are cached by rounded-up capacity:
        shrinking batches reuse the existing arrays (same objects, views
        carved per call), and only a genuinely larger batch grows them.
        """
        netlist = random_netlist(16, 40, seed=31)
        compiled = compile_netlist(netlist)
        reference = compile_netlist(netlist)

        X_big = rng.integers(0, 2, size=(500, 16), dtype=np.uint8)
        compiled.run_packed(pack_bits(X_big))
        capacity, state_buf, work_buf = compiled._scratch
        assert capacity >= 8  # 500 samples = 8 words

        for n_samples in (1, 64, 500, 65, 3, 128):
            X = rng.integers(0, 2, size=(n_samples, 16), dtype=np.uint8)
            packed = pack_bits(X)
            np.testing.assert_array_equal(
                compiled.run_packed(packed), reference.run_packed(packed)
            )
            cap_now, state_now, work_now = compiled._scratch
            assert cap_now == capacity
            assert state_now is state_buf
            assert work_now is work_buf

        # a larger batch grows the cache (never shrinks it)
        X_huge = rng.integers(0, 2, size=(4000, 16), dtype=np.uint8)
        packed = pack_bits(X_huge)
        np.testing.assert_array_equal(
            compiled.run_packed(packed), reference.run_packed(packed)
        )
        assert compiled._scratch[0] > capacity


class TestSharedInstance:
    def test_two_threads_mixed_widths_bit_exact(self):
        """Two threads on one instance, batches of 1/3/16/64 words in turn:
        every result equals the serial one.  Without the instance's lock the
        threads' calls share (and regrow) one scratch, and rows come back
        wrong."""
        import sys
        import threading

        from repro.engine import rinc_bank_netlist

        compiled = compile_netlist(rinc_bank_netlist(256, 120, 20, 10, seed=3))
        rng = np.random.default_rng(41)
        batches = [
            rng.integers(0, 1 << 63, size=(256, words), dtype=np.uint64)
            for words in (1, 3, 16, 64)
        ]
        expected = [compiled.run_packed(batch) for batch in batches]
        wrong = []
        start = threading.Barrier(2)

        def hammer(offset):
            start.wait()
            for i in range(150):
                k = (i + offset) % len(batches)
                if not np.array_equal(compiled.run_packed(batches[k]), expected[k]):
                    wrong.append(k)

        threads = [threading.Thread(target=hammer, args=(o,)) for o in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_pickle_round_trip_recreates_the_lock(self):
        import pickle

        netlist = random_netlist(16, 40, seed=31)
        compiled = compile_netlist(netlist)
        X = np.random.default_rng(2).integers(0, 2, size=(70, 16), dtype=np.uint8)
        compiled.predict_batch(X)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._scratch is None and clone._lock is not compiled._lock
        np.testing.assert_array_equal(
            clone.predict_batch(X), netlist.evaluate_outputs(X)
        )

    def test_a_pickle_carries_one_bit_per_table_entry(self):
        """Table words are 0 or all-ones: a pickle packs them to bits and
        the clone unpacks the same words when first read."""
        import pickle

        netlist = random_netlist(16, 200, seed=32, lut_widths=(5, 6))
        compiled = compile_netlist(netlist)
        data = pickle.dumps(compiled)
        table_bytes = sum(g.table_words.nbytes for g in compiled._groups
                          if hasattr(g, "table_words"))
        assert table_bytes > 0 and len(data) < table_bytes  # less than the words
        clone = pickle.loads(data)
        for mine, theirs in zip(compiled._groups, clone._groups):
            if hasattr(mine, "table_words"):
                assert "table_words" not in theirs.__dict__
                np.testing.assert_array_equal(theirs.table_words, mine.table_words)
                assert theirs.table_words.dtype == np.uint64
        X = np.random.default_rng(3).integers(0, 2, size=(70, 16), dtype=np.uint8)
        np.testing.assert_array_equal(
            clone.predict_batch(X), netlist.evaluate_outputs(X)
        )
