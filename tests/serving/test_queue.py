"""Coalescing edge cases for the BatchingQueue.

The satellite checklist cases: empty-batch timeout, a single oversized
request, shed-on-overflow with a typed error, and bit-exactness of the
scattered results against a direct ``predict_batch`` on the concatenation.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.engine import (
    compile_netlist,
    pack_bits,
    rinc_bank_netlist,
    unpack_bits,
)
from repro.serving import (
    AdmissionBudget,
    BadRequestError,
    BatchingQueue,
    ServerOverloadedError,
)
from repro.utils.rng import as_rng

N_FEATURES = 32


def _sum_fn(calls):
    """A batch function that records every batch size it evaluates."""

    def batch_fn(X):
        calls.append(X.shape[0])
        return X.sum(axis=1).astype(np.int64)

    return batch_fn


def _random_chunks(rng, n_chunks, max_rows=5):
    return [
        rng.integers(0, 2, size=(int(rng.integers(1, max_rows + 1)), N_FEATURES))
        .astype(np.uint8)
        for _ in range(n_chunks)
    ]


class TestCoalescing:
    def test_concurrent_submits_share_batches(self):
        calls = []

        async def main():
            queue = BatchingQueue(
                _sum_fn(calls), max_batch=64, max_wait_us=10_000, max_queue=1024
            )
            chunks = [
                np.ones((1, N_FEATURES), dtype=np.uint8) for _ in range(256)
            ]
            results = await asyncio.gather(*(queue.submit(c) for c in chunks))
            await queue.close()
            return results

        results = asyncio.run(main())
        # 256 one-sample requests, max_batch=64: four full batches, zero
        # per-request evaluations
        assert calls == [64, 64, 64, 64]
        for r in results:
            np.testing.assert_array_equal(r, [N_FEATURES])

    def test_timeout_flushes_partial_batch(self):
        calls = []

        async def main():
            queue = BatchingQueue(
                _sum_fn(calls), max_batch=64, max_wait_us=5_000, max_queue=1024
            )
            chunks = [
                np.zeros((1, N_FEATURES), dtype=np.uint8) for _ in range(3)
            ]
            results = await asyncio.gather(*(queue.submit(c) for c in chunks))
            await queue.close()
            return results

        results = asyncio.run(main())
        assert calls == [3]  # one coalesced batch, driven by the timer
        assert all(r.shape == (1,) for r in results)

    def test_scatter_is_bit_exact_vs_direct_predict_batch(self):
        """Results through the queue == direct predict_batch, bit for bit."""
        netlist = rinc_bank_netlist(
            n_primary_inputs=N_FEATURES,
            n_trees=24,
            n_mats=8,
            n_outputs=4,
            lut_width=4,
            seed=5,
        )
        engine = compile_netlist(netlist)
        rng = as_rng(11)
        chunks = _random_chunks(rng, n_chunks=20)

        async def main():
            queue = BatchingQueue(
                engine.predict_batch,
                max_batch=16,
                max_wait_us=2_000,
                max_queue=1024,
            )
            results = await asyncio.gather(*(queue.submit(c) for c in chunks))
            await queue.close()
            return results

        results = asyncio.run(main())
        for chunk, result in zip(chunks, results):
            np.testing.assert_array_equal(result, engine.predict_batch(chunk))


class TestEmptyBatchTimeout:
    def test_timer_firing_on_drained_queue_is_noop(self):
        calls = []

        async def main():
            queue = BatchingQueue(
                _sum_fn(calls), max_batch=4, max_wait_us=1_000, max_queue=64
            )
            # size-triggered flush drains the queue...
            chunks = [np.ones((2, N_FEATURES), dtype=np.uint8) for _ in range(2)]
            await asyncio.gather(*(queue.submit(c) for c in chunks))
            # ...then the wait budget elapses and a stray timer callback
            # fires on an empty queue: must be a no-op, not an empty batch
            queue._flush_now()  # the timer's callback
            await asyncio.sleep(0.01)
            await queue.close()

        asyncio.run(main())
        assert calls == [4]  # no empty evaluation ever reached the engine

    def test_zero_row_request_is_a_typed_bad_request(self):
        async def main():
            queue = BatchingQueue(_sum_fn([]), max_batch=4, max_queue=64)
            try:
                with pytest.raises(BadRequestError):
                    await queue.submit(np.empty((0, N_FEATURES), dtype=np.uint8))
            finally:
                await queue.close()

        asyncio.run(main())

    def test_malformed_request_is_a_typed_bad_request(self):
        async def main():
            queue = BatchingQueue(_sum_fn([]), max_batch=4, max_queue=64)
            try:
                with pytest.raises(BadRequestError):
                    await queue.submit(np.full((2, N_FEATURES), 0.5))
            finally:
                await queue.close()

        asyncio.run(main())


class TestOversizedRequest:
    def test_single_request_larger_than_max_batch(self):
        calls = []
        rng = as_rng(3)
        big = rng.integers(0, 2, size=(5 * 8, N_FEATURES)).astype(np.uint8)

        async def main():
            queue = BatchingQueue(
                _sum_fn(calls), max_batch=8, max_wait_us=50_000, max_queue=1024
            )
            result = await queue.submit(big)
            await queue.close()
            return result

        result = asyncio.run(main())
        # not split, not delayed by the timer: one oversized batch
        assert calls == [40]
        np.testing.assert_array_equal(result, big.sum(axis=1))

    def test_oversized_request_larger_than_max_queue_admitted_when_idle(self):
        calls = []
        big = np.ones((100, N_FEATURES), dtype=np.uint8)

        async def main():
            queue = BatchingQueue(
                _sum_fn(calls), max_batch=8, max_wait_us=1_000, max_queue=8
            )
            result = await queue.submit(big)  # shedding it could never succeed
            await queue.close()
            return result

        result = asyncio.run(main())
        assert calls == [100]
        assert result.shape == (100,)


class TestAdmissionControl:
    def test_shed_on_overflow_raises_typed_error(self):
        calls = []

        async def main():
            queue = BatchingQueue(
                _sum_fn(calls),
                max_batch=100,
                max_wait_us=200_000,
                max_queue=8,
            )
            ok1 = asyncio.ensure_future(
                queue.submit(np.ones((3, N_FEATURES), dtype=np.uint8))
            )
            ok2 = asyncio.ensure_future(
                queue.submit(np.ones((3, N_FEATURES), dtype=np.uint8))
            )
            await asyncio.sleep(0)  # let both enqueue (6 of 8 slots used)
            with pytest.raises(ServerOverloadedError):
                await queue.submit(np.ones((3, N_FEATURES), dtype=np.uint8))
            shed_after = queue.stats.shed
            await queue.flush()  # release the two admitted requests
            await asyncio.gather(ok1, ok2)
            await queue.close()
            return shed_after

        assert asyncio.run(main()) == 1
        assert calls == [6]  # the shed request never reached the engine

    def test_evaluating_batches_count_toward_the_admission_bound(self):
        """In-flight samples keep the bound real: a flush must not reset it.

        With max_batch <= max_queue the pre-flush backlog alone can never
        exceed the bound (every flush would zero it), so admission control
        has to count admitted-but-uncompleted samples or overload would
        pile up unboundedly behind the evaluation thread.
        """
        import threading

        release = threading.Event()

        def slow_fn(X):
            release.wait(timeout=10)
            return X.sum(axis=1).astype(np.int64)

        async def main():
            queue = BatchingQueue(
                slow_fn, max_batch=2, max_wait_us=200_000, max_queue=4
            )
            first = asyncio.ensure_future(
                queue.submit(np.ones((2, N_FEATURES), dtype=np.uint8))
            )
            second = asyncio.ensure_future(
                queue.submit(np.ones((2, N_FEATURES), dtype=np.uint8))
            )
            await asyncio.sleep(0)  # both flushed; 4 samples now evaluating
            assert queue.backlog_samples == 4
            with pytest.raises(ServerOverloadedError):
                await queue.submit(np.ones((1, N_FEATURES), dtype=np.uint8))
            release.set()
            await asyncio.gather(first, second)
            assert queue.backlog_samples == 0  # completions release the bound
            await queue.submit(np.ones((1, N_FEATURES), dtype=np.uint8))
            await queue.close()

        asyncio.run(main())

    def test_submit_after_close_raises(self):
        async def main():
            queue = BatchingQueue(_sum_fn([]), max_batch=4, max_queue=64)
            await queue.close()
            with pytest.raises(RuntimeError, match="closed"):
                await queue.submit(np.ones((1, N_FEATURES), dtype=np.uint8))

        asyncio.run(main())


class TestSharedAdmissionBudget:
    """The multi-model bound: one budget across several queues."""

    def test_budget_sheds_across_queues(self):
        """Two queues share 8 slots: whichever fills second gets shed."""
        calls_a, calls_b = [], []

        async def main():
            budget = AdmissionBudget(8)
            queue_a = BatchingQueue(
                _sum_fn(calls_a), max_batch=100, max_wait_us=200_000,
                max_queue=100, budget=budget,
            )
            queue_b = BatchingQueue(
                _sum_fn(calls_b), max_batch=100, max_wait_us=200_000,
                max_queue=100, budget=budget,
            )
            ok_a = asyncio.ensure_future(
                queue_a.submit(np.ones((6, N_FEATURES), dtype=np.uint8))
            )
            await asyncio.sleep(0)  # 6 of 8 shared slots held by queue A
            # queue B's own max_queue (100) would admit this; the shared
            # budget must shed it
            with pytest.raises(ServerOverloadedError, match="shared"):
                await queue_b.submit(np.ones((3, N_FEATURES), dtype=np.uint8))
            assert queue_b.stats.shed == 1
            await queue_a.flush()
            await ok_a
            assert budget.outstanding == 0  # completion released the budget
            # with the budget idle again, queue B serves normally
            await queue_b.submit(np.ones((3, N_FEATURES), dtype=np.uint8))
            await queue_a.close()
            await queue_b.close()

        asyncio.run(main())
        assert calls_a == [6]
        assert calls_b == [3]

    def test_budget_released_on_evaluation_failure(self):
        def broken(X):
            raise ValueError("boom")

        async def main():
            budget = AdmissionBudget(8)
            queue = BatchingQueue(
                broken, max_batch=4, max_wait_us=1_000, max_queue=64,
                budget=budget,
            )
            with pytest.raises(ValueError):
                await queue.submit(np.ones((2, N_FEATURES), dtype=np.uint8))
            assert budget.outstanding == 0
            await queue.close()

        asyncio.run(main())

    def test_oversized_request_admitted_when_budget_idle(self):
        calls = []

        async def main():
            budget = AdmissionBudget(4)
            queue = BatchingQueue(
                _sum_fn(calls), max_batch=8, max_wait_us=1_000,
                max_queue=100, budget=budget,
            )
            # larger than the whole shared budget, but nothing is in
            # flight anywhere: shedding could never succeed on retry
            result = await queue.submit(
                np.ones((10, N_FEATURES), dtype=np.uint8)
            )
            await queue.close()
            return result

        result = asyncio.run(main())
        assert calls == [10]
        assert result.shape == (10,)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            AdmissionBudget(0)


class TestMixedWidthRequests:
    def test_width_change_starts_a_fresh_batch(self):
        """Different feature widths never share a coalesced matrix."""
        calls = []

        def batch_fn(X):
            calls.append(X.shape)
            return X.sum(axis=1).astype(np.int64)

        async def main():
            queue = BatchingQueue(
                batch_fn, max_batch=64, max_wait_us=5_000, max_queue=1024
            )
            wide = np.ones((2, N_FEATURES), dtype=np.uint8)
            narrow = np.ones((3, 8), dtype=np.uint8)
            results = await asyncio.gather(
                queue.submit(wide), queue.submit(narrow), queue.submit(wide)
            )
            await queue.close()
            return results

        results = asyncio.run(main())
        # three batches: the width change flushes, it never wedges a batch
        assert sorted(shape[1] for shape in calls) == [8, N_FEATURES, N_FEATURES]
        np.testing.assert_array_equal(results[0], [N_FEATURES, N_FEATURES])
        np.testing.assert_array_equal(results[1], [8, 8, 8])
        np.testing.assert_array_equal(results[2], [N_FEATURES, N_FEATURES])


class TestFailurePropagation:
    def test_wrong_length_result_resolves_callers_and_releases_backlog(self):
        """A batch_fn returning the wrong row count must not hang futures."""

        def short_fn(X):
            return np.zeros(X.shape[0] - 1, dtype=np.int64)  # one row short

        async def main():
            queue = BatchingQueue(
                short_fn, max_batch=4, max_wait_us=1_000, max_queue=64
            )
            chunks = [np.ones((2, N_FEATURES), dtype=np.uint8) for _ in range(2)]
            results = await asyncio.gather(
                *(queue.submit(c) for c in chunks), return_exceptions=True
            )
            backlog = queue.backlog_samples
            await queue.close()
            return results, backlog

        results, backlog = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in results)
        assert backlog == 0  # the failed batch released its admission share

    def test_batch_fn_error_reaches_every_caller(self):
        def broken(X):
            raise ValueError("model exploded")

        async def main():
            queue = BatchingQueue(
                broken, max_batch=4, max_wait_us=1_000, max_queue=64
            )
            chunks = [np.ones((2, N_FEATURES), dtype=np.uint8) for _ in range(2)]
            results = await asyncio.gather(
                *(queue.submit(c) for c in chunks), return_exceptions=True
            )
            errors = queue.stats.errors
            await queue.close()
            return results, errors

        results, errors = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in results)
        assert errors == 2


class TestConstruction:
    def test_invalid_parameters(self):
        fn = _sum_fn([])
        with pytest.raises(ValueError):
            BatchingQueue(fn, max_batch=0)
        with pytest.raises(ValueError):
            BatchingQueue(fn, max_wait_us=-1.0)
        for non_finite in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                BatchingQueue(fn, max_wait_us=non_finite)
        with pytest.raises(ValueError):
            BatchingQueue(fn, max_queue=0)


class TestPackedSubmissions:
    """PR 6: the binary protocol's packed-domain path through the queue."""

    def test_packed_requests_coalesce_into_one_packed_fn_call(self):
        from repro.engine import pack_bits

        calls = []

        def packed_fn(words, n_samples):
            calls.append((words.shape, n_samples))
            # per-sample popcount of the coalesced words, as a stand-in
            from repro.engine import unpack_bits

            return unpack_bits(words, n_samples).sum(axis=1).astype(np.int64)

        async def main():
            queue = BatchingQueue(
                lambda X: X.sum(axis=1),
                max_batch=64,
                max_wait_us=10_000,
                max_queue=1024,
                packed_fn=packed_fn,
            )
            assert queue.packed_path
            chunks = [
                np.ones((1, N_FEATURES), dtype=np.uint8) for _ in range(64)
            ]
            results = await asyncio.gather(
                *(queue.submit_packed(pack_bits(c), 1) for c in chunks)
            )
            await queue.close()
            return results

        results = asyncio.run(main())
        # 64 one-sample packed requests coalesce into ONE packed evaluation
        # of one word per signal — the zero-copy win in miniature
        assert calls == [((N_FEATURES, 1), 64)]
        for r in results:
            np.testing.assert_array_equal(r, [N_FEATURES])

    def test_packed_without_packed_fn_falls_back_bit_exact(self):
        """No packed_fn: one unpack_bits then batch_fn — same numbers."""
        from repro.engine import pack_bits

        rng = as_rng(31)
        chunks = _random_chunks(rng, n_chunks=17)

        def batch_fn(X):
            return np.asarray(X, dtype=np.int64).sum(axis=1) * 3 - 1

        async def main():
            queue = BatchingQueue(
                batch_fn, max_batch=16, max_wait_us=2_000, max_queue=1024
            )
            assert not queue.packed_path
            results = await asyncio.gather(
                *(
                    queue.submit_packed(pack_bits(c), c.shape[0])
                    for c in chunks
                )
            )
            await queue.close()
            return results

        results = asyncio.run(main())
        for chunk, result in zip(chunks, results):
            np.testing.assert_array_equal(result, batch_fn(chunk))

    def test_padding_garbage_never_reaches_the_model(self):
        """Poisoned bits past n_samples must not change any answer."""
        from repro.engine import pack_bits, packed_weighted_sums

        rng = as_rng(32)
        weights = rng.integers(-3, 4, size=N_FEATURES).astype(np.int64)

        def packed_fn(words, n_samples):
            return packed_weighted_sums(words, weights, n_samples)

        chunks = _random_chunks(rng, n_chunks=9, max_rows=7)

        def poisoned(chunk):
            packed = pack_bits(chunk).copy()
            k = chunk.shape[0]
            tail = k - (packed.shape[1] - 1) * 64
            if tail < 64:
                packed[:, -1] |= ~np.uint64(0) << np.uint64(tail)
            return packed

        async def main():
            queue = BatchingQueue(
                lambda X: X @ weights,
                max_batch=16,
                max_wait_us=2_000,
                max_queue=1024,
                packed_fn=packed_fn,
            )
            results = await asyncio.gather(
                *(
                    queue.submit_packed(poisoned(c), c.shape[0])
                    for c in chunks
                )
            )
            await queue.close()
            return results

        results = asyncio.run(main())
        for chunk, result in zip(chunks, results):
            np.testing.assert_array_equal(
                result, chunk.astype(np.int64) @ weights
            )

    def test_rows_and_packed_share_a_batch(self):
        """Rows are packed at admission: one payload, one batch."""
        from repro.engine import pack_bits, unpack_bits

        batch_calls = []
        packed_calls = []

        def batch_fn(X):
            batch_calls.append(X.shape[0])
            return X.sum(axis=1)

        def packed_fn(words, n_samples):
            packed_calls.append(n_samples)
            return unpack_bits(words, n_samples).sum(axis=1)

        async def main():
            queue = BatchingQueue(
                batch_fn,
                max_batch=64,
                max_wait_us=50_000,
                max_queue=1024,
                packed_fn=packed_fn,
            )
            rows = np.ones((2, N_FEATURES), dtype=np.uint8)
            a = asyncio.ensure_future(queue.submit(rows))
            await asyncio.sleep(0)  # rows now pending
            b = asyncio.ensure_future(
                queue.submit_packed(pack_bits(rows), 2)
            )
            await asyncio.sleep(0)  # packed joined the pending batch
            c = asyncio.ensure_future(queue.submit(rows))
            results = await asyncio.gather(a, b, c)
            await queue.close()
            return results

        results = asyncio.run(main())
        assert packed_calls == [6]  # rows, packed, rows: one batch
        assert batch_calls == []
        for r in results:
            np.testing.assert_array_equal(r, [N_FEATURES, N_FEATURES])

    def test_without_packed_fn_batch_fn_sees_the_submitted_rows(self):
        """One unpack per batch: uint8, C-contiguous, equal to what came in."""
        from repro.engine import pack_bits

        rng = np.random.default_rng(3)
        chunks = [
            rng.integers(0, 2, size=(k, N_FEATURES)) for k in (3, 1, 70, 2)
        ]
        seen = []

        def batch_fn(X):
            seen.append(X)
            return X.astype(np.int64).sum(axis=1)

        async def main():
            queue = BatchingQueue(
                batch_fn, max_batch=4096, max_wait_us=50_000, max_queue=4096
            )
            futures = [
                asyncio.ensure_future(
                    queue.submit(chunk.astype(bool))
                    if index % 2
                    else queue.submit_packed(pack_bits(chunk), len(chunk))
                )
                for index, chunk in enumerate(chunks)
            ]
            results = await asyncio.gather(*futures)
            await queue.close()
            return results

        results = asyncio.run(main())
        assert len(seen) == 1
        X = seen[0]
        assert X.dtype == np.uint8 and X.flags.c_contiguous
        np.testing.assert_array_equal(X, np.concatenate(chunks))
        for chunk, result in zip(chunks, results):
            np.testing.assert_array_equal(result, chunk.sum(axis=1))

    def test_packed_validation_is_typed(self):
        from repro.engine import pack_bits

        async def main():
            queue = BatchingQueue(
                lambda X: X.sum(axis=1),
                max_batch=8,
                max_wait_us=500,
                max_queue=64,
            )
            good = pack_bits(np.ones((3, N_FEATURES), dtype=np.uint8))
            with pytest.raises(BadRequestError, match="2-D"):
                await queue.submit_packed(good[0], 3)
            with pytest.raises(BadRequestError, match="uint64"):
                await queue.submit_packed(
                    good.astype(np.float64), 3
                )
            with pytest.raises(BadRequestError, match="at least one"):
                await queue.submit_packed(good, 0)
            with pytest.raises(BadRequestError, match="words per"):
                await queue.submit_packed(good, 65)  # 65 samples need 2 words
            await queue.close()

        asyncio.run(main())

    def test_packed_requests_count_against_admission(self):
        from repro.engine import pack_bits

        async def main():
            queue = BatchingQueue(
                lambda X: X.sum(axis=1),
                max_batch=64,
                max_wait_us=50_000,
                max_queue=4,
            )
            rows = np.ones((3, N_FEATURES), dtype=np.uint8)
            first = asyncio.ensure_future(
                queue.submit_packed(pack_bits(rows), 3)
            )
            await asyncio.sleep(0)
            with pytest.raises(ServerOverloadedError):
                await queue.submit_packed(pack_bits(rows), 3)
            result = await first
            await queue.close()
            return result

        result = asyncio.run(main())
        np.testing.assert_array_equal(result, [N_FEATURES] * 3)


def _popcount_packed(calls):
    """A ``packed_fn`` that records the thread of every batch it evaluates."""

    def packed_fn(words, n_samples):
        calls.append(threading.get_ident())
        return unpack_bits(words, n_samples).sum(axis=1).astype(np.int64)

    return packed_fn


def _recording_sink(answers):
    """A reply sink that records each call's tags, result and error."""

    def complete(entries, result, error):
        answers.append(([entry.tag for entry in entries], result, error))

    return complete


class TestWhereEvaluationRuns:
    """With ``on_loop`` a batch evaluates on the event loop; without it, on
    the queue's own executor thread, whichever function serves it."""

    def test_on_loop_runs_on_the_loop_thread_and_starts_no_thread(self):
        calls = []
        before = set(threading.enumerate())

        async def main():
            queue = BatchingQueue(
                lambda X: X.sum(axis=1), max_batch=4, max_wait_us=1_000,
                max_queue=64, packed_fn=_popcount_packed(calls), on_loop=True,
            )
            rows = np.ones((1, N_FEATURES), dtype=np.uint8)
            results = await asyncio.gather(
                *(queue.submit(rows) for _ in range(6))
            )
            started = set(threading.enumerate()) - before
            await queue.close()
            return threading.get_ident(), started, results

        loop_thread, started, results = asyncio.run(main())
        # one size-triggered batch of 4, one timer-triggered batch of 2
        assert calls == [loop_thread, loop_thread]
        assert not [t for t in started if t.name.startswith("repro-serving")]
        for result in results:
            np.testing.assert_array_equal(result, [N_FEATURES])

    @pytest.mark.parametrize("path", ["batch_fn", "packed_fn"])
    def test_without_on_loop_both_paths_run_off_the_loop_thread(self, path):
        seen = []

        def batch_fn(X):
            seen.append(threading.current_thread())
            return X.sum(axis=1).astype(np.int64)

        def packed_fn(words, n_samples):
            return batch_fn(unpack_bits(words, n_samples))

        async def main():
            queue = BatchingQueue(
                batch_fn, max_batch=4, max_wait_us=1_000, max_queue=64,
                packed_fn=packed_fn if path == "packed_fn" else None,
            )
            rows = np.ones((2, N_FEATURES), dtype=np.uint8)
            await asyncio.gather(*(queue.submit(rows) for _ in range(3)))
            await queue.close()
            return threading.current_thread()

        loop_thread = asyncio.run(main())
        assert len(seen) == 2
        assert all(thread is not loop_thread for thread in seen)
        assert all(thread.name.startswith("repro-serving") for thread in seen)

    def test_size_flush_answers_only_after_admit_packed_returns(self):
        """A connection counts the answer it owes after its admission
        returns, so the batch that admission fills must not be answered
        (or even evaluated) inside it."""
        calls, answers = [], []
        sink = _recording_sink(answers)

        async def main():
            queue = BatchingQueue(
                lambda X: X.sum(axis=1), max_batch=2, max_wait_us=50_000,
                max_queue=64, packed_fn=_popcount_packed(calls), on_loop=True,
            )
            words = pack_bits(np.ones((1, N_FEATURES), dtype=np.uint8))
            queue.admit_packed(words, 1, sink, "a")
            queue.admit_packed(words, 1, sink, "b")  # fills the batch
            inside = (list(calls), list(answers), queue.backlog_samples)
            await asyncio.sleep(0)  # one loop pass: the scheduled batch runs
            after = (len(calls), queue.backlog_samples)
            await queue.close()
            return inside, after

        (evaluated, answered, backlog), after = asyncio.run(main())
        assert evaluated == [] and answered == [] and backlog == 2
        assert after == (1, 0)
        [(tags, result, error)] = answers
        assert tags == ["a", "b"] and error is None
        np.testing.assert_array_equal(result, [N_FEATURES, N_FEATURES])

    @pytest.mark.parametrize("finish", ["flush", "close"])
    def test_flush_and_close_finish_a_scheduled_batch(self, finish):
        calls, answers = [], []

        async def main():
            queue = BatchingQueue(
                lambda X: X.sum(axis=1), max_batch=2, max_wait_us=50_000,
                max_queue=64, packed_fn=_popcount_packed(calls), on_loop=True,
            )
            words = pack_bits(np.ones((2, N_FEATURES), dtype=np.uint8))
            queue.admit_packed(words, 2, _recording_sink(answers), "a")
            assert answers == []  # scheduled, not yet run
            await getattr(queue, finish)()
            finished = (list(answers), queue.backlog_samples)
            await asyncio.sleep(0)  # the batch's own callback: nothing left
            return finished

        (answered, backlog) = asyncio.run(main())
        assert backlog == 0
        assert [tags for tags, _, _ in answered] == [["a"]]
        assert len(calls) == 1  # evaluated once, by the finishing call

    @pytest.mark.parametrize("on_loop", [True, False])
    def test_packed_fn_failure_answers_everyone_and_releases(self, on_loop):
        answers = []

        def broken(words, n_samples):
            raise ValueError("engine exploded")

        async def main():
            budget = AdmissionBudget(64, weights={"m": 1.0, "other": 1.0})
            queue = BatchingQueue(
                lambda X: X.sum(axis=1), max_batch=8, max_wait_us=1_000,
                max_queue=64, budget=budget, budget_key="m", packed_fn=broken,
                on_loop=on_loop,
            )
            words = pack_bits(np.ones((2, N_FEATURES), dtype=np.uint8))
            queue.admit_packed(words, 2, _recording_sink(answers), "sink")
            awaited = await asyncio.gather(
                *(queue.submit_packed(words, 2) for _ in range(3)),
                return_exceptions=True,
            )
            released = (
                queue.backlog_samples,
                budget.outstanding,
                budget.outstanding_for("m"),
                queue.stats.errors,
            )
            await queue.close()
            return awaited, released

        awaited, released = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in awaited)
        [(tags, result, error)] = answers
        assert tags == ["sink"] and result is None
        assert isinstance(error, ValueError)
        assert released == (0, 0, 0, 4)


def _sizes_packed(sizes):
    """A ``packed_fn`` that records the sample count of every batch."""

    def packed_fn(words, n_samples):
        sizes.append(n_samples)
        return unpack_bits(words, n_samples).sum(axis=1).astype(np.int64)

    return packed_fn


class TestFlushPolicy:
    """An ``on_loop`` queue flushes a partial batch at the end of the next
    loop pass, whatever its ``max_wait_us``.  A queue that evaluates on its
    executor thread waits the budget out instead; that path is
    ``TestCoalescing.test_timeout_flushes_partial_batch``."""

    def test_on_loop_lone_request_does_not_wait_out_max_wait_us(self):
        sizes = []

        async def main():
            queue = BatchingQueue(
                lambda X: X.sum(axis=1), max_batch=64, max_wait_us=10**9,
                max_queue=1024, packed_fn=_sizes_packed(sizes), on_loop=True,
            )
            rows = np.ones((1, N_FEATURES), dtype=np.uint8)
            try:
                return await asyncio.wait_for(queue.submit(rows), 30)
            finally:
                await queue.close()

        result = asyncio.run(main())
        assert sizes == [1]
        np.testing.assert_array_equal(result, [N_FEATURES])

    def test_a_reader_that_yielded_admits_its_next_chunk_first(self):
        """A connection reader yields one loop pass after a full chunk, then
        reads the next without waiting: the loop runs the partial-batch
        flush after that resumption, so both chunks share one batch."""
        sizes, answers = [], []

        async def main():
            queue = BatchingQueue(
                lambda X: X.sum(axis=1), max_batch=64, max_wait_us=10**9,
                max_queue=1024, packed_fn=_sizes_packed(sizes), on_loop=True,
            )
            words = pack_bits(np.ones((1, N_FEATURES), dtype=np.uint8))
            sink = _recording_sink(answers)
            for tag in range(40):
                queue.admit_packed(words, 1, sink, tag)
            await asyncio.sleep(0)  # the reader's yield after a full chunk
            for tag in range(40, 64):
                queue.admit_packed(words, 1, sink, tag)
            await queue.close()

        asyncio.run(main())
        assert sizes == [64]
        [(tags, result, error)] = answers
        assert tags == list(range(64)) and error is None
        np.testing.assert_array_equal(result, [N_FEATURES] * 64)


class TestWeightedBudget:
    """Weighted-fair partitioning of the shared budget (rebalancer's knob)."""

    def test_shares_follow_the_weights(self):
        budget = AdmissionBudget(100, weights={"a": 3.0, "b": 1.0})
        assert budget.share_of("a") == 75
        assert budget.share_of("b") == 25
        # key-less reservations and unweighted keys see the whole budget
        assert budget.share_of(None) == 100
        assert budget.share_of("c") == 100
        assert budget.weights == {"a": 3.0, "b": 1.0}

    def test_share_never_rounds_to_zero(self):
        budget = AdmissionBudget(10, weights={"a": 1.0, "b": 1_000_000.0})
        assert budget.share_of("a") == 1

    def test_keyed_reservation_bounded_by_share(self):
        budget = AdmissionBudget(100, weights={"a": 1.0, "b": 1.0})
        assert budget.try_reserve(40, "a")
        # 10 more would put "a" at 50... exactly its share: fine
        assert budget.try_reserve(10, "a")
        # one past the share sheds, even though the box holds 50/100
        assert not budget.try_reserve(1, "a")
        assert budget.outstanding_for("a") == 50
        # "b" and unkeyed traffic are unaffected by "a" being at its share
        assert budget.try_reserve(50, "b")
        assert not budget.try_reserve(1, None)  # total bound still applies
        assert budget.outstanding == 100

    def test_per_key_idle_oversized_exception(self):
        budget = AdmissionBudget(100, weights={"a": 1.0, "b": 1.0})
        # a request bigger than "a"'s 50-sample share is admitted while
        # "a" holds nothing (shedding could never succeed on retry)...
        assert budget.try_reserve(80, "a")
        # ...but once it holds anything, the share is enforced again
        assert not budget.try_reserve(1, "a")
        budget.release(80, "a")
        assert budget.outstanding == 0
        assert budget.outstanding_for("a") == 0

    def test_release_unwinds_keyed_accounting(self):
        budget = AdmissionBudget(100, weights={"a": 1.0, "b": 1.0})
        assert budget.try_reserve(30, "a")
        budget.release(30, "a")
        assert budget.try_reserve(50, "a")  # full share available again
        assert budget.outstanding == 50

    def test_set_weights_live_reweighting(self):
        budget = AdmissionBudget(100, weights={"a": 1.0, "b": 1.0})
        assert budget.try_reserve(50, "a")
        assert not budget.try_reserve(1, "a")
        # the rebalancer shifts capacity toward "a" at runtime
        budget.set_weights({"a": 3.0, "b": 1.0})
        assert budget.try_reserve(25, "a")  # new share is 75
        # and away again: over-share holdings are not clawed back, the key
        # simply sheds until it drains below the new share
        budget.set_weights({"a": 1.0, "b": 3.0})
        assert not budget.try_reserve(1, "a")
        budget.release(55, "a")
        assert budget.try_reserve(5, "a")  # 20 + 5 <= 25

    def test_empty_weights_remove_all_shares(self):
        budget = AdmissionBudget(100, weights={"a": 1.0})
        budget.set_weights({})
        assert budget.share_of("a") == 100
        assert budget.weights == {}

    def test_weight_validation(self):
        budget = AdmissionBudget(100)
        with pytest.raises(ValueError, match="non-negative"):
            budget.set_weights({"a": -1.0})
        with pytest.raises(ValueError, match="non-negative"):
            budget.set_weights({"a": float("nan")})
        with pytest.raises(ValueError, match="strings"):
            budget.set_weights({3: 1.0})

    @pytest.mark.parametrize(
        "weights, match",
        [
            ({"a": float("inf"), "b": 1.0}, "finite non-negative"),
            ({"a": 1.0, "b": float("-inf")}, "finite non-negative"),
            ({"a": 1e308, "b": 1e308}, "finite sum"),
            ({"a": 1.0, "b": None}, "finite non-negative"),
            ({"a": 1.0, "b": 10**400}, "finite non-negative"),
            ({"a": 2.0, 3: 1.0}, "strings"),
        ],
    )
    def test_rejected_weights_change_nothing(self, weights, match):
        budget = AdmissionBudget(100, weights={"a": 3.0, "b": 1.0})
        before = budget.weights
        shares = {key: budget.share_of(key) for key in ("a", "b", "c")}
        with pytest.raises(ValueError, match=match):
            budget.set_weights(weights)
        assert budget.weights == before
        assert {key: budget.share_of(key) for key in ("a", "b", "c")} == shares

    def test_huge_finite_weight_gets_the_whole_share(self):
        budget = AdmissionBudget(100)
        budget.set_weights({"a": 1e308, "b": 0.0})
        assert budget.share_of("a") == 100
        assert budget.share_of("b") == 1

    def test_queue_sheds_at_its_share_while_box_is_idle(self):
        """The hard direction: reserved headroom stays reserved."""
        calls = []

        async def main():
            budget = AdmissionBudget(
                8, weights={"latency": 1.0, "batch": 1.0}
            )
            queue = BatchingQueue(
                _sum_fn(calls), max_batch=100, max_wait_us=200_000,
                max_queue=100, budget=budget, budget_key="batch",
            )
            holding = asyncio.ensure_future(
                queue.submit(np.ones((4, N_FEATURES), dtype=np.uint8))
            )
            await asyncio.sleep(0)  # "batch" holds its whole 4-sample share
            # nothing else is in flight anywhere, yet the share sheds:
            # that idle headroom is what "latency" paid for
            with pytest.raises(ServerOverloadedError, match="admission share"):
                await queue.submit(np.ones((1, N_FEATURES), dtype=np.uint8))
            await queue.flush()
            await holding
            assert budget.outstanding == 0
            await queue.close()

        asyncio.run(main())
        assert calls == [4]


class TestBudgetLeakOnCancel:
    def test_cancelled_queued_request_releases_its_reservation(self):
        """Regression: a request cancelled while queued (its connection
        dropped) must give back its budget reservation and leave the
        pending batch — previously the reservation leaked until restart."""
        calls = []

        async def main():
            budget = AdmissionBudget(64, weights={"m": 1.0, "other": 1.0})
            queue = BatchingQueue(
                _sum_fn(calls), max_batch=100, max_wait_us=50_000,
                max_queue=100, budget=budget, budget_key="m",
            )
            task = asyncio.ensure_future(
                queue.submit(np.ones((4, N_FEATURES), dtype=np.uint8))
            )
            await asyncio.sleep(0)  # reaches the queue, holds 4 samples
            assert budget.outstanding == 4
            assert budget.outstanding_for("m") == 4
            assert queue.backlog_samples == 4
            task.cancel()
            await asyncio.sleep(0)
            await asyncio.sleep(0)  # done-callback runs via call_soon
            assert budget.outstanding == 0
            assert budget.outstanding_for("m") == 0
            assert queue.backlog_samples == 0
            # the discarded entry must not reach the batch function either
            await queue.flush()
            await queue.close()

        asyncio.run(main())
        assert calls == []

    def test_cancel_after_flush_does_not_double_release(self):
        """A request cancelled *after* its batch flushed is the batch's to
        release — the done-callback must not release a second time."""
        import threading

        release = threading.Event()

        def slow_fn(X):
            release.wait(timeout=5)
            return X.sum(axis=1).astype(np.int64)

        async def main():
            budget = AdmissionBudget(64)
            queue = BatchingQueue(
                slow_fn, max_batch=4, max_wait_us=100, max_queue=100,
                budget=budget,
            )
            task = asyncio.ensure_future(
                queue.submit(np.ones((4, N_FEATURES), dtype=np.uint8))
            )
            await asyncio.sleep(0.05)  # batch flushed, evaluating in executor
            assert queue.queued_samples == 0  # no longer pending, in flight
            task.cancel()
            release.set()
            with pytest.raises(asyncio.CancelledError):
                await task
            await queue.flush()
            await queue.close()
            # exactly one release: 64 - 4 + 4, not 64 + 4
            assert budget.outstanding == 0
            assert budget.try_reserve(64)

        asyncio.run(main())
