"""One payload in the queue: a predict is packed words from admission on.

A JSON predict's rows are validated and packed once, when the server admits
them (``JsonPredictRequest.packed``), so both wires share one queue payload:
JSON and binary requests ride in the same batches and evaluate through the
same ``packed_fn``.  This file drives that on a real server — mixed-wire
pipelining against a compiled bank model, the shadow mirror of a JSON
predict — and pins what must not move: which error a malformed JSON
``features`` earns, in which order, with which text, and a property over
arbitrary JSON values (admitted as exactly ``pack_bits`` of the matrix, or
the typed ``bad_request``, nothing else).
"""

import asyncio
import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import pack_bits
from repro.serving import (
    BackgroundServer,
    BadRequestError,
    InferenceServer,
    ServingClient,
)
from repro.serving.transport import (
    JsonPredictRequest,
    decode_reply,
    encode_message,
    encode_predict_request,
    read_message,
    read_reply_frame,
    write_message,
)

_ALL_ONES = (1 << 64) - 1


def _fresh(clf):
    clf = copy.copy(clf)
    clf._compiled_ = {}  # this test's own engine cache
    return clf


def _engine_backend(backend, tmp_path, monkeypatch):
    if backend == "native":
        from repro.engine.native import toolchain_available

        if not toolchain_available():
            pytest.skip("no C compiler on this host")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    return backend


def _count_calls(queue, name):
    """Wrap the queue's ``name`` function, recording each call's args."""
    calls = []
    inner = getattr(queue, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    setattr(queue, name, counted)
    return calls


def _poisoned_words(rows):
    """``pack_bits(rows)`` with every padding bit of the last word set."""
    words = pack_bits(rows)
    tail = rows.shape[0] % 64
    if tail:
        words[:, -1] |= np.uint64(_ALL_ONES ^ ((1 << tail) - 1))
    return words


async def _pipeline(address, requests):
    """Write every request on one socket, then read the replies back by id:
    ``requests`` is ``[(id, rows, binary, return_scores)]``."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        for request_id, rows, binary, return_scores in requests:
            if binary:
                writer.write(
                    encode_predict_request(
                        _poisoned_words(rows),
                        rows.shape[0],
                        model="bank",
                        return_scores=return_scores,
                        request_id=request_id,
                    )
                )
            else:
                writer.write(
                    encode_message(
                        {
                            "op": "predict",
                            "id": request_id,
                            "model": "bank",
                            "features": rows.tolist(),
                            "return_scores": return_scores,
                        }
                    )
                )
        await writer.drain()
        replies = {}
        for _ in requests:
            frame = await read_reply_frame(reader)
            if isinstance(frame, dict):
                assert frame["ok"], frame
                replies[frame["id"]] = (
                    np.asarray(frame["labels"]),
                    None if "scores" not in frame else np.asarray(frame["scores"]),
                )
            else:
                reply = decode_reply(frame.frame)
                replies[reply.request_id] = (reply.labels, reply.scores)
        return replies
    finally:
        writer.close()
        await writer.wait_closed()


class TestMixedWireCoTravel:
    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_json_and_binary_share_batches_and_the_packed_fn(
        self, backend, trained_poetbin, tmp_path, monkeypatch
    ):
        backend = _engine_backend(backend, tmp_path, monkeypatch)
        clf, X, _targets, _y = trained_poetbin
        clf = _fresh(clf)
        srv = InferenceServer(max_batch=64, max_wait_us=20_000, max_queue=4096)
        entry = srv.register_model("bank", model=clf, backend=backend)
        assert entry.queue.packed_path
        packed_calls = _count_calls(entry.queue, "_packed_fn")
        batch_calls = _count_calls(entry.queue, "_batch_fn")
        wires = []
        run_batch = entry.queue._run_batch

        def recorded_run_batch(entries, n_samples):
            wires.append({type(e.tag[2]).__name__ for e in entries})
            return run_batch(entries, n_samples)

        entry.queue._run_batch = recorded_run_batch

        rng = np.random.default_rng(7)
        requests, lo = [], 0
        for request_id in range(48):
            k = int(rng.integers(1, 6))
            rows = X[lo:lo + k]
            lo = (lo + k) % (len(X) - 8)
            requests.append(
                (request_id, rows, bool(request_id % 2), request_id % 3 == 0)
            )
        with BackgroundServer(srv) as handle:
            replies = asyncio.run(_pipeline(handle.address, requests))
            with ServingClient(*handle.address) as client:
                stats = client.stats(model="bank")

        assert sorted(replies) == [r[0] for r in requests]
        for request_id, rows, _binary, return_scores in requests:
            labels, scores = replies[request_id]
            np.testing.assert_array_equal(labels, clf.predict_batch(rows))
            if return_scores:
                np.testing.assert_allclose(
                    scores, clf.decision_scores_batch(rows)
                )
        assert stats["requests_completed"] == len(requests)
        assert stats["batches"] < len(requests)
        assert stats["batches"] == len(packed_calls)
        assert batch_calls == []
        assert {"JsonPredictRequest", "BinaryRequest"} in wires

    def test_json_predict_mirrored_to_a_shadow_candidate(
        self, trained_poetbin
    ):
        clf, X, _targets, _y = trained_poetbin
        srv = InferenceServer(max_batch=64, max_wait_us=1_000, max_queue=4096)
        srv.register_model("bank", model=_fresh(clf), version=1)
        with BackgroundServer(srv) as handle:

            async def register_candidate():
                return srv.register_model("bank", model=_fresh(clf), version=2)

            candidate = handle.run(register_candidate())
            packed_calls = _count_calls(candidate.queue, "_packed_fn")
            batch_calls = _count_calls(candidate.queue, "_batch_fn")
            with ServingClient(*handle.address) as client:
                client.set_shadow("bank", 2)
                labels = client.predict(X[:5], model="bank")

                async def quiesce():
                    await srv.registry.wait_idle()

                handle.run(quiesce())
                report = client.shadow_report("bank")
        np.testing.assert_array_equal(labels, clf.predict_batch(X[:5]))
        assert report["shadow_requests"] == 1
        assert report["shadow_divergences"] == 0
        assert [args[1] for args in packed_calls] == [5]
        assert batch_calls == []


# ----------------------------------------------- JSON error precedence, texts
def _labels_fn(X):
    return np.asarray(X, dtype=np.int64).sum(axis=1) % 3


async def _ask(address, payload):
    reader, writer = await asyncio.open_connection(*address)
    try:
        await write_message(writer, payload)
        return await read_message(reader)
    finally:
        writer.close()
        await writer.wait_closed()


def _json_error(payload, *, drain=False):
    async def drive():
        srv = InferenceServer(max_batch=8, max_wait_us=500, max_queue=64)
        srv.register_model("m", _labels_fn)
        address = await srv.start()
        try:
            if drain:
                await srv.drain()
            return await _ask(address, payload)
        finally:
            await srv.stop()

    response = asyncio.run(drive())
    assert response["ok"] is False, response
    return response["error"]["type"], response["error"]["message"]


_HALF = [[0.5, 1, 0, 1]]


class TestJsonErrorPrecedence:
    """A malformed matrix is read at admission, after everything the
    server checks first — the texts are the ones the rows path gave."""

    def test_unknown_model_comes_first(self):
        kind, message = _json_error(
            {"op": "predict", "model": "nope", "features": _HALF}
        )
        assert kind == "model_not_found"
        assert "nope" in message

    def test_draining_comes_first(self):
        kind, message = _json_error(
            {"op": "predict", "features": _HALF}, drain=True
        )
        assert kind == "unavailable"
        assert "draining" in message

    def test_scores_on_a_labels_model_comes_first(self):
        kind, message = _json_error(
            {"op": "predict", "features": _HALF, "return_scores": True}
        )
        assert kind == "bad_request"
        assert message == "model 'm' has no scores path"

    @pytest.mark.parametrize(
        "features, message",
        [
            (_HALF, "rows must contain only 0/1 values"),
            ([1, 0, 1, 0], "rows must be 2-D, got shape (4,)"),
            ([[[1, 0, 1, 0]]], "rows must be 2-D, got shape (1, 1, 4)"),
            ([[1, 0], [1]], "features must be a rectangular 0/1 matrix"),
            ([], "rows must be 2-D, got shape (0,)"),
            (None, "rows must be 2-D, got shape ()"),
            ([["1", "0"]], "rows must contain only 0/1 values"),
        ],
        ids=["half", "1-d", "3-d", "ragged", "empty", "null", "strings"],
    )
    def test_malformed_features_texts(self, features, message):
        assert _json_error({"op": "predict", "features": features}) == (
            "bad_request",
            message,
        )


# --------------------------------------------- any JSON value: packed or typed
_SCALARS = st.one_of(
    st.sampled_from([0, 1, True, False, 0.0, 1.0]),
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
)
_BITS = st.sampled_from([0, 1, True, False, 0.0, 1.0])
_MATRICES = st.integers(0, 4).flatmap(
    lambda width: st.lists(
        st.lists(_BITS, min_size=width, max_size=width), max_size=70
    )
)


def _nested(depth_and_value):
    depth, value = depth_and_value
    for _ in range(depth):
        value = [value]
    return value


_FEATURES = st.one_of(
    _MATRICES,
    st.recursive(
        _SCALARS,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=2), children, max_size=2),
        ),
        max_leaves=24,
    ),
    st.tuples(st.integers(0, 70), _SCALARS | _MATRICES).map(_nested),
)


@settings(max_examples=400, deadline=None)
@given(_FEATURES)
def test_any_json_features_are_packed_exactly_or_a_bad_request(value):
    value = json.loads(json.dumps(value))  # what a JSON body can carry
    try:
        request = JsonPredictRequest.decode({"op": "predict", "features": value})
        packed = request.packed
    except BadRequestError:
        return
    expected = pack_bits(np.asarray(value).astype(np.uint8))
    assert packed.dtype == np.uint64
    np.testing.assert_array_equal(packed, expected)
    assert request.n_samples == len(value) >= 1
