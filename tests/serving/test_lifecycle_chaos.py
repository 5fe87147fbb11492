"""Seeded lifecycle fuzzer: random register/promote/shadow/retire under load.

A live :class:`BackgroundServer` takes a randomized-but-reproducible
interleaving of lifecycle mutations (register a version, promote, shadow,
canary, unregister, predict traffic) and must keep three invariants at
every checkpoint:

* **serving pointer valid** — the family always resolves to a live record
  in the ``serving`` state whose version matches the exported gauge;
* **retire accounting exact** — after quiescing, the set of versions whose
  ``on_retire`` hook has *not* fired is exactly the set of live versions
  (the WorkerPool-detach contract: a retired version never leaves a
  worker-side attachment behind, a live one is never detached early);
* **stats monotonic and budget drained** — completed-request counters
  never step backwards and the shared admission budget returns to zero.

Defaults are sized for CI (``make check``); crank ``REPRO_SOAK_OPS`` (and
optionally ``REPRO_SOAK_SEED``) for a real soak::

    REPRO_SOAK_OPS=2000 python -m pytest -s tests/serving/test_lifecycle_chaos.py

The run prints its size, seed and the shadow divergences it recorded
(``-s`` shows the line on a pass; a failure shows it with the traceback).
"""

import os
import random

import numpy as np
import pytest

from repro.serving import (
    BackgroundServer,
    InferenceServer,
    ModelNotFoundError,
    ServingClient,
)
from repro.serving.queue import ServingError
from repro.serving.registry import SERVING

N_FEATURES = 16
N_CLASSES = 4
SOAK_OPS = int(os.environ.get("REPRO_SOAK_OPS", "40"))
SOAK_SEED = int(os.environ.get("REPRO_SOAK_SEED", "20260808"))
MAX_LIVE_VERSIONS = 5
CHECK_EVERY = 10  # full quiesce + deep invariant sweep cadence


def flavor_fn(flavor: int):
    """One of a handful of deterministic model behaviours; versions that
    share a flavor are bit-identical (clean candidates), versions that
    don't diverge on every row."""

    def batch_fn(X):
        return (np.asarray(X, dtype=np.int64).sum(axis=1) + flavor) % N_CLASSES

    return batch_fn


class Fuzzer:
    def __init__(self, handle, client, rng, attached):
        self.handle = handle
        self.client = client
        self.rng = rng
        self.registry = handle.server.registry
        self.next_version = 2
        #: versions whose on_retire hook has not fired yet — must converge
        #: to exactly the live version set at every quiesce point
        self.attached = attached
        self.flavors = {1: 1}
        self.last_completed = 0
        self.X = np.asarray(
            [[(i >> b) & 1 for b in range(N_FEATURES)] for i in range(32)],
            dtype=np.uint8,
        )

    def on_loop(self, fn):
        """Run a plain callable on the server loop — registry state is
        loop-confined, and background tasks (canary watchers, drains)
        mutate it at any moment; reading it from the test thread would
        race a half-applied flip."""

        async def _do():
            return fn()

        return self.handle.run(_do())

    # ------------------------------------------------------------------ ops
    def live_versions(self):
        return self.on_loop(
            lambda: [
                v["version"]
                for v in self.registry.describe_family("m")["versions"]
                if v["state"] in ("serving", "standby")
            ]
        )

    def live_flavors(self):
        return self.on_loop(
            lambda: {
                self.flavors[v["version"]]
                for v in self.registry.describe_family("m")["versions"]
                if v["state"] in ("serving", "standby")
                and v["version"] in self.flavors
            }
        )

    def standby_versions(self):
        def read():
            serving = self.registry.serving_versions()["m"]
            return [
                v["version"]
                for v in self.registry.describe_family("m")["versions"]
                if v["state"] == "standby" and v["version"] != serving
            ]

        return self.on_loop(read)

    def op_register(self):
        if len(self.live_versions()) >= MAX_LIVE_VERSIONS:
            return self.op_promote()
        version = self.next_version
        self.next_version += 1
        flavor = self.rng.choice([1, 2, 3])
        self.flavors[version] = flavor

        async def _do():
            return self.handle.server.register_model(
                "m",
                flavor_fn(flavor),
                version=version,
                on_retire=lambda v=version: self.attached.discard(v),
            )

        self.handle.run(_do())
        self.attached.add(version)

    def op_promote(self):
        standby = self.standby_versions()
        if not standby:
            return self.op_register()
        self.client.promote("m", self.rng.choice(standby))

    def op_set_shadow(self):
        standby = self.standby_versions()
        if not standby:
            return self.op_register()
        self.client.set_shadow(
            "m",
            self.rng.choice(standby),
            fraction=self.rng.choice([0.5, 1.0]),
        )

    def op_clear_shadow(self):
        self.client.clear_shadow("m")

    def op_canary(self):
        standby = self.standby_versions()
        if not standby:
            return self.op_register()
        self.client.promote_canary(
            "m",
            self.rng.choice(standby),
            min_requests=self.rng.choice([1, 2, 3]),
        )

    def op_unregister_version(self):
        standby = self.standby_versions()
        if not standby:
            return self.op_register()

        async def _do():
            return self.registry.unregister_version(
                "m", self.rng.choice(standby)
            )

        self.handle.run(_do())

    def op_predict(self):
        n = self.rng.randrange(1, 9)
        rows = self.X[self.rng.randrange(0, len(self.X) - n) :][:n]
        pre = self.live_flavors()  # flavors live when the request departs
        labels = self.client.predict(rows, model="m")
        # the reply must be bit-exact against a flavor that was live at
        # some point during the request — a torn reply matches none.  (A
        # background canary can retire the answering version mid-flight,
        # hence pre ∪ post rather than post alone.)
        candidates = pre | self.live_flavors()
        assert any(
            np.array_equal(labels, flavor_fn(f)(rows)) for f in candidates
        ), f"reply matches no live version flavor (live {candidates})"

    OPS = (
        (op_predict, 6),
        (op_register, 3),
        (op_promote, 2),
        (op_set_shadow, 2),
        (op_canary, 1),
        (op_clear_shadow, 1),
        (op_unregister_version, 1),
    )

    # ------------------------------------------------------------ invariants
    def check_fast(self):
        """Cheap invariants after every op (no quiesce)."""

        def read():
            entry = self.registry.resolve("m")
            return (
                entry.state,
                entry.version,
                self.registry.serving_versions()["m"],
                entry.stats.snapshot()["requests_completed"],
            )

        state, version, serving, completed = self.on_loop(read)
        assert state == SERVING
        assert version == serving
        assert completed >= self.last_completed, "stats went backwards"
        self.last_completed = completed

    def check_deep(self):
        """Full sweep at a quiesce point: drains settled, accounting exact."""

        async def _quiesce():
            await self.registry.wait_idle()

        self.handle.run(_quiesce())
        self.check_fast()
        live = set(self.live_versions())
        assert self.attached == live, (
            f"retire-hook accounting drifted: hooks live for "
            f"{sorted(self.attached)}, registry live {sorted(live)}"
        )
        assert self.registry.budget.outstanding == 0

    def run(self, n_ops):
        ops = [op for op, weight in self.OPS for _ in range(weight)]
        for i in range(n_ops):
            op = self.rng.choice(ops)
            try:
                op(self)
            except (ServingError, ModelNotFoundError, ValueError):
                # typed rejections (promoting a just-retired version, bad
                # shadow target...) are legal fuzz outcomes, not failures
                pass
            self.check_fast()
            if (i + 1) % CHECK_EVERY == 0:
                self.check_deep()
        self.check_deep()


def test_lifecycle_chaos_soak():
    srv = InferenceServer(
        max_batch=16,
        max_wait_us=500,
        max_queue=50_000,
        max_total_queue=50_000,
    )
    attached = {1}
    srv.register_model(
        "m",
        flavor_fn(1),
        version=1,
        on_retire=lambda: attached.discard(1),
    )
    with BackgroundServer(srv) as handle:
        with ServingClient(*handle.address) as client:
            fuzzer = Fuzzer(handle, client, random.Random(SOAK_SEED), attached)
            fuzzer.run(SOAK_OPS)
            report = client.shadow_report("m")
    soak = (
        f"lifecycle soak: {SOAK_OPS} ops, seed {SOAK_SEED}, "
        f"{report['total_divergences']} shadow divergences recorded over "
        f"{report['total_requests']} mirrored requests"
    )
    print(soak)
    assert report["total_requests"] >= 0, soak


def test_soak_knobs_are_read():
    """The env knobs exist and parse — a soak driver depends on them."""
    assert SOAK_OPS >= 1
    assert isinstance(SOAK_SEED, int)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-x", "-q"]))
