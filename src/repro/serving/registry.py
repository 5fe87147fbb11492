"""The model registry: versioned model families behind one server.

:class:`ModelRegistry` is the multi-tenant heart of the serving layer.  It
maps model names to *version families*: each family keeps a chain of
:class:`RegisteredModel` records — every version owning its own
:class:`~repro.serving.queue.BatchingQueue` — plus a single **serving
pointer** that decides which version answers unpinned requests.  A single
optional :class:`~repro.serving.queue.AdmissionBudget` bounds total
in-flight samples across every family (all versions of a family share the
family name as their budget key), so one hot tenant cannot starve the box.

Live lifecycle
==============

``register(name, version=...)`` adds a *standby* version to an existing
family (the first registration of a name creates the family with that
version serving).  :meth:`promote` flips the serving pointer **atomically
between batches**: the flip is a synchronous pointer swap on the event
loop, and the server's predict path has no await point between resolving
the serving record and entering the queue's admission — so every request
either fully admitted to the old version (and completes there) or resolves
the new one.  The displaced version drains (its queue closes, completing
everything admitted) and then *retires*: the engine the registration owns
is closed — which, for a pool-bound
:class:`~repro.engine.parallel.ShardedEngine`, detaches exactly that
version from the shared :class:`~repro.engine.parallel.WorkerPool` — its
``on_retire`` callback runs, and the version leaves the chain.

:meth:`set_shadow` mirrors a sampled fraction of a family's traffic to a
standby candidate *after* the primary reply is on the wire (no client
latency added); outcomes land in the family's
:class:`~repro.serving.lifecycle.DivergenceStore`.  :meth:`promote_canary`
turns that evidence into an automatic verdict under a
:class:`~repro.serving.lifecycle.CanaryPolicy` — promote on a clean
candidate, roll back (shadow cleared, candidate retired, primary
untouched) on a divergent one.  Every transition is recorded in the
family's :class:`~repro.serving.lifecycle.LifecycleLog`.

Resolution
==========

The registry stays transport-agnostic: the socket server resolves the wire
protocol's optional ``model`` field through :meth:`resolve` (absent → the
default family's serving version, unknown → the typed
:class:`ModelNotFoundError`).  A ``"name@version"`` string pins a specific
*live* version — the debugging door for comparing a standby against the
primary by hand; draining/retired versions resolve as not-found.

Model *evaluation* sharing happens one layer down: every version's
engine is typically a :class:`~repro.engine.parallel.ShardedEngine`
attached to one shared :class:`~repro.engine.parallel.WorkerPool`, so N
families × V versions share one set of worker processes while keeping
independent queues — and independent attachments — up here.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.compiled_netlist import ENGINE_BACKENDS
from repro.engine.native import NativeCompiledNetlist
from repro.serving.lifecycle import (
    CanaryPolicy,
    DivergenceStore,
    LifecycleLog,
    compare_outputs,
)
from repro.serving.queue import (
    AdmissionBudget,
    BatchingQueue,
    ServingError,
)
from repro.serving.stats import ServerStats

__all__ = [
    "ModelNotFoundError",
    "ModelRegistry",
    "RegisteredModel",
    "SERVING",
    "STANDBY",
    "DRAINING",
    "RETIRED",
]


class ModelNotFoundError(ServingError):
    """The request named a model this server does not host."""

    error_type = "model_not_found"


#: version states: exactly one SERVING version per family; STANDBY versions
#: are live (pinnable, shadowable, promotable); DRAINING versions are
#: completing already-admitted work on the way out; RETIRED is terminal.
SERVING = "serving"
STANDBY = "standby"
DRAINING = "draining"
RETIRED = "retired"


@dataclass
class RegisteredModel:
    """One hosted model version: its queue, stats, wire-visible description."""

    name: str
    queue: BatchingQueue
    scores_mode: bool
    stats: ServerStats
    #: what the evaluation engine runs with — read off ``engine`` at
    #: registration, or the caller's label for explicit functions
    backend: str = "numpy"
    threads: int = 1
    unroll: int = 1
    version: int = 1
    state: str = SERVING
    #: the engine this version owns (``None`` for explicit functions);
    #: closed exactly once when the version retires
    engine: Optional[Any] = None
    #: runs exactly once when this version retires (drained and removed),
    #: after the engine is closed; exceptions are logged, never raised.
    on_retire: Optional[Callable[[], Any]] = None

    def submit(self, request: Any, complete: Callable, tag: Any) -> None:
        """Admit one decoded predict of either wire into this version's
        queue, in the caller's own stack frame; its answer goes to the
        reply sink ``complete`` / ``tag`` (see
        :meth:`BatchingQueue.admit_packed`).  Shared by the primary path
        and the shadow mirror."""
        self.queue.admit_packed(
            request.packed, request.n_samples, complete, tag
        )

    def describe(self) -> Dict[str, Any]:
        """The ``list_models`` wire entry for this model version."""
        return {
            "name": self.name,
            "version": self.version,
            "state": self.state,
            "scores": self.scores_mode,
            "packed": self.queue.packed_path,
            "backend": self.backend,
            "threads": self.threads,
            "unroll": self.unroll,
            "max_batch": self.queue.max_batch,
            "max_wait_us": self.queue.max_wait_us,
            "max_queue": self.queue.max_queue,
            "on_loop": self.queue.on_loop,
        }


class _ModelFamily:
    """One model name's version chain plus its lifecycle state."""

    def __init__(self, name: str, scores_mode: bool) -> None:
        self.name = name
        self.scores_mode = scores_mode
        self.versions: Dict[int, RegisteredModel] = {}
        self.serving_version: int = 0
        self.stats: Optional[ServerStats] = None
        self.shadow_version: Optional[int] = None
        self.shadow_fraction: float = 1.0
        self.divergences = DivergenceStore()
        self.log = LifecycleLog()
        self.canary_task: Optional[asyncio.Task] = None
        #: pinged after every recorded shadow observation — what a pending
        #: canary watcher sleeps on (event-driven, not polled)
        self.shadow_seen = asyncio.Event()

    def serving_entry(self) -> RegisteredModel:
        return self.versions[self.serving_version]


class ModelRegistry:
    """Name → version family mapping with a default family and shared budget.

    Parameters
    ----------
    budget:
        Optional shared :class:`~repro.serving.queue.AdmissionBudget`; every
        registered version's queue reserves from it under the *family name*
        (versions of one family share one admission share).
    max_batch, max_wait_us, max_queue:
        Registry-level defaults applied when :meth:`register` is not given
        per-model values.  ``max_wait_us`` governs only versions whose
        queue evaluates on its executor thread: an ``on_loop`` version
        flushes a partial batch at the end of the next loop pass (see
        :mod:`repro.serving.queue`).

    The first registered family becomes the default; ``default=True`` on a
    later :meth:`register` re-points it.  All lifecycle mutators are meant
    to run on the server's event loop (they are synchronous pointer flips
    plus scheduled drain tasks); off-loop callers — registration before
    ``start()``, direct test drivers — work too, with drain work deferred
    to the next ``flush_all``/``close``.
    """

    def __init__(
        self,
        *,
        budget: Optional[AdmissionBudget] = None,
        max_batch: int = 64,
        max_wait_us: float = 2000.0,
        max_queue: int = 1024,
    ) -> None:
        self.budget = budget
        self._defaults = {
            "max_batch": max_batch,
            "max_wait_us": max_wait_us,
            "max_queue": max_queue,
        }
        self._families: Dict[str, _ModelFamily] = {}
        self._default_name: Optional[str] = None
        self._tasks: set = set()
        self._deferred: List = []
        #: shadow sampling RNG — swap in a seeded one for deterministic tests
        self._rng = random.Random()

    # ------------------------------------------------------------ population
    def register(
        self,
        name: str,
        batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        *,
        scores_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        packed_fn: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
        max_batch: Optional[int] = None,
        max_wait_us: Optional[float] = None,
        max_queue: Optional[int] = None,
        stats: Optional[ServerStats] = None,
        default: bool = False,
        engine: Optional[Any] = None,
        backend: Optional[str] = None,
        version: Optional[int] = None,
        on_retire: Optional[Callable[[], Any]] = None,
    ) -> RegisteredModel:
        """Host a model version behind its own queue; returns the record.

        Exactly one of ``batch_fn`` (labels) and ``scores_fn`` (per-class
        decision scores, labels by argmax) must be given.  ``packed_fn``
        optionally adds the binary protocol's zero-copy path.  The first
        registration of ``name`` creates the family with this version
        (default 1) serving; registering an existing name **requires an
        explicit new** ``version=`` and adds it as a *standby* — traffic
        only moves on :meth:`promote` / :meth:`promote_canary`.  Standby
        versions must match the family's scores mode (shadow comparison
        would be meaningless otherwise) and share the family's
        :class:`~repro.serving.stats.ServerStats` unless given their own —
        shared stats keep the family's counters monotonic across flips.
        ``engine`` is the engine the functions evaluate on: the version
        owns it, advertises its ``backend``/``threads``/``unroll`` and
        closes it on retire; without one, ``backend`` is a descriptive
        label (default ``"numpy"``).  Only an in-process single-thread
        native engine evaluates its batches on the event loop (and so
        ignores ``max_wait_us``); every other version, and every explicit
        function, gets its queue's executor thread (see
        :mod:`repro.serving.queue`).  ``list_models`` reports which as
        ``on_loop``.  ``on_retire`` runs once
        when the version drains out.  Per-model knobs fall back to the
        registry defaults.
        """
        if not isinstance(name, str) or not name:
            raise ValueError("model name must be a non-empty string")
        if "@" in name:
            raise ValueError(
                "model names must not contain '@' (reserved for "
                "name@version pinning); pass version= instead"
            )
        family = self._families.get(name)
        if family is not None and version is None:
            raise ValueError(
                f"model {name!r} is already registered; pass version= to "
                "add a candidate version"
            )
        if (batch_fn is None) == (scores_fn is None):
            raise ValueError("provide exactly one of batch_fn and scores_fn")
        if engine is not None:
            backend = engine.backend
        elif backend is None:
            backend = "numpy"
        elif backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {ENGINE_BACKENDS}"
            )
        scores_mode = scores_fn is not None
        version = 1 if version is None else int(version)
        if version < 1:
            raise ValueError("version must be a positive integer")
        if family is not None:
            if version in family.versions:
                raise ValueError(
                    f"model {name!r} already has a version {version}"
                )
            if scores_mode != family.scores_mode:
                raise ValueError(
                    f"model {name!r} versions must share one output mode "
                    f"({'scores' if family.scores_mode else 'labels'})"
                )
            if stats is None:
                stats = family.stats
        entry = RegisteredModel(
            name=name,
            queue=BatchingQueue(
                scores_fn if scores_mode else batch_fn,
                max_batch=(
                    self._defaults["max_batch"] if max_batch is None else max_batch
                ),
                max_wait_us=(
                    self._defaults["max_wait_us"]
                    if max_wait_us is None
                    else max_wait_us
                ),
                max_queue=(
                    self._defaults["max_queue"] if max_queue is None else max_queue
                ),
                stats=stats,
                budget=self.budget,
                budget_key=name,
                packed_fn=packed_fn,
                # measured at tens of µs a batch, and it never waits
                on_loop=(
                    isinstance(engine, NativeCompiledNetlist)
                    and engine.threads == 1
                ),
            ),
            scores_mode=scores_mode,
            stats=stats,
            backend=backend,
            threads=getattr(engine, "threads", 1),
            unroll=getattr(engine, "unroll", 1),
            version=version,
            state=SERVING if family is None else STANDBY,
            engine=engine,
            on_retire=on_retire,
        )
        entry.stats = entry.queue.stats  # the queue created one if None
        if family is None:
            family = _ModelFamily(name, scores_mode)
            family.serving_version = version
            family.stats = entry.stats
            self._families[name] = family
        family.versions[version] = entry
        family.log.record(
            "registered", version=version, state=entry.state, backend=backend
        )
        if default or self._default_name is None:
            self._default_name = name
        return entry

    def unregister(self, name: str) -> List[RegisteredModel]:
        """Drop a whole family — every version; returns the records (the
        caller closes their queues and fires their retire hooks).

        Unregistering the *default* family clears the default rather than
        silently re-pointing it: model-less requests would otherwise start
        hitting an arbitrary surviving model — wrong answers, not errors.
        Explicitly re-point with ``register(..., default=True)`` (the next
        registration also becomes the default while none is set).
        """
        family = self._families.pop(name, None)
        if name == self._default_name:
            self._default_name = None
        if family is None:
            return []
        if family.canary_task is not None and not family.canary_task.done():
            family.canary_task.cancel()
        records = list(family.versions.values())
        family.versions = {}
        return records

    def unregister_version(self, name: str, version: int) -> Dict[str, Any]:
        """Retire one *non-serving* version: it drains and leaves the chain.

        The serving version cannot be unregistered — promote another first
        (or :meth:`unregister` the whole family).  A version that is the
        current shadow target loses that role first.
        """
        family = self._require_family(name)
        name = family.name
        entry = self._live_version(family, version)
        if entry.version == family.serving_version:
            raise ValueError(
                f"version {version} is serving {name!r}; promote another "
                "version first or unregister the whole model"
            )
        if family.shadow_version == entry.version:
            self.clear_shadow(name)
        entry.state = DRAINING
        family.log.record("unregistered", version=entry.version)
        self._schedule(self._retire(family, entry))
        return {"model": name, "version": entry.version}

    # -------------------------------------------------------------- lifecycle
    def _require_family(self, name: Optional[str]) -> _ModelFamily:
        if name is None:
            name = self._default_name
        family = self._families.get(name) if name is not None else None
        if family is None:
            raise ModelNotFoundError(
                f"unknown model {name!r} (hosted: {sorted(self._families)})"
            )
        return family

    @staticmethod
    def _live_version(family: _ModelFamily, version: int) -> RegisteredModel:
        """``family``'s record for ``version``, unless it is missing,
        draining or retired (then :class:`ModelNotFoundError`)."""
        entry = family.versions.get(int(version))
        if entry is None or entry.state in (DRAINING, RETIRED):
            raise ModelNotFoundError(
                f"model {family.name!r} has no live version {version} "
                f"(live: {sorted(family.versions)})"
            )
        return entry

    def promote(self, name: str, version: int) -> Dict[str, Any]:
        """Atomically point ``name``'s serving pointer at ``version``.

        The flip itself is synchronous — on the event loop no request can
        interleave between resolving the old record and admitting to its
        queue (the server's predict paths have no await there), so every
        in-flight request completes on the version that admitted it and
        every later request resolves the new one: no torn batches.  The
        displaced version drains in the background and then retires
        (queue closed, ``on_retire`` fired, version removed).  Promoting
        the already-serving version is a no-op.
        """
        family = self._require_family(name)
        name = family.name
        version = int(version)
        entry = self._live_version(family, version)
        if version == family.serving_version:
            return {
                "model": name,
                "version": version,
                "previous": version,
                "changed": False,
            }
        old = family.serving_entry()
        # --- the atomic flip: two assignments, no awaits -----------------
        family.serving_version = version
        entry.state = SERVING
        old.state = DRAINING
        # -----------------------------------------------------------------
        if family.shadow_version == version:
            # the candidate just became primary; mirroring it to itself
            # would be noise
            self.clear_shadow(name)
        family.log.record("promoted", version=version, previous=old.version)
        family.log.record("draining", version=old.version)
        self._schedule(self._retire(family, old))
        return {
            "model": name,
            "version": version,
            "previous": old.version,
            "changed": True,
        }

    async def _retire(
        self, family: _ModelFamily, entry: RegisteredModel
    ) -> None:
        """Drain one displaced version and remove it from the chain."""
        await entry.queue.close()  # completes everything already admitted
        self.retire_record(entry)
        family.versions.pop(entry.version, None)
        family.log.record("retired", version=entry.version)

    def retire_record(self, entry: RegisteredModel) -> None:
        """Mark a record retired; close its engine and fire its
        ``on_retire`` hook, each exactly once."""
        if entry.state == RETIRED:
            return
        entry.state = RETIRED
        hooks = (getattr(entry.engine, "close", None), entry.on_retire)
        entry.engine = entry.on_retire = None
        for hook in hooks:
            if hook is None:
                continue
            try:
                hook()
            except Exception as error:  # noqa: BLE001 - never break serving
                family = self._families.get(entry.name)
                if family is not None:
                    family.log.record(
                        "retire_error",
                        version=entry.version,
                        error=f"{type(error).__name__}: {error}",
                    )

    # ----------------------------------------------------------- shadow mode
    def set_shadow(
        self, name: str, version: int, fraction: float = 1.0
    ) -> Dict[str, Any]:
        """Mirror ``fraction`` of ``name``'s primary traffic to standby
        ``version`` (after each primary reply; divergences are recorded).

        Re-targeting a *different* version resets the candidate-scoped
        divergence evidence; re-setting the same one keeps it (only the
        fraction changes).  Mirrored work draws admission from the same
        family budget share — a shed shadow counts as a shadow error, not
        a client-visible failure.
        """
        family = self._require_family(name)
        name = family.name
        version = int(version)
        entry = self._live_version(family, version)
        if version == family.serving_version:
            raise ValueError(
                f"version {version} is already serving {name!r}; a shadow "
                "must be a standby version"
            )
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        family.shadow_version = version
        family.shadow_fraction = float(fraction)
        family.divergences.retarget(version)
        family.log.record("shadow_set", version=version, fraction=fraction)
        return {"model": name, "version": version, "fraction": fraction}

    def clear_shadow(self, name: str) -> Dict[str, Any]:
        """Stop mirroring ``name``'s traffic (idempotent)."""
        family = self._require_family(name)
        cleared = family.shadow_version
        if cleared is not None:
            family.shadow_version = None
            family.log.record("shadow_cleared", version=cleared)
        return {"model": family.name, "version": cleared}

    def shadow_candidate(
        self, entry: RegisteredModel
    ) -> Optional[RegisteredModel]:
        """The standby version ``entry``'s answered requests are mirrored
        to — ``None`` without a shadow, or when ``entry`` is not its
        family's primary (version-pinned requests are not mirrored).  The
        server asks once per batch."""
        if entry.state != SERVING:
            return None
        family = self._families.get(entry.name)
        if family is None or family.shadow_version is None:
            return None
        candidate = family.versions.get(family.shadow_version)
        if candidate is None or candidate.state != STANDBY:
            return None
        return candidate

    def spawn_shadow(
        self,
        candidate: RegisteredModel,
        request: Any,
        primary_result: Any,
        primary_latency_us: float,
    ) -> Optional[asyncio.Task]:
        """Mirror one answered request to its :meth:`shadow_candidate`,
        maybe.

        Called by the server *after* the primary result exists — the
        mirrored evaluation runs as a fire-and-forget task, so the client
        reply is never delayed.  Returns the task (tests await it) or
        ``None`` when the request was not sampled.
        """
        family = self._families[candidate.name]
        if (
            family.shadow_fraction < 1.0
            and self._rng.random() >= family.shadow_fraction
        ):
            return None
        return self._schedule(
            self._mirror(
                family, candidate, request, primary_result, primary_latency_us
            )
        )

    async def _mirror(
        self,
        family: _ModelFamily,
        candidate: RegisteredModel,
        request: Any,
        primary_result: Any,
        primary_latency_us: float,
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        try:
            out = await candidate.queue.awaited(candidate.submit, request)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - sheds, model failures
            family.divergences.observe_error(
                f"{type(error).__name__}: {error}"
            )
        else:
            latency_us = (loop.time() - t0) * 1e6
            mismatched, delta = compare_outputs(
                family.scores_mode, primary_result, out
            )
            family.divergences.observe(
                request.n_samples,
                mismatched,
                delta,
                latency_us / max(primary_latency_us, 1e-9),
            )
        family.shadow_seen.set()

    def shadow_report(self, name: Optional[str] = None) -> Dict[str, Any]:
        """The family's divergence evidence: store summary + recent records."""
        family = self._require_family(name)
        report = {
            "model": family.name,
            "serving_version": family.serving_version,
            "shadow_version": family.shadow_version,
            "fraction": family.shadow_fraction,
        }
        report.update(family.divergences.summary())
        report["records"] = family.divergences.records()
        return report

    def lifecycle_events(
        self, name: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """The family's bounded lifecycle event history, oldest first."""
        return self._require_family(name).log.events()

    # ------------------------------------------------------------ canary flow
    def promote_canary(
        self,
        name: str,
        version: int,
        policy: Optional[CanaryPolicy] = None,
    ) -> Dict[str, Any]:
        """Auto-promote or auto-roll-back ``version`` on divergence evidence.

        Ensures ``version`` is the family's shadow target (setting it —
        and resetting stale evidence — when it is not already), then:

        * with ``policy.min_requests`` of evidence already recorded, the
          verdict is immediate: **promoted** (shadow cleared, serving
          pointer flipped, old version drains) or **rolled_back** (shadow
          cleared, candidate retired, primary untouched);
        * otherwise a watcher task waits, event-driven, for the evidence
          to accumulate and then applies the same verdict — returned
          status is ``watching`` and the eventual decision lands in the
          lifecycle log (and shows in :meth:`shadow_report`).
        """
        policy = CanaryPolicy() if policy is None else policy
        family = self._require_family(name)
        name = family.name
        version = int(version)
        entry = self._live_version(family, version)
        if version == family.serving_version:
            raise ValueError(
                f"version {version} is already serving {name!r}"
            )
        if family.shadow_version != version:
            self.set_shadow(name, version)
        family.log.record(
            "canary_started", version=version, policy=policy.describe()
        )
        if family.divergences.requests >= policy.min_requests:
            return self._decide_canary(family, version, policy)
        if family.canary_task is not None and not family.canary_task.done():
            family.canary_task.cancel()
        family.canary_task = self._schedule(
            self._watch_canary(family, version, policy)
        )
        return {
            "model": name,
            "version": version,
            "status": "watching",
            "observed": family.divergences.requests,
            "required": policy.min_requests,
        }

    async def _watch_canary(
        self, family: _ModelFamily, version: int, policy: CanaryPolicy
    ) -> None:
        while True:
            await family.shadow_seen.wait()
            family.shadow_seen.clear()
            if (
                family.shadow_version != version
                or self._families.get(family.name) is not family
            ):
                family.log.record("canary_aborted", version=version)
                return
            if family.divergences.requests >= policy.min_requests:
                self._decide_canary(family, version, policy)
                return

    def _decide_canary(
        self, family: _ModelFamily, version: int, policy: CanaryPolicy
    ) -> Dict[str, Any]:
        store = family.divergences
        rate = store.divergence_rate()
        p99 = store.p99_latency_ratio()
        reasons = []
        if rate > policy.max_divergence_rate:
            reasons.append(
                f"divergence rate {rate:.4f} > {policy.max_divergence_rate}"
            )
        if (
            policy.max_p99_ratio is not None
            and p99 > policy.max_p99_ratio
        ):
            reasons.append(
                f"p99 latency ratio {p99:.3f} > {policy.max_p99_ratio}"
            )
        verdict = {
            "model": family.name,
            "version": version,
            "observed": store.requests,
            "divergence_rate": rate,
            "p99_latency_ratio": p99,
        }
        self.clear_shadow(family.name)
        if not reasons:
            self.promote(family.name, version)
            family.log.record(
                "canary_promoted",
                version=version,
                divergence_rate=rate,
                p99_latency_ratio=p99,
            )
            verdict["status"] = "promoted"
            return verdict
        candidate = family.versions.get(version)
        if candidate is not None and candidate.state == STANDBY:
            candidate.state = DRAINING
            self._schedule(self._retire(family, candidate))
        family.log.record(
            "canary_rolled_back",
            version=version,
            reason="; ".join(reasons),
            divergence_rate=rate,
            p99_latency_ratio=p99,
        )
        verdict["status"] = "rolled_back"
        verdict["reason"] = "; ".join(reasons)
        return verdict

    # ------------------------------------------------------- task scheduling
    def _schedule(self, coro) -> Optional[asyncio.Task]:
        """Run ``coro`` as a tracked background task; off-loop callers get
        it deferred to the next ``flush_all``/``close``."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self._deferred.append(coro)
            return None
        task = loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _run_deferred(self) -> None:
        while self._deferred:
            coro = self._deferred.pop(0)
            try:
                await coro
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - best-effort deferred drains
                pass

    async def wait_idle(self) -> None:
        """Await every in-flight lifecycle task (drains, shadows, canary
        decisions) — the tests' quiesce point.  Loops because a finishing
        task can schedule another (a canary verdict schedules a drain);
        canary *watchers* waiting for future traffic are excluded so this
        never deadlocks on a quiet shadow."""
        await self._run_deferred()
        while True:
            current = asyncio.current_task()
            watchers = {
                f.canary_task for f in self._families.values()
            }
            pending = [
                t
                for t in self._tasks
                if not t.done() and t is not current and t not in watchers
            ]
            if not pending:
                return
            await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------ resolution
    @property
    def default_name(self) -> Optional[str]:
        return self._default_name

    @property
    def names(self) -> List[str]:
        return list(self._families)

    def __len__(self) -> int:
        return len(self._families)

    @staticmethod
    def split_versioned(name: str) -> Tuple[str, Optional[int]]:
        """``"mnist@2"`` → ``("mnist", 2)``; no suffix → ``(name, None)``."""
        if "@" not in name:
            return name, None
        base, _, suffix = name.partition("@")
        try:
            return base, int(suffix)
        except ValueError:
            return name, None  # not a version pin; fails family lookup

    def resolve(self, name: Optional[str]) -> RegisteredModel:
        """The record a request addressed: ``None`` → the default family's
        serving version, ``"name"`` → that family's serving version,
        ``"name@V"`` → that family's live version ``V``.

        Raises :class:`ModelNotFoundError` — which crosses the wire as the
        ``model_not_found`` error type — for unknown names, unknown or
        draining/retired versions, and the no-models-registered case.
        """
        if name is None:
            name = self._default_name
            if name is None:
                if self._families:
                    raise ModelNotFoundError(
                        "this server has no default model (hosted: "
                        f"{sorted(self._families)}); name one in the request "
                        "or register with default=True"
                    )
                raise ModelNotFoundError("this server hosts no models")
        base, version = self.split_versioned(name)
        family = self._families.get(base)
        if family is None:
            raise ModelNotFoundError(
                f"unknown model {base!r} (hosted: {sorted(self._families)})"
            )
        if version is None:
            return family.serving_entry()
        return self._live_version(family, version)

    def entries(self) -> List[RegisteredModel]:
        """One record per family — the *serving* version (the back-compat
        single-version view ``list_models`` and metrics build on)."""
        return [f.serving_entry() for f in self._families.values()]

    def all_records(self) -> List[RegisteredModel]:
        """Every live record of every family, all versions."""
        return [
            entry
            for family in self._families.values()
            for entry in family.versions.values()
        ]

    def describe_family(self, name: str) -> Dict[str, Any]:
        """The serving version's wire entry plus the version-chain view."""
        family = self._require_family(name)
        info = family.serving_entry().describe()
        info["versions"] = [
            {"version": v, "state": family.versions[v].state}
            for v in sorted(family.versions)
        ]
        info["shadow"] = (
            None
            if family.shadow_version is None
            else {
                "version": family.shadow_version,
                "fraction": family.shadow_fraction,
            }
        )
        return info

    def serving_versions(self) -> Dict[str, int]:
        """Family name → serving version (the ``model_version`` gauge)."""
        return {
            name: family.serving_version
            for name, family in self._families.items()
        }

    def shadow_totals(self) -> Dict[str, Dict[str, int]]:
        """Family name → cumulative mirror counters (Prometheus counters;
        monotonic across shadow re-targets)."""
        return {
            name: {
                "requests": family.divergences.total_requests,
                "divergences": family.divergences.total_divergences,
            }
            for name, family in self._families.items()
        }

    # --------------------------------------------------------------- cleanup
    async def flush_all(self) -> None:
        """Force-evaluate every version's queued work and wait for it — the
        drain step: everything admitted completes, nothing new is taken
        (the server stops admissions before calling this).  Pending
        retirement drains complete here too."""
        await self._run_deferred()
        for entry in self.all_records():
            await entry.queue.flush()
        await self.wait_idle()

    async def close(self) -> None:
        """Drain and close every version's queue; cancel lifecycle tasks."""
        await self._run_deferred()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for entry in self.all_records():
            await entry.queue.close()
            self.retire_record(entry)
        self._families = {}
        self._default_name = None
