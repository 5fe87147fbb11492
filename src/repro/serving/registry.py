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

A version has one way in and one way out.  :meth:`register` (the server's
``register_model``) is the way in: a ``model=`` gets an engine of its own
here; the first registration of a name creates the family with that
version serving, ``register(name, version=...)`` adds a *standby*.
:meth:`_retire` is the way out, awaited by every exit — a promotion's
displaced version, :meth:`unregister_version`, a canary rollback,
:meth:`unregister` (the server's ``unregister_model``) and :meth:`close`
(server stop): the version stops resolving (``draining``), its queue
closes, completing everything admitted, its engine is closed and its
``on_retire`` callback runs, each exactly once, and it leaves the chain.

:meth:`promote` flips the serving pointer **atomically between batches**:
the flip is a synchronous pointer swap on the event loop, and the server's
predict path has no await point between resolving the serving record and
entering the queue's admission — so every request either fully admitted
to the old version (and completes there) or resolves the new one.

:meth:`set_shadow` mirrors a sampled fraction of a family's traffic to a
standby candidate *after* the primary reply is on the wire (no client
latency added); outcomes land in the family's
:class:`~repro.serving.lifecycle.DivergenceStore`.  :meth:`promote_canary`
turns that evidence into an automatic verdict under a
:class:`~repro.serving.lifecycle.CanaryPolicy` — promote on a clean
candidate, roll back (shadow cleared, candidate retired, primary
untouched) on a divergent one.  Every transition is recorded in the
family's :class:`~repro.serving.lifecycle.LifecycleLog`.

Registration needs no loop.  Every other mutator runs on the server's
event loop, where it starts its drain as a task (with no loop running,
asyncio's ``RuntimeError``); blocking code goes through
:meth:`~repro.serving.server.BackgroundServer.run`.

Resolution
==========

The registry stays transport-agnostic: the socket server resolves the wire
protocol's optional ``model`` field through :meth:`resolve` (absent → the
default family's serving version, unknown → the typed
:class:`ModelNotFoundError`).  A ``"name@version"`` string pins a specific
*live* version — the debugging door for comparing a standby against the
primary by hand; draining/retired versions resolve as not-found.

Every version evaluates on an engine of its own, in this process: where
its batches run (on the event loop or on its queue's executor thread) is
the engine's ``on_loop`` to say, batch by batch.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.compiled_netlist import ENGINE_BACKENDS
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
    #: the caller's backend label for explicit functions; a version with an
    #: engine reports the engine's own (see :attr:`backend`)
    label: str = "numpy"
    #: what the evaluation engine runs with — read off ``engine`` at
    #: registration
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
    #: the one :meth:`ModelRegistry._retire` task, once the version drains
    retirement: Optional[asyncio.Task] = field(default=None, init=False)

    @property
    def backend(self) -> str:
        """The evaluator answering now: the engine's, which a native
        engine changes from ``"numpy"`` when its build lands, or the
        label."""
        return self.label if self.engine is None else self.engine.backend

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
    later :meth:`register` re-points it.  Every mutator but
    :meth:`register` runs on the server's event loop (see the module
    docstring).
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
        model: Any = None,
        max_batch: Optional[int] = None,
        max_wait_us: Optional[float] = None,
        max_queue: Optional[int] = None,
        default: bool = False,
        backend: Optional[str] = None,
        version: Optional[int] = None,
        on_retire: Optional[Callable[[], Any]] = None,
    ) -> RegisteredModel:
        """Host a model under ``name``, with its own queue and knobs; the
        returned record carries its ``stats`` collector.

        Give either evaluation functions — ``batch_fn`` (``(n, F) -> (n,)``
        labels) or ``scores_fn`` (``(n, F) -> (n, n_classes)`` decision
        scores, labels by ``argmax``), plus optionally the binary
        protocol's zero-copy ``packed_fn`` (``(packed_words, n_samples) ->
        array`` with the same output); each must be callable — or
        ``model=``, an object with ``compiled_netlist()`` such as
        :class:`~repro.core.poetbin.PoETBiNClassifier`, served from its
        engine's ``run_scores`` through its ``decision_scores_batch`` and
        ``decision_scores_packed_batch`` (any other object raises
        :class:`TypeError`).  With ``model=``, the engine is resolved
        *here*: ``backend`` names it (``"numpy"``, ``"native"`` for
        generated C, ``"native-mt"`` for the same build threaded up to the
        core count, ``"auto"`` for native-if-toolchain), and the engine is
        this version's own, in this process.  This call runs the passes
        and the code generation; a native engine's C compiler runs on a
        thread of its own, and until it lands the NumPy program answers
        (see :meth:`~repro.engine.native.NativeCompiledNetlist.attach`).
        The version owns the engine: ``list_models``,
        ``repro_serving_model_backend`` and ``repro_serving_model_threads``
        report what it runs with now, and it is closed exactly once — when
        the version retires, or here if the registration is refused.
        While the engine reports ``on_loop`` (a single-thread ``"native"``
        one whose build has landed) batches evaluate on the event loop,
        flushing a partial batch at the end of the next loop pass rather
        than after ``max_wait_us``; before that, for every other engine,
        and for every explicit function, on the queue's executor thread,
        under the wait budget (see :mod:`repro.serving.queue`;
        ``list_models`` reports which as ``on_loop``).  An explicit
        function may close over any engine, a pool-bound
        ``ShardedEngine`` included; ``backend`` is then a descriptive
        label only (default ``"numpy"``).  Knobs left ``None`` inherit the
        registry defaults.  Safe while serving: requests naming ``name``
        route to the new queue from the next dispatch.

        The first registration of ``name`` creates the family with this
        version (default 1) serving; registering an existing name
        **requires an explicit new** ``version=`` and adds it as a
        *standby* — traffic only moves on :meth:`promote` /
        :meth:`promote_canary`.  Standby versions must match the family's
        scores mode (shadow comparison would be meaningless otherwise) and
        share the family's :class:`~repro.serving.stats.ServerStats` —
        shared stats keep the family's counters monotonic across flips.
        ``on_retire`` runs once when the version retires (see
        :meth:`_retire`), after its engine is closed.
        """
        for arg, fn in (
            ("batch_fn", batch_fn),
            ("scores_fn", scores_fn),
            ("packed_fn", packed_fn),
        ):
            if fn is not None and not callable(fn):
                raise TypeError(
                    f"{arg} must be callable, not {type(fn).__name__}; "
                    "register a model with compiled_netlist() as model="
                )
        engine = None
        if model is not None:
            if any(fn is not None for fn in (batch_fn, scores_fn, packed_fn)):
                raise ValueError(
                    "provide model= or an evaluation fn, not both"
                )
            if not hasattr(model, "compiled_netlist"):
                raise TypeError(
                    f"{type(model).__name__} has no compiled_netlist(); "
                    "register its evaluation functions with scores_fn= / "
                    "batch_fn= / packed_fn= instead of model="
                )
            # its own engine, resolved once; both entry points bound to it
            engine = model.compiled_netlist(backend or "numpy")
            scores_fn = partial(model.decision_scores_batch, engine=engine)
            packed_fn = partial(
                model.decision_scores_packed_batch, engine=engine
            )
        try:
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
                    f"model {name!r} is already registered; pass version= "
                    "to add a candidate version"
                )
            if (batch_fn is None) == (scores_fn is None):
                raise ValueError(
                    "provide exactly one of batch_fn and scores_fn"
                )
            if engine is not None:
                backend = engine.backend
            elif backend is None:
                backend = "numpy"
            elif backend not in ENGINE_BACKENDS:
                raise ValueError(
                    f"unknown backend {backend!r}; expected one of "
                    f"{ENGINE_BACKENDS}"
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
                    mode = "scores" if family.scores_mode else "labels"
                    raise ValueError(
                        f"model {name!r} versions must share one output "
                        f"mode ({mode})"
                    )
            queue = BatchingQueue(
                scores_fn if scores_mode else batch_fn,
                **{  # knobs left None inherit the registry defaults
                    knob: self._defaults[knob] if value is None else value
                    for knob, value in (
                        ("max_batch", max_batch),
                        ("max_wait_us", max_wait_us),
                        ("max_queue", max_queue),
                    )
                },
                # a standby shares its family's collector
                stats=None if family is None else family.stats,
                budget=self.budget,
                budget_key=name,
                packed_fn=packed_fn,
                on_loop=False if engine is None else (lambda: engine.on_loop),
            )
        except BaseException:
            if engine is not None:
                engine.close()  # a refused registration must not leak it
            raise
        entry = RegisteredModel(
            name=name,
            queue=queue,
            scores_mode=scores_mode,
            stats=queue.stats,
            label=backend,
            threads=getattr(engine, "threads", 1),
            unroll=getattr(engine, "unroll", 1),
            version=version,
            state=SERVING if family is None else STANDBY,
            engine=engine,
            on_retire=on_retire,
        )
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

    async def unregister(self, name: str) -> None:
        """Stop hosting ``name`` — every version: new requests get
        ``model_not_found`` at once, and this returns once each version
        has drained what it admitted and retired (see :meth:`_retire`).

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
            return
        if family.canary_task is not None:
            family.canary_task.cancel()
        await asyncio.wait(
            [
                self._drain(family, entry)
                for entry in list(family.versions.values())
            ]
        )

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
        self._drain(family, entry)
        family.log.record("unregistered", version=entry.version)
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
        displaced version drains in the background and retires (see
        :meth:`_retire`).  Promoting the already-serving version is a
        no-op.
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
        # --- the atomic flip: synchronous, no awaits ---------------------
        self._drain(family, old)
        family.serving_version = version
        entry.state = SERVING
        # -----------------------------------------------------------------
        if family.shadow_version == version:
            # the candidate just became primary; mirroring it to itself
            # would be noise
            self.clear_shadow(name)
        family.log.record("promoted", version=version, previous=old.version)
        family.log.record("draining", version=old.version)
        return {
            "model": name,
            "version": version,
            "previous": old.version,
            "changed": True,
        }

    def _drain(
        self, family: _ModelFamily, entry: RegisteredModel
    ) -> asyncio.Task:
        """Send ``entry`` out the one way: it stops resolving now
        (``draining``) and :meth:`_retire` runs as a loop task.  A version
        drains once; a second call returns the same task."""
        if entry.retirement is None:
            entry.retirement = self._schedule(self._retire, family, entry)
            entry.state = DRAINING
        return entry.retirement

    async def _retire(
        self, family: _ModelFamily, entry: RegisteredModel
    ) -> None:
        """The one way out, awaited by every exit: close the queue
        (everything already admitted completes), then close the engine
        the version owns and fire its ``on_retire`` hook, each exactly
        once, and remove the version from the chain."""
        await entry.queue.close()
        entry.state = RETIRED
        hooks = (getattr(entry.engine, "close", None), entry.on_retire)
        entry.engine = entry.on_retire = None
        for hook in hooks:
            if hook is None:
                continue
            try:
                hook()
            except Exception as error:  # noqa: BLE001 - never break serving
                family.log.record(
                    "retire_error",
                    version=entry.version,
                    error=f"{type(error).__name__}: {error}",
                )
        family.versions.pop(entry.version, None)
        family.log.record("retired", version=entry.version)

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
            self._mirror,
            family,
            candidate,
            request,
            primary_result,
            primary_latency_us,
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
            self._watch_canary, family, version, policy
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
            self._drain(family, candidate)
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
    def _schedule(self, coroutine_fn: Callable, *args: Any) -> asyncio.Task:
        """Run ``coroutine_fn(*args)`` as a tracked task on the running
        loop (asyncio's ``RuntimeError`` off the loop, before any
        coroutine exists)."""
        task = asyncio.get_running_loop().create_task(coroutine_fn(*args))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def wait_idle(self) -> None:
        """Await every in-flight lifecycle task (drains, shadows, canary
        decisions) — the tests' quiesce point.  Loops because a finishing
        task can schedule another (a canary verdict schedules a drain);
        canary *watchers* waiting for future traffic are excluded so this
        never deadlocks on a quiet shadow."""
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
        retirements complete here too."""
        for entry in self.all_records():
            await entry.queue.flush()
        await self.wait_idle()

    async def close(self) -> None:
        """Unregister every family — each version retires the one way
        (:meth:`_retire`) — and await every lifecycle task left."""
        await asyncio.gather(*map(self.unregister, list(self._families)))
        while self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
