"""A shared, model-agnostic worker pool for compiled LUT netlists.

Packed evaluation is embarrassingly parallel across words: bit ``s % 64`` of
word ``s // 64`` only ever combines with other bits of the *same* word, so
any contiguous word range of the packed batch can be evaluated independently
and the per-range outputs concatenated — bit for bit what the serial engine
produces.

:class:`WorkerPool`
    A standalone pool of worker processes that is **not** bound to any
    netlist.  Models are *attached* by id — each worker holds a
    registry of compiled engines, built lazily per model — and every task is
    a ``(model_id, word_range)`` shard, so one pool serves many netlists and
    multiple in-flight requests concurrently.  This is the substrate of the
    multi-model serving layer: one box, one pool, N models — and the one
    multi-process path: nothing else in the package creates a pool.

:class:`ShardedEngine`
    The engine handle binding ``(pool, model_id)``: constructing it attaches
    a netlist to a pool the caller made, closing it detaches exactly that
    attachment, and in between it has the surface of every other engine
    (:class:`~repro.engine.compiled_netlist.PackedEngine`), so whoever
    holds it — a classifier's ``engine=`` argument, a serving registration —
    need not know a pool is behind it.

Backends
========

``"process"`` (default where ``fork`` is available)
    A ``multiprocessing`` pool.  Workers build their own engine per attached
    model (netlists attached before the fork are inherited, not pickled) and
    exchange batches through ``multiprocessing.shared_memory`` buffers, so
    per-call IPC is a handful of integers — no pickling of sample data.
    CPython's GIL never serialises the workers.

``"serial"`` (default elsewhere)
    No pool at all — each model's own engine, the one :meth:`WorkerPool.attach`
    built.  It is also where a failed process pool lands.

Batches too small to be worth splitting (fewer than
``min_words_per_worker`` packed words per worker) run serially whatever the
backend, so the pool is safe to leave enabled for ragged traffic.

Orthogonal to the pool flavour, each attached model picks its *evaluation
engine* via ``engine_backend`` — a name
:func:`~repro.engine.compiled_netlist.build_engine` resolves once, in the
parent, at attach time.  The parent builds the shared object then; forked
workers are told the *resolved* backend, regenerate the same source and
reuse the digest-keyed cache, so a native model costs one C build per
host, total.

Pool processes × engine threads
===============================

In-process threads belong to the engine, processes to the pool.  The
``native-mt`` engine shards ``run_packed`` across word ranges on its own
thread pool (ctypes releases the GIL, so the threads genuinely run in
parallel) — which means it can saturate the host on its own, without this
module's fork+shm machinery.  Two rules keep the layers from fighting over
the same cores:

* **The pool does not fork for a model whose engine already threads.**
  When an attached model's serial engine is multithreaded
  (``native-mt`` with ``threads > 1``), :meth:`WorkerPool.run_packed` routes every batch down
  the serial path — the engine's own thread shards replace the pool's
  process shards.  Pass ``prefer_threads=False`` to the pool to override
  the heuristic and force process sharding anyway.
* **A worker process runs one thread.**  A worker builds a ``native-mt``
  model as ``"native"`` — the same build and the same cached shared
  object, at one thread — so processes × threads is the worker count.

The fork + shared-memory contract
=================================

The process backend relies on five invariants that new contributors should
not break:

1. **Netlists cross the fork, samples never do.**  The pool is forked with
   the *optimised* netlists of every model attached so far as the
   initializer argument; workers compile each model's program lazily on its
   first shard.  Per-call messages are a model key, two segment names and a
   word range.  Sample data never goes through a pipe.
2. **Models attached after the fork re-attach lazily.**  A model registered
   once the pool is already running cannot be fork-inherited, so its
   optimised netlist is pickled once in the parent and shipped inside each
   task; a worker that has not seen the model unpickles and compiles it on
   first contact, then serves from its local registry (the payload is
   ignored thereafter).  Each shard reports its worker's pid back, and the
   parent stops shipping the payload as soon as every worker has confirmed
   a copy — so the per-task cost decays to the usual handful of integers
   after the first call or two.  Detaching frees the parent's references
   immediately; worker-side copies are reclaimed when the pool closes
   (attach keys are unique per attach, so a stale worker copy can never
   serve a new model).
3. **Batches travel through named shared memory.**  The parent owns a
   free-list of segment pairs (``in``/``out``) — one pair per concurrently
   in-flight evaluation, leased per call under a lock — and workers attach
   by name, wrap them in ``np.ndarray`` views and write disjoint
   ``[lo, hi)`` column ranges of the output.  No locks are needed
   worker-side because shards never overlap.
4. **The pool is persistent and thread-safe.**  It is created lazily on the
   first sharded call and then *outlives the call*: a serving layer issuing
   thousands of small evaluations for many models pays the fork cost once
   (:meth:`WorkerPool.warm_up` lets a server pay it at startup instead of
   on the first request).  Concurrent :meth:`WorkerPool.run_packed` calls
   from different threads — one per model queue in the multi-model server —
   interleave their shards on the same workers.  Cleanup is owned by a
   ``weakref.finalize`` on a plain resource dict so abandoned pools are
   reclaimed without keeping the pool alive.
5. **Failure degrades, it does not crash.**  If ``/dev/shm`` is missing or
   the pool dies mid-flight, the pool permanently falls back to the serial
   backend and re-runs the batch on the model's own engine; worker-side
   model errors propagate unchanged.

Usage
=====

>>> with WorkerPool(n_workers=4) as pool:
...     a = ShardedEngine(netlist_a, pool=pool)    # many models, one pool
...     b = ShardedEngine(netlist_b, pool=pool)
...     bits = a.predict_batch(X_a)                # == serial, bit for bit
...     with ShardedEngine(clf.to_netlist(), pool=pool) as engine:
...         labels = clf.predict_batch(X, engine=engine)

The pool owns OS resources (worker processes, shared memory); close it or
use it as a context manager.  Closing a :class:`ShardedEngine` detaches its
model and leaves the pool running.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import threading
import warnings
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.netlist import LUTNetlist
from repro.engine.bitpack import pack_bits, unpack_bits
from repro.engine.compiled_netlist import PackedEngine, build_engine
from repro.engine.passes import optimize_netlist
from repro.utils.validation import check_binary_matrix

__all__ = ["ShardedEngine", "WorkerPool", "shard_bounds"]


def shard_bounds(n_words: int, n_shards: int) -> List[Tuple[int, int]]:
    """Split ``n_words`` into ``n_shards`` near-equal contiguous ranges."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    edges = [(i * n_words) // n_shards for i in range(n_shards + 1)]
    return [
        (edges[i], edges[i + 1])
        for i in range(n_shards)
        if edges[i + 1] > edges[i]
    ]


# --------------------------------------------------------------------------
# process-pool worker side.  Module-level state: each worker process holds
# its model registry (optimised netlists and the engines compiled from
# them, keyed by attach key) and its current shared-memory attachments.
# --------------------------------------------------------------------------
_WORKER: dict = {}

#: worker-side cap on cached shared-memory attachments; the parent's
#: free-list reuses a handful of segment pairs, so anything beyond this is
#: a segment the parent has already replaced or unlinked
_WORKER_SHM_CACHE = 16


def _worker_init(netlists: Dict[str, LUTNetlist]) -> None:
    _WORKER["netlists"] = dict(netlists)
    _WORKER["engines"] = {}
    _WORKER["shm"] = {}


def _worker_engine(key: str, payload: Optional[bytes], engine_backend: str):
    """This worker's compiled engine for attach key ``key`` (lazy).

    Fork-inherited netlists compile on first contact; models attached after
    the fork arrive pickled in ``payload`` and re-attach lazily.  A native
    model is a shared-object *cache hit* here, not a rebuild: the parent
    compiled the digest-keyed .so at attach time, the worker regenerates
    the same source, hashes it, and ``dlopen``\\ s the cached build.  A
    ``"native-mt"`` model is built as ``"native"``: the same object, run
    at one thread, since the pool's processes are the parallelism here.
    """
    engine = _WORKER["engines"].get(key)
    if engine is None:
        netlist = _WORKER["netlists"].get(key)
        if netlist is None:
            if payload is None:
                raise RuntimeError(
                    f"worker holds no netlist for model key {key!r}"
                )
            netlist = pickle.loads(payload)
            _WORKER["netlists"][key] = netlist
        if engine_backend == "native-mt":
            engine_backend = "native"
        engine = build_engine(netlist, engine_backend, strict=False)
        _WORKER["engines"][key] = engine
    return engine


def _worker_attach_shm(name: str) -> shared_memory.SharedMemory:
    shm = _WORKER["shm"].get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        _WORKER["shm"][name] = shm
    return shm


def _worker_evict(retired: Tuple[str, ...]) -> None:
    """Drop detached models from this worker's registries.

    Without this, a model attached after the fork (netlist shipped in the
    task payload) would live in ``_WORKER["netlists"]``/``["engines"]``
    forever after the parent detached it — version churn through a
    long-lived pool would grow worker memory without bound.  Attach keys
    are unique per attach, so a retired key can never name a live model.
    """
    for key in retired:
        _WORKER["netlists"].pop(key, None)
        _WORKER["engines"].pop(key, None)


def _worker_run(
    task: Tuple[
        str,
        Optional[bytes],
        str,
        str,
        str,
        int,
        int,
        int,
        int,
        int,
        Tuple[str, ...],
    ],
) -> int:
    """Evaluate one shard; returns this worker's pid (the parent uses the
    pid set to decide when a lazily-attached model's payload has reached
    every worker and can stop being shipped — and, symmetrically, when a
    detached model's eviction notice has reached every worker)."""
    (
        key,
        payload,
        engine_backend,
        in_name,
        out_name,
        n_inputs,
        n_outputs,
        words,
        lo,
        hi,
        retired,
    ) = task
    _worker_evict(retired)
    engine = _worker_engine(key, payload, engine_backend)
    shm_in = _worker_attach_shm(in_name)
    shm_out = _worker_attach_shm(out_name)
    # buffers are grow-only, so they may be larger than this batch needs
    packed = np.ndarray(
        (n_inputs, words), dtype=np.uint64, buffer=shm_in.buf
    )
    out = np.ndarray((n_outputs, words), dtype=np.uint64, buffer=shm_out.buf)
    out[:, lo:hi] = engine.run_packed(packed[:, lo:hi])
    # bound the attachment cache: segments beyond the cap are ones the
    # parent has replaced with larger buffers (a live name just re-attaches)
    if len(_WORKER["shm"]) > _WORKER_SHM_CACHE:
        for name in [
            n for n in _WORKER["shm"] if n not in (in_name, out_name)
        ]:
            _WORKER["shm"].pop(name).close()
    return os.getpid()


def _worker_census(retired: Tuple[str, ...]) -> Tuple[int, int, int]:
    """``(pid, n_netlists, n_engines)`` for this worker's registries.

    Applies pending evictions first, so the census doubles as an eviction
    pump for pools with no traffic (see :meth:`WorkerPool.worker_registry_sizes`).
    """
    _worker_evict(retired)
    return os.getpid(), len(_WORKER["netlists"]), len(_WORKER["engines"])


def _release_resources(resources: dict) -> None:
    """Tear down a pool-and-shared-memory holder (idempotent).

    Module-level so :func:`weakref.finalize` can call it without keeping the
    owning :class:`WorkerPool` alive — abandoned pools are then garbage
    collected normally and their worker processes reclaimed, while pools
    still alive at interpreter exit are cleaned up by the finalizer's
    built-in atexit hook.
    """
    pool = resources.pop("pool", None)
    if pool is not None:
        pool.terminate()
        pool.join()
    for shm in resources.pop("shm_all", []):
        try:
            shm.close()
            shm.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
    resources["pool"] = None
    resources["shm_all"] = []
    resources["shm_free"] = []


@dataclass
class _PoolModel:
    """Parent-side record of one attached model."""

    model_id: str
    #: unique per attach — a re-attached id never aliases a stale worker copy
    key: str
    netlist: LUTNetlist
    #: the engine every shard is bit-identical to; its ``backend`` is the
    #: resolved name workers are told to build
    serial: PackedEngine
    #: pickled optimised netlist for lazy re-attach; ``None`` when the
    #: netlist is (or will be, at the fork) fork-inherited, and cleared
    #: again once every worker has confirmed compiling its copy
    payload: Optional[bytes] = None
    #: pids of workers that have executed a shard for this model while the
    #: payload was live — at ``n_workers`` distinct pids the payload drops
    confirmed_pids: set = field(default_factory=set)


class WorkerPool:
    """A persistent, model-agnostic pool executing ``(model, words)`` shards.

    Parameters
    ----------
    n_workers:
        Shard count; defaults to the CPU count.  ``1`` degenerates to the
        serial engine for every model.
    backend:
        ``"process"`` or ``"serial"``; ``None`` picks ``"process"`` where
        ``fork`` is available, else ``"serial"``.
    min_words_per_worker:
        Batches with fewer packed words than ``n_workers *
        min_words_per_worker`` run serially — below that, pool latency
        dominates any parallel win.
    prefer_threads:
        ``None`` (default) applies the oversubscription heuristic: a model
        whose serial engine already threads in-process (``native-mt``
        with ``threads > 1``) is served on the serial path
        instead of being forked across workers — its own thread shards
        saturate the host without the fork+shm tax.  ``True`` states the
        same preference explicitly; ``False`` disables it, forcing such
        models through the process pool (whose workers then run them at
        one thread each — see the module docstring).

    Models are attached with :meth:`attach` (the optimisation pipeline runs
    once, in the parent) and evaluated with :meth:`run_packed`; concurrent
    calls for different models are allowed and interleave their shards on
    the same workers.
    """

    _auto_ids = itertools.count()

    def __init__(
        self,
        n_workers: Optional[int] = None,
        backend: Optional[str] = None,
        *,
        min_words_per_worker: int = 4,
        prefer_threads: Optional[bool] = None,
    ) -> None:
        if backend not in (None, "process", "serial"):
            raise ValueError(
                f"unknown backend {backend!r} (choose from 'process', 'serial')"
            )
        if n_workers is not None and n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if min_words_per_worker <= 0:
            raise ValueError("min_words_per_worker must be positive")
        self.n_workers = n_workers or os.cpu_count() or 1
        if backend is None:
            backend = (
                "process"
                if "fork" in mp.get_all_start_methods()
                else "serial"
            )
        if self.n_workers == 1:
            backend = "serial"
        self.backend = backend
        self.min_words_per_worker = min_words_per_worker
        self.prefer_threads = prefer_threads
        self._models: Dict[str, _PoolModel] = {}
        # worker-side eviction ledger: attach-key of each detached model →
        # set of worker pids confirmed to have dropped it.  Keys ride along
        # with every task (and every census probe) until all n_workers pids
        # have confirmed, then the ledger entry is deleted.
        self._retired: Dict[str, set] = {}
        self._attach_seq = itertools.count()
        # One lock guards pool creation, the shm free-list and the model
        # registry; evaluation itself (pool.map) runs outside it, so
        # concurrent multi-model calls overlap fully.
        self._lock = threading.Lock()
        # The lazily created pool and shared-memory segments live in a plain
        # dict so the finalizer below can release them without referencing
        # (and thereby immortalising) the pool object itself.
        self._resources: dict = {
            "pool": None,
            "shm_all": [],
            "shm_free": [],
        }
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_resources, self._resources
        )

    # -------------------------------------------------------- model registry
    def attach(
        self,
        model_id: Optional[str],
        netlist: LUTNetlist,
        *,
        passes: Optional[Sequence] = None,
        max_lut_inputs: Optional[int] = None,
        engine_backend: str = "numpy",
    ) -> str:
        """Register ``netlist`` under ``model_id`` and return the id.

        The optimisation pipeline (see
        :func:`~repro.engine.passes.optimize_netlist`) runs once here; all
        workers execute the same optimised program.  ``model_id=None``
        generates a unique one.  Attaching an id that is already attached
        raises — detach first (re-attaching then gets a fresh worker-side
        key, so stale worker copies can never serve the new model).

        ``engine_backend`` names the evaluation engine
        (:func:`~repro.engine.compiled_netlist.build_engine` resolves it
        here, once — a native build is paid at attach, and forked workers
        regenerate the same source and hit the digest-keyed .so cache).
        The resolved engine is :meth:`serial_engine`; read its
        ``backend``/``threads`` for what actually serves.
        """
        self._check_open()
        if model_id is not None and (
            not isinstance(model_id, str) or not model_id
        ):
            raise ValueError("model_id must be a non-empty string")
        optimized = optimize_netlist(
            netlist, passes=passes, max_lut_inputs=max_lut_inputs
        )
        entry = _PoolModel(
            model_id="",  # assigned under the lock below
            key=f"#{next(self._attach_seq)}",
            netlist=optimized,
            serial=build_engine(optimized, engine_backend),
        )

        def insert() -> bool:
            """Register under the lock; False when the forked pool needs a
            payload first (pickled *outside* the lock — it can be large,
            and this lock also gates every other model's evaluations)."""
            if entry.model_id != model_id and model_id is not None:
                entry.model_id = model_id
            if model_id is None:
                while True:
                    entry.model_id = f"model-{next(self._auto_ids)}"
                    if entry.model_id not in self._models:
                        break
            elif model_id in self._models:
                raise ValueError(f"model {model_id!r} is already attached")
            if self._resources["pool"] is not None and entry.payload is None:
                return False  # forked: lazy re-attach, payload required
            self._models[entry.model_id] = entry
            return True

        with self._lock:
            inserted = insert()
        if not inserted:
            entry.payload = pickle.dumps(optimized)
            with self._lock:
                insert()
        return entry.model_id

    def detach(self, model_id: str) -> None:
        """Drop a model from the registry (its in-flight calls complete).

        With a live process pool the model's worker-side copies (netlist +
        compiled engine, keyed by the unique attach key) are evicted too:
        the key is recorded in a retirement ledger that piggybacks on every
        subsequent task, and each worker drops its copy before its next
        evaluation.  Serving stacks that hot-swap model versions through a
        long-lived pool would otherwise grow worker memory monotonically.
        """
        with self._lock:
            entry = self._models.pop(model_id, None)
            if entry is not None and self._resources["pool"] is not None:
                self._retired[entry.key] = set()

    @property
    def model_ids(self) -> List[str]:
        with self._lock:
            return list(self._models)

    def _confirm_retired_locked(
        self, retired: Tuple[str, ...], worker_pids
    ) -> None:
        """Record which workers have seen the eviction notices in
        ``retired``; a key confirmed by every worker leaves the ledger
        (callers hold ``self._lock``)."""
        for key in retired:
            pids = self._retired.get(key)
            if pids is not None:
                pids.update(worker_pids)
                if len(pids) >= self.n_workers:
                    del self._retired[key]

    def worker_registry_sizes(self, rounds: int = 4) -> Dict[int, Tuple[int, int]]:
        """Sample each worker's registry sizes: pid → (n_netlists, n_engines).

        Sends eviction-only probe tasks through the process pool, so this
        doubles as an eviction pump: pending retirements are applied in
        every sampled worker even on an idle pool.  Probes are mapped with
        ``chunksize=1`` over ``rounds`` passes so each pass tends to touch
        every worker, but a fast worker can still absorb a slow worker's
        probe — treat the result as a sample of the worker set, not a
        guaranteed full census.  Returns ``{}`` when no process pool is
        live (the serial backend keeps no worker-side registries).
        """
        self._check_open()
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        with self._lock:
            pool = self._resources["pool"]
            retired = tuple(self._retired)
        if pool is None:
            return {}
        sizes: Dict[int, Tuple[int, int]] = {}
        try:
            for _ in range(rounds):
                results = pool.map(
                    _worker_census, [retired] * self.n_workers, chunksize=1
                )
                pids = [pid for pid, _, _ in results]
                for pid, n_netlists, n_engines in results:
                    sizes[pid] = (n_netlists, n_engines)
                with self._lock:
                    self._confirm_retired_locked(retired, pids)
                if len(sizes) >= self.n_workers:
                    break
        except (OSError, mp.ProcessError, ValueError):
            # pool died or was torn down by a concurrent fallback: return
            # what was sampled — callers use this for observability only
            pass
        return sizes

    def _entry(self, model_id: str) -> _PoolModel:
        with self._lock:
            entry = self._models.get(model_id)
        if entry is None:
            raise KeyError(
                f"model {model_id!r} is not attached to this WorkerPool "
                f"(attached: {sorted(self.model_ids)})"
            )
        return entry

    def serial_engine(self, model_id: str):
        """The single-threaded engine all of a model's shards match."""
        return self._entry(model_id).serial

    def optimized_netlist(self, model_id: str) -> LUTNetlist:
        """The post-pipeline netlist the pool serves for ``model_id``."""
        return self._entry(model_id).netlist

    # ------------------------------------------------------------- lifecycle
    def warm_up(self) -> "WorkerPool":
        """Start the worker pool now instead of on the first sharded call.

        Long-lived servers call this once at startup (after attaching their
        models) so the fork cost is paid before traffic arrives rather than
        inside the first request's latency budget — and so every model
        attached so far is fork-inherited instead of lazily re-shipped.
        No-op for the serial backend, which a failed process pool falls
        back to.
        """
        self._check_open()
        if self.backend == "process":
            try:
                self._ensure_process_pool()
            except (OSError, mp.ProcessError) as error:
                self._fall_back_to_serial(error, stacklevel=3)
        return self

    def close(self) -> None:
        """Shut down workers and release shared memory (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._finalizer()
        with self._lock:
            self._models = {}
            self._retired = {}

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this WorkerPool has been closed")

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool({self.n_workers} x {self.backend}, "
            f"{len(self._models)} models)"
        )

    # ------------------------------------------------------------ evaluation
    def run_packed(
        self, model_id: str, packed_inputs: np.ndarray
    ) -> np.ndarray:
        """Sharded ``CompiledNetlist.run_packed`` for one attached model.

        Thread-safe: the serving layer calls this concurrently from one
        executor thread per model queue.  (Per *model*, callers must
        serialise their own calls: small batches, the serial backend and a
        failed process pool all run the model's one engine, and the NumPy
        engine reuses scratch buffers — exactly the discipline the
        per-model batching queue already enforces.)
        """
        self._check_open()
        entry = self._entry(model_id)
        packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
        n_inputs = entry.serial.n_primary_inputs
        if packed_inputs.ndim != 2 or packed_inputs.shape[0] != n_inputs:
            raise ValueError(
                f"packed_inputs for model {model_id!r} must have shape "
                f"({n_inputs}, n_words), got {packed_inputs.shape}"
            )
        words = packed_inputs.shape[1]
        bounds = shard_bounds(words, self.n_workers) if words else []
        if (
            self.backend == "serial"
            or len(bounds) <= 1
            or words < self.n_workers * self.min_words_per_worker
            or self._prefer_in_process(entry)
        ):
            return entry.serial.run_packed(packed_inputs)
        return self._run_process(entry, packed_inputs, bounds)

    def _prefer_in_process(self, entry: _PoolModel) -> bool:
        """Whether this model should skip the pool and thread in-process.

        The oversubscription heuristic (see the module docstring): an
        engine that already shards across in-process threads saturates the
        host without forking, so the pool stands aside unless
        ``prefer_threads=False`` explicitly forces process sharding.
        """
        if self.prefer_threads is False:
            return False
        return entry.serial.threads > 1

    def evaluate_outputs(self, model_id: str, X_bits: np.ndarray) -> np.ndarray:
        """Bit-exact sharded ``LUTNetlist.evaluate_outputs`` for one model."""
        entry = self._entry(model_id)
        X_bits = check_binary_matrix(X_bits, "X_bits")
        if X_bits.shape[1] != entry.serial.n_primary_inputs:
            raise ValueError(
                f"model {model_id!r} expects "
                f"{entry.serial.n_primary_inputs} primary inputs, "
                f"got {X_bits.shape[1]}"
            )
        out = self.run_packed(model_id, pack_bits(X_bits))
        return unpack_bits(out, X_bits.shape[0])

    # ------------------------------------------------------- process backend
    def _run_process(
        self,
        entry: _PoolModel,
        packed: np.ndarray,
        bounds: List[Tuple[int, int]],
    ) -> np.ndarray:
        words = packed.shape[1]
        n_inputs = entry.serial.n_primary_inputs
        n_outputs = entry.serial.n_outputs
        try:
            pool = self._ensure_process_pool()
            pair = self._lease_shm(n_inputs * words * 8, n_outputs * words * 8)
            try:
                shm_in, shm_out = pair
                view_in = np.ndarray(
                    packed.shape, dtype=np.uint64, buffer=shm_in.buf
                )
                view_in[:] = packed
                with self._lock:
                    retired = tuple(self._retired)
                tasks = [
                    (
                        entry.key,
                        entry.payload,
                        entry.serial.backend,
                        shm_in.name,
                        shm_out.name,
                        n_inputs,
                        n_outputs,
                        words,
                        lo,
                        hi,
                        retired,
                    )
                    for lo, hi in bounds
                ]
                worker_pids = pool.map(_worker_run, tasks)
                if entry.payload is not None or retired:
                    with self._lock:
                        if entry.payload is not None:
                            # lazy re-attach bookkeeping: once every worker
                            # has compiled this model, stop shipping the
                            # payload
                            entry.confirmed_pids.update(worker_pids)
                            if len(entry.confirmed_pids) >= self.n_workers:
                                entry.payload = None
                        self._confirm_retired_locked(retired, worker_pids)
                view_out = np.ndarray(
                    (n_outputs, words), dtype=np.uint64, buffer=shm_out.buf
                )
                return view_out.copy()
            finally:
                self._return_shm(pair)
        except (OSError, mp.ProcessError) as error:
            # no /dev/shm, fork refused, pool died mid-flight: degrade to
            # the model's own engine permanently rather than failing the
            # prediction.  Worker-side model errors (ValueError etc.)
            # propagate as-is.
            self._fall_back_to_serial(error, stacklevel=4)
            return entry.serial.run_packed(packed)
        except ValueError:
            # a concurrent call's fallback may have terminated the pool
            # under us, which surfaces as ValueError("Pool not running");
            # only then is this a degrade-don't-crash case — a ValueError
            # with the pool still registered is a worker-side model error
            # and must propagate
            with self._lock:
                pool_gone = self._resources["pool"] is None
            if not pool_gone:
                raise
            return entry.serial.run_packed(packed)

    def _fall_back_to_serial(self, error: BaseException, stacklevel: int) -> None:
        warnings.warn(
            f"WorkerPool process backend failed ({error!r}); "
            "falling back to the serial backend",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
        with self._lock:
            self.backend = "serial"
            pool = self._resources["pool"]
            self._resources["pool"] = None
            # worker registries die with the pool — nothing left to evict
            self._retired.clear()
            # the serial backend never leases shared memory again: unlink
            # the free pairs now; pairs still leased by concurrent calls
            # are unlinked when returned (see _return_shm)
            stale = self._resources["shm_free"]
            self._resources["shm_free"] = []
            for shm_pair in stale:
                for shm in shm_pair:
                    self._resources["shm_all"].remove(shm)
        for shm_pair in stale:
            for shm in shm_pair:
                try:
                    shm.close()
                    shm.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
        if pool is not None:
            pool.terminate()
            pool.join()

    def _ensure_process_pool(self):
        with self._lock:
            if self._resources["pool"] is None:
                # Start the shared-memory resource tracker *before* forking,
                # so every worker inherits it: attachments then deduplicate
                # into one tracker cache entry that the parent's unlink
                # retires, instead of each worker spawning a tracker that
                # warns about "leaked" segments it never owned at shutdown.
                try:  # pragma: no cover - private but stable since 3.8
                    from multiprocessing import resource_tracker

                    resource_tracker.ensure_running()
                except Exception:
                    pass
                inherited = {
                    entry.key: entry.netlist
                    for entry in self._models.values()
                }
                ctx = mp.get_context("fork")
                self._resources["pool"] = ctx.Pool(
                    self.n_workers,
                    initializer=_worker_init,
                    initargs=(inherited,),
                )
                # everything in the snapshot is now fork-inherited
                for entry in self._models.values():
                    entry.payload = None
                # fresh workers inherited only live models — nothing to evict
                self._retired.clear()
            return self._resources["pool"]

    def _lease_shm(
        self, in_bytes: int, out_bytes: int
    ) -> Tuple[shared_memory.SharedMemory, shared_memory.SharedMemory]:
        """Borrow an (in, out) segment pair big enough for one evaluation.

        Pairs live on a free-list so concurrent evaluations never share a
        buffer; too-small pairs are retired (workers drop their stale
        attachments via the bounded cache) and replaced with 2x headroom so
        ragged batch sizes don't reallocate every call.
        """
        in_bytes, out_bytes = max(in_bytes, 8), max(out_bytes, 8)
        with self._lock:
            free = self._resources["shm_free"]
            for index, (shm_in, shm_out) in enumerate(free):
                if shm_in.size >= in_bytes and shm_out.size >= out_bytes:
                    return free.pop(index)
            if free:
                # retire the smallest stale pair rather than accumulating
                smallest = min(
                    free, key=lambda pair: pair[0].size + pair[1].size
                )
                free.remove(smallest)
                for shm in smallest:
                    self._resources["shm_all"].remove(shm)
                    shm.close()
                    shm.unlink()
            pair = (
                shared_memory.SharedMemory(create=True, size=in_bytes * 2),
                shared_memory.SharedMemory(create=True, size=out_bytes * 2),
            )
            self._resources["shm_all"].extend(pair)
            return pair

    def _return_shm(self, pair) -> None:
        with self._lock:
            # re-list only while the process backend is alive and the pair
            # still tracked; after a fallback (or close) the lease is the
            # last reference, so retire the segments instead of hoarding
            if (
                self.backend == "process"
                and not self._closed
                and pair[0] in self._resources["shm_all"]
            ):
                self._resources["shm_free"].append(pair)
                return
            for shm in pair:
                if shm in self._resources["shm_all"]:
                    self._resources["shm_all"].remove(shm)
        for shm in pair:
            try:
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


class ShardedEngine(PackedEngine):
    """The engine handle binding ``(pool, model_id)`` — bit-exact vs serial.

    Constructing it attaches ``netlist`` to ``pool`` (``passes``,
    ``max_lut_inputs``, ``engine_backend`` and ``model_id`` as in
    :meth:`WorkerPool.attach`); :meth:`close` detaches exactly this
    attachment and leaves the pool — which the caller made and owns —
    running.  ``backend``/``threads``/``unroll`` are the attached serial
    engine's.
    """

    def __init__(
        self,
        netlist: LUTNetlist,
        *,
        pool: WorkerPool,
        passes: Optional[Sequence] = None,
        max_lut_inputs: Optional[int] = None,
        engine_backend: str = "numpy",
        model_id: Optional[str] = None,
    ) -> None:
        self.pool = pool
        self.model_id = pool.attach(
            model_id,
            netlist,
            passes=passes,
            max_lut_inputs=max_lut_inputs,
            engine_backend=engine_backend,
        )
        serial = pool.serial_engine(self.model_id)
        self.n_primary_inputs = serial.n_primary_inputs
        self.n_outputs = serial.n_outputs
        self.backend = serial.backend
        self.threads = serial.threads
        self.unroll = serial.unroll
        self._closed = False

    def run_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Sharded counterpart of ``CompiledNetlist.run_packed``."""
        if self._closed:
            raise RuntimeError("this ShardedEngine has been closed")
        return self.pool.run_packed(self.model_id, packed_inputs)

    def close(self) -> None:
        """Detach this attachment (idempotent); the pool keeps running."""
        if not self._closed:
            self._closed = True
            self.pool.detach(self.model_id)
