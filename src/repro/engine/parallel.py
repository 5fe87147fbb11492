"""A shared, model-agnostic worker pool for compiled LUT netlists.

Packed evaluation is embarrassingly parallel across words: bit ``s % 64`` of
word ``s // 64`` only ever combines with other bits of the *same* word, so
any contiguous word range of the packed batch can be evaluated independently
and the per-range outputs concatenated — bit for bit what the serial engine
produces.

:class:`WorkerPool` is a standalone pool of worker processes that is **not**
bound to any netlist.  Models are *attached* by id before the pool forks —
each worker holds a registry of compiled engines, built lazily per model —
and every task is a ``(model_id, word_range)`` shard, so one pool serves
many netlists and multiple in-flight requests concurrently.  It is the one
multi-process path: nothing else in the package creates a pool.  It is not
an engine: a classifier's ``engine=`` and a served model take a
:class:`~repro.engine.compiled_netlist.PackedEngine`, and the way to use
more than one core there is ``backend="native-mt"``, the in-process threaded
build.

Backends
========

``"process"`` (default where ``fork`` is available)
    A ``multiprocessing`` pool.  Workers build their own engine per attached
    model (the netlists are inherited at the fork, never pickled) and
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
   the *optimised* netlists of every attached model as the initializer
   argument; workers compile each model's program lazily on its first
   shard.  Per-call messages are a model id, two segment names and a word
   range.  Sample data never goes through a pipe.
2. **The model set is fixed at the fork.**  :meth:`WorkerPool.attach` on a
   forked pool raises: attach every model, then fork (the first sharded
   call, or :meth:`WorkerPool.warm_up`).  A pool that fell back to serial
   never forks again and accepts attaches.
3. **Batches travel through named shared memory.**  The parent owns a
   free-list of segment pairs (``in``/``out``) — one pair per concurrently
   in-flight evaluation, leased per call under a lock — and workers attach
   by name, wrap them in ``np.ndarray`` views and write disjoint
   ``[lo, hi)`` column ranges of the output.  No locks are needed
   worker-side because shards never overlap.
4. **The pool is persistent and thread-safe.**  It is created lazily on the
   first sharded call and then *outlives the call*: a serving layer issuing
   thousands of small evaluations for many models pays the fork cost once
   (:meth:`WorkerPool.warm_up` pays it up front instead of on the first
   sharded call).  Concurrent :meth:`WorkerPool.run_packed` calls from
   different threads interleave their shards on the same workers.  Cleanup is owned by a
   ``weakref.finalize`` on a plain resource dict so abandoned pools are
   reclaimed without keeping the pool alive.
5. **Failure degrades, it does not crash.**  If ``/dev/shm`` is missing or
   the pool dies mid-flight, the pool permanently falls back to the serial
   backend and re-runs the batch on the model's own engine; worker-side
   model errors propagate unchanged.

Usage
=====

>>> with WorkerPool(n_workers=4) as pool:
...     pool.attach("a", netlist_a)                # many models, one pool
...     pool.attach("b", netlist_b, engine_backend="native")
...     pool.warm_up()                             # the fork fixes the set
...     bits = pool.evaluate_outputs("a", X_a)     # == serial, bit for bit
...     words = pool.run_packed("b", pack_bits(X_b))

The pool owns OS resources (worker processes, shared memory); close it or
use it as a context manager.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import warnings
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.netlist import LUTNetlist
from repro.engine.bitpack import pack_bits, unpack_bits
from repro.engine.compiled_netlist import PackedEngine, build_engine
from repro.engine.passes import optimize_netlist
from repro.utils.validation import check_binary_matrix

__all__ = ["WorkerPool", "shard_bounds"]


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
# them, keyed by model id) and its current shared-memory attachments.
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


def _worker_engine(model_id: str, engine_backend: str):
    """This worker's compiled engine for ``model_id`` (lazy).

    Fork-inherited netlists compile on first contact.  A native model is a
    shared-object *cache hit* here, not a rebuild: the parent compiled the
    digest-keyed .so at attach time, the worker regenerates the same
    source, hashes it, and ``dlopen``\\ s the cached build.  A
    ``"native-mt"`` model is built as ``"native"``: the same object, run
    at one thread, since the pool's processes are the parallelism here.
    """
    engine = _WORKER["engines"].get(model_id)
    if engine is None:
        netlist = _WORKER["netlists"].get(model_id)
        if netlist is None:
            raise RuntimeError(f"worker holds no netlist for model {model_id!r}")
        if engine_backend == "native-mt":
            engine_backend = "native"
        engine = build_engine(netlist, engine_backend, strict=False)
        _WORKER["engines"][model_id] = engine
    return engine


def _worker_attach_shm(name: str) -> shared_memory.SharedMemory:
    shm = _WORKER["shm"].get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        _WORKER["shm"][name] = shm
    return shm


def _worker_run(
    task: Tuple[str, str, str, str, int, int, int, int, int],
) -> None:
    """Evaluate one shard into the shared output segment."""
    (
        model_id,
        engine_backend,
        in_name,
        out_name,
        n_inputs,
        n_outputs,
        words,
        lo,
        hi,
    ) = task
    engine = _worker_engine(model_id, engine_backend)
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
    netlist: LUTNetlist
    #: the engine every shard is bit-identical to; its ``backend`` is the
    #: resolved name workers are told to build
    serial: PackedEngine


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
        ``True`` (default) applies the oversubscription heuristic: a model
        whose serial engine already threads in-process (``native-mt``
        with ``threads > 1``) is served on the serial path
        instead of being forked across workers — its own thread shards
        saturate the host without the fork+shm tax.  ``False`` forces such
        models through the process pool (whose workers then run them at
        one thread each — see the module docstring).

    Models are attached with :meth:`attach` (the optimisation pipeline runs
    once, in the parent) before the pool forks, and evaluated with
    :meth:`run_packed`; concurrent calls for different models are allowed
    and interleave their shards on the same workers.
    """

    _auto_ids = itertools.count()

    def __init__(
        self,
        n_workers: Optional[int] = None,
        backend: Optional[str] = None,
        *,
        min_words_per_worker: int = 4,
        prefer_threads: bool = True,
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
        raises.  So does attaching to a forked pool: the workers hold the
        models attached before the fork and no others, so attach every
        model before :meth:`warm_up` or the first sharded call.

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
        serial = build_engine(optimized, engine_backend)
        with self._lock:
            if self._resources["pool"] is not None:
                raise RuntimeError(
                    "this WorkerPool has forked and its workers hold only "
                    "the models attached before; attach every model before "
                    "warm_up() or the first sharded call"
                )
            if model_id is None:
                while True:
                    model_id = f"model-{next(self._auto_ids)}"
                    if model_id not in self._models:
                        break
            elif model_id in self._models:
                raise ValueError(f"model {model_id!r} is already attached")
            self._models[model_id] = _PoolModel(model_id, optimized, serial)
        return model_id

    def _entry(self, model_id: str) -> _PoolModel:
        with self._lock:
            entry = self._models.get(model_id)
            if entry is None:
                raise KeyError(
                    f"model {model_id!r} is not attached to this WorkerPool "
                    f"(attached: {sorted(self._models)})"
                )
        return entry

    def serial_engine(self, model_id: str):
        """The single-threaded engine all of a model's shards match."""
        return self._entry(model_id).serial

    # ------------------------------------------------------------- lifecycle
    def warm_up(self) -> "WorkerPool":
        """Start the worker pool now instead of on the first sharded call.

        Call it once every model is attached (the fork fixes the model
        set) so the fork cost is paid before traffic arrives rather than
        inside the first sharded call.  No-op for the serial backend,
        which a failed process pool falls back to.
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

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this WorkerPool has been closed")

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ evaluation
    def run_packed(
        self, model_id: str, packed_inputs: np.ndarray
    ) -> np.ndarray:
        """Sharded ``CompiledNetlist.run_packed`` for one attached model.

        Thread-safe across models: calls from different threads interleave
        their shards on the same workers.  (Per *model*, callers must
        serialise their own calls: small batches, the serial backend and a
        failed process pool all run the model's one engine, and the NumPy
        engine reuses scratch buffers — the discipline a serving queue
        already enforces.)
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
        return self.prefer_threads and entry.serial.threads > 1

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
                tasks = [
                    (
                        entry.model_id,
                        entry.serial.backend,
                        shm_in.name,
                        shm_out.name,
                        n_inputs,
                        n_outputs,
                        words,
                        lo,
                        hi,
                    )
                    for lo, hi in bounds
                ]
                pool.map(_worker_run, tasks)
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
                    entry.model_id: entry.netlist
                    for entry in self._models.values()
                }
                ctx = mp.get_context("fork")
                self._resources["pool"] = ctx.Pool(
                    self.n_workers,
                    initializer=_worker_init,
                    initargs=(inherited,),
                )
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

