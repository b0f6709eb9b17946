"""Multi-process worker pools with deterministic merges.

Two pools live here, both built on the same contiguous-shard decomposition
(:func:`shard_evenly`, re-exported through ``repro.runtime``):

* :class:`WorkerPool` shards **featurisation** — HLS lowering,
  scheduling/binding, activity simulation, graph construction, labelling;
  the dominant cost of serving an uncached design, and embarrassingly
  parallel because every design point is a pure function of ``(dataset
  config, kernel, directives)``.  Results concatenate in shard order, so
  pooled output is **bitwise-identical** to the serial path's — same floats,
  same graphs, same content addresses.
* :class:`ForwardPool` shards the **packed mega-graph forward of an
  ensemble** across its members: each worker computes a contiguous member
  slice of the ``(num_members, num_graphs)`` prediction stack.  Weights live
  in a read-only **shared-memory parameter block** and each chunk's packed
  arrays in a **shared array bundle** (:mod:`repro.runtime.shm`), so tasks
  carry only a segment spec and member bounds; the parent concatenates the
  shard stacks in member order before averaging, so pooled predictions are
  bitwise-identical to
  :meth:`repro.flow.powergear.PowerGear.predict_batch`.

Worker warm-up happens **once per process, never per task**:

* featurisation workers build one
  :class:`~repro.flow.dataset_gen.DatasetGenerator` from the service's
  :class:`~repro.flow.dataset_gen.DatasetConfig` in the pool initializer and
  keep it alive across tasks, so per-kernel serving state (stimuli, baseline
  report, lowering / activity caches) warms once per process;
* forward workers attach the shared parameter segment and rebuild every
  member model around zero-copy read-only views in their initializer; each
  task attaches its chunk's array bundle, forwards, drops its views and
  closes the mapping — **no per-task weight or batch pickling**, one
  physical copy of the ensemble and of each packed batch machine-wide.

Both pools run their workers on :class:`concurrent.futures.ProcessPoolExecutor`
rather than ``multiprocessing.Pool``: a worker that dies abruptly (SIGKILLed
by the OOM killer, segfaulted) surfaces as a typed :class:`WorkerCrashError`
on the in-flight batch instead of hanging ``map`` forever, which is what lets
the supervision layer (:mod:`repro.runtime.supervisor`) detect crashes and
restart the pool within a bounded budget.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.flow.dataset_gen import (
    DatasetConfig,
    FeaturisationTask,
    featurisation_worker_init,
    run_featurisation_task,
    run_featurisation_task_with_meta,
)
from repro.graph.dataset import GraphSample
from repro.hls.pragmas import DesignDirectives
from repro.runtime.shm import (
    ArrayBundleSpec,
    ParameterBlockSpec,
    SharedArrayBundle,
    SharedParameterBlock,
    attach_array_bundle,
    attach_parameter_block,
)


class WorkerCrashError(RuntimeError):
    """A pool worker process died abruptly (SIGKILL, segfault) mid-lifetime.

    Raised by the pools when the underlying executor reports
    :class:`~concurrent.futures.process.BrokenProcessPool`: the batch that was
    in flight is lost, the executor is permanently broken, and the pool object
    must be replaced.  This is the one failure the supervision layer treats as
    restartable — task-level exceptions (bad kernels, malformed directives)
    propagate unchanged and never consume restart budget.
    """


def shard_evenly(count: int, shards: int) -> list[slice]:
    """Split ``range(count)`` into at most ``shards`` contiguous, balanced slices.

    Shard sizes differ by at most one and earlier shards get the remainder, so
    the decomposition is a pure function of ``(count, shards)``: the worker
    pool relies on this to merge pooled results back into the exact order the
    serial path would have produced.  Empty shards are never returned; fewer
    than ``shards`` slices come back when ``count < shards``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, count)
    slices: list[slice] = []
    start = 0
    for index in range(shards):
        size = count // shards + (1 if index < count % shards else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def default_start_method() -> str:
    """``fork`` where the platform offers it, ``spawn`` otherwise."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class PoolStats:
    """Bookkeeping of one pool's lifetime."""

    batches: int = 0
    designs: int = 0
    shards: int = 0

    def as_dict(self) -> dict:
        return {"batches": self.batches, "designs": self.designs, "shards": self.shards}


class HeartbeatBook:
    """Thread-safe ``pid -> last-seen wall clock`` map of one pool's workers.

    Heartbeats are passive: every traced shard result carries its worker's
    pid, and the pool stamps the book when it unpacks them.  The book lives
    per pool instance (not per supervisor), so a restarted pool starts clean;
    the service drops every exported series whose pid is not in the current
    generation's book, so ``/metrics`` never advertises dead workers.
    """

    __slots__ = ("_lock", "_seen")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seen: dict[int, float] = {}

    def record(self, pids, now: float | None = None) -> None:
        stamp = time.time() if now is None else now
        with self._lock:
            for pid in pids:
                self._seen[int(pid)] = stamp

    def snapshot(self) -> dict[int, float]:
        with self._lock:
            return dict(self._seen)


@dataclass
class WorkerPool:
    """Shards featurisation batches across worker processes."""

    config: DatasetConfig
    num_workers: int = 2
    start_method: str | None = None
    stats: PoolStats = field(default_factory=PoolStats)
    #: Optional :class:`repro.obs.trace.Tracer`; when set, shards run the
    #: meta-carrying task variant so worker spans (with pids) graft into the
    #: live trace and the heartbeat book stays current.
    tracer: object | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 2:
            raise ValueError("a worker pool needs at least 2 workers")
        self._pool = None
        self._closed = False
        self._lock = threading.Lock()
        self.heartbeat_book = HeartbeatBook()

    # ------------------------------------------------------------------ public

    def featurise(
        self, kernel: str, directives_list: list[DesignDirectives]
    ) -> list[GraphSample]:
        """Featurise one kernel's design list across the pool, in order.

        The merge is deterministic: shard ``i`` covers a contiguous slice of
        ``directives_list`` and results are concatenated in shard order, so
        the returned list is element-for-element the one the serial path
        produces.

        Raises :class:`WorkerCrashError` when a worker process died mid-batch
        (the executor is then permanently broken and the pool must be
        replaced — the supervisor's job, not this class's).
        """
        if not directives_list:
            return []
        pool = self._ensure_pool()
        shards = shard_evenly(len(directives_list), self.num_workers)
        tasks = [
            FeaturisationTask(kernel=kernel, directives=tuple(directives_list[part]))
            for part in shards
        ]
        traced = self.tracer is not None
        worker_fn = run_featurisation_task_with_meta if traced else run_featurisation_task
        try:
            shard_results = list(pool.map(worker_fn, tasks))
        except BrokenProcessPool as fault:
            raise WorkerCrashError(
                "a featurisation worker died mid-batch; the pool is broken"
            ) from fault
        if traced:
            payloads = [payload for _, payload in shard_results]
            shard_results = [samples for samples, _ in shard_results]
            self.heartbeat_book.record(p["pid"] for p in payloads)
            self.tracer.attach_payloads(payloads)
        # Counted on success only: a crashed batch the supervisor retries on
        # a fresh pool (same injected stats object) must not double-count —
        # retries are visible in the supervisor's own retried_batches.
        with self._lock:
            self.stats.batches += 1
            self.stats.designs += len(directives_list)
            self.stats.shards += len(tasks)
        merged: list[GraphSample] = []
        for shard_samples in shard_results:
            merged.extend(shard_samples)
        return merged

    def heartbeats(self) -> dict[int, float]:
        """``pid -> last-seen wall clock`` of the workers that ran shards."""
        return self.heartbeat_book.snapshot()

    def close(self) -> None:
        """Drain in-flight work, stop the workers, refuse further batches.

        Idempotent.  Uses graceful shutdown (``shutdown(wait=True)`` without
        cancelling futures) so a concurrent ``featurise`` finishes instead of
        dying mid-task.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- internals

    def _ensure_pool(self):
        # Locked check-then-act: concurrent cold featurise calls must share
        # one process pool, not each spawn their own (the loser's worker
        # processes would never be terminated).
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot featurise through a closed WorkerPool")
            if self._pool is None:
                context = multiprocessing.get_context(
                    self.start_method or default_start_method()
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_workers,
                    mp_context=context,
                    initializer=featurisation_worker_init,
                    initargs=(self.config,),
                )
            return self._pool


# ------------------------------------------------------------ pooled forward

#: Per-process state of one forward worker: the member models (weights are
#: zero-copy views into the shared segment) and the segment handle keeping
#: those views alive.  Built once by :func:`forward_worker_init`.
_FORWARD_MODELS: list | None = None
_FORWARD_SHM = None


@dataclass(frozen=True)
class ForwardTask:
    """One shard of pooled prediction: a member range over a shared chunk.

    The packed chunk is already scaled, ablation-transformed and packed by
    the parent, and its arrays live in a :class:`SharedArrayBundle` segment —
    the task itself carries only the tiny picklable spec plus a contiguous
    member range.  Deliberately payload-free: neither weights nor the packed
    batch are ever pickled per task.
    """

    chunk_id: int
    bundle: ArrayBundleSpec
    member_start: int
    member_stop: int


def _openblas_function(name: str):
    """``name`` of numpy's bundled OpenBLAS, or ``None`` if none is loaded.

    ``name`` is ``set_num_threads`` or ``get_num_threads``; numpy 2 wheels
    export them as ``scipy_openblas_<name>64_``, older wheels as
    ``openblas_<name>64_``.  ``RTLD_NOLOAD`` only opens a library this
    process already loaded, so a numpy linked against another BLAS is left
    alone.
    """
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*")):
        try:
            library = ctypes.CDLL(str(path), mode=noload)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_"):
            function = getattr(library, symbol, None)
            if function is not None:
                return function
    return None


def forward_worker_init(
    spec: ParameterBlockSpec,
    model_type: type,
    member_configs: tuple,
    dims: tuple[int, int, int],
) -> None:
    """Process-pool initializer: attach the segment, rebuild the members.

    Pins BLAS to one thread first.  Each member model is then constructed
    from its config (cheap — the freshly initialised weights are immediately
    replaced) and its parameters rebound to read-only views of the shared
    block, positionally: identical construction code yields identical
    ``parameters()`` traversal order.
    """
    global _FORWARD_MODELS, _FORWARD_SHM
    # The pool runs one worker per core: left at its default, OpenBLAS would
    # start a thread per core in every worker and oversubscribe the machine.
    set_threads = _openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    shm, views = attach_parameter_block(spec)
    node_dim, edge_dim, meta_dim = dims
    models = []
    for config, member_views in zip(member_configs, views):
        model = model_type(node_dim, edge_dim, meta_dim, config)
        parameters = model.parameters()
        if len(parameters) != len(member_views):
            raise RuntimeError(
                "shared parameter block disagrees with the rebuilt model "
                f"({len(member_views)} blocks vs {len(parameters)} parameters)"
            )
        for parameter, view in zip(parameters, member_views):
            if parameter.data.shape != view.shape:
                raise RuntimeError("shared parameter shape mismatch")
            parameter.data = view
        models.append(model)
    _FORWARD_MODELS = models
    _FORWARD_SHM = shm


def _shared_batch(views: dict[str, np.ndarray]):
    """A zero-copy :class:`~repro.gnn.base.GraphBatch` over a chunk's views."""
    from repro.gnn.base import GraphBatch
    from repro.nn.tensor import Tensor

    return GraphBatch(
        node_features=Tensor(views["node_features"]),
        edge_features=Tensor(views["edge_features"]),
        edge_index=views["edge_index"],
        edge_types=views["edge_types"],
        batch=views["batch"],
        metadata=Tensor(views["metadata"]),
        num_nodes=int(views["node_features"].shape[0]),
        num_graphs=int(views["metadata"].shape[0]),
    )


def run_forward_task(task: ForwardTask) -> np.ndarray:
    """Execute one shard: the member slice's stacked predictions, in order.

    The chunk's bundle is attached for this task only.  The batch built over
    its views dies when the forward returns (it holds no reference cycle),
    so the views are gone before the mapping closes and no mapping outlives
    its task.  The forward runs the same deterministic numpy kernels as the
    serial path, so the returned ``(shard_members, num_graphs)`` block
    equals the same rows of the serial member stack bit for bit.
    """
    if _FORWARD_MODELS is None:
        raise RuntimeError(
            "forward worker is not initialised "
            "(pool must be created with forward_worker_init)"
        )
    from repro.gnn.ensemble import stack_member_predictions

    shm, views = attach_array_bundle(task.bundle)
    try:
        # The exact shard unit the serial path runs (EnsembleRegressor
        # .predict_members); sharing it is what makes the pooled merge
        # bitwise-identical by construction.
        return stack_member_predictions(
            _FORWARD_MODELS[task.member_start : task.member_stop],
            _shared_batch(views),
        )
    finally:
        views.clear()
        shm.close()


def run_forward_task_with_meta(task: ForwardTask):
    """Like :func:`run_forward_task`, plus a span payload for tracing.

    Returns ``(stack, payload)`` where the payload is the picklable span dict
    of :func:`repro.obs.trace.span_payload` — the parent grafts it into the
    live trace (worker pid and all) and stamps the heartbeat book from it.
    The stack itself is byte-identical to the untraced variant's.
    """
    from repro.obs.trace import span_payload

    wall_start = time.time()
    clock_start = time.perf_counter()
    stack = run_forward_task(task)
    return stack, span_payload(
        "forward.shard",
        wall_start,
        time.perf_counter() - clock_start,
        chunk=task.chunk_id,
        members=task.member_stop - task.member_start,
    )


@dataclass
class ForwardPoolStats:
    """Bookkeeping of one forward pool's lifetime."""

    batches: int = 0
    designs: int = 0
    shards: int = 0
    member_forwards: int = 0
    shared_bytes: int = 0
    #: Bytes of packed-batch arrays published through shared memory for the
    #: most recent batch (a gauge, like ``shared_bytes`` for the weights).
    shared_batch_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "designs": self.designs,
            "shards": self.shards,
            "member_forwards": self.member_forwards,
            "shared_bytes": self.shared_bytes,
            "shared_batch_bytes": self.shared_batch_bytes,
        }


def _publish_chunk(packed) -> SharedArrayBundle:
    """Copy one packed chunk's arrays into a fresh shared bundle."""
    metadata = np.asarray(packed.metadata, dtype=np.float64)
    if metadata.ndim == 1:
        metadata = metadata.reshape(1, -1)
    return SharedArrayBundle.create(
        {
            "node_features": np.asarray(packed.node_features, dtype=np.float64),
            "edge_features": np.asarray(packed.edge_features, dtype=np.float64),
            "edge_index": np.asarray(packed.edge_index, dtype=np.int64),
            "edge_types": np.asarray(packed.edge_types, dtype=np.int64),
            "batch": np.asarray(packed.batch, dtype=np.int64),
            "metadata": metadata,
        }
    )


class ForwardPool:
    """Shards a fitted ensemble's packed forward across its members.

    Bound to one fitted :class:`~repro.flow.powergear.PowerGear` whose
    ensemble has at least two members (the shared segment is a snapshot of
    its weights at construction).  The parent prepares each chunk exactly as
    the serial :meth:`~repro.flow.powergear.PowerGear.predict_batch` would —
    scaler, ablation transforms, block-diagonal pack — publishes the packed
    arrays through a per-chunk :class:`SharedArrayBundle`, and hands each
    worker a contiguous member slice (:func:`shard_evenly`).  Shard stacks
    concatenate in member order into the serial ``(members, graphs)`` stack
    bit for bit, so pooled predictions are bitwise-identical to serial ones.

    IPC cost model: nothing heavy travels in task pickles — weights live in
    the parameter segment and each chunk's packed arrays in the chunk's
    bundle segment; a task is a spec plus member bounds (a few hundred
    bytes).
    """

    def __init__(
        self,
        model,
        num_workers: int = 2,
        start_method: str | None = None,
        stats: ForwardPoolStats | None = None,
        tracer: object | None = None,
    ) -> None:
        if num_workers < 2:
            raise ValueError("a forward pool needs at least 2 workers")
        ensemble = getattr(model, "ensemble", None)
        if ensemble is None or len(ensemble.members) < 2:
            raise ValueError(
                "the forward pool shards ensemble members: it requires a "
                "fitted ensemble of at least two members"
            )
        self.model = model
        self.num_workers = num_workers
        self.start_method = start_method
        # An injected stats object survives pool rebuilds: the supervisor
        # passes one so lifetime counters aggregate across restarts.
        self.stats = stats if stats is not None else ForwardPoolStats()
        self.tracer = tracer
        self.heartbeat_book = HeartbeatBook()
        self._pool = None
        self._block: SharedParameterBlock | None = None
        self._closed = False
        self._lock = threading.Lock()

    @property
    def num_members(self) -> int:
        return len(self.model.ensemble.members)

    def _model_fingerprint(self) -> str | None:
        """The bound model's content fingerprint, for segment provenance."""
        fingerprint = getattr(self.model, "fingerprint", None)
        if callable(fingerprint):
            try:
                return fingerprint()
            except Exception:  # noqa: BLE001 - provenance only, never fatal
                return None
        return None

    # ------------------------------------------------------------------ public

    def predict_batch(self, samples: list, batch_size: int | None = None) -> np.ndarray:
        """Pooled equivalent of ``PowerGear.predict_batch`` (bitwise-identical).

        Preprocessing is shared code, not a re-implementation: the scaler runs
        through ``PowerGear.prepare_samples``, chunk boundaries and graph
        preparation come from ``EnsembleRegressor.iter_prepared_chunks`` and
        the final clamp is ``PowerGear.clamp_predictions`` — only the member
        fan-out/merge is pool-specific.
        """
        if not samples:
            return np.zeros(0)
        pool = self._ensure_pool()
        prepared = self.model.prepare_samples(samples)
        graphs = [sample.graph for sample in prepared]
        members = shard_evenly(self.num_members, self.num_workers)

        chunks: list[tuple[int, int]] = []
        tasks: list[ForwardTask] = []
        bundles: list[SharedArrayBundle] = []
        try:
            for chunk_id, (start, length, packed) in enumerate(
                self.model.ensemble.iter_prepared_chunks(graphs, batch_size)
            ):
                bundle = _publish_chunk(packed)
                bundles.append(bundle)
                chunks.append((start, length))
                tasks.extend(
                    ForwardTask(chunk_id, bundle.spec, part.start, part.stop)
                    for part in members
                )
            traced = self.tracer is not None
            worker_fn = run_forward_task_with_meta if traced else run_forward_task
            try:
                shard_stacks = list(pool.map(worker_fn, tasks))
            except BrokenProcessPool as fault:
                raise WorkerCrashError(
                    "a forward worker died mid-batch; the pool is broken"
                ) from fault
        finally:
            # The owner unlinks every chunk bundle whether the batch
            # succeeded or died: attached workers keep their mappings valid
            # (unlink only removes the name), so nothing is yanked mid-task,
            # and /dev/shm never accretes batch-sized segments.
            for bundle in bundles:
                bundle.unlink()
        if traced:
            payloads = [payload for _, payload in shard_stacks]
            shard_stacks = [stack for stack, _ in shard_stacks]
            self.heartbeat_book.record(p["pid"] for p in payloads)
            self.tracer.attach_payloads(payloads)
        # Counted on success only (see WorkerPool.featurise): supervised
        # retries must not double-count the lifetime throughput counters.
        with self._lock:
            self.stats.batches += 1
            self.stats.designs += len(graphs)
            self.stats.shards += len(tasks)
            self.stats.member_forwards += self.num_members * len(chunks)
            self.stats.shared_batch_bytes = sum(
                bundle.nbytes for bundle in bundles
            )
        outputs = np.zeros(len(graphs))
        for index, (start, length) in enumerate(chunks):
            # Contiguous member shards stack back into the serial
            # (members, graphs) stack, bit for bit.
            stacks = shard_stacks[index * len(members) : (index + 1) * len(members)]
            outputs[start : start + length] = np.concatenate(stacks).mean(axis=0)
        return type(self.model).clamp_predictions(outputs)

    def heartbeats(self) -> dict[int, float]:
        """``pid -> last-seen wall clock`` of the workers that ran shards."""
        return self.heartbeat_book.snapshot()

    def close(self) -> None:
        """Drain in-flight work, stop the workers, release the shared segment."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            block, self._block = self._block, None
        if pool is not None:
            pool.shutdown(wait=True)
        if block is not None:
            block.unlink()

    def __enter__(self) -> "ForwardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- internals

    def _ensure_pool(self):
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot predict through a closed ForwardPool")
            if self._pool is None:
                members = [member.model for member in self.model.ensemble.members]
                reference = members[0]
                dims = (
                    reference.node_feature_dim,
                    reference.edge_feature_dim,
                    reference.metadata_dim,
                )
                configs = tuple(model.config for model in members)
                # Validate the rebuild contract HERE, in the parent: an
                # exception inside an executor initializer only surfaces
                # later as an opaque BrokenProcessPool — which the supervisor
                # would misread as a worker crash and burn restart budget on.
                # Rebuilding one member up front turns any construction/
                # traversal-order divergence into an immediate RuntimeError
                # the service's serial fallback catches.
                rebuilt = type(reference)(*dims, configs[0])
                expected = [p.data.shape for p in reference.parameters()]
                actual = [p.data.shape for p in rebuilt.parameters()]
                if expected != actual:
                    raise RuntimeError(
                        "member models do not rebuild with identical parameter "
                        f"shapes ({actual} vs {expected}); cannot share weights"
                    )
                block = SharedParameterBlock.create(
                    [
                        [parameter.data for parameter in model.parameters()]
                        for model in members
                    ],
                    fingerprint=self._model_fingerprint(),
                )
                context = multiprocessing.get_context(
                    self.start_method or default_start_method()
                )
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.num_workers,
                        mp_context=context,
                        initializer=forward_worker_init,
                        initargs=(block.spec, type(reference), configs, dims),
                    )
                except Exception:
                    # Pool construction failed (spawn pickling, fd/process
                    # limits): release the segment instead of leaking an
                    # ensemble-sized /dev/shm allocation per retried request.
                    block.unlink()
                    raise
                self._block = block
                self.stats.shared_bytes = block.nbytes
            return self._pool
