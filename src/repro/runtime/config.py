"""Configuration of the parallel serving runtime.

One frozen dataclass carries every knob of the runtime components —
the featurisation :class:`~repro.runtime.pool.WorkerPool`, the pooled-forward
:class:`~repro.runtime.pool.ForwardPool`, the
:class:`~repro.runtime.microbatch.MicroBatcher` request coalescer and the
:class:`~repro.runtime.cache.PersistentCache` disk tier — so
:class:`~repro.serve.service.PowerEstimationService` can be handed a single
``runtime=RuntimeConfig(...)`` argument.  The defaults disable everything:
a service constructed without a runtime config behaves exactly like the
serial, in-memory-cached service of PR 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the parallel serving runtime (all off by default)."""

    #: Number of featurisation worker processes; 0 or 1 keeps featurisation
    #: serial in the service process.
    num_workers: int = 0

    #: How many times a supervised pool (featurisation or forward) may be
    #: restarted after a worker crash before it retires to the serial path
    #: for the rest of the service's life.  0 restores the old one-strike
    #: policy.
    pool_max_restarts: int = 3
    #: Base of the exponential backoff between pool restarts, in seconds
    #: (restart ``k`` waits ``base * 2**(k-1)``, capped at 2 s).
    pool_restart_backoff_s: float = 0.05
    #: Multiprocessing start method (``"fork"`` / ``"spawn"`` /
    #: ``"forkserver"``); ``None`` picks ``fork`` where available (cheap, and
    #: the workers rebuild their generator anyway) and ``spawn`` elsewhere.
    start_method: str | None = None
    #: Below ``num_workers * min_designs_per_worker`` featurisation misses a
    #: batch stays serial: sharding two designs across four processes costs
    #: more in IPC than it saves.
    min_designs_per_worker: int = 2

    #: Number of pooled-forward worker processes; 0 or 1 keeps the packed
    #: forward in the service process.  Only engages for ensemble models of
    #: at least two members, whose members the workers split (weights are
    #: published once as a read-only shared-memory block; see
    #: :class:`~repro.runtime.pool.ForwardPool`).
    forward_workers: int = 0
    #: Batches smaller than this run the forward in-process: on a handful of
    #: designs the pool's IPC costs more than the member forwards it splits.
    forward_min_graphs: int = 8

    #: Maximum coalesced batch: the micro-batcher flushes as soon as this many
    #: single-design ``estimate`` calls have gathered.
    coalesce_max_batch: int = 16
    #: How long (milliseconds) the first request of a batch may wait for
    #: company before the batch flushes anyway.  0 disables coalescing:
    #: ``estimate`` calls run directly.
    coalesce_window_ms: float = 0.0

    #: Directory of the persistent second cache tier; ``None`` disables it.
    persistent_cache_dir: str | Path | None = None
    #: Byte budget of the on-disk sample store; the cost-aware eviction policy
    #: keeps total sample bytes under this.
    persistent_cache_max_bytes: int = 256 * 1024 * 1024

    #: Whether the service records request traces (:mod:`repro.obs.trace`).
    #: On by default: the per-span cost is sub-microsecond (gated by
    #: ``benchmarks/test_obs_overhead.py``) and predictions are bitwise-
    #: identical either way — tracing is side-band by construction.
    tracing: bool = True
    #: Completed traces kept in the in-memory ring ``GET /v1/traces`` serves.
    trace_ring: int = 128
    #: Pool lifecycle events kept in the timeline ``GET /v1/events`` serves.
    event_ring: int = 512

    #: Admission-control limit of the async gateway: the maximum number of
    #: designs that may be in flight (submitted, not yet answered) at once.
    #: A submission that would exceed it fast-fails with
    #: :class:`~repro.runtime.gateway.GatewayBackpressureError` instead of
    #: queueing unboundedly.
    gateway_max_in_flight: int = 1024
    #: Size of the gateway's bridge thread pool.  Each thread carries one
    #: blocking service call at a time, so this bounds how many concurrent
    #: requests can park in the micro-batcher (and therefore the largest
    #: coalesced batch the gateway can produce).
    gateway_threads: int = 32

    #: Durable checkpoint directory of the async job service; ``None`` defers
    #: to ``<persistent_cache_dir>/jobs`` (when persistence is enabled) and
    #: finally to memory-only jobs that do not survive a restart.
    jobs_dir: str | Path | None = None
    #: Bound of the job table (live + finished records).  Finished jobs are
    #: evicted oldest-first to admit new ones; a table full of *live* jobs is
    #: typed backpressure (429 ``job_table_full``).
    max_jobs: int = 64
    #: Active (queued + running) jobs one client may hold; the excess
    #: submission fast-fails with the 429 ``job_quota`` envelope.
    max_jobs_per_client: int = 4
    #: Runner threads draining the job queues (each carries one exploration
    #: at a time, stepping it iteration by iteration).
    job_runners: int = 2
    #: Sleep between job iterations, in seconds.  0 (the default) runs flat
    #: out; a positive value throttles jobs — the knob chaos/latency tests
    #: use to pin a job mid-flight deterministically.
    job_step_delay_s: float = 0.0
    #: Bound of the deployment resolver's read-through artifact cache: how
    #: many *non-default* model artifacts (plan champions/challengers) stay
    #: loaded at once.  The ambient default model is pinned outside the
    #: cache; evictions past the bound reload weights from the registry on
    #: next use (and surface as ``artifact_evicted`` events).
    deploy_artifact_cache_entries: int = 4

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.pool_max_restarts < 0:
            raise ValueError("pool_max_restarts must be >= 0")
        if self.pool_restart_backoff_s < 0:
            raise ValueError("pool_restart_backoff_s must be >= 0")
        if self.forward_workers < 0:
            raise ValueError("forward_workers must be >= 0")
        if self.forward_min_graphs < 2:
            raise ValueError("forward_min_graphs must be >= 2")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(f"unknown start method {self.start_method!r}")
        if self.min_designs_per_worker < 1:
            raise ValueError("min_designs_per_worker must be >= 1")
        if self.coalesce_max_batch < 1:
            raise ValueError("coalesce_max_batch must be >= 1")
        if self.coalesce_window_ms < 0:
            raise ValueError("coalesce_window_ms must be >= 0")
        if self.persistent_cache_max_bytes < 1:
            raise ValueError("persistent_cache_max_bytes must be >= 1")
        if self.trace_ring < 1:
            raise ValueError("trace_ring must be >= 1")
        if self.event_ring < 1:
            raise ValueError("event_ring must be >= 1")
        if self.gateway_max_in_flight < 1:
            raise ValueError("gateway_max_in_flight must be >= 1")
        if self.gateway_threads < 1:
            raise ValueError("gateway_threads must be >= 1")
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if self.max_jobs_per_client < 1:
            raise ValueError("max_jobs_per_client must be >= 1")
        if self.job_runners < 1:
            raise ValueError("job_runners must be >= 1")
        if self.job_step_delay_s < 0:
            raise ValueError("job_step_delay_s must be >= 0")
        if self.deploy_artifact_cache_entries < 1:
            raise ValueError("deploy_artifact_cache_entries must be >= 1")

    @property
    def parallel_featurisation(self) -> bool:
        return self.num_workers > 1

    @property
    def parallel_forward(self) -> bool:
        return self.forward_workers > 1

    @property
    def coalescing_enabled(self) -> bool:
        return self.coalesce_window_ms > 0

    @property
    def persistence_enabled(self) -> bool:
        return self.persistent_cache_dir is not None
