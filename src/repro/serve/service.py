"""The power-estimation service façade.

:class:`PowerEstimationService` is the request/response layer on top of the
reproduction: a fitted :class:`~repro.flow.powergear.PowerGear` (either passed
in or loaded from a :class:`~repro.serve.registry.ModelRegistry` artifact),
the featurisation pipeline, the content-addressed
:class:`~repro.serve.cache.InferenceCache` and the batched inference engine,
behind three endpoints:

* :meth:`~PowerEstimationService.estimate` — one design point;
* :meth:`~PowerEstimationService.estimate_many` — a request batch: cache
  lookups first (featurisation by ``(kernel, directives)`` content address,
  predictions by graph-content x model fingerprint), then one grouped
  featurisation pass per kernel and one batched ensemble forward pass for
  every remaining miss;
* :meth:`~PowerEstimationService.explore` — the paper's DSE case study as a
  service call: drive :class:`~repro.dse.explorer.ParetoExplorer` over a
  kernel's design space with the cached, batched predictor as the fast oracle.

Every endpoint records wall-clock latency and throughput in
:class:`ServiceMetrics`.

The service optionally runs on the parallel runtime of :mod:`repro.runtime`
(pass ``runtime=RuntimeConfig(...)``): featurisation of large batches shards
across a multi-process :class:`~repro.runtime.pool.WorkerPool`, the packed
forward of an ensemble shards its members across a
:class:`~repro.runtime.pool.ForwardPool` on shared-memory parameter blocks,
concurrent single-design ``estimate`` calls coalesce into packed batches
through a :class:`~repro.runtime.microbatch.MicroBatcher`, and the inference
cache gains a persistent on-disk tier
(:class:`~repro.runtime.cache.PersistentCache`) with cost-aware eviction so
warm sets survive restarts.  All of them preserve the serial path's results
exactly.

Both pools run under :class:`~repro.runtime.supervisor.SupervisedPool` at
a fixed size (``num_workers`` featurisation workers, ``forward_workers``
forward workers): a crashed worker restarts within
``RuntimeConfig.pool_max_restarts`` (with exponential backoff) instead of
retiring the pool on the first strike, and per-pool health snapshots surface
through :meth:`PowerEstimationService.runtime_stats`,
:meth:`PowerEstimationService.health` and the HTTP ``/metrics`` /
``/healthz`` endpoints.

Every forward runs the one kernel set of :mod:`repro.backend`; its forward
and op counters are exported through
:meth:`PowerEstimationService.runtime_stats` and the HTTP ``/metrics``
endpoint.

A registry-backed service also holds a
:class:`~repro.deploy.resolver.ModelResolver`: each request batch resolves
against one immutable snapshot of the live :mod:`deployment plan
<repro.deploy>` (kernel patterns → artifact ``(name, version)``, optional
canary/shadow challenger split by a deterministic hash of the design point),
so a promote or rollback mid-load never mixes artifacts within one batch,
and with no plan installed every path — fresh, cached, pooled, coalesced —
is bitwise-identical to the single-model service this layer replaced.
Challenger-arm designs are predicted by *both* arms; the divergence is
exported as drift metrics, and in shadow mode the champion's answer is what
callers receive.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backend import active_backend
from repro.dse.explorer import (
    DesignCandidate,
    DSEConfig,
    DSEResult,
    ExplorationState,
    ParetoExplorer,
)
from repro.flow.dataset_gen import DatasetGenerator
from repro.flow.powergear import PowerGear
from repro.hls.op_library import DEFAULT_LIBRARY
from repro.hls.pragmas import DesignDirectives
from repro.graph.dataset import GraphSample
from repro.kernels.polybench import polybench_kernel
from repro.runtime import (
    ForwardPool,
    ForwardPoolStats,
    ItemError,
    MicroBatcher,
    PersistentCache,
    PoolRetiredError,
    PoolStats,
    RuntimeConfig,
    SupervisedPool,
    WorkerPool,
)
from repro.deploy.plan import DeploymentPlan
from repro.deploy.resolver import ModelResolver, ResolvedModel
from repro.obs import Observability
from repro.obs.logs import log_event
from repro.obs.metrics import json_safe
from repro.serve.cache import InferenceCache, sample_fingerprint
from repro.serve.registry import ModelRegistry, load_artifact_dir


# ------------------------------------------------------------------ requests


@dataclass(frozen=True)
class EstimateRequest:
    """One design point to estimate.

    Either ``directives`` (the service featurises the design itself) or a
    pre-featurised ``sample`` must be provided.
    """

    kernel: str
    directives: DesignDirectives | None = None
    sample: GraphSample | None = None

    def __post_init__(self) -> None:
        if (self.directives is None) == (self.sample is None):
            raise ValueError("provide exactly one of directives or sample")

    @staticmethod
    def from_sample(sample: GraphSample) -> "EstimateRequest":
        return EstimateRequest(kernel=sample.kernel, sample=sample)

    @property
    def directives_key(self) -> str:
        if self.sample is not None:
            return self.sample.directives
        return self.directives.describe()


@dataclass(frozen=True)
class EstimateResponse:
    """Predicted power of one design point.

    ``latency_ms`` is the wall-clock latency of the service call that produced
    this response (shared by every response of one ``estimate_many`` batch).
    """

    kernel: str
    directives: str
    power: float
    target: str
    cached_features: bool
    cached_prediction: bool
    latency_ms: float
    model_fingerprint: str
    #: Which artifact served this design and in what role — present only when
    #: a deployment plan resolved the request (``None`` keeps the no-plan wire
    #: format byte-identical to the pre-deployment service).
    served_by: dict | None = None


@dataclass(frozen=True)
class FrontierDesign:
    """One approximate-Pareto design returned by :meth:`explore`."""

    kernel: str
    directives: str
    latency_cycles: int
    predicted_power: float
    measured_power: float


@dataclass
class ExploreReport:
    """Outcome of one service-side design-space exploration."""

    kernel: str
    budget: float
    result: DSEResult
    frontier: list[FrontierDesign]
    num_candidates: int
    elapsed_seconds: float

    @property
    def adrs(self) -> float:
        return self.result.adrs


class ExplorationSession:
    """One exploration, driven incrementally over the service's predictor.

    Both explore paths share this object: the blocking
    :meth:`PowerEstimationService.explore` runs ``step()`` to completion in
    one call, the async job service runs one ``step()`` per scheduling slice
    and checkpoints ``session.state`` between them.  Because the state *is*
    the loop (see :class:`~repro.dse.explorer.ExplorationState`), the two
    drivers — and a driver resumed from a checkpoint in a fresh process —
    produce bitwise-identical frontiers, ADRS and predictions.
    """

    def __init__(
        self,
        service: "PowerEstimationService",
        kernel: str,
        config: DSEConfig,
        candidates: list[DesignCandidate],
        state: ExplorationState | None = None,
        plan: DeploymentPlan | None = None,
    ) -> None:
        self.service = service
        self.kernel = kernel
        self.config = config
        self.candidates = candidates
        # The deployment plan this exploration is pinned to: every step of
        # every slice — including slices run after a crash-resume in a fresh
        # process — predicts through this one immutable plan, so publishes
        # that land mid-job cannot change the trajectory and resume stays
        # bitwise.
        self.plan = plan
        self.explorer = ParetoExplorer(config)
        self.state = state if state is not None else self.explorer.start(candidates)
        self._started = time.perf_counter()

    @property
    def done(self) -> bool:
        return self.state.done

    @property
    def plan_seq(self) -> int | None:
        """Seq of the pinned deployment plan (checkpointed by the job tier)."""
        return self.plan.seq if self.plan is not None else None

    def step(self) -> dict:
        """One explorer iteration (predict → frontier → select next batch)."""
        return self.explorer.step(self.candidates, self.state, self._predictor)

    def _predictor(self, batch: list[DesignCandidate]) -> np.ndarray:
        predictions, _, _ = self.service._predict_samples(
            [c.payload for c in batch], plan=self.plan
        )
        return predictions

    def report(self) -> "ExploreReport":
        """Finalise and account the exploration (frontier, ADRS, metrics).

        ``elapsed_seconds`` covers this session object's lifetime — for a
        resumed job that is the final slice, not the pre-crash time, which
        is the honest number (wall-clock is the one field exempt from the
        bitwise contract).
        """
        service = self.service
        result = self.explorer.finalize(self.candidates, self.state)
        frontier = [
            FrontierDesign(
                kernel=self.candidates[i].payload.kernel,
                directives=self.candidates[i].payload.directives,
                latency_cycles=int(self.candidates[i].latency),
                predicted_power=result.predictions.get(i, float("nan")),
                measured_power=self.candidates[i].true_power,
            )
            for i in result.approximate_pareto_indices
        ]
        service._sync_disk_tier()
        elapsed = time.perf_counter() - self._started
        service.metrics.record(explorations=1, total_seconds=elapsed)
        service.obs.request_seconds.labels(endpoint="explore").observe(elapsed)
        log_event(
            service.obs.logger,
            "request",
            endpoint="explore",
            kernel=self.kernel,
            candidates=len(self.candidates),
            latency_ms=round(elapsed * 1e3, 3),
        )
        return ExploreReport(
            kernel=self.kernel,
            budget=self.config.total_budget,
            result=result,
            frontier=frontier,
            num_candidates=len(self.candidates),
            elapsed_seconds=elapsed,
        )


@dataclass
class ServiceMetrics:
    """Latency / throughput instrumentation of the service.

    Thread-safe: the micro-batcher records latencies from whichever caller
    thread claims a flush, so every mutation goes through :meth:`record`,
    which holds an internal lock.  ``snapshot`` takes the same lock so its
    view is consistent (no torn reads between related counters).
    """

    requests: int = 0
    designs: int = 0
    batches: int = 0
    featurised: int = 0
    pooled_featurised: int = 0
    predicted: int = 0
    pooled_predicted: int = 0
    pooled_errors: int = 0
    pool_restarts: int = 0
    featurise_seconds: float = 0.0
    predict_seconds: float = 0.0
    total_seconds: float = 0.0
    explorations: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, **deltas: float) -> None:
        """Atomically add ``deltas`` to the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                if name.startswith("_") or not hasattr(self, name):
                    raise AttributeError(f"ServiceMetrics has no counter {name!r}")
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> dict:
        """Point-in-time metrics dictionary (counts, seconds, throughput)."""
        with self._lock:
            return {
                "requests": self.requests,
                "designs": self.designs,
                "batches": self.batches,
                "featurised": self.featurised,
                "pooled_featurised": self.pooled_featurised,
                "predicted": self.predicted,
                "pooled_predicted": self.pooled_predicted,
                "pooled_errors": self.pooled_errors,
                "pool_restarts": self.pool_restarts,
                "explorations": self.explorations,
                "featurise_seconds": self.featurise_seconds,
                "predict_seconds": self.predict_seconds,
                "total_seconds": self.total_seconds,
                "designs_per_second": (
                    self.designs / self.total_seconds if self.total_seconds > 0 else 0.0
                ),
                # Guarded means: a fresh service reports 0.0, never NaN —
                # /metrics serialises with allow_nan=False and one stray
                # non-finite float would turn a scrape into a 500.
                "mean_featurise_ms_per_design": (
                    self.featurise_seconds * 1e3 / self.featurised
                    if self.featurised
                    else 0.0
                ),
                "mean_predict_ms_per_design": (
                    self.predict_seconds * 1e3 / self.predicted
                    if self.predicted
                    else 0.0
                ),
            }


# ------------------------------------------------------------------- service


class PowerEstimationService:
    """Batched, cached power estimation behind a small request/response API."""

    def __init__(
        self,
        model: PowerGear | None = None,
        *,
        registry: ModelRegistry | str | Path | None = None,
        model_name: str | None = None,
        model_version: int | None = None,
        generator: DatasetGenerator | None = None,
        cache: InferenceCache | None = None,
        batch_size: int = 64,
        runtime: RuntimeConfig | None = None,
    ) -> None:
        if registry is not None and not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        default_version = model_version
        if model is None:
            if registry is None or model_name is None:
                raise ValueError(
                    "provide a fitted model, or a registry plus model_name to load one"
                )
            artifact = registry.load_artifact(model_name, model_version)
            model = load_artifact_dir(artifact.path)
            # Pin the *resolved* version: the resolver must know the default
            # artifact's identity so plan rules naming it reuse the already
            # loaded (and pool-published) model instead of a cache copy.
            default_version = artifact.version
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.generator = generator or DatasetGenerator()
        self.runtime = runtime or RuntimeConfig()
        # One observability bundle per service (tracer + metrics registry +
        # event timeline + structured logger); every runtime layer below gets
        # a handle into it.  Built before the cache/pools so construction-time
        # conditions (e.g. a read-only disk tier) land in the timeline too.
        self.obs = Observability(
            tracing=self.runtime.tracing,
            trace_ring=self.runtime.trace_ring,
            event_ring=self.runtime.event_ring,
        )
        cache = cache or InferenceCache()
        if self.runtime.persistence_enabled and cache.persistent is None:
            cache.persistent = PersistentCache(
                self.runtime.persistent_cache_dir,
                max_bytes=self.runtime.persistent_cache_max_bytes,
            )
        cache.observer = self.obs
        if cache.persistent is not None and getattr(
            cache.persistent, "read_only", False
        ):
            self.obs.pool_event(
                "cache_read_only",
                pool="persistent_cache",
                directory=str(self.runtime.persistent_cache_dir),
            )
        self.cache = cache
        self.batch_size = batch_size
        self.metrics = ServiceMetrics()
        self.model_fingerprint = model.fingerprint()
        # The deployment layer: a registry-backed service resolves every
        # request batch against the live plan; without a registry there is
        # nothing to resolve artifacts from, so the resolver is None and the
        # deployment API reports itself disabled.
        self.registry = registry
        self.resolver: ModelResolver | None = None
        if registry is not None:
            self.resolver = ModelResolver(
                registry,
                default_model=model,
                default_name=model_name,
                default_version=default_version,
                default_fingerprint=self.model_fingerprint,
                cache_entries=self.runtime.deploy_artifact_cache_entries,
                on_evict=lambda key, value: self.obs.pool_event(
                    "artifact_evicted", pool="deploy", artifact=key
                ),
            )
        self._default_resolved = (
            self.resolver.default
            if self.resolver is not None
            else ResolvedModel(
                name=model_name,
                version=default_version,
                role="default",
                model=model,
                fingerprint=self.model_fingerprint,
            )
        )
        # Pools live behind supervisors (repro.runtime.supervisor): crashes
        # restart the pool within RuntimeConfig.pool_max_restarts instead of
        # retiring it on the first strike.  The stats objects are
        # service-owned so lifetime counters survive pool rebuilds.
        self._feat_supervisor: SupervisedPool | None = None
        self._forward_supervisor: SupervisedPool | None = None
        self._pool_stats = PoolStats()
        self._forward_pool_stats = ForwardPoolStats()
        # (pool, pid) series of the heartbeat gauge exported by the last
        # /metrics refresh; the next refresh removes the ones that died.
        self._heartbeat_series: set[tuple[str, str]] = set()
        # Consecutive non-crash pooled failures per supervisor name: crashes
        # are the supervisor's restart budget, but a pool that fails
        # *deterministically* (e.g. construction-time validation) would
        # otherwise re-pay its doomed setup on every batch forever.
        self._pool_strikes: dict[str, int] = {}
        self._pool_lock = threading.Lock()
        # In-process forward passes flip the model's train/eval mode and the
        # process-wide autograd flag, so concurrent batches (the gateway runs
        # each estimate_many batch in its own bridge thread) must take turns
        # on the model.  Pooled forwards run in single-threaded workers and
        # don't need it.
        self._model_lock = threading.Lock()
        self._closed = False
        self._close_hooks: list = []
        self._batcher: MicroBatcher | None = None
        if self.runtime.coalescing_enabled:
            self._batcher = MicroBatcher(
                self._coalesced_flush,
                max_batch=self.runtime.coalesce_max_batch,
                max_delay=self.runtime.coalesce_window_ms / 1e3,
                tracer=self.obs.tracer,
            )

    @property
    def target(self) -> str:
        return self.model.config.target

    # --------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has started (the service runs degraded)."""
        return self._closed

    def add_close_hook(self, hook) -> None:
        """Register a zero-argument callable to run first when :meth:`close` runs.

        Front ends layered over the service (the async gateway, an HTTP
        server) register themselves here so a service shutdown propagates
        outward: the hook runs before any runtime component is torn down,
        letting the front end stop admitting new requests while the ones
        already in flight still complete on the degraded serial path.  Hooks
        run at most once; exceptions are the hook's problem, not the close's
        (a failing front end must not leak worker processes).
        """
        self._close_hooks.append(hook)

    def remove_close_hook(self, hook) -> None:
        """Deregister a close hook; no-op if absent (or already consumed).

        Front ends that close before the service must deregister, or a
        long-lived service would keep every dead front end reachable through
        its hook list.
        """
        try:
            self._close_hooks.remove(hook)
        except ValueError:
            pass

    def close(self) -> None:
        """Flush pending coalesced work, stop the worker pool, sync the disk tier.

        Idempotent.  The service stays usable afterwards but degrades to the
        plain serial path: no new worker pool is ever spawned (a closed
        service must not resurrect worker processes), and coalescing is off.
        """
        log_event(self.obs.logger, "service.close", already_closed=self._closed)
        hooks, self._close_hooks = self._close_hooks, []
        for hook in hooks:
            try:
                hook()
            except Exception:
                pass
        batcher, self._batcher = self._batcher, None
        if batcher is not None:
            batcher.close()
        with self._pool_lock:
            self._closed = True
            feat, self._feat_supervisor = self._feat_supervisor, None
            forward, self._forward_supervisor = self._forward_supervisor, None
        if feat is not None:
            feat.close()
        if forward is not None:
            forward.close()
        if self.cache.persistent is not None:
            # Persist pending mutations and release the directory's owner
            # lock (another process may take over); the tier keeps serving
            # reads on the degraded path but becomes read-only.
            close = getattr(self.cache.persistent, "close", None)
            if close is not None:
                close()
            else:  # duck-typed tier without a close: at least persist
                self.cache.persistent.sync()

    def __enter__(self) -> "PowerEstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def runtime_stats(self) -> dict:
        """Instrumentation of the runtime components (pools, coalescer, caches).

        Each pool entry merges the pool's lifetime throughput counters
        (which survive supervised restarts) with the supervisor's health
        snapshot under ``"supervisor"`` (state, size, queue depth, restart
        budget, last fault).

        ``backend`` reports the kernel set's forward and op counters (one
        process-wide instance, so the numbers aggregate across services
        sharing the process; pooled forwards run in the workers and are not
        counted here).
        """
        feat = self._feat_supervisor
        forward = self._forward_supervisor
        return {
            "pool": (
                {**self._pool_stats.as_dict(), "supervisor": feat.health()}
                if feat is not None
                else None
            ),
            "forward_pool": (
                {**self._forward_pool_stats.as_dict(), "supervisor": forward.health()}
                if forward is not None
                else None
            ),
            "coalescer": (
                self._batcher.stats.as_dict() if self._batcher is not None else None
            ),
            "cache": self.cache.stats(),
            "backend": active_backend().stats.as_dict(),
        }

    def metrics_snapshot(self) -> dict:
        """One consistent, JSON-serialisable view of the whole service.

        Combines the endpoint counters (:class:`ServiceMetrics`), real
        latency quantiles from the histogram registry (p50/p95/p99 per
        endpoint and per stage), the runtime instrumentation (pool /
        coalescer / cache tiers) and the model identity; this is what the
        HTTP ``/metrics`` endpoint exports.  Routed through
        :func:`repro.obs.metrics.json_safe`: strict JSON out, never
        ``NaN``/``Infinity``.
        """
        self._refresh_heartbeat_gauges()
        return json_safe(
            {
                "service": self.metrics.snapshot(),
                "latency": {
                    "request": self.obs.request_seconds.snapshot(),
                    "stages": self.obs.stage_seconds.snapshot(),
                },
                "observability": self.obs.snapshot(),
                "runtime": self.runtime_stats(),
                "model": {
                    "fingerprint": self.model_fingerprint,
                    "target": self.target,
                },
                "deployment": (
                    self.resolver.describe() if self.resolver is not None else None
                ),
                "closed": self._closed,
            }
        )

    def _refresh_heartbeat_gauges(self) -> None:
        """Project per-worker last-heartbeat ages into the metrics registry.

        Only the current pool generation's workers are exported: a series
        whose pid left the heartbeat book (its pool crashed, restarted or
        closed) is removed, so a dead worker never looks alive.
        """
        gauge = self.obs.worker_heartbeat_age
        # Under the lock, so concurrent scrapes cannot interleave a stale
        # live set with a newer one and leave a dead series behind.
        with self._pool_lock:
            live = set()
            for name, supervisor in (
                ("featurisation", self._feat_supervisor),
                ("forward", self._forward_supervisor),
            ):
                if supervisor is None:
                    continue
                heartbeats = supervisor.health().get("heartbeats") or {}
                for pid, info in heartbeats.items():
                    gauge.labels(pool=name, pid=pid).set(info["age_s"])
                    live.add((name, pid))
            for labels in self._heartbeat_series - live:
                gauge.remove(*labels)
            self._heartbeat_series = live

    def health(self) -> dict:
        """Liveness/degradation summary (what the HTTP ``/healthz`` serves).

        ``status`` is ``"ok"`` while every supervised pool is healthy,
        ``"degraded"`` while any pool is in post-crash backoff or retired to
        the serial path (the service still answers every request — results
        are identical on the serial path, only slower), and ``"closed"``
        after :meth:`close`.
        """
        pools = {}
        feat = self._feat_supervisor
        forward = self._forward_supervisor
        if feat is not None:
            pools["featurisation"] = feat.health()
        if forward is not None:
            pools["forward"] = forward.health()
        if self._closed:
            status = "closed"
        elif any(entry["state"] != "ok" for entry in pools.values()):
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            # The cluster router compares fingerprints across replicas to
            # catch a mixed-version replica set before it serves divergent
            # predictions.
            "model_fingerprint": self.model_fingerprint,
            "pools": pools,
            # The recent tail of the lifecycle timeline (crash / restart /
            # scale / retire / degrade), oldest first — the full ring is at
            # GET /v1/events.
            "events": self.obs.events.snapshot(limit=50),
        }
        if self.resolver is not None:
            # The live plan seq (stat-revalidated, so replicas sharing the
            # registry directory report the same number the instant a publish
            # lands).  The cluster router compares this across replicas: under
            # a plan, *fingerprints* legitimately differ per design, but the
            # plan seq must converge.
            payload["deployment_seq"] = self.resolver.current_seq()
        return payload

    # --------------------------------------------------------------- endpoints

    def estimate(self, request: EstimateRequest) -> EstimateResponse:
        """Estimate one design point (featurise → predict, both cached).

        With coalescing enabled (``runtime.coalesce_window_ms > 0``) the call
        parks in the micro-batcher until its batch flushes, so concurrent
        single-design callers share one packed forward pass; the response is
        identical to the direct path's (the batched engine matches the serial
        one to round-off, and cache keys are unchanged).
        """
        start = time.perf_counter()
        with self.obs.tracer.span("estimate", kernel=request.kernel):
            batcher = self._batcher
            if batcher is not None:
                response = batcher.submit(request)
            else:
                response = self.estimate_many([request])[0]
        self.obs.request_seconds.labels(endpoint="estimate").observe(
            time.perf_counter() - start
        )
        return response

    def estimate_many(self, requests: list[EstimateRequest]) -> list[EstimateResponse]:
        """Estimate a batch of design points with one vectorised forward pass.

        Cached designs are answered from memory; the remaining misses are
        featurised once per kernel and predicted in one packed batch per
        ``batch_size`` chunk.
        """
        start = time.perf_counter()
        if not requests:
            return []
        with self.obs.tracer.span("estimate_many", designs=len(requests)) as span:
            # One immutable plan snapshot per batch: a promote/rollback that
            # lands while this batch is in flight changes the *next* batch,
            # never mixes artifacts within this one.
            plan = self.resolver.snapshot() if self.resolver is not None else None
            samples, feature_hits = self._resolve_samples(requests)
            predictions, prediction_hits, served = self._predict_samples(
                samples, plan=plan
            )
            # One journal append per request batch, in bytes proportional
            # to the batch (the disk tier also appends on its own once
            # `MAX_QUEUED_LINES` records are queued within huge batches).
            self._sync_disk_tier()
            span.set_attribute("feature_hits", int(sum(feature_hits)))
            span.set_attribute("prediction_hits", int(sum(prediction_hits)))

        elapsed = time.perf_counter() - start
        elapsed_ms = elapsed * 1e3
        self.metrics.record(
            requests=1, designs=len(requests), total_seconds=elapsed
        )
        self.obs.request_seconds.labels(endpoint="estimate_many").observe(elapsed)
        log_event(
            self.obs.logger,
            "request",
            endpoint="estimate_many",
            designs=len(requests),
            feature_hits=int(sum(feature_hits)),
            prediction_hits=int(sum(prediction_hits)),
            latency_ms=round(elapsed_ms, 3),
        )
        return [
            EstimateResponse(
                kernel=sample.kernel,
                directives=sample.directives,
                power=float(prediction),
                target=self.target,
                cached_features=bool(feature_hit),
                cached_prediction=bool(prediction_hit),
                latency_ms=elapsed_ms,
                model_fingerprint=(
                    resolved.fingerprint
                    if resolved is not None
                    else self.model_fingerprint
                ),
                served_by=(resolved.served_by() if resolved is not None else None),
            )
            for sample, prediction, feature_hit, prediction_hit, resolved in zip(
                samples, predictions, feature_hits, prediction_hits, served
            )
        ]

    def explore(
        self,
        kernel: str,
        budget: float | None = None,
        *,
        dse_config: DSEConfig | None = None,
        samples: list[GraphSample] | None = None,
    ) -> ExploreReport:
        """Pareto-explore a kernel's design space using the cached predictor.

        Equivalent to driving :class:`~repro.dse.explorer.ParetoExplorer` by
        hand with ``model.predict`` — same sampling trajectory, same ADRS —
        but every prediction goes through the batched engine and lands in the
        cache, so re-exploring (or estimating designs the exploration already
        touched) is free.

        ``samples`` can pass a pre-featurised design space; otherwise the
        service generates and featurises the kernel's design space itself.
        Pass either ``budget`` (total sampling budget, default 0.4) or a full
        ``dse_config`` — not both.
        """
        with self.obs.tracer.span("explore", kernel=kernel):
            return self._explore_inner(
                kernel, budget, dse_config=dse_config, samples=samples
            )

    def _explore_inner(
        self,
        kernel: str,
        budget: float | None = None,
        *,
        dse_config: DSEConfig | None = None,
        samples: list[GraphSample] | None = None,
    ) -> ExploreReport:
        session = self.open_exploration(
            kernel, budget, dse_config=dse_config, samples=samples
        )
        while not session.done:
            session.step()
        return session.report()

    def open_exploration(
        self,
        kernel: str,
        budget: float | None = None,
        *,
        dse_config: DSEConfig | None = None,
        samples: list[GraphSample] | None = None,
        state: ExplorationState | None = None,
        plan_seq: int | None = None,
    ) -> ExplorationSession:
        """Open an incremental exploration over ``kernel``'s design space.

        The session is the unit the async job service schedules: one
        :meth:`ExplorationSession.step` per slice, checkpointing
        ``session.state`` between slices.  Passing a checkpointed ``state``
        resumes an interrupted exploration from exactly where it stopped —
        featurisation is re-resolved (warm from the caches), the random
        stream and the sampled set continue from the checkpoint.

        The session pins a deployment plan for its whole life: the plan live
        at open time, or — for a job resumed from a checkpoint — the
        ``plan_seq`` recorded when the job first started, reloaded from the
        store's immutable per-seq document so the resumed trajectory predicts
        through exactly the artifacts the original did.
        """
        if budget is not None and dse_config is not None:
            raise ValueError(
                "pass either budget or dse_config, not both "
                "(dse_config carries its own total_budget)"
            )
        plan = None
        if self.resolver is not None:
            plan = (
                self.resolver.plan_at(plan_seq)
                if plan_seq is not None
                else self.resolver.snapshot()
            )
        config = dse_config or DSEConfig(total_budget=budget if budget is not None else 0.4)
        if samples is None:
            spec = polybench_kernel(kernel, self.generator.config.kernel_size)
            design_space = self.generator.design_space_for(spec)
            requests = [
                EstimateRequest(kernel=kernel, directives=point)
                for point in design_space
            ]
            samples, _ = self._resolve_samples(requests)

        candidates = [
            DesignCandidate(
                index=index,
                latency=float(sample.latency_cycles),
                true_power=sample.target(self.target),
                config_vector=np.asarray(
                    sample.extras.get("config_vector", [float(index)]), dtype=float
                ),
                payload=sample,
            )
            for index, sample in enumerate(samples)
        ]
        return ExplorationSession(
            self, kernel, config, candidates, state=state, plan=plan
        )

    # ------------------------------------------------------------- deployments

    def deployment_view(self) -> dict:
        """The live deployment state (``GET /v1/deployments``)."""
        return self._require_resolver().describe()

    def put_deployment(self, document: dict) -> dict:
        """Validate and publish a plan document; returns the new state.

        Every artifact reference is checked against the registry before
        anything is written (:class:`~repro.deploy.plan.UnknownArtifactError`
        on a miss — the HTTP layer maps it to ``400 unknown_artifact``), and
        the publish is atomic: replicas sharing the registry directory pick
        the new plan up on their next request batch.
        """
        resolver = self._require_resolver()
        plan = DeploymentPlan.from_json(document, seq=0)
        published = resolver.publish(plan)
        self._deployment_event("deployment_published", published)
        return resolver.describe()

    def promote_deployment(self, pattern: str | None = None) -> dict:
        """Challenger becomes champion for matching rules (all by default)."""
        resolver = self._require_resolver()
        published = resolver.promote(pattern)
        self._deployment_event("deployment_promoted", published)
        return resolver.describe()

    def rollback_deployment(self, pattern: str | None = None) -> dict:
        """Drop the challenger for matching rules (all by default)."""
        resolver = self._require_resolver()
        published = resolver.rollback(pattern)
        self._deployment_event("deployment_rolled_back", published)
        return resolver.describe()

    def current_plan_seq(self) -> int | None:
        """Seq of the live plan, or ``None`` (no plan / no resolver)."""
        return self.resolver.current_seq() if self.resolver is not None else None

    def _require_resolver(self) -> ModelResolver:
        if self.resolver is None:
            raise RuntimeError(
                "deployments are not enabled: the service was constructed "
                "without a model registry"
            )
        return self.resolver

    def _deployment_event(self, kind: str, plan: DeploymentPlan) -> None:
        self.obs.pool_event(kind, pool="deploy", seq=plan.seq, rules=len(plan.rules))
        log_event(self.obs.logger, kind, seq=plan.seq, rules=len(plan.rules))

    # --------------------------------------------------------------- internals

    def _sync_disk_tier(self) -> None:
        """Append the disk tier's queued journal records (or compact it),
        timed as stage ``cache_sync`` under a ``cache.sync`` span (a no-op
        without a disk tier)."""
        persistent = self.cache.persistent
        if persistent is None:
            return
        start = time.perf_counter()
        with self.obs.tracer.span("cache.sync"):
            persistent.sync()
        self.obs.observe_stage("cache_sync", time.perf_counter() - start)

    def _resolve_samples(
        self, requests: list[EstimateRequest]
    ) -> tuple[list[GraphSample], list[bool]]:
        """Feature-cache lookups plus grouped featurisation of the misses.

        Client-supplied samples are used as-is but never written into the
        featurisation cache: its keys address the *service's own* deterministic
        featurisation of ``(kernel, directives)``, and a foreign graph under
        that address would poison later directives-based requests.
        """
        samples: list[GraphSample | None] = [None] * len(requests)
        hits: list[bool] = [False] * len(requests)
        misses_by_kernel: dict[str, list[int]] = {}
        with self.obs.tracer.span("cache.samples", designs=len(requests)) as span:
            for index, request in enumerate(requests):
                if request.sample is not None:
                    samples[index] = request.sample
                    continue
                cached = self.cache.get_sample(request.kernel, request.directives_key)
                if cached is not None:
                    samples[index] = cached
                    hits[index] = True
                else:
                    misses_by_kernel.setdefault(request.kernel, []).append(index)
            span.set_attribute("hits", int(sum(hits)))

        for kernel, indices in misses_by_kernel.items():
            directives_list = [requests[i].directives for i in indices]
            featurise_start = time.perf_counter()
            with self.obs.tracer.span(
                "featurise", kernel=kernel, designs=len(indices)
            ) as span:
                featurised, pooled = self._featurise(kernel, directives_list)
                span.set_attribute("pooled", pooled)
                if not pooled:
                    # Pooled shards graft their own worker spans (with pids);
                    # the serial path names its worker — this process — here.
                    span.set_attribute("worker_pid", os.getpid())
            elapsed = time.perf_counter() - featurise_start
            self.obs.observe_stage("featurise", elapsed)
            self.metrics.record(
                featurise_seconds=elapsed,
                featurised=len(indices),
                pooled_featurised=len(indices) if pooled else 0,
            )
            # What a future cache hit on this design saves: its share of the
            # batch's featurisation wall-clock.  This is the value the
            # persistent tier's cost-aware eviction ranks entries by.
            cost_per_design = elapsed / len(indices)
            for index, sample in zip(indices, featurised):
                samples[index] = sample
                self.cache.put_sample(sample, cost_seconds=cost_per_design)
        return list(samples), hits

    def _coalesced_flush(self, requests: list[EstimateRequest]) -> list:
        """Serve one coalesced batch; a bad request fails only its own caller.

        The fast path is the ordinary batched ``estimate_many``.  If it raises
        (e.g. one member names an unknown kernel), the batch degrades to
        per-request calls so every other caller still gets the response the
        direct path would have given them, and only the offending caller
        re-raises.
        """
        flush_start = time.perf_counter()
        self.obs.coalesced_batch_size.observe(len(requests))
        try:
            try:
                return self.estimate_many(requests)
            except Exception:
                results: list = []
                for request in requests:
                    try:
                        results.append(self.estimate_many([request])[0])
                    except Exception as error:  # noqa: PERF203 - per-item isolation
                        results.append(ItemError(error))
                return results
        finally:
            self.obs.observe_stage("batch_flush", time.perf_counter() - flush_start)

    def _featurise(
        self, kernel: str, directives_list: list[DesignDirectives]
    ) -> tuple[list[GraphSample], bool]:
        """Featurise through the supervised worker pool when it pays off.

        Both paths produce bitwise-identical samples (featurisation is pure
        per design point and the pool's merge is deterministic); the pool is
        only engaged for batches large enough to amortise process IPC.  A
        crashed worker is the supervisor's problem (restart within budget,
        retry the batch); only a *retired* pool — or a shutdown race — lands
        here and degrades to the serial path.  A service whose generator
        carries a custom operator library featurises serially: workers
        rebuild their generator from the dataset config alone.
        """
        supervisor = self._featurisation_supervisor(len(directives_list))
        if supervisor is not None:
            dispatch_start = time.perf_counter()
            try:
                samples = supervisor.run(
                    lambda pool: pool.featurise(kernel, directives_list),
                    cost=len(directives_list),
                )
                self.obs.observe_stage(
                    "pool_dispatch", time.perf_counter() - dispatch_start
                )
                self._note_pool_success(supervisor)
                return samples, True
            except PoolRetiredError:
                # Restart budget exhausted (faults already counted via the
                # supervisor's callbacks): permanently serial from here on.
                pass
            except (RuntimeError, ValueError):
                # The supervisor/pool was closed between handing out the
                # handle and submitting the batch (service shutdown racing a
                # request), or the pool failed without a worker crash; both
                # paths produce identical samples, so run serial.  The serial
                # outcome is what tells request faults from pool faults: if
                # it raises the *same* data error, the pool was fine (no
                # strike, the caller's problem); if it succeeds, the pool
                # really failed — count it, and a streak retires the pool.
                samples = self.generator.featurise(kernel, directives_list)
                self._note_pool_degradation(supervisor)
                return samples, False
        return self.generator.featurise(kernel, directives_list), False

    def _featurisation_supervisor(self, num_designs: int) -> SupervisedPool | None:
        if not self.runtime.parallel_featurisation:
            return None
        if self.generator.library is not DEFAULT_LIBRARY:
            return None
        with self._pool_lock:
            if self._closed:
                return None
            # Locked check-then-act: two concurrent cold calls must not each
            # build a supervisor (its own locks guard the actual processes).
            if self._feat_supervisor is None:
                self._feat_supervisor = SupervisedPool(
                    lambda workers: WorkerPool(
                        config=self.generator.config,
                        num_workers=workers,
                        start_method=self.runtime.start_method,
                        stats=self._pool_stats,
                        tracer=self.obs.tracer,
                    ),
                    workers=self.runtime.num_workers,
                    max_restarts=self.runtime.pool_max_restarts,
                    backoff_base_s=self.runtime.pool_restart_backoff_s,
                    min_designs_per_worker=self.runtime.min_designs_per_worker,
                    name="featurisation",
                    on_fault=lambda fault: self.metrics.record(pooled_errors=1),
                    on_restart=lambda: self.metrics.record(pool_restarts=1),
                    observer=self.obs,
                )
            supervisor = self._feat_supervisor
        return supervisor if supervisor.should_parallelise(num_designs) else None

    def _predict_batch(
        self, samples: list[GraphSample], resolved: ResolvedModel | None = None
    ) -> np.ndarray:
        """One batched forward over ``samples`` — pooled when it pays off.

        Ensemble batches of at least ``forward_min_graphs`` designs shard the
        packed forward across the :class:`~repro.runtime.pool.ForwardPool`
        (read-only shared-memory weights, deterministic contiguous-member
        merge); everything else runs in-process.  Both paths run the same
        kernels and produce bitwise-identical predictions.

        ``resolved`` names the model a deployment plan routed this group to.
        The :class:`~repro.runtime.pool.ForwardPool`'s shared-memory weights
        are published once for the *default* model, so only the default rides
        the pool; plan-resolved challengers/champions run the in-process
        serial path under the model lock (in-process forwards flip the
        process-wide train/eval and autograd state, so all models take turns
        on one lock).

        A crashed forward worker is restarted by the supervisor within
        ``RuntimeConfig.pool_max_restarts`` and the batch retried on the
        fresh pool — faults are counted in ``pooled_errors`` without
        permanently disabling pooling.  Only a retired pool (budget
        exhausted) or a shutdown race degrades to the serial path, which
        produces identical predictions.
        """
        with self.obs.tracer.span("forward", designs=len(samples)) as span:
            if resolved is not None and resolved.model is not self.model:
                span.set_attribute("pooled", False)
                span.set_attribute("worker_pid", os.getpid())
                span.set_attribute("artifact", resolved.label)
                with self._model_lock:
                    return resolved.model.predict_batch(
                        samples, batch_size=self.batch_size
                    )
            return self._predict_batch_inner(samples, span)

    def _predict_batch_inner(self, samples: list[GraphSample], span) -> np.ndarray:
        supervisor = self._forward_supervisor_handle(len(samples))
        if supervisor is not None:
            span.set_attribute("pooled", True)
            dispatch_start = time.perf_counter()
            try:
                predictions = supervisor.run(
                    lambda pool: pool.predict_batch(samples, batch_size=self.batch_size),
                    cost=len(samples),
                )
                self.obs.observe_stage(
                    "pool_dispatch", time.perf_counter() - dispatch_start
                )
                self.metrics.record(pooled_predicted=len(samples))
                self._note_pool_success(supervisor)
                return predictions
            except PoolRetiredError:
                # Budget exhausted; faults already counted via the
                # supervisor's callbacks.  Serial from here on.
                pass
            except (RuntimeError, ValueError):
                # Shutdown race (closed supervisor/pool/executor) or a
                # non-crash pool error: answer on the identical serial path
                # and make it visible.  A strike is recorded only when the
                # serial retry succeeds — a batch that fails serially too was
                # a bad request, not a broken pool.  No crash-restart budget
                # is consumed, but a *streak* of strikes retires the pool: a
                # deterministically broken pool must not re-pay its doomed
                # setup on every subsequent batch.
                with self._model_lock:
                    predictions = self.model.predict_batch(
                        samples, batch_size=self.batch_size
                    )
                self._note_pool_degradation(supervisor)
                span.set_attribute("pooled", False)
                return predictions
        span.set_attribute("pooled", False)
        span.set_attribute("worker_pid", os.getpid())
        with self._model_lock:
            return self.model.predict_batch(samples, batch_size=self.batch_size)

    def _note_pool_degradation(self, supervisor: SupervisedPool) -> None:
        """Count one non-crash pooled failure; retire the pool past the budget.

        Worker crashes consume the supervisor's restart budget; everything
        else lands here — but only after the serial retry *succeeded* (the
        callers guarantee that), which is what separates a broken pool from
        a broken request: a data error raises identically on both paths and
        must never cost the pool anything.  A shutdown race is not a pool
        fault either (the supervisor is already closed), but
        ``pool_max_restarts`` *consecutive* genuine failures mean the pool
        is deterministically broken — retire it so later batches skip the
        doomed round-trip, exactly as a crash-retired pool would.
        """
        self.metrics.record(pooled_errors=1)
        if supervisor.closed:
            return
        with self._pool_lock:
            strikes = self._pool_strikes.get(supervisor.name, 0) + 1
            self._pool_strikes[supervisor.name] = strikes
        self.obs.pool_event("degrade", pool=supervisor.name, strikes=strikes)
        if strikes > self.runtime.pool_max_restarts:
            supervisor.retire(
                f"{strikes} consecutive non-crash pool failures "
                "(see pooled_errors)"
            )

    def _note_pool_success(self, supervisor: SupervisedPool) -> None:
        if self._pool_strikes.get(supervisor.name):
            with self._pool_lock:
                self._pool_strikes[supervisor.name] = 0

    def _forward_supervisor_handle(self, num_designs: int) -> SupervisedPool | None:
        """The forward pool's supervisor, or ``None`` when pooling can't pay.

        The pool splits ensemble members, so it engages only for an ensemble
        of at least two members and a batch of at least
        ``forward_min_graphs`` designs.
        """
        if not self.runtime.parallel_forward:
            return None
        if num_designs < self.runtime.forward_min_graphs:
            return None
        ensemble = self.model.ensemble
        if ensemble is None or len(ensemble.members) < 2:
            return None
        with self._pool_lock:
            if self._closed:
                return None
            # Locked check-then-act, same contract as the featurisation pool.
            if self._forward_supervisor is None:
                self._forward_supervisor = SupervisedPool(
                    lambda workers: ForwardPool(
                        self.model,
                        num_workers=workers,
                        start_method=self.runtime.start_method,
                        stats=self._forward_pool_stats,
                        tracer=self.obs.tracer,
                    ),
                    workers=self.runtime.forward_workers,
                    max_restarts=self.runtime.pool_max_restarts,
                    backoff_base_s=self.runtime.pool_restart_backoff_s,
                    name="forward",
                    on_fault=lambda fault: self.metrics.record(pooled_errors=1),
                    on_restart=lambda: self.metrics.record(pool_restarts=1),
                    observer=self.obs,
                )
            return self._forward_supervisor

    def _predict_samples(
        self, samples: list[GraphSample], plan: DeploymentPlan | None = None
    ) -> tuple[np.ndarray, list[bool], list[ResolvedModel | None]]:
        """Cached, batched prediction of ``samples`` under one plan snapshot.

        Returns ``(predictions, cache_hits, served)`` where ``served[i]`` is
        the :class:`~repro.deploy.resolver.ResolvedModel` a plan routed
        design ``i`` to, or ``None`` for the ambient default (no plan, or no
        matching rule — the pre-deployment wire format).
        """
        if plan is None:
            predictions, hits = self._predict_with(self._default_resolved, samples)
            return predictions, hits, [None] * len(samples)
        return self._predict_samples_planned(samples, plan)

    def _predict_samples_planned(
        self, samples: list[GraphSample], plan: DeploymentPlan
    ) -> tuple[np.ndarray, list[bool], list[ResolvedModel | None]]:
        """The planned path: per-design routing, grouped per serving artifact.

        Designs are assigned to their serving arm by the deterministic
        challenger split, grouped by resolved model (group order is first
        occurrence, so results are independent of grouping — every design's
        prediction is a pure function of its own sample and its model), and
        predicted through the same cache/batch machinery as the default path
        under each model's own fingerprint.  Designs selected onto a
        challenger slice are then predicted by the *other* arm too: those
        predictions land in the cache and the champion/challenger divergence
        is exported, but only the serving arm's value is returned.
        """
        resolver = self.resolver
        assignments = [
            resolver.resolve(plan, sample.kernel, sample.directives)
            for sample in samples
        ]
        predictions = np.zeros(len(samples))
        hits: list[bool] = [False] * len(samples)
        served: list[ResolvedModel | None] = [None] * len(samples)
        groups: dict[str, tuple[ResolvedModel, list[int]]] = {}
        for index, (serve, _, rule) in enumerate(assignments):
            if rule is not None:
                served[index] = serve
            _, indices = groups.setdefault(serve.fingerprint, (serve, []))
            indices.append(index)
        for serve, indices in groups.values():
            group_predictions, group_hits = self._predict_with(
                serve, [samples[i] for i in indices]
            )
            self._account_artifact(serve, len(indices))
            for position, index in enumerate(indices):
                predictions[index] = group_predictions[position]
                hits[index] = group_hits[position]

        recorded: dict[str, tuple[ResolvedModel, list[int]]] = {}
        for index, (_, record, _) in enumerate(assignments):
            if record is not None:
                _, indices = recorded.setdefault(record.fingerprint, (record, []))
                indices.append(index)
        for record, indices in recorded.values():
            record_predictions, _ = self._predict_with(
                record, [samples[i] for i in indices]
            )
            self._account_artifact(record, len(indices))
            for position, index in enumerate(indices):
                self._record_divergence(
                    assignments[index][2],
                    float(predictions[index]),
                    float(record_predictions[position]),
                )
        return predictions, hits, served

    def _account_artifact(self, resolved: ResolvedModel, designs: int) -> None:
        self.obs.deploy_requests.labels(
            artifact=resolved.label, role=resolved.role
        ).inc(designs)
        self.obs.deploy_artifact_designs.labels(artifact=resolved.label).inc(designs)

    def _record_divergence(
        self, rule: str | None, served_value: float, recorded_value: float
    ) -> None:
        """Export one champion/challenger comparison as drift metrics."""
        diff = abs(served_value - recorded_value)
        label = rule if rule is not None else "*"
        self.obs.deploy_divergence_abs.labels(rule=label).observe(diff)
        if diff != 0.0:
            self.obs.deploy_divergence.labels(rule=label).inc()

    def _predict_with(
        self, resolved: ResolvedModel, samples: list[GraphSample]
    ) -> tuple[np.ndarray, list[bool]]:
        """Prediction-cache lookups plus one batched pass over the misses.

        Cache keys are parameterised by the resolved model's fingerprint, so
        champion and challenger predictions of the same design coexist in the
        cache and a promote flips which entries the serving path reads —
        nothing is invalidated.
        """
        predictions = np.zeros(len(samples))
        hits: list[bool] = [False] * len(samples)
        miss_indices: list[int] = []
        with self.obs.tracer.span("cache.predictions", designs=len(samples)) as span:
            keys = [sample_fingerprint(sample) for sample in samples]
            for index, key in enumerate(keys):
                cached = self.cache.get_prediction(key, resolved.fingerprint)
                if cached is not None:
                    predictions[index] = cached
                    hits[index] = True
                else:
                    miss_indices.append(index)
            span.set_attribute("hits", int(sum(hits)))

        if miss_indices:
            predict_start = time.perf_counter()
            fresh = self._predict_batch(
                [samples[i] for i in miss_indices], resolved=resolved
            )
            elapsed = time.perf_counter() - predict_start
            self.obs.observe_stage("predict", elapsed)
            self.metrics.record(
                predict_seconds=elapsed,
                predicted=len(miss_indices),
                # Number of packed forward batches actually run.
                batches=-(-len(miss_indices) // self.batch_size),
            )
            cost_per_design = elapsed / len(miss_indices)
            for position, index in enumerate(miss_indices):
                predictions[index] = fresh[position]
                self.cache.put_prediction(
                    keys[index],
                    resolved.fingerprint,
                    float(fresh[position]),
                    cost_seconds=cost_per_design,
                )
        return predictions, hits
