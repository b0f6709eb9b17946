"""``repro.obs`` — observability for the serving runtime.

Four primitives, one facade:

* :mod:`repro.obs.trace` — contextvar-based :class:`Tracer`: one request =
  one tree of timed spans across the event loop, bridge threads, the
  micro-batcher's flush and pool worker *processes* (worker spans travel
  back as picklable payloads), with a bounded recent-traces ring served at
  ``GET /v1/traces``;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges
  and fixed-bucket histograms with real p50/p95/p99 estimates, rendered as
  JSON (the existing ``/metrics``) and as Prometheus text exposition
  (``Accept: text/plain``);
* :mod:`repro.obs.logs` — structured JSON log lines over stdlib
  ``logging``, stamped with trace/request ids;
* :mod:`repro.obs.events` — the bounded supervisor event timeline
  (crash/restart/scale/retire/degrade) served at ``GET /v1/events`` and
  merged into ``service.health()``.

:class:`Observability` bundles one of each plus the pre-registered service
instruments, so every runtime layer receives a single handle
(``service.obs``).  The whole subsystem is side-band by construction: it
never touches request data, and the bitwise-determinism contract holds with
instrumentation on or off (``tests/test_obs_determinism.py``); its dispatch
cost is gated by ``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

from repro.obs.events import EventLog, dump_event_logs
from repro.obs.logs import (
    CollectingHandler,
    JsonFormatter,
    configure_json_logging,
    get_logger,
    log_event,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DIVERGENCE_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
    flatten_numeric,
    json_safe,
)
from repro.obs.trace import Span, Trace, Tracer, current_trace_ids, span_payload

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DIVERGENCE_BUCKETS",
    "SIZE_BUCKETS",
    "ClusterObservability",
    "CollectingHandler",
    "EventLog",
    "JsonFormatter",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Trace",
    "Tracer",
    "configure_json_logging",
    "current_trace_ids",
    "dump_event_logs",
    "flatten_numeric",
    "get_logger",
    "json_safe",
    "log_event",
    "span_payload",
]


class Observability:
    """One service's observability bundle: tracer + metrics + events + logger.

    Instruments the whole stack agrees on are registered here, once, so
    every layer (service, gateway, batcher, caches, supervisors) observes
    into the same families instead of each minting its own names:

    ========================================  =====================================
    instrument                                what lands in it
    ========================================  =====================================
    ``repro_request_seconds{endpoint}``       whole-call latency per endpoint
    ``repro_stage_seconds{stage}``            featurise / predict /
                                              cache_memory / cache_disk /
                                              cache_sync (the disk tier's
                                              per-batch journal append, or
                                              a compaction) /
                                              batch_flush / pool_dispatch
                                              stage latencies
    ``repro_cache_requests_total{...}``       hit/miss per cache kind and tier
    ``repro_coalesced_batch_size``            micro-batch sizes at flush
    ``repro_gateway_designs_total{outcome}``  admitted / rejected_backpressure /
                                              rejected_closed designs
    ``repro_pool_events_total{pool,kind}``    supervisor lifecycle event counts
    ``repro_pool_worker_heartbeat_seconds``   per-worker last-heartbeat age
    ``repro_http_requests_total{path,status}``  HTTP requests by route and code
    ========================================  =====================================
    """

    def __init__(
        self,
        *,
        tracing: bool = True,
        trace_ring: int = 128,
        event_ring: int = 512,
    ) -> None:
        self.tracer = Tracer(ring_size=trace_ring, enabled=tracing)
        self.metrics = MetricsRegistry()
        self.events = EventLog(maxlen=event_ring)
        self.logger = get_logger("service")
        self.request_seconds = self.metrics.histogram(
            "repro_request_seconds",
            "Whole-call service latency per endpoint",
            labelnames=("endpoint",),
        )
        self.stage_seconds = self.metrics.histogram(
            "repro_stage_seconds",
            "Per-stage latency of the request path",
            labelnames=("stage",),
        )
        self.cache_requests = self.metrics.counter(
            "repro_cache_requests_total",
            "Cache lookups by kind (sample/prediction), tier and outcome",
            labelnames=("kind", "tier", "outcome"),
        )
        self.coalesced_batch_size = self.metrics.histogram(
            "repro_coalesced_batch_size",
            "Micro-batch sizes at flush",
            buckets=SIZE_BUCKETS,
        )
        self.gateway_designs = self.metrics.counter(
            "repro_gateway_designs_total",
            "Gateway admission outcomes, in designs",
            labelnames=("outcome",),
        )
        self.pool_events = self.metrics.counter(
            "repro_pool_events_total",
            "Supervised-pool lifecycle events",
            labelnames=("pool", "kind"),
        )
        self.worker_heartbeat_age = self.metrics.gauge(
            "repro_pool_worker_heartbeat_seconds",
            "Seconds since each pool worker last proved liveness",
            labelnames=("pool", "pid"),
        )
        self.http_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by route and status code",
            labelnames=("path", "status"),
        )
        self.http_seconds = self.metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request wall-clock by route",
            labelnames=("path",),
        )
        # Deployment-plan instrumentation: which artifact served how many
        # designs in which role, and how far the challenger's predictions
        # drift from the champion's on the designs both arms predicted.
        self.deploy_requests = self.metrics.counter(
            "repro_deploy_requests_total",
            "Designs predicted per artifact and role (default/champion/challenger)",
            labelnames=("artifact", "role"),
        )
        self.deploy_artifact_designs = self.metrics.gauge(
            "repro_deploy_artifact_designs",
            "Lifetime designs predicted per artifact (all roles)",
            labelnames=("artifact",),
        )
        self.deploy_divergence = self.metrics.counter(
            "repro_deploy_divergence_total",
            "Champion/challenger comparisons whose predictions differed",
            labelnames=("rule",),
        )
        self.deploy_divergence_abs = self.metrics.histogram(
            "repro_deploy_divergence_abs",
            "Absolute champion-challenger prediction divergence per comparison",
            labelnames=("rule",),
            buckets=DIVERGENCE_BUCKETS,
        )

    # ------------------------------------------------------------ conveniences

    def observe_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds.labels(stage=stage).observe(seconds)

    def cache_event(self, kind: str, tier: str, outcome: str, seconds: float) -> None:
        self.cache_requests.labels(kind=kind, tier=tier, outcome=outcome).inc()
        self.observe_stage(f"cache_{tier}", seconds)

    def pool_event(self, kind: str, pool: str, **fields) -> dict:
        """Record one pool lifecycle event in the timeline, the counter and
        the structured log at once (the producers' single entry point)."""
        event = self.events.record(kind, pool=pool, **fields)
        self.pool_events.labels(pool=pool, kind=kind).inc()
        log_event(get_logger("supervisor"), f"pool.{kind}", pool=pool, **fields)
        return event

    def snapshot(self) -> dict:
        """JSON-safe snapshot of the registry plus tracer/event bookkeeping."""
        return {
            "metrics": self.metrics.snapshot(),
            "traces": self.tracer.stats(),
            "events": self.events.stats(),
        }


class ClusterObservability:
    """The cluster router's observability bundle: metrics + events + logger.

    Deliberately *not* an :class:`Observability`: the router proxies — the
    request's span tree lives in the replica that served it (``/v1/traces``
    on the replica's own port), so the router carries no tracer.  What it
    does own is the replica-lifecycle timeline (spawn / ready / eject /
    respawn / exit, served at the router's ``/v1/events``) and the routing
    metric families:

    ==============================================  ===========================
    instrument                                      what lands in it
    ==============================================  ===========================
    ``repro_cluster_requests_total{route,status}``  routed requests by outcome
    ``repro_cluster_request_seconds{route}``        router wall-clock per route
    ``repro_cluster_replica_designs_total{replica}``  designs routed per replica
    ``repro_cluster_retries_total{reason}``         failovers to the next replica
    ``repro_cluster_replica_events_total{...}``     lifecycle event counts
    ``repro_cluster_replica_up{replica}``           1 in the ring / 0 ejected
    ==============================================  ===========================
    """

    def __init__(self, *, event_ring: int = 512) -> None:
        self.metrics = MetricsRegistry()
        self.events = EventLog(maxlen=event_ring)
        self.logger = get_logger("cluster")
        self.requests = self.metrics.counter(
            "repro_cluster_requests_total",
            "Requests through the cluster router by route and status code",
            labelnames=("route", "status"),
        )
        self.request_seconds = self.metrics.histogram(
            "repro_cluster_request_seconds",
            "Router request wall-clock by route",
            labelnames=("route",),
        )
        self.replica_designs = self.metrics.counter(
            "repro_cluster_replica_designs_total",
            "Designs routed to each replica",
            labelnames=("replica",),
        )
        self.retries = self.metrics.counter(
            "repro_cluster_retries_total",
            "Requests retried on the next replica in ring order",
            labelnames=("reason",),
        )
        self.replica_events = self.metrics.counter(
            "repro_cluster_replica_events_total",
            "Replica lifecycle events",
            labelnames=("replica", "kind"),
        )
        self.replica_up = self.metrics.gauge(
            "repro_cluster_replica_up",
            "1 while the replica is in the hash ring, 0 while ejected",
            labelnames=("replica",),
        )

    def replica_event(self, kind: str, replica: str, **fields) -> dict:
        """Record one replica lifecycle event in the timeline, the counter
        and the structured log at once (mirrors ``Observability.pool_event``)."""
        event = self.events.record(kind, replica=replica, **fields)
        self.replica_events.labels(replica=replica, kind=kind).inc()
        log_event(self.logger, f"replica.{kind}", replica=replica, **fields)
        return event

    def snapshot(self) -> dict:
        """JSON-safe snapshot of the registry plus event bookkeeping."""
        return {
            "metrics": self.metrics.snapshot(),
            "events": self.events.stats(),
        }
