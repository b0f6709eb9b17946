"""The cluster front end: one ``/v1/*`` endpoint over N replicas.

:class:`ClusterRouter` is an :class:`~repro.runtime.http.AsyncJSONHTTPServer`
that proxies the gateway API onto the replica set:

* **Kernel-affinity routing** — the target replica is
  ``ring.lookup(kernel)`` on a :class:`~repro.cluster.hashring
  .ConsistentHashRing`, so all traffic for a kernel hits the replica whose
  featurisation caches and warm workers already know it.  ``estimate_many``
  splits into per-kernel sub-batches fanned out concurrently and re-merged
  in request order — safe under the determinism contract because per-design
  predictions are batch-composition-invariant (the cached == fresh property
  the service's own suites pin down), so the split is invisible bitwise.
* **Failover** — a connection-level failure walks the ring's preference
  order onto the next replica (``retry-on-next``); repeated failures eject
  the replica from the ring and a replacement is respawned through the
  :class:`~repro.cluster.manager.ReplicaManager`, then re-admitted once its
  ``/healthz`` answers.  Responses relay the replica's bytes verbatim.
* **Admission control** — reuses the gateway's backpressure types: a
  cluster-wide in-flight-designs cap (429 via
  :class:`~repro.runtime.gateway.GatewayBackpressureError`) plus per-replica
  caps that spill a too-busy owner's traffic to the next replica before
  rejecting.
* **Health** — a background task polls every replica's ``/healthz`` (which
  carries the supervised pools' state and worker heartbeats).  The router's
  own ``/healthz`` is *degraded-not-dead* while any replica is ejected,
  degraded or respawning, and only 503 with zero serveable replicas.

Router-only routes: ``GET /v1/cluster`` (replica table, ring + ownership
shares, routing policy, counters) and ``GET /v1/events`` (the replica
lifecycle timeline).  ``/metrics`` serves router counters as JSON or
Prometheus exposition.  Per-request traces live on each replica's own
``/v1/traces``; the router does not proxy them.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.manager import ReplicaHandle, ReplicaManager
from repro.jobs.job import kernel_of_job_id
from repro.obs import ClusterObservability
from repro.obs.logs import log_event
from repro.obs.metrics import flatten_numeric
from repro.runtime.gateway import GatewayBackpressureError, GatewayClosedError
from repro.runtime.http import (
    MAX_LONG_POLL_SECONDS,
    PROMETHEUS_CONTENT_TYPE,
    STREAM_POLL_SECONDS,
    AsyncJSONHTTPServer,
    HTTPConnectionPool,
    HTTPError,
    RawResponse,
    StreamingResponse,
    _require,
)
from repro.runtime.routes import ROUTER_ROUTES, RouteTable

__all__ = ["ClusterConfig", "ClusterRouter", "RouterStats"]


@dataclass(frozen=True)
class ClusterConfig:
    """Routing, admission and health policy of one router."""

    #: Virtual nodes per replica on the hash ring.
    virtual_nodes: int = 64
    #: Cluster-wide designs in flight before the router sheds load (429).
    max_in_flight: int = 4096
    #: Designs in flight on one replica before its traffic spills to the
    #: next replica in ring order (and 429 once every candidate is full).
    replica_max_in_flight: int = 1024
    #: How many *additional* replicas a failed request tries, in ring order.
    retries: int = 2
    #: Seconds between health sweeps over the replica set.
    health_interval_s: float = 1.0
    #: Per-probe timeout; slower than this counts as a failed probe.
    health_timeout_s: float = 5.0
    #: Consecutive failed probes (or proxy-level connection failures) before
    #: a replica is ejected from the ring and respawned.
    fail_threshold: int = 3
    #: End-to-end timeout of one proxied exchange (job long-polls run long).
    request_timeout_s: float = 300.0
    #: Capacity of the replica lifecycle event ring.
    event_ring: int = 512

    def __post_init__(self) -> None:
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.replica_max_in_flight < 1:
            raise ValueError("replica_max_in_flight must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.health_interval_s <= 0 or self.health_timeout_s <= 0:
            raise ValueError("health intervals must be > 0")
        if self.fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")


@dataclass
class _ReplicaSlot:
    """The router's view of one replica: handle + client pool + counters."""

    handle: ReplicaHandle
    pool: HTTPConnectionPool
    state: str = "ready"  # ready | ejected | respawning
    consecutive_failures: int = 0
    in_flight: int = 0
    requests: int = 0
    designs: int = 0
    errors: int = 0
    ejections: int = 0
    degraded: bool = False
    last_status: str | None = None
    pool_states: dict = field(default_factory=dict)
    fingerprint: str | None = None
    #: Seq of the deployment plan the replica last reported on /healthz
    #: (``None``: no plan installed, or deployments disabled).
    deployment_seq: int | None = None


@dataclass
class RouterStats:
    """Cluster-wide routing counters (design-denominated where meaningful)."""

    requests: int = 0
    designs: int = 0
    retries: int = 0
    spills: int = 0
    rejected: int = 0
    ejections: int = 0
    respawns: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class ClusterRouter(AsyncJSONHTTPServer):
    """Kernel-affinity HTTP router over a :class:`ReplicaManager`'s replicas.

    Single-event-loop by construction: ring membership and slot counters are
    only touched from the loop, so no locks.  Blocking manager verbs
    (respawn, close) run in the default executor.
    """

    def __init__(
        self,
        manager: ReplicaManager,
        *,
        config: ClusterConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        obs: ClusterObservability | None = None,
    ) -> None:
        self.config = config or ClusterConfig()
        super().__init__(host=host, port=port)
        self.manager = manager
        self.obs = obs or ClusterObservability(event_ring=self.config.event_ring)
        self.stats = RouterStats()
        self._replicas: dict[str, _ReplicaSlot] = {}
        self._ring = ConsistentHashRing(virtual_nodes=self.config.virtual_nodes)
        self._in_flight = 0
        self._health_task: asyncio.Task | None = None
        self._respawn_tasks: set[asyncio.Task] = set()
        self._fingerprint_warned = False

    @property
    def ring(self) -> ConsistentHashRing:
        """The live routing table (read it, don't mutate it)."""
        return self._ring

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Boot the replica set (if the manager hasn't) and start serving."""
        if self.manager.observer is None:
            # One timeline: the manager's spawn/ready/exit events land in the
            # same ring as the router's eject/respawn transitions.
            self.manager.observer = self.obs
        if not self.manager.handles():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.manager.start)
        for handle in self.manager.handles():
            self._install(handle)
        address = await super().start()
        self._health_task = asyncio.create_task(self._health_loop())
        return address

    async def aclose(self, *, close_manager: bool = False) -> None:
        tasks = [task for task in (self._health_task, *self._respawn_tasks) if task]
        self._health_task = None
        self._respawn_tasks.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await super().aclose()
        for slot in self._replicas.values():
            await slot.pool.aclose()
        if close_manager:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.manager.close)

    def _install(self, handle: ReplicaHandle) -> _ReplicaSlot:
        slot = _ReplicaSlot(
            handle=handle,
            pool=HTTPConnectionPool(
                handle.host,
                handle.port,
                request_timeout=self.config.request_timeout_s,
            ),
        )
        self._replicas[handle.replica_id] = slot
        self._ring.add(handle.replica_id)
        self.obs.replica_up.labels(replica=handle.replica_id).set(1)
        return slot

    # --------------------------------------------------------------- dispatch

    #: The route table this server dispatches over and serves on /v1/routes.
    routes_table: RouteTable = ROUTER_ROUTES

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: dict,
        headers: dict,
        body: bytes,
        request_id: str,
    ) -> tuple[int, dict | RawResponse | StreamingResponse]:
        route, params = self.routes_table.match(method, path)
        handler = getattr(self, f"_{route.name}")
        try:
            if route.method in ("POST", "PUT"):
                payload = await handler(body, request_id, params)
            else:
                payload = await handler(query, headers, params)
        except HTTPError:
            raise
        except GatewayBackpressureError as error:
            raise HTTPError(429, "backpressure", str(error)) from error
        except GatewayClosedError as error:
            raise HTTPError(503, "closed", str(error)) from error
        return payload

    def _account(self, method, path, status, started, request_id) -> None:
        if method is None:
            return
        route = self.routes_table.metrics_label(path)
        elapsed = time.perf_counter() - started
        try:
            self.obs.requests.labels(route=route, status=str(status)).inc()
            self.obs.request_seconds.labels(route=route).observe(elapsed)
            log_event(
                self.obs.logger,
                "cluster.request",
                method=method,
                path=path,
                status=status,
                latency_ms=round(elapsed * 1e3, 3),
                request_id=request_id,
            )
        except Exception:  # noqa: BLE001 - accounting must never fail a request
            pass

    # ---------------------------------------------------------------- proxying

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        try:
            parsed = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HTTPError(400, "bad_request", f"invalid JSON body: {error}") from error
        if not isinstance(parsed, dict):
            raise HTTPError(400, "bad_request", "body must be a JSON object")
        return parsed

    def _admit(self, cost: int) -> None:
        if self._closing:
            raise GatewayClosedError("cluster router is closed")
        if cost > self.config.max_in_flight:
            raise HTTPError(
                400,
                "invalid_request",
                f"batch of {cost} designs exceeds max_in_flight="
                f"{self.config.max_in_flight}; split the batch",
            )
        if self._in_flight + cost > self.config.max_in_flight:
            self.stats.rejected += cost
            raise GatewayBackpressureError(
                self._in_flight, self.config.max_in_flight, cost
            )
        self._in_flight += cost

    def _release(self, cost: int) -> None:
        self._in_flight -= cost

    def _candidates(self, key: str) -> list[_ReplicaSlot]:
        """Serveable replicas in the key's ring-preference (failover) order."""
        return [
            self._replicas[replica_id]
            for replica_id in self._ring.preference(key)
            if self._replicas[replica_id].state == "ready"
        ]

    async def _forward(
        self,
        key: str,
        path: str,
        payload: bytes,
        *,
        cost: int,
        request_id: str,
        method: str = "POST",
        walk_on_missing_job: bool = False,
    ) -> tuple[int, bytes]:
        """Send one exchange to ``key``'s owner, failing over in ring order.

        Returns the replica's ``(status, body_bytes)`` verbatim — replica
        errors (400 for a bad design point, 429 under its own backpressure)
        relay as-is; only *connection-level* failures trigger failover.
        Raises 503 when every candidate is gone and
        :class:`GatewayBackpressureError` when every candidate is full.

        ``walk_on_missing_job`` extends the walk to ``404 job_not_found``
        answers: a job submitted before a ring change may live on a replica
        that is no longer the key's owner, so job reads try the ring's
        preference order before relaying the 404.
        """
        candidates = self._candidates(key)
        if not candidates:
            raise HTTPError(503, "no_replicas", "no serveable replicas in the ring")
        attempts = candidates[: self.config.retries + 1]
        if walk_on_missing_job:
            # A misplaced job can be on *any* replica, not just the owner's
            # backup set; walk the whole preference order.
            attempts = candidates
        headers = {"X-Request-ID": request_id}
        last_error: Exception | None = None
        missing_job: tuple[int, bytes] | None = None
        tried = 0
        for slot in attempts:
            if slot.in_flight + cost > self.config.replica_max_in_flight:
                # Owner (or backup) is saturated: spill to the next replica
                # rather than queueing behind it — affinity is a performance
                # preference, correctness is identical on every replica.
                self.stats.spills += 1
                continue
            if tried:
                self.stats.retries += 1
                self.obs.retries.labels(reason="connection").inc()
            tried += 1
            slot.in_flight += cost
            try:
                status, _, data = await slot.pool.request(
                    method, path, payload, headers
                )
            except (ConnectionError, asyncio.TimeoutError, OSError) as error:
                last_error = error
                slot.errors += 1
                self._note_failure(slot, reason=f"{type(error).__name__}: {error}")
                continue
            finally:
                slot.in_flight -= cost
            slot.requests += 1
            slot.consecutive_failures = 0
            if walk_on_missing_job and status == 404 and self._is_missing_job(data):
                missing_job = (status, data)
                continue
            slot.designs += cost
            self.stats.designs += cost
            self.obs.replica_designs.labels(replica=slot.handle.replica_id).inc(cost)
            return status, data
        if missing_job is not None:
            # Every reachable replica answered job_not_found: relay it.
            return missing_job
        if last_error is not None:
            raise HTTPError(
                503,
                "no_healthy_replica",
                f"all {tried} candidate replicas failed for {path} "
                f"(last: {last_error})",
            )
        # Nothing failed — every candidate was over its in-flight cap.
        busiest = attempts[0]
        raise GatewayBackpressureError(
            busiest.in_flight, self.config.replica_max_in_flight, cost
        )

    @staticmethod
    def _is_missing_job(data: bytes) -> bool:
        try:
            detail = json.loads(data.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            return False
        return (
            isinstance(detail, dict)
            and (detail.get("error") or {}).get("type") == "job_not_found"
        )

    # ---------------------------------------------------------------- handlers

    async def _estimate(
        self, body: bytes, request_id: str, params: dict
    ) -> tuple[int, RawResponse]:
        parsed = self._parse_body(body)
        kernel = _require(parsed, "kernel", str, "request")
        self.stats.requests += 1
        self._admit(1)
        try:
            status, data = await self._forward(
                kernel, "/v1/estimate", body, cost=1, request_id=request_id
            )
        finally:
            self._release(1)
        return status, RawResponse("application/json", data)

    async def _estimate_many(
        self, body: bytes, request_id: str, params: dict
    ) -> tuple[int, dict | RawResponse]:
        parsed = self._parse_body(body)
        raw = _require(parsed, "requests", list, "body")
        self.stats.requests += 1
        if not raw:
            return 200, {"responses": []}
        # Group by kernel, preserving request order inside each group; each
        # group rides to its kernel's owner as one sub-batch, concurrently.
        groups: dict[str, list[int]] = {}
        for index, item in enumerate(raw):
            kernel = _require(item, "kernel", str, "request")
            groups.setdefault(kernel, []).append(index)
        cost = len(raw)
        self._admit(cost)
        try:
            outcomes = await asyncio.gather(
                *(
                    self._forward(
                        kernel,
                        "/v1/estimate_many",
                        json.dumps(
                            {"requests": [raw[i] for i in indices]}, allow_nan=False
                        ).encode(),
                        cost=len(indices),
                        request_id=request_id,
                    )
                    for kernel, indices in groups.items()
                ),
                return_exceptions=True,
            )
        finally:
            self._release(cost)
        responses: list[dict | None] = [None] * len(raw)
        for (kernel, indices), outcome in zip(groups.items(), outcomes):
            if isinstance(outcome, BaseException):
                # Whole-batch failure semantics, like the direct call: the
                # first failing sub-batch (in first-kernel-appearance order)
                # fails the request.
                raise outcome
            status, data = outcome
            if status != 200:
                # Relay the replica's own error verbatim (bad design point,
                # replica-level backpressure, ...).
                return status, RawResponse("application/json", data)
            sub = json.loads(data.decode())["responses"]
            for position, index in enumerate(indices):
                responses[index] = sub[position]
        return 200, {"responses": responses}

    # ------------------------------------------------------------------- jobs
    #
    # Job routes hash on the kernel — submissions carry it in the body, every
    # other verb recovers it from the job id itself (ids embed the kernel) —
    # so a job's whole lifecycle lands on the replica whose warm caches ran
    # the exploration, with no cluster-wide job table.  Polls/cancels are
    # cost-0 exchanges: they must keep answering while the design-denominated
    # admission is saturated.

    async def _submit_explore_job(
        self, body: bytes, request_id: str, params: dict
    ) -> tuple[int, RawResponse]:
        parsed = self._parse_body(body)
        kernel = _require(parsed, "kernel", str, "body")
        self.stats.requests += 1
        status, data = await self._forward(
            kernel, "/v1/jobs/explore", body, cost=0, request_id=request_id
        )
        return status, RawResponse("application/json", data)

    async def _get_job(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, RawResponse]:
        job_id = params["job_id"]
        self.stats.requests += 1
        status, data = await self._forward(
            kernel_of_job_id(job_id),
            f"/v1/jobs/{job_id}",
            b"",
            cost=0,
            request_id=headers.get("x-request-id", ""),
            method="GET",
            walk_on_missing_job=True,
        )
        return status, RawResponse("application/json", data)

    async def _cancel_job(
        self, body: bytes, request_id: str, params: dict
    ) -> tuple[int, RawResponse]:
        job_id = params["job_id"]
        self.stats.requests += 1
        status, data = await self._forward(
            kernel_of_job_id(job_id),
            f"/v1/jobs/{job_id}/cancel",
            b"{}",
            cost=0,
            request_id=request_id,
            walk_on_missing_job=True,
        )
        return status, RawResponse("application/json", data)

    async def _job_updates(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, dict | RawResponse | StreamingResponse]:
        job_id = params["job_id"]
        self.stats.requests += 1
        since = self._int_param(query, "since", default=0, minimum=0)
        stream = query.get("stream", ["0"])[0] not in ("", "0", "false")
        request_id = headers.get("x-request-id", "")
        if stream:
            # Prove the job exists (ordinary 404 envelope) before committing
            # to a 200 chunked head, then re-emit the owner's updates as this
            # server's own stream, fed by proxied long-polls — the stream
            # survives replica failover because each leg re-resolves the
            # owner through the ring.
            status, data = await self._forward(
                kernel_of_job_id(job_id),
                f"/v1/jobs/{job_id}",
                b"",
                cost=0,
                request_id=request_id,
                method="GET",
                walk_on_missing_job=True,
            )
            if status != 200:
                return status, RawResponse("application/json", data)
            return 200, StreamingResponse(
                "application/x-ndjson",
                self._stream_job_updates(job_id, since, request_id),
            )
        wait_values = query.get("wait")
        suffix = ""
        if wait_values:
            try:
                wait = min(float(wait_values[0]), MAX_LONG_POLL_SECONDS)
            except ValueError:
                raise HTTPError(400, "bad_request", "wait must be a number") from None
            suffix = f"&wait={wait:g}"
        status, data = await self._forward(
            kernel_of_job_id(job_id),
            f"/v1/jobs/{job_id}/updates?since={since}{suffix}",
            b"",
            cost=0,
            request_id=request_id,
            method="GET",
            walk_on_missing_job=True,
        )
        return status, RawResponse("application/json", data)

    async def _stream_job_updates(self, job_id: str, since: int, request_id: str):
        """One JSON line per update, long-polling the owning replica."""
        key = kernel_of_job_id(job_id)
        while not self._closing:
            try:
                status, data = await self._forward(
                    key,
                    f"/v1/jobs/{job_id}/updates?since={since}"
                    f"&wait={STREAM_POLL_SECONDS:g}",
                    b"",
                    cost=0,
                    request_id=request_id,
                    method="GET",
                    walk_on_missing_job=True,
                )
            except (HTTPError, GatewayBackpressureError):
                return  # mid-stream: truncation is the only honest signal
            if status != 200:
                return
            payload = json.loads(data.decode() or "{}")
            done = False
            for update in payload.get("updates", ()):
                yield json.dumps(update, allow_nan=False).encode() + b"\n"
                done = done or update.get("event") == "done"
            since = payload.get("next_since", since)
            if done:
                return
            if not payload.get("updates") and payload.get("state") not in (
                "queued",
                "running",
            ):
                return

    async def _list_jobs(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, dict]:
        """Fan out to every serveable replica and merge the job tables."""
        self.stats.requests += 1
        client_values = query.get("client")
        suffix = f"?client={client_values[0]}" if client_values else ""
        slots = [s for s in self._replicas.values() if s.state == "ready"]
        if not slots:
            raise HTTPError(503, "no_replicas", "no serveable replicas in the ring")
        outcomes = await asyncio.gather(
            *(slot.pool.request("GET", f"/v1/jobs{suffix}") for slot in slots),
            return_exceptions=True,
        )
        jobs: list[dict] = []
        reachable = 0
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                continue
            status, _, data = outcome
            if status != 200:
                continue
            reachable += 1
            jobs.extend(json.loads(data.decode() or "{}").get("jobs", ()))
        if not reachable:
            raise HTTPError(503, "no_replicas", "no replica answered /v1/jobs")
        jobs.sort(key=lambda job: (job.get("created_s", 0), job.get("job_id", "")))
        return 200, {"jobs": jobs}

    async def _routes(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, dict]:
        return 200, {"version": "v1", "routes": self.routes_table.describe()}

    async def _proxy_any(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, RawResponse]:
        """Proxy one exchange to any serveable replica, walking the set on
        connection failure.  For state every replica shares through the
        registry directory (the model index, the deployment plan) any ready
        replica's answer is the cluster's answer — and a mutation (PUT a
        plan) landed through one replica is observed by all of them on their
        next per-batch snapshot."""
        for slot in self._replicas.values():
            if slot.state != "ready":
                continue
            try:
                status, _, data = await slot.pool.request(method, path, body)
            except (ConnectionError, asyncio.TimeoutError, OSError):
                continue
            return status, RawResponse("application/json", data)
        raise HTTPError(503, "no_replicas", "no serveable replicas in the ring")

    async def _models(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, RawResponse]:
        """Proxy to any serveable replica (they share one registry)."""
        self.stats.requests += 1
        return await self._proxy_any("GET", "/v1/models")

    # ------------------------------------------------------------ deployments
    #
    # Deployment verbs proxy to *any* ready replica: the plan store lives in
    # the shared registry directory, so one replica's answer (and one
    # replica's publish) is authoritative for the whole set.

    async def _get_deployment(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, RawResponse]:
        self.stats.requests += 1
        return await self._proxy_any("GET", "/v1/deployments")

    async def _put_deployment(
        self, body: bytes, request_id: str, params: dict
    ) -> tuple[int, RawResponse]:
        self._parse_body(body)  # reject non-object bodies at the router edge
        self.stats.requests += 1
        return await self._proxy_any("PUT", "/v1/deployments", body)

    async def _promote_deployment(
        self, body: bytes, request_id: str, params: dict
    ) -> tuple[int, RawResponse]:
        self._parse_body(body or b"{}")
        self.stats.requests += 1
        return await self._proxy_any(
            "POST", "/v1/deployments/promote", body or b"{}"
        )

    async def _rollback_deployment(
        self, body: bytes, request_id: str, params: dict
    ) -> tuple[int, RawResponse]:
        self._parse_body(body or b"{}")
        self.stats.requests += 1
        return await self._proxy_any(
            "POST", "/v1/deployments/rollback", body or b"{}"
        )

    async def _healthz(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        """Degraded-not-dead: 200 while *any* replica can serve.

        A SIGKILLed replica mid-respawn turns the cluster ``degraded`` —
        requests still succeed via failover — and only a cluster with zero
        serveable replicas (or a closed router) answers 503.
        """
        replicas = {
            replica_id: {
                "state": slot.state,
                "status": slot.last_status,
                "port": slot.handle.port,
                "pid": slot.handle.pid,
                "generation": slot.handle.generation,
                "consecutive_failures": slot.consecutive_failures,
                "model_fingerprint": slot.fingerprint,
                "deployment_seq": slot.deployment_seq,
            }
            for replica_id, slot in sorted(self._replicas.items())
        }
        ready = [s for s in self._replicas.values() if s.state == "ready"]
        if self._closing:
            return 503, {"status": "closed", "replicas": replicas}
        if not ready:
            return 503, {"status": "unavailable", "replicas": replicas}
        degraded = len(ready) < len(self._replicas) or any(
            slot.degraded or slot.consecutive_failures for slot in ready
        )
        return 200, {
            "status": "degraded" if degraded else "ok",
            "replicas": replicas,
            "ring": {"nodes": self._ring.nodes, "size": len(self._ring)},
        }

    async def _cluster(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        """The cluster control-plane view: replicas, ring, policy, counters."""
        return 200, {
            "replicas": {
                replica_id: {
                    "state": slot.state,
                    "port": slot.handle.port,
                    "pid": slot.handle.pid,
                    "generation": slot.handle.generation,
                    "requests": slot.requests,
                    "designs": slot.designs,
                    "errors": slot.errors,
                    "ejections": slot.ejections,
                    "in_flight": slot.in_flight,
                    "status": slot.last_status,
                    "pools": slot.pool_states,
                    "model_fingerprint": slot.fingerprint,
                    "deployment_seq": slot.deployment_seq,
                    "connections": slot.pool.stats(),
                }
                for replica_id, slot in sorted(self._replicas.items())
            },
            "ring": self._ring.snapshot(),
            "policy": {
                "affinity": "kernel",
                "virtual_nodes": self.config.virtual_nodes,
                "retries": self.config.retries,
                "max_in_flight": self.config.max_in_flight,
                "replica_max_in_flight": self.config.replica_max_in_flight,
                "fail_threshold": self.config.fail_threshold,
                "health_interval_s": self.config.health_interval_s,
            },
            "stats": self.stats.as_dict(),
        }

    async def _events(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        """The replica lifecycle timeline (oldest first)."""
        limit = self._int_param(query, "limit", default=100)
        kind_values = query.get("kind")
        kind = kind_values[0] if kind_values else None
        return 200, {
            "events": self.obs.events.snapshot(limit=limit, kind=kind),
            "stats": self.obs.events.stats(),
        }

    async def _metrics(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, dict | RawResponse]:
        cluster = await self._cluster(query, headers, params)
        snapshot = {"cluster": cluster[1], "observability": self.obs.snapshot()}
        if "text/plain" not in headers.get("accept", ""):
            return 200, snapshot
        projected: dict = {}
        flatten_numeric("repro_cluster_stats", self.stats.as_dict(), projected)
        text = self.obs.metrics.render_prometheus(extra_gauges=projected)
        return 200, RawResponse(PROMETHEUS_CONTENT_TYPE, text.encode())

    # ----------------------------------------------------------------- health

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            await asyncio.gather(
                *(self._probe(slot) for slot in list(self._replicas.values()))
            )

    async def _probe(self, slot: _ReplicaSlot) -> None:
        if slot.state != "ready":
            return
        try:
            status, payload = await asyncio.wait_for(
                slot.pool.request_json("GET", "/healthz"),
                self.config.health_timeout_s,
            )
        except (ConnectionError, asyncio.TimeoutError, OSError) as error:
            self._note_failure(slot, reason=f"{type(error).__name__}: {error}")
            return
        if status != 200:
            self._note_failure(slot, reason=f"healthz answered {status}")
            return
        slot.consecutive_failures = 0
        slot.last_status = payload.get("status")
        slot.degraded = slot.last_status == "degraded"
        slot.pool_states = {
            name: pool.get("state")
            for name, pool in (payload.get("pools") or {}).items()
        }
        slot.deployment_seq = payload.get("deployment_seq")
        fingerprint = payload.get("model_fingerprint")
        if fingerprint is not None:
            slot.fingerprint = fingerprint
            self._check_fingerprints(slot)

    def _check_fingerprints(self, slot: _ReplicaSlot) -> None:
        """A mixed-version replica set would serve divergent predictions —
        loudly record it (once) instead of letting the equivalence contract
        silently break.

        With a deployment plan live the *plan seq*, not the default-model
        fingerprint, is the consistency axis: replicas converge on the
        current plan on their next per-batch snapshot, and mixed default
        fingerprints behind identical plans are legitimate mid-rollout.  So
        the mismatch event only fires when no replica reports a plan.
        """
        if self._fingerprint_warned:
            return
        if any(s.deployment_seq is not None for s in self._replicas.values()):
            return
        others = {
            s.fingerprint
            for s in self._replicas.values()
            if s is not slot and s.fingerprint is not None
        }
        if others and others != {slot.fingerprint}:
            self._fingerprint_warned = True
            self.obs.replica_event(
                "fingerprint_mismatch",
                replica=slot.handle.replica_id,
                fingerprint=slot.fingerprint,
                others=sorted(others),
            )

    def _note_failure(self, slot: _ReplicaSlot, *, reason: str) -> None:
        """Shared suspicion counter for probe and proxy-level failures, so a
        dead replica under live traffic ejects faster than the poll alone."""
        if slot.state != "ready":
            return
        slot.consecutive_failures += 1
        if slot.consecutive_failures >= self.config.fail_threshold:
            self._eject(slot, reason=reason)

    def _eject(self, slot: _ReplicaSlot, *, reason: str) -> None:
        replica_id = slot.handle.replica_id
        slot.state = "ejected"
        self._ring.remove(replica_id)
        slot.ejections += 1
        self.stats.ejections += 1
        self.obs.replica_up.labels(replica=replica_id).set(0)
        self.obs.replica_event(
            "replica_eject",
            replica=replica_id,
            reason=reason,
            consecutive_failures=slot.consecutive_failures,
        )
        task = asyncio.get_running_loop().create_task(self._respawn(slot))
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, slot: _ReplicaSlot) -> None:
        """Replace an ejected replica; re-admit it once its healthz answers.

        Retries until the router closes — a replica that cannot come back
        stays out of the ring (the cluster runs degraded on the survivors)
        rather than flapping in and out.
        """
        slot.state = "respawning"
        replica_id = slot.handle.replica_id
        loop = asyncio.get_running_loop()
        while not self._closing:
            try:
                handle = await loop.run_in_executor(
                    None, self.manager.respawn, replica_id
                )
            except Exception as error:  # noqa: BLE001 - supervision must survive
                self.obs.replica_event(
                    "replica_respawn_failed",
                    replica=replica_id,
                    error=f"{type(error).__name__}: {error}",
                )
                await asyncio.sleep(self.config.health_interval_s)
                continue
            old_pool = slot.pool
            slot.handle = handle
            slot.pool = HTTPConnectionPool(
                handle.host,
                handle.port,
                request_timeout=self.config.request_timeout_s,
            )
            await old_pool.aclose()
            if await self._await_healthy(slot):
                slot.state = "ready"
                slot.consecutive_failures = 0
                self._ring.add(replica_id)
                self.stats.respawns += 1
                self.obs.replica_up.labels(replica=replica_id).set(1)
                self.obs.replica_event(
                    "replica_respawn",
                    replica=replica_id,
                    port=handle.port,
                    pid=handle.pid,
                    generation=handle.generation,
                )
                return

    async def _await_healthy(self, slot: _ReplicaSlot) -> bool:
        """Probe the fresh replica until its healthz answers (it reported
        ready over the pipe, so this is normally the first attempt)."""
        deadline = time.monotonic() + self.config.health_timeout_s * 4
        while time.monotonic() < deadline and not self._closing:
            try:
                status, payload = await asyncio.wait_for(
                    slot.pool.request_json("GET", "/healthz"),
                    self.config.health_timeout_s,
                )
            except (ConnectionError, asyncio.TimeoutError, OSError):
                await asyncio.sleep(0.1)
                continue
            if status == 200:
                slot.last_status = payload.get("status")
                slot.fingerprint = payload.get("model_fingerprint")
                return True
            await asyncio.sleep(0.1)
        return False
