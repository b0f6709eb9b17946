"""Cluster tier acceptance: routed == direct, bitwise, even across a kill.

The suite boots a real 2-replica cluster — each replica a full
service/gateway/HTTP process loaded from one shared registry — behind a
:class:`~repro.cluster.router.ClusterRouter`, and holds the routed responses
against a *direct* in-process service built from the same registry:

* every ``/v1/estimate`` / ``/v1/estimate_many`` response and every
  ``/v1/jobs/explore`` job result through the router is bitwise-identical
  to the direct call (the registry's
  bit-exact load plus batch-composition-invariant predictions make the
  replica boundary and the router's per-kernel sub-batching invisible);
* requests route to the kernel's ring owner, and ``/v1/cluster`` exposes the
  ring, per-replica counters and routing policy;
* SIGKILLing a replica mid-run is absorbed: the request retries on the next
  replica in ring order *with the same bytes*, the dead replica is ejected
  and respawned (visible on ``/v1/events``), the router's ``/healthz`` is
  degraded-not-dead throughout, and post-respawn traffic is again bitwise
  equal.

Model training is module-scoped (the expensive part); each test builds its
own router inside its own event loop (asyncio objects are loop-bound), over
either the shared module-scoped replica set or — for the kill test, which
consumes replicas — a private one.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    ConsistentHashRing,
    ReplicaManager,
    ReplicaSpec,
)
from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.runtime.http import (
    HTTPConnectionPool,
    directives_to_json,
    response_to_json,
)
from repro.serve import ModelRegistry, PowerEstimationService

SERVICE_CONFIG = DatasetConfig(kernel_size=6, designs_per_kernel=10)
KERNELS = ("atax", "gemm")
MODEL_NAME = "cluster-under-test"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def cluster_registry(small_dataset, tmp_path_factory):
    """One trained model saved once; every replica and the direct baseline
    load this exact artifact (bit-exact by the registry's contract)."""
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=12, num_layers=2),
            training=TrainingConfig(epochs=8, batch_size=16),
            ensemble=None,
        )
    ).fit(small_dataset.samples)
    registry_dir = tmp_path_factory.mktemp("cluster-registry")
    ModelRegistry(registry_dir).save(model, MODEL_NAME)
    return registry_dir


@pytest.fixture(scope="module")
def replica_spec(cluster_registry):
    return ReplicaSpec(
        registry_dir=cluster_registry,
        model_name=MODEL_NAME,
        dataset_config=SERVICE_CONFIG,
    )


@pytest.fixture(scope="module")
def direct_service(replica_spec):
    """The in-process baseline the routed responses must match bitwise."""
    service, _ = replica_spec.build_service()
    yield service
    service.close()


@pytest.fixture(scope="module")
def shared_manager(replica_spec):
    """A 2-replica set shared by the non-destructive tests (replica spawn is
    the expensive part — a model load each)."""
    manager = ReplicaManager(replica_spec, num_replicas=2)
    manager.start()
    yield manager
    manager.close()


@pytest.fixture()
def requests_by_kernel(direct_service):
    """A couple of real design points per kernel, as wire payloads."""
    generator = DatasetGenerator(SERVICE_CONFIG)
    from repro.kernels.polybench import polybench_kernel

    payloads = {}
    for kernel in KERNELS:
        space = generator.design_space_for(
            polybench_kernel(kernel, SERVICE_CONFIG.kernel_size)
        )
        payloads[kernel] = [
            {"kernel": kernel, "directives": directives_to_json(directives)}
            for directives in space.points[:3]
        ]
    return payloads


def routed(manager, config=None):
    """Async context: a started router over ``manager`` + a client pool."""

    class _Context:
        async def __aenter__(self):
            self.router = ClusterRouter(
                manager, config=config or ClusterConfig(health_interval_s=0.25)
            )
            host, port = await self.router.start()
            self.pool = HTTPConnectionPool(host, port)
            return self

        async def __aexit__(self, *exc_info):
            await self.pool.aclose()
            await self.router.aclose()

        async def call(self, method, path, body=None):
            status, _, data = await self.pool.request(method, path, body)
            return status, json.loads(data.decode())

    return _Context()


def direct_estimate_json(service: PowerEstimationService, payload: dict) -> dict:
    """The direct call, serialised exactly as the wire would carry it,
    minus the fields the determinism contract excludes (latency, cache
    flags — both depend on who served the request, not on the answer)."""
    from repro.runtime.http import estimate_request_from_json

    response = response_to_json(service.estimate(estimate_request_from_json(payload)))
    return strip_volatile(response)


def strip_volatile(response: dict) -> dict:
    return {
        key: value
        for key, value in response.items()
        if key not in ("latency_ms", "cached_features", "cached_prediction")
    }


# ------------------------------------------------------------- equivalence


def test_routed_estimate_is_bitwise_equal_to_direct(
    shared_manager, direct_service, requests_by_kernel
):
    async def scenario():
        async with routed(shared_manager) as ctx:
            results = []
            for kernel in KERNELS:
                for payload in requests_by_kernel[kernel]:
                    status, routed_response = await ctx.call(
                        "POST", "/v1/estimate", payload
                    )
                    assert status == 200
                    results.append((payload, routed_response))
            return results

    for payload, routed_response in asyncio.run(scenario()):
        assert strip_volatile(routed_response) == direct_estimate_json(
            direct_service, payload
        )


def test_routed_estimate_many_matches_direct_across_kernels(
    shared_manager, direct_service, requests_by_kernel
):
    """A mixed-kernel batch splits across both replicas and merges back in
    request order, bitwise equal to the direct batch."""
    from repro.runtime.http import estimate_request_from_json

    mixed = [
        requests_by_kernel["atax"][0],
        requests_by_kernel["gemm"][0],
        requests_by_kernel["atax"][1],
        requests_by_kernel["gemm"][1],
        requests_by_kernel["atax"][2],
    ]

    async def scenario():
        async with routed(shared_manager) as ctx:
            status, body = await ctx.call(
                "POST", "/v1/estimate_many", {"requests": mixed}
            )
            assert status == 200
            empty_status, empty = await ctx.call(
                "POST", "/v1/estimate_many", {"requests": []}
            )
            status_cluster, cluster = await ctx.call("GET", "/v1/cluster")
            return body, (empty_status, empty), cluster

    body, (empty_status, empty), cluster = asyncio.run(scenario())
    direct = direct_service.estimate_many(
        [estimate_request_from_json(payload) for payload in mixed]
    )
    assert [strip_volatile(r) for r in body["responses"]] == [
        strip_volatile(response_to_json(r)) for r in direct
    ]
    assert (empty_status, empty) == (200, {"responses": []})
    # The batch really did fan out: both replicas served designs.
    served = [r["designs"] for r in cluster["replicas"].values()]
    assert all(count > 0 for count in served), served


def test_routed_explore_matches_direct(shared_manager, direct_service):
    """An exploration job submitted through the router finishes with the
    direct in-process ``explore`` report."""
    from repro.serve.wire import explore_report_to_json

    async def scenario():
        async with routed(shared_manager) as ctx:
            status, job = await ctx.call(
                "POST", "/v1/jobs/explore", {"kernel": "atax", "budget": 0.4}
            )
            assert status == 202, job
            deadline = time.monotonic() + 120
            while job["state"] not in ("succeeded", "failed", "cancelled"):
                assert time.monotonic() < deadline, f"job stuck: {job}"
                await asyncio.sleep(0.05)
                status, job = await ctx.call("GET", f"/v1/jobs/{job['job_id']}")
                assert status == 200, job
            return job

    job = asyncio.run(scenario())
    assert job["state"] == "succeeded", job
    body = job["result"]
    direct = explore_report_to_json(direct_service.explore("atax", 0.4))
    # Frontier, ADRS, every evaluated point — identical to the in-process
    # run; only wall-clock differs.
    assert {k: v for k, v in body.items() if k != "elapsed_seconds"} == {
        k: v for k, v in direct.items() if k != "elapsed_seconds"
    }


def test_requests_route_to_the_ring_owner(shared_manager, requests_by_kernel):
    """The affinity contract: all of one kernel's traffic lands on the
    replica a same-membership ring predicts."""
    ring = ConsistentHashRing(virtual_nodes=ClusterConfig().virtual_nodes)
    for handle in shared_manager.handles():
        ring.add(handle.replica_id)

    async def scenario():
        async with routed(shared_manager) as ctx:
            for _ in range(4):
                await ctx.call(
                    "POST", "/v1/estimate", requests_by_kernel["atax"][0]
                )
            _, cluster = await ctx.call("GET", "/v1/cluster")
            return cluster

    cluster = asyncio.run(scenario())
    owner = ring.lookup("atax")
    backup = [r for r in cluster["replicas"] if r != owner][0]
    assert cluster["replicas"][owner]["designs"] >= 4
    assert cluster["replicas"][backup]["designs"] == 0
    assert cluster["stats"]["retries"] == 0
    assert cluster["ring"]["nodes"] == sorted(cluster["replicas"])


# ------------------------------------------------------------ control plane


def test_cluster_and_metrics_views(shared_manager, requests_by_kernel):
    async def scenario():
        async with routed(shared_manager) as ctx:
            await ctx.call("POST", "/v1/estimate", requests_by_kernel["atax"][0])
            _, cluster = await ctx.call("GET", "/v1/cluster")
            _, metrics = await ctx.call("GET", "/metrics")
            _, models = await ctx.call("GET", "/v1/models")
            status_prom, _, prom = await ctx.pool.request(
                "GET", "/metrics", None, {"Accept": "text/plain"}
            )
            _, health = await ctx.call("GET", "/healthz")
            return cluster, metrics, models, (status_prom, prom), health

    cluster, metrics, models, (status_prom, prom), health = asyncio.run(scenario())
    assert cluster["policy"]["affinity"] == "kernel"
    assert set(cluster["replicas"]) == {"replica-0", "replica-1"}
    for replica in cluster["replicas"].values():
        assert replica["state"] == "ready"
        assert replica["generation"] == 0
    assert 0.99 < sum(cluster["ring"]["ownership"].values()) < 1.01
    assert metrics["cluster"]["stats"]["designs"] >= 1
    assert "repro_cluster_requests_total" in str(metrics["observability"])
    assert MODEL_NAME in [entry["name"] for entry in models["models"]]
    assert status_prom == 200
    text = prom.decode()
    assert "repro_cluster_requests_total" in text
    assert "repro_cluster_stats_designs" in text
    assert health["status"] in ("ok", "degraded")  # probes may not have run yet
    assert set(health["replicas"]) == {"replica-0", "replica-1"}


def test_router_error_paths(shared_manager):
    async def scenario():
        async with routed(shared_manager) as ctx:
            results = {}
            results["no_kernel"] = await ctx.call("POST", "/v1/estimate", {})
            results["bad_path"] = await ctx.call("GET", "/v1/nonsense")
            results["bad_method"] = await ctx.call("GET", "/v1/estimate")
            # A replica-level 400 (unknown kernel) relays verbatim.
            results["unknown_kernel"] = await ctx.call(
                "POST", "/v1/estimate", {"kernel": "not-a-kernel"}
            )
            return results

    results = asyncio.run(scenario())
    status, body = results["no_kernel"]
    assert status == 400 and body["error"]["type"] == "bad_request"
    assert results["bad_path"][0] == 404
    assert results["bad_method"][0] == 405
    status, body = results["unknown_kernel"]
    assert status == 400
    assert "not-a-kernel" in body["error"]["message"]


def test_router_admission_rejects_oversized_batches(shared_manager):
    async def scenario():
        config = ClusterConfig(max_in_flight=4, health_interval_s=0.25)
        async with routed(shared_manager, config) as ctx:
            return await ctx.call(
                "POST",
                "/v1/estimate_many",
                {"requests": [{"kernel": "atax"} for _ in range(5)]},
            )

    status, body = asyncio.run(scenario())
    assert status == 400
    assert "max_in_flight" in body["error"]["message"]


# ---------------------------------------------------------------- failure


def test_replica_sigkill_mid_load_is_absorbed(
    replica_spec, direct_service, requests_by_kernel
):
    """The ISSUE's acceptance scenario, end to end: SIGKILL the owner of a
    kernel's traffic mid-run; the in-flight and subsequent requests retry on
    the surviving replica bitwise-unchanged, the kill shows up as
    eject + respawn on ``/v1/events``, ``/healthz`` reports degraded (never
    503) throughout, and the respawned replica serves bitwise-equal answers
    again."""
    manager = ReplicaManager(replica_spec, num_replicas=2)
    manager.start()
    config = ClusterConfig(
        health_interval_s=0.15, fail_threshold=2, virtual_nodes=64
    )
    payload = requests_by_kernel["atax"][0]
    expected = direct_estimate_json(direct_service, payload)

    async def scenario():
        async with routed(manager, config) as ctx:
            ring = ConsistentHashRing(virtual_nodes=config.virtual_nodes)
            for handle in manager.handles():
                ring.add(handle.replica_id)
            owner = ring.lookup("atax")

            # Warm both paths, then kill atax's owner outright.
            status, before = await ctx.call("POST", "/v1/estimate", payload)
            assert status == 200
            os.kill(manager.handle(owner).pid, signal.SIGKILL)

            # The very next request hits the dead owner, fails at the
            # connection, and must come back 200 from the backup replica.
            status, during = await ctx.call("POST", "/v1/estimate", payload)
            assert status == 200

            # The health loop notices, ejects, respawns; healthz must be
            # degraded-not-dead in between (and the cluster keeps serving).
            saw_degraded = False
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                health_status, health = await ctx.call("GET", "/healthz")
                assert health_status == 200, health  # never 503: one replica lives
                saw_degraded = saw_degraded or health["status"] == "degraded"
                _, events = await ctx.call("GET", "/v1/events")
                kinds = [e["kind"] for e in events["events"]]
                if "replica_respawn" in kinds:
                    break
                await asyncio.sleep(0.2)
            else:
                pytest.fail(f"no respawn within budget; events: {kinds}")

            # Post-respawn: both replicas ready, owner back in the ring,
            # traffic for the kernel bitwise-unchanged.
            _, health = await ctx.call("GET", "/healthz")
            status, after = await ctx.call("POST", "/v1/estimate", payload)
            assert status == 200
            _, cluster = await ctx.call("GET", "/v1/cluster")
            return before, during, after, saw_degraded, kinds, health, cluster, owner

    try:
        before, during, after, saw_degraded, kinds, health, cluster, owner = (
            asyncio.run(scenario())
        )
    finally:
        manager.close()

    # Bitwise equivalence across the whole failure arc.
    assert strip_volatile(before) == expected
    assert strip_volatile(during) == expected
    assert strip_volatile(after) == expected
    # The timeline tells the story: eject then respawn for the killed owner.
    assert "replica_eject" in kinds and "replica_respawn" in kinds
    assert kinds.index("replica_eject") < kinds.index("replica_respawn")
    assert saw_degraded
    # The respawned owner carries a bumped generation and is ready again.
    assert cluster["replicas"][owner]["generation"] == 1
    assert cluster["stats"]["ejections"] == 1
    assert cluster["stats"]["respawns"] == 1
    assert cluster["stats"]["retries"] >= 1
    assert set(cluster["ring"]["nodes"]) == set(cluster["replicas"])
