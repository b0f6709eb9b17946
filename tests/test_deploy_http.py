"""Deployment-layer acceptance over the real serving stack.

The contracts pinned here are the PR's acceptance criteria:

* with no plan installed a registry-backed service answers **bitwise
  identically** to the plain single-model service it replaced (fresh and
  cached, and the wire payload carries no new keys);
* a published plan routes per kernel pattern, canary splits are the
  deterministic blake2b function of the design point (identical on every
  replica, across a SIGKILL + respawn), shadow mode never changes what
  callers see, and champion/challenger divergence is exported on
  ``/metrics``;
* the lifecycle verbs (``GET/PUT /v1/deployments``, promote, rollback) work
  end to end — gateway, cluster router, and typed client — and every failure
  wears the unified error envelope.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.client import PowerAPIError, PowerClient
from repro.cluster import ClusterConfig, ClusterRouter, ReplicaManager, ReplicaSpec
from repro.deploy import assign_challenger
from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.jobs import JobManager
from repro.kernels.polybench import polybench_kernel
from repro.runtime.gateway import AsyncPowerGateway
from repro.runtime.http import (
    GatewayHTTPServer,
    HTTPConnectionPool,
    directives_to_json,
    request_json,
    response_to_json,
)
from repro.serve import ModelRegistry, PowerEstimationService
from repro.serve.service import EstimateRequest

SERVICE_CONFIG = DatasetConfig(kernel_size=6, designs_per_kernel=10)
MODEL_NAME = "lifecycle"

VOLATILE = ("latency_ms", "cached_features", "cached_prediction")


def strip_volatile(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in VOLATILE}


# ------------------------------------------------------------------- fixtures


def train(samples, epochs: int) -> PowerGear:
    return PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=12, num_layers=2),
            training=TrainingConfig(epochs=epochs, batch_size=16),
            ensemble=None,
        )
    ).fit(samples)


@pytest.fixture(scope="module")
def lifecycle_models(small_dataset):
    """Two genuinely different artifacts: v1 the incumbent, v2 the candidate."""
    v1 = train(small_dataset.samples, epochs=8)
    v2 = train(small_dataset.samples[2:], epochs=6)
    assert v1.fingerprint() != v2.fingerprint()
    return v1, v2


@pytest.fixture()
def fresh_registry(lifecycle_models, tmp_path):
    """A per-test registry holding ``lifecycle`` v1 and v2 (plans published
    by one test must not leak into the next — the deployment store lives
    through the registry directory)."""
    v1, v2 = lifecycle_models
    registry_dir = tmp_path / "registry"
    registry = ModelRegistry(registry_dir)
    registry.save(v1, MODEL_NAME)
    registry.save(v2, MODEL_NAME)
    return registry_dir


@pytest.fixture()
def atax_requests():
    generator = DatasetGenerator(SERVICE_CONFIG)
    space = generator.design_space_for(
        polybench_kernel("atax", SERVICE_CONFIG.kernel_size)
    )
    return [
        EstimateRequest(kernel="atax", directives=point)
        for point in space.points[:12]
    ]


def build_service(registry_dir=None, model=None, **kwargs) -> PowerEstimationService:
    if registry_dir is not None:
        return PowerEstimationService(
            registry=registry_dir,
            model_name=MODEL_NAME,
            model_version=1,
            generator=DatasetGenerator(SERVICE_CONFIG),
            **kwargs,
        )
    return PowerEstimationService(
        model, generator=DatasetGenerator(SERVICE_CONFIG), **kwargs
    )


def canary_doc(fraction=0.5, shadow=False) -> dict:
    challenger: dict = {"model": MODEL_NAME, "model_version": 2, "shadow": shadow}
    if not shadow:
        challenger["fraction"] = fraction
    return {
        "version": 1,
        "rules": [
            {
                "pattern": "atax*",
                "model": MODEL_NAME,
                "model_version": 1,
                "challenger": challenger,
            }
        ],
    }


def serve(registry_dir=None, model=None, *, jobs=False):
    """Async context: a full HTTP server over a (registry-backed) service."""

    class _Context:
        async def __aenter__(self):
            self.service = build_service(registry_dir, model)
            self.manager = JobManager(self.service, runners=1) if jobs else None
            self.gateway = AsyncPowerGateway(self.service, jobs=self.manager)
            self.server = GatewayHTTPServer(self.gateway)
            self.host, self.port = await self.server.start()
            return self

        async def __aexit__(self, *exc_info):
            await self.server.aclose()
            await self.gateway.aclose(close_service=True)

        async def call(self, method, path, body=None, headers=None):
            return await request_json(
                self.host, self.port, method, path, body, headers
            )

    return _Context()


# --------------------------------------------------- the no-plan wire contract


def test_no_plan_wire_is_bitwise_identical_to_plain_service(
    lifecycle_models, fresh_registry, atax_requests
):
    """A registry-backed (resolver-holding) service with no plan installed is
    indistinguishable on the wire from the single-model service it replaced —
    same bytes fresh AND cached, and no ``served_by`` key appears."""
    v1, _ = lifecycle_models
    plain = build_service(model=v1)
    backed = build_service(fresh_registry)
    try:
        assert backed.resolver is not None and plain.resolver is None
        for _ in range(2):  # second pass answers from the caches
            plain_wire = [
                strip_volatile(response_to_json(r))
                for r in plain.estimate_many(atax_requests)
            ]
            backed_wire = [
                strip_volatile(response_to_json(r))
                for r in backed.estimate_many(atax_requests)
            ]
            assert backed_wire == plain_wire
            assert all("served_by" not in payload for payload in backed_wire)
    finally:
        plain.close()
        backed.close()


# ------------------------------------------------------------ routing over HTTP


def test_put_plan_routes_and_emits_served_by(lifecycle_models, fresh_registry):
    _, v2 = lifecycle_models

    async def scenario():
        async with serve(fresh_registry) as ctx:
            status, before = await ctx.call(
                "POST", "/v1/estimate", {"kernel": "atax"}
            )
            assert status == 200 and "served_by" not in before

            doc = {
                "rules": [
                    {"pattern": "atax*", "model": MODEL_NAME, "model_version": 2}
                ]
            }
            status, view = await ctx.call("PUT", "/v1/deployments", doc)
            assert status == 200
            assert view["seq"] == 1
            assert view["plan"]["rules"][0]["model_version"] == 2
            assert view["default"]["model"] == MODEL_NAME

            status, routed = await ctx.call(
                "POST", "/v1/estimate", {"kernel": "atax"}
            )
            status2, unrouted = await ctx.call(
                "POST", "/v1/estimate", {"kernel": "gemm"}
            )
            status3, shown = await ctx.call("GET", "/v1/deployments")
            return before, routed, unrouted, shown

    before, routed, unrouted, shown = asyncio.run(scenario())
    # The matching kernel is served by the named artifact, role and all...
    assert routed["served_by"] == {"model": MODEL_NAME, "version": 2, "role": "champion"}
    assert routed["model_fingerprint"] == v2.fingerprint()
    # ...while a kernel no rule matches keeps the exact pre-deployment shape.
    assert "served_by" not in unrouted
    assert unrouted["model_fingerprint"] == before["model_fingerprint"]
    assert shown["seq"] == 1


def test_canary_split_is_deterministic_and_exports_divergence(
    fresh_registry, atax_requests
):
    service = build_service(fresh_registry)
    try:
        service.put_deployment(canary_doc(fraction=0.5))
        first = service.estimate_many(atax_requests)

        picked = 0
        for response in first:
            expected = assign_challenger("atax", response.directives, 0.5)
            picked += int(expected)
            if expected:
                assert response.served_by == {
                    "model": MODEL_NAME,
                    "version": 2,
                    "role": "challenger",
                }
            else:
                assert response.served_by == {
                    "model": MODEL_NAME,
                    "version": 1,
                    "role": "champion",
                }
        # The hash really split this design set (both arms non-empty).
        assert 0 < picked < len(first)

        # Every design was predicted by the champion (serving or recorded),
        # the picked slice also by the challenger, and each comparison landed
        # in the divergence histogram under the rule's pattern label.
        obs = service.obs
        champion = obs.deploy_requests.labels(
            artifact=f"{MODEL_NAME}:v1", role="champion"
        )
        challenger = obs.deploy_requests.labels(
            artifact=f"{MODEL_NAME}:v2", role="challenger"
        )
        assert champion.value == len(first)
        assert challenger.value == picked
        snapshot = obs.deploy_divergence_abs.labels(rule="atax*").snapshot()
        assert snapshot["count"] == picked
        assert obs.deploy_divergence.labels(rule="atax*").value == picked

        text = obs.metrics.render_prometheus()
        assert "repro_deploy_requests_total" in text
        assert "repro_deploy_divergence_abs" in text

        # A second pass is bitwise identical, arm for arm.
        second = service.estimate_many(atax_requests)
        assert [(r.power, r.served_by) for r in second] == [
            (r.power, r.served_by) for r in first
        ]
    finally:
        service.close()


def test_shadow_mode_never_changes_what_callers_see(fresh_registry, atax_requests):
    service = build_service(fresh_registry)
    try:
        baseline = service.estimate_many(atax_requests)
        service.put_deployment(canary_doc(shadow=True))
        shadowed = service.estimate_many(atax_requests)
        # Same values as with no plan at all — the challenger only records.
        assert [r.power for r in shadowed] == [r.power for r in baseline]
        assert all(
            r.served_by == {"model": MODEL_NAME, "version": 1, "role": "champion"}
            for r in shadowed
        )
        # Shadow defaults to the full slice: every design was double-predicted.
        challenger = service.obs.deploy_requests.labels(
            artifact=f"{MODEL_NAME}:v2", role="challenger"
        )
        assert challenger.value == len(atax_requests)
    finally:
        service.close()


# -------------------------------------------------------------- error envelopes


def test_deployment_error_envelopes(lifecycle_models, fresh_registry):
    v1, _ = lifecycle_models

    async def scenario():
        results = {}
        async with serve(fresh_registry) as ctx:
            results["ghost"] = await ctx.call(
                "PUT",
                "/v1/deployments",
                {"rules": [{"pattern": "*", "model": "ghost", "model_version": 1}]},
            )
            results["malformed"] = await ctx.call(
                "PUT", "/v1/deployments", {"rules": "nope"}
            )
            results["promote_nothing"] = await ctx.call(
                "POST", "/v1/deployments/promote", {}
            )
        async with serve(model=v1) as ctx:
            results["disabled_get"] = await ctx.call("GET", "/v1/deployments")
            results["disabled_put"] = await ctx.call(
                "PUT", "/v1/deployments", canary_doc()
            )
        return results

    results = asyncio.run(scenario())
    status, body = results["ghost"]
    assert status == 400
    assert body["error"]["type"] == "unknown_artifact"
    assert body["error"]["retryable"] is False
    assert "ghost v1" in body["error"]["message"]

    status, body = results["malformed"]
    assert status == 400 and body["error"]["type"] == "invalid_request"

    status, body = results["promote_nothing"]
    assert status == 400
    assert "no deployment plan is installed" in body["error"]["message"]

    for key in ("disabled_get", "disabled_put"):
        status, body = results[key]
        assert status == 503
        assert body["error"]["type"] == "deployments_disabled"
        assert body["error"]["retryable"] is False


# ---------------------------------------------------------------- typed client


def test_client_drives_the_deployment_lifecycle(fresh_registry):
    async def scenario():
        async with serve(fresh_registry) as ctx:
            async with PowerClient(ctx.host, ctx.port) as client:
                view = await client.put_deployment(canary_doc(fraction=0.25))
                assert view["seq"] == 1
                assert (await client.get_deployment())["seq"] == 1

                promoted = await client.promote()
                rule = promoted["plan"]["rules"][0]
                assert promoted["seq"] == 2
                assert rule["model_version"] == 2
                assert "challenger" not in rule

                # Nothing left to roll back → unified envelope, typed error.
                with pytest.raises(PowerAPIError) as rollback_error:
                    await client.rollback()
                # Unknown artifact refs are rejected with their own type.
                with pytest.raises(PowerAPIError) as ghost_error:
                    await client.put_deployment(
                        {
                            "rules": [
                                {
                                    "pattern": "*",
                                    "model": MODEL_NAME,
                                    "model_version": 99,
                                }
                            ]
                        }
                    )
                estimate = await client.estimate("atax")
                return rollback_error.value, ghost_error.value, estimate

    rollback_error, ghost_error, estimate = asyncio.run(scenario())
    assert rollback_error.status == 400
    assert "no canary to roll back" in str(ghost_error) or "no canary" in str(
        rollback_error
    )
    assert ghost_error.error_type == "unknown_artifact"
    assert ghost_error.retryable is False
    # The promoted champion serves the estimate the client just made.
    assert estimate["served_by"]["version"] == 2


# ----------------------------------------------------------------- job pinning


def test_jobs_pin_the_plan_seq_they_started_under(fresh_registry):
    async def scenario():
        async with serve(fresh_registry, jobs=True) as ctx:
            status, early = await ctx.call(
                "POST", "/v1/jobs/explore", {"kernel": "atax", "budget": 0.3}
            )
            assert status == 202

            status, _ = await ctx.call("PUT", "/v1/deployments", canary_doc())
            assert status == 200
            status, late = await ctx.call(
                "POST", "/v1/jobs/explore", {"kernel": "gemm", "budget": 0.3}
            )
            assert status == 202

            async def wait_terminal(job_id):
                deadline = time.monotonic() + 60.0
                while True:
                    _, snapshot = await ctx.call("GET", f"/v1/jobs/{job_id}")
                    if snapshot["state"] in ("succeeded", "failed", "cancelled"):
                        return snapshot
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.05)

            return (
                await wait_terminal(early["job_id"]),
                await wait_terminal(late["job_id"]),
            )

    early, late = asyncio.run(scenario())
    assert early["state"] == "succeeded" and late["state"] == "succeeded"
    # The job submitted before any plan pins "no plan" (0) — it would have
    # kept predicting through the default even if resumed after the publish —
    # while the one submitted after pins the live seq.
    assert early["plan_seq"] == 0
    assert late["plan_seq"] == 1


def test_queued_jobs_keep_the_plan_seq_they_were_submitted_under(fresh_registry):
    """A job pins its plan at submit, not when a runner picks it up: with
    the only runner busy, a job still queued when a plan is published must
    run under the plan that was live at submission ("no plan", 0)."""
    service = build_service(fresh_registry)
    manager = JobManager(service, runners=1, step_delay_s=0.2)
    try:
        busy = manager.submit("atax", budget=0.3)
        queued = manager.submit("gemm", budget=0.3)
        assert manager.get(queued["job_id"])["state"] == "queued"
        service.put_deployment(canary_doc())
        assert service.current_plan_seq() == 1
        first = manager.wait(busy["job_id"], timeout=120)
        second = manager.wait(queued["job_id"], timeout=120)
        assert first["state"] == "succeeded" and second["state"] == "succeeded"
        assert first["plan_seq"] == 0
        assert second["plan_seq"] == 0
        # A job submitted after the publish pins the live seq.
        late = manager.wait(manager.submit("atax", budget=0.3)["job_id"], timeout=120)
        assert late["plan_seq"] == 1
    finally:
        manager.close()
        service.close()


def test_open_exploration_pins_an_explicit_seq(fresh_registry):
    service = build_service(fresh_registry)
    try:
        first = service.put_deployment(canary_doc(fraction=0.25))
        service.promote_deployment()
        assert service.current_plan_seq() == 2

        live = service.open_exploration("atax", 0.3)
        pinned = service.open_exploration("atax", 0.3, plan_seq=first["seq"])
        unplanned = service.open_exploration("atax", 0.3, plan_seq=0)
        assert live.plan_seq == 2
        assert pinned.plan_seq == 1
        assert pinned.plan.rules[0].challenger is not None
        assert unplanned.plan is None and unplanned.plan_seq is None
    finally:
        service.close()


# -------------------------------------------------------------------- cluster


def test_router_deployments_survive_replica_kill(fresh_registry, atax_requests):
    """The full cluster scenario: publish a canary through the router, verify
    the split is the deterministic hash on every replica, SIGKILL a replica,
    and verify the respawned one serves the exact same assignment — then
    promote through the router."""
    spec = ReplicaSpec(
        registry_dir=fresh_registry,
        model_name=MODEL_NAME,
        model_version=1,
        dataset_config=SERVICE_CONFIG,
    )
    payloads = [
        {"kernel": "atax", "directives": directives_to_json(request.directives)}
        for request in atax_requests[:6]
    ]
    manager = ReplicaManager(spec, num_replicas=2)
    manager.start()

    async def scenario():
        router = ClusterRouter(
            manager, config=ClusterConfig(health_interval_s=0.25)
        )
        host, port = await router.start()
        pool = HTTPConnectionPool(host, port)

        async def call(method, path, body=None):
            status, payload = await pool.request_json(method, path, body)
            return status, payload

        async def traffic():
            answers = []
            for payload in payloads:
                status, body = await call("POST", "/v1/estimate", payload)
                assert status == 200
                answers.append(
                    (body["directives"], body["power"], body.get("served_by"))
                )
            return answers

        try:
            status, view = await call("PUT", "/v1/deployments", canary_doc(0.5))
            assert status == 200 and view["seq"] == 1

            first = await traffic()

            # Every replica converges on the published seq (the router's
            # health probes surface it per slot on /v1/cluster).
            deadline = time.monotonic() + 15.0
            while True:
                status, cluster = await call("GET", "/v1/cluster")
                seqs = [
                    replica.get("deployment_seq")
                    for replica in cluster["replicas"].values()
                ]
                if seqs and all(seq == 1 for seq in seqs):
                    break
                assert time.monotonic() < deadline, seqs
                await asyncio.sleep(0.1)

            victim = manager.handles()[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while True:
                status, cluster = await call("GET", "/v1/cluster")
                ready = [
                    replica.get("state") == "ready"
                    for replica in cluster["replicas"].values()
                ]
                if cluster["stats"]["respawns"] >= 1 and all(ready):
                    break
                assert time.monotonic() < deadline, cluster
                await asyncio.sleep(0.2)

            second = await traffic()

            status, promoted = await call("POST", "/v1/deployments/promote", {})
            assert status == 200 and promoted["seq"] == 2
            status, after = await call("POST", "/v1/estimate", payloads[0])
            assert status == 200
            return first, second, after
        finally:
            await pool.aclose()
            await router.aclose()

    try:
        first, second, after = asyncio.run(scenario())
    finally:
        manager.close()

    # The canary assignment is the pure hash of the design point...
    for directives, _, served_by in first:
        expected_role = (
            "challenger" if assign_challenger("atax", directives, 0.5) else "champion"
        )
        assert served_by is not None and served_by["role"] == expected_role
    assert {s["role"] for _, _, s in first} == {"champion", "challenger"}
    # ...and the respawned replica reproduces it bitwise, power and all.
    assert second == first
    # Post-promote, the former challenger serves everything on the rule.
    assert after["served_by"] == {
        "model": MODEL_NAME,
        "version": 2,
        "role": "champion",
    }
