"""HTTP front-end tests: JSON round-trips and structured failure paths.

Each test runs a real :class:`~repro.runtime.http.GatewayHTTPServer` on an
ephemeral port inside its own event loop and speaks to it through the
module's stdlib client, so the bytes on the wire are the bytes a curl user
would see.  Failure paths assert the structured ``{"error": {type, message}}``
shape and the status code, never just "it raised".
"""

from __future__ import annotations

import asyncio

import pytest

from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.hls.pragmas import DesignDirectives
from repro.kernels.polybench import polybench_kernel
from repro.runtime.gateway import AsyncPowerGateway
from repro.runtime.http import (
    GatewayHTTPServer,
    directives_from_json,
    directives_to_json,
    request_json,
)
from repro.serve import EstimateRequest, ModelRegistry, PowerEstimationService
from repro.serve.service import EstimateResponse
from test_runtime_gateway import StubService

#: Matches the small_dataset fixture, so directives-based HTTP requests
#: featurise to the exact graphs the fixture samples carry.
SERVICE_CONFIG = DatasetConfig(kernel_size=6, designs_per_kernel=10)


@pytest.fixture(scope="module")
def served_model(small_dataset):
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=12, num_layers=2),
            training=TrainingConfig(epochs=8, batch_size=16),
            ensemble=None,
        )
    ).fit(small_dataset.samples)
    return model


@pytest.fixture(scope="module")
def atax_points():
    """The atax design space, keyed by its human-readable description."""
    generator = DatasetGenerator(SERVICE_CONFIG)
    kernel = polybench_kernel("atax", SERVICE_CONFIG.kernel_size)
    return {d.describe(): d for d in generator.design_space_for(kernel)}


def direct_service(model) -> PowerEstimationService:
    return PowerEstimationService(model, generator=DatasetGenerator(SERVICE_CONFIG))


def serve(model, *, registry=None):
    """Async context: a started server over a fresh gateway; yields helpers."""

    class _Context:
        async def __aenter__(self):
            self.service = direct_service(model)
            self.gateway = AsyncPowerGateway(self.service)
            self.server = GatewayHTTPServer(self.gateway, registry=registry)
            host, port = await self.server.start()

            async def call(method, path, body=None):
                return await request_json(host, port, method, path, body)

            self.call = call
            return self

        async def __aexit__(self, *exc_info):
            await self.server.aclose()
            await self.gateway.aclose()

    return _Context()


class ResponseStub(StubService):
    """Stub whose estimate returns a serialisable response object."""

    def estimate(self, request):
        return self._serve(
            "estimate",
            EstimateResponse(
                kernel="stub",
                directives="baseline",
                power=1.0,
                target="dynamic",
                cached_features=False,
                cached_prediction=False,
                latency_ms=0.0,
                model_fingerprint="stub",
            ),
        )


# ------------------------------------------------------------------ round trips


def test_directives_json_round_trip(atax_points):
    """The wire codec inverts itself for every design point in the space."""
    for directives in atax_points.values():
        assert directives_from_json(directives_to_json(directives)) == directives
    assert directives_from_json(None) == DesignDirectives()
    assert directives_from_json({}) == DesignDirectives()


def test_http_estimate_round_trip(served_model, small_dataset, atax_points):
    sample = next(s for s in small_dataset.samples if s.kernel == "atax")
    direct = direct_service(served_model).estimate(EstimateRequest.from_sample(sample))

    async def run():
        async with serve(served_model) as ctx:
            return await ctx.call(
                "POST",
                "/v1/estimate",
                {
                    "kernel": "atax",
                    "directives": directives_to_json(atax_points[sample.directives]),
                },
            )

    status, payload = asyncio.run(run())
    assert status == 200
    assert payload["kernel"] == "atax"
    assert payload["directives"] == sample.directives
    assert payload["target"] == "dynamic"
    assert payload["model_fingerprint"] == direct.model_fingerprint
    # JSON floats round-trip exactly in Python, so bitwise equality holds
    # across the wire too.
    assert payload["power"] == direct.power


def test_http_estimate_many_matches_direct_bitwise(
    served_model, small_dataset, atax_points
):
    """The batch endpoint returns the direct path's exact floats."""
    atax = [s for s in small_dataset.samples if s.kernel == "atax"]
    direct = direct_service(served_model).estimate_many(
        [EstimateRequest.from_sample(s) for s in atax]
    )

    async def run():
        async with serve(served_model) as ctx:
            body = {
                "requests": [
                    {
                        "kernel": "atax",
                        "directives": directives_to_json(atax_points[s.directives]),
                    }
                    for s in atax
                ]
            }
            return await ctx.call("POST", "/v1/estimate_many", body)

    status, payload = asyncio.run(run())
    assert status == 200
    responses = payload["responses"]
    assert [r["power"] for r in responses] == [r.power for r in direct]
    assert [r["directives"] for r in responses] == [r.directives for r in direct]


def test_explore_json_spells_nan_predictions_as_null():
    """Unsampled exact-frontier designs (NaN prediction) must stay strict JSON."""
    import json
    import math

    from repro.serve.wire import explore_report_to_json
    from repro.serve.service import FrontierDesign

    class _Result:
        num_sampled = 1

    class _Report:
        kernel = "atax"
        budget = 0.4
        adrs = 0.1
        num_candidates = 2
        elapsed_seconds = 0.0
        result = _Result()
        frontier = [
            FrontierDesign(
                kernel="atax",
                directives="baseline",
                latency_cycles=10,
                predicted_power=float("nan"),
                measured_power=0.1,
            )
        ]

    payload = explore_report_to_json(_Report())
    assert payload["frontier"][0]["predicted_power"] is None
    json.dumps(payload, allow_nan=False)  # must not raise
    assert not math.isnan(payload["adrs"])


def test_http_models_lists_registry_index(served_model, tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(served_model, "powergear-dynamic")
    registry.save(served_model, "powergear-dynamic")

    async def run():
        async with serve(served_model, registry=registry) as ctx:
            with_registry = await ctx.call("GET", "/v1/models")
        async with serve(served_model) as ctx:
            without_registry = await ctx.call("GET", "/v1/models")
        return with_registry, without_registry

    (status, payload), (bare_status, bare_payload) = asyncio.run(run())
    assert status == 200
    assert payload["models"] == [
        {"name": "powergear-dynamic", "versions": [1, 2], "latest": 2}
    ]
    assert bare_status == 200
    assert bare_payload == {"models": []}


def test_http_healthz_and_metrics(served_model):
    async def run():
        async with serve(served_model) as ctx:
            health = await ctx.call("GET", "/healthz")
            await ctx.call("POST", "/v1/estimate", {"kernel": "atax"})
            metrics = await ctx.call("GET", "/metrics")
            ctx.service.close()
            closed_health = await ctx.call("GET", "/healthz")
        return health, metrics, closed_health

    (health_status, health), (metrics_status, metrics), (closed_status, closed) = (
        asyncio.run(run())
    )
    assert health_status == 200
    assert health["status"] == "ok"
    assert health["pools"] == {}
    # The supervisor event timeline rides the health payload.
    assert isinstance(health["events"], list)
    assert metrics_status == 200
    assert metrics["service"]["requests"] >= 1
    assert metrics["service"]["designs"] >= 1
    assert metrics["runtime"]["cache"] is not None
    assert metrics["model"]["target"] == "dynamic"
    assert metrics["gateway"]["completed"] >= 1
    # The kernel set's forward counters ride the same endpoint.
    assert metrics["runtime"]["backend"]["forwards"] >= 1
    assert (closed_status, closed) == (503, {"status": "closed"})


def test_http_healthz_reports_degraded_pools(served_model):
    """A pool in post-crash backoff (or retired) turns /healthz degraded —
    still 200, the serial path answers identically — with the supervisor
    snapshot attached; only a closed service is 503."""

    async def run():
        async with serve(served_model) as ctx:
            ctx.service.health = lambda: {
                "status": "degraded",
                "pools": {
                    "featurisation": {
                        "state": "backoff",
                        "restarts": 1,
                        "last_fault": "WorkerCrashError: worker died mid-batch",
                    }
                },
            }
            degraded = await ctx.call("GET", "/healthz")
            # Degraded never blocks traffic: requests still succeed.
            response = await ctx.call("POST", "/v1/estimate", {"kernel": "atax"})
            return degraded, response

    (status, payload), (estimate_status, _) = asyncio.run(run())
    assert status == 200
    assert payload["status"] == "degraded"
    assert payload["pools"]["featurisation"]["state"] == "backoff"
    assert payload["pools"]["featurisation"]["restarts"] == 1
    assert estimate_status == 200


# ---------------------------------------------------------------- failure paths


def test_http_malformed_requests_return_structured_400(served_model):
    async def run():
        async with serve(served_model) as ctx:
            return {
                "bad_json": await ctx.call("POST", "/v1/estimate", None),
                "missing_kernel": await ctx.call("POST", "/v1/estimate", {}),
                "bad_kernel_type": await ctx.call(
                    "POST", "/v1/estimate", {"kernel": 42}
                ),
                "unknown_key": await ctx.call(
                    "POST", "/v1/estimate", {"kernel": "atax", "nope": 1}
                ),
                "loops_not_object": await ctx.call(
                    "POST",
                    "/v1/estimate",
                    {"kernel": "atax", "directives": {"loops": [1, 2]}},
                ),
                "arrays_not_object": await ctx.call(
                    "POST",
                    "/v1/estimate",
                    {"kernel": "atax", "directives": {"arrays": "foo"}},
                ),
                "float_unroll": await ctx.call(
                    "POST",
                    "/v1/estimate",
                    {"kernel": "atax", "directives": {"loops": {"i": {"unroll": 2.5}}}},
                ),
                "oversized_line": await ctx.call(
                    "GET", "/healthz?" + "x" * 70000
                ),
                "bad_unroll": await ctx.call(
                    "POST",
                    "/v1/estimate",
                    {"kernel": "atax", "directives": {"loops": {"i": {"unroll": 0}}}},
                ),
                "typoed_pragma_key": await ctx.call(
                    "POST",
                    "/v1/estimate",
                    {
                        "kernel": "atax",
                        "directives": {"loops": {"i": {"unroll_factor": 2}}},
                    },
                ),
                "typoed_partition_key": await ctx.call(
                    "POST",
                    "/v1/estimate",
                    {"kernel": "atax", "directives": {"arrays": {"A": {"factors": 2}}}},
                ),
                "bad_partition": await ctx.call(
                    "POST",
                    "/v1/estimate",
                    {
                        "kernel": "atax",
                        "directives": {"arrays": {"A": {"kind": "diagonal"}}},
                    },
                ),
                "unknown_kernel": await ctx.call(
                    "POST", "/v1/estimate", {"kernel": "no-such-kernel"}
                ),
                "bad_batch": await ctx.call(
                    "POST", "/v1/estimate_many", {"requests": "not-a-list"}
                ),
            }

    outcomes = asyncio.run(run())
    for name, (status, payload) in outcomes.items():
        assert status == 400, f"{name}: expected 400, got {status} {payload}"
        assert set(payload) == {"error"}, name
        assert payload["error"]["type"] in {"bad_request", "invalid_request"}, name
        assert payload["error"]["message"], name
    assert "unroll" in outcomes["bad_unroll"][1]["error"]["message"]
    assert "unroll_factor" in outcomes["typoed_pragma_key"][1]["error"]["message"]
    assert "no-such-kernel" in outcomes["unknown_kernel"][1]["error"]["message"]


def test_http_routing_errors(served_model):
    async def run():
        async with serve(served_model) as ctx:
            return (
                await ctx.call("GET", "/v1/nope"),
                await ctx.call("GET", "/v1/estimate"),
                await ctx.call("POST", "/healthz"),
            )

    (nf_status, nf), (mna_status, mna), (mna2_status, mna2) = asyncio.run(run())
    assert (nf_status, nf["error"]["type"]) == (404, "not_found")
    assert (mna_status, mna["error"]["type"]) == (405, "method_not_allowed")
    assert (mna2_status, mna2["error"]["type"]) == (405, "method_not_allowed")


def test_http_backpressure_returns_429():
    """A saturated gateway sheds over HTTP as a 429 while the slot-holder wins."""

    async def run():
        stub = ResponseStub()
        gateway = AsyncPowerGateway(stub, max_in_flight=1, threads=1)
        server = GatewayHTTPServer(gateway)
        host, port = await server.start()
        blocked = asyncio.ensure_future(
            request_json(host, port, "POST", "/v1/estimate", {"kernel": "stub"})
        )
        while not stub.calls:  # wait until the first request holds the slot
            await asyncio.sleep(0.01)
        shed_status, shed = await request_json(
            host, port, "POST", "/v1/estimate", {"kernel": "stub"}
        )
        stub.release.set()
        blocked_status, blocked_payload = await blocked
        await server.aclose()
        await gateway.aclose()
        return shed_status, shed, blocked_status, blocked_payload

    shed_status, shed, blocked_status, blocked_payload = asyncio.run(
        asyncio.wait_for(run(), timeout=60)
    )
    assert shed_status == 429
    assert shed["error"]["type"] == "backpressure"
    assert "max_in_flight=1" in shed["error"]["message"]
    assert blocked_status == 200
    assert blocked_payload["power"] == 1.0


def test_http_closed_service_returns_503():
    async def run():
        stub = ResponseStub()
        stub.release.set()
        gateway = AsyncPowerGateway(stub, threads=1)
        server = GatewayHTTPServer(gateway)
        host, port = await server.start()
        stub.close()
        status, payload = await request_json(
            host, port, "POST", "/v1/estimate", {"kernel": "stub"}
        )
        health = await request_json(host, port, "GET", "/healthz")
        await server.aclose()
        await gateway.aclose()
        return status, payload, health

    status, payload, health = asyncio.run(asyncio.wait_for(run(), timeout=60))
    assert status == 503
    assert payload["error"]["type"] == "closed"
    assert health == (503, {"status": "closed"})


def test_gateway_over_already_closed_service_reports_closed():
    """A health check must not advertise a gateway whose service is dead."""

    async def run():
        stub = ResponseStub()
        stub.close()  # closed BEFORE the gateway is constructed
        gateway = AsyncPowerGateway(stub, threads=1)
        assert gateway.closed
        server = GatewayHTTPServer(gateway)
        host, port = await server.start()
        health = await request_json(host, port, "GET", "/healthz")
        await server.aclose()
        await gateway.aclose()
        return health

    health = asyncio.run(asyncio.wait_for(run(), timeout=60))
    assert health == (503, {"status": "closed"})


def test_http_oversized_body_returns_413(served_model):
    async def run():
        async with serve(served_model) as ctx:
            ctx.server.max_body_bytes = 64
            return await ctx.call(
                "POST",
                "/v1/estimate",
                {"kernel": "atax", "directives": {"loops": {"i": {"unroll": 2}}}},
            )

    status, payload = asyncio.run(run())
    assert status == 413
    assert payload["error"]["type"] == "payload_too_large"


def test_http_slow_client_gets_408_and_releases_the_connection():
    async def run():
        stub = ResponseStub()
        stub.release.set()
        gateway = AsyncPowerGateway(stub, threads=1)
        server = GatewayHTTPServer(gateway, read_timeout=0.1)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"POST /v1/estimate HTTP/1.1\r\n")  # never completed
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout=10)
        body = await reader.read()
        writer.close()
        # The server is still healthy for well-behaved clients afterwards.
        health, _ = await request_json(host, port, "GET", "/healthz")
        await server.aclose()
        await gateway.aclose()
        return status_line.decode(), body.decode(), health

    status_line, body, health = asyncio.run(asyncio.wait_for(run(), timeout=60))
    assert "408" in status_line
    assert '"timeout"' in body
    assert health == 200


def test_http_oversized_batch_is_unretryable_400():
    """A batch that can never fit is a client error, not backpressure."""

    async def run():
        stub = ResponseStub()
        stub.release.set()
        gateway = AsyncPowerGateway(stub, max_in_flight=2, threads=1)
        server = GatewayHTTPServer(gateway)
        host, port = await server.start()
        status, payload = await request_json(
            host,
            port,
            "POST",
            "/v1/estimate_many",
            {"requests": [{"kernel": "stub"}] * 3},
        )
        await server.aclose()
        await gateway.aclose()
        return status, payload

    status, payload = asyncio.run(asyncio.wait_for(run(), timeout=60))
    assert status == 400
    assert payload["error"]["type"] == "invalid_request"
    assert "split the batch" in payload["error"]["message"]


def test_http_internal_fault_returns_structured_500():
    async def run():
        # The plain stub answers estimate() with an EstimateRequest, which the
        # response serialiser rejects — an internal fault, not a client error.
        stub = StubService()
        stub.release.set()
        gateway = AsyncPowerGateway(stub, threads=1)
        server = GatewayHTTPServer(gateway)
        host, port = await server.start()
        status, payload = await request_json(
            host, port, "POST", "/v1/estimate", {"kernel": "stub"}
        )
        await server.aclose()
        await gateway.aclose()
        return status, payload

    status, payload = asyncio.run(asyncio.wait_for(run(), timeout=60))
    assert status == 500
    assert payload["error"]["type"] == "internal"
    assert payload["error"]["message"]
