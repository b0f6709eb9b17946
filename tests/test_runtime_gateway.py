"""Gateway tests: async determinism, admission control, shutdown propagation.

The acceptance invariants of the async front end:

* ``AsyncPowerGateway.estimate_many`` results are bitwise-identical to direct
  :class:`~repro.serve.service.PowerEstimationService` calls;
* a 1000-concurrent-request sweep completes without deadlock, with coalescing
  observable in ``runtime_stats``;
* over-limit submissions fast-fail with the typed backpressure error and
  never deadlock the batcher;
* a service closed mid-request drains in-flight calls and fails new ones
  with the typed closed error.

The failure-path tests run against :class:`StubService` — a hand-rolled
service double whose calls block on an event — so saturation and mid-request
shutdown are driven deterministically instead of by racing the real model.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.flow.dataset_gen import DatasetGenerator
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.runtime import RuntimeConfig
from repro.runtime.gateway import (
    AsyncPowerGateway,
    GatewayBackpressureError,
    GatewayClosedError,
)
from repro.serve import EstimateRequest, PowerEstimationService

SWEEP_REQUESTS = 1000


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
def sample_requests(small_dataset):
    """Pre-featurised requests: gateway tests exercise serving, not HLS."""
    return [EstimateRequest.from_sample(s) for s in small_dataset.samples]


def build_service(model, **runtime_kwargs) -> PowerEstimationService:
    runtime = RuntimeConfig(**runtime_kwargs) if runtime_kwargs else None
    return PowerEstimationService(model, generator=DatasetGenerator(), runtime=runtime)


class StubService:
    """Deterministic service double: every call blocks until released."""

    def __init__(self) -> None:
        self.runtime = RuntimeConfig(gateway_max_in_flight=4, gateway_threads=2)
        self.closed = False
        self.release = threading.Event()
        self.calls: list = []
        self._hooks: list = []

    def add_close_hook(self, hook) -> None:
        self._hooks.append(hook)

    def remove_close_hook(self, hook) -> None:
        if hook in self._hooks:
            self._hooks.remove(hook)

    def close(self) -> None:
        self.closed = True
        hooks, self._hooks = self._hooks, []
        for hook in hooks:
            hook()

    def _serve(self, tag, payload):
        self.calls.append(tag)
        if not self.release.wait(timeout=30):
            raise TimeoutError("StubService was never released")
        return payload

    def estimate(self, request):
        return self._serve("estimate", request)

    def estimate_many(self, requests):
        return self._serve("estimate_many", list(requests))


def test_runtime_config_gateway_knobs():
    with pytest.raises(ValueError):
        RuntimeConfig(gateway_max_in_flight=0)
    with pytest.raises(ValueError):
        RuntimeConfig(gateway_threads=0)
    defaults = RuntimeConfig()
    assert defaults.gateway_max_in_flight >= 1
    assert defaults.gateway_threads >= 1


def test_gateway_estimate_many_is_bitwise_identical(served_model, sample_requests):
    """Acceptance: gateway batches return the direct path's exact floats."""
    direct = build_service(served_model).estimate_many(sample_requests)

    async def run():
        async with AsyncPowerGateway(build_service(served_model)) as gateway:
            return await gateway.estimate_many(sample_requests)

    via_gateway = asyncio.run(run())
    assert [r.power for r in via_gateway] == [r.power for r in direct]
    assert [r.directives for r in via_gateway] == [r.directives for r in direct]
    assert [r.model_fingerprint for r in via_gateway] == [
        r.model_fingerprint for r in direct
    ]


@pytest.mark.slow
def test_gateway_thousand_concurrent_estimates(served_model, sample_requests):
    """Acceptance: 1000 concurrent singles complete, coalesced, undeadlocked."""
    direct = build_service(served_model).estimate_many(sample_requests)
    # Keyed by (kernel, directives): every kernel has e.g. a "baseline" point.
    expected = {
        (request.kernel, request.directives_key): response.power
        for request, response in zip(sample_requests, direct)
    }
    requests = [sample_requests[i % len(sample_requests)] for i in range(SWEEP_REQUESTS)]

    async def run():
        service = build_service(
            served_model, coalesce_window_ms=25.0, coalesce_max_batch=16
        )
        async with AsyncPowerGateway(
            service, max_in_flight=2 * SWEEP_REQUESTS, threads=32
        ) as gateway:
            responses = await asyncio.wait_for(
                asyncio.gather(*(gateway.estimate(r) for r in requests)),
                timeout=300,
            )
            stats = gateway.runtime_stats()
        service.close()
        return responses, stats

    responses, stats = asyncio.run(run())
    assert len(responses) == SWEEP_REQUESTS
    assert np.allclose(
        [r.power for r in responses],
        [expected[(r.kernel, r.directives)] for r in responses],
        atol=1e-8,
    )
    coalescer = stats["coalescer"]
    assert coalescer["items"] == SWEEP_REQUESTS
    # Coalescing is observable: far fewer flushes than items, real batches.
    assert coalescer["batches"] < SWEEP_REQUESTS
    assert coalescer["largest_batch"] > 1
    gateway_stats = stats["gateway"]
    assert gateway_stats["submitted"] == SWEEP_REQUESTS
    assert gateway_stats["completed"] == SWEEP_REQUESTS
    assert gateway_stats["in_flight"] == 0
    assert gateway_stats["peak_in_flight"] > 1


def test_backpressure_fast_fails_without_deadlock():
    async def run():
        service = StubService()
        gateway = AsyncPowerGateway(service, max_in_flight=2, threads=2)
        first = asyncio.ensure_future(gateway.estimate("a"))
        second = asyncio.ensure_future(gateway.estimate("b"))
        await asyncio.sleep(0)  # let both submissions claim their slots

        with pytest.raises(GatewayBackpressureError) as excinfo:
            await gateway.estimate("c")
        assert excinfo.value.in_flight == 2
        assert excinfo.value.max_in_flight == 2
        assert excinfo.value.cost == 1
        assert gateway.stats.rejected == 1

        # An over-limit batch is shed by its full cost, not per item.
        with pytest.raises(GatewayBackpressureError):
            await gateway.estimate_many(["d", "e"])
        # A batch bigger than the gateway's whole capacity could never be
        # admitted; that is a plain ValueError, not retryable backpressure.
        with pytest.raises(ValueError, match="split the batch"):
            await gateway.estimate_many(["d", "e", "f"])

        service.release.set()
        assert await first == "a"
        assert await second == "b"
        # The rejection left no residue: capacity is free again.
        assert await gateway.estimate("g") == "g"
        assert gateway.stats.in_flight == 0
        assert gateway.stats.completed == 3
        await gateway.aclose()

    asyncio.run(asyncio.wait_for(run(), timeout=60))


def test_service_closed_mid_request_drains_and_rejects():
    """In-flight calls survive a service close; new submissions fast-fail."""

    async def run():
        service = StubService()
        gateway = AsyncPowerGateway(service, threads=2)
        inflight = asyncio.ensure_future(gateway.estimate("inflight"))
        await asyncio.sleep(0)

        await asyncio.get_running_loop().run_in_executor(None, service.close)
        assert gateway.closed

        with pytest.raises(GatewayClosedError):
            await gateway.estimate("late")
        with pytest.raises(GatewayClosedError):
            await gateway.estimate_many(["late"])

        service.release.set()
        assert await inflight == "inflight"
        await gateway.aclose()

    asyncio.run(asyncio.wait_for(run(), timeout=60))


def test_real_service_close_propagates_to_gateway(served_model, sample_requests):
    async def run():
        service = build_service(served_model)
        gateway = AsyncPowerGateway(service)
        assert (await gateway.estimate(sample_requests[0])).kernel == "atax"
        service.close()
        with pytest.raises(GatewayClosedError):
            await gateway.estimate(sample_requests[0])
        await gateway.aclose()

    asyncio.run(run())


def test_aclose_is_idempotent_and_closes_service():
    async def run():
        service = StubService()
        service.release.set()
        gateway = AsyncPowerGateway(service)
        assert await gateway.estimate("x") == "x"
        await gateway.aclose(close_service=True)
        await gateway.aclose()
        assert service.closed
        # The gateway deregistered itself: a long-lived service must not keep
        # dead front ends reachable through its hook list.
        assert service._hooks == []
        with pytest.raises(GatewayClosedError):
            await gateway.estimate("y")

    asyncio.run(asyncio.wait_for(run(), timeout=60))


def test_cancelled_caller_does_not_corrupt_accounting():
    """A caller timing out must not leak its admission slot."""

    async def run():
        service = StubService()
        gateway = AsyncPowerGateway(service, max_in_flight=2, threads=1)
        blocked = asyncio.ensure_future(gateway.estimate("slow"))
        await asyncio.sleep(0)
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(asyncio.shield(blocked), timeout=0.05)
        # The service call is still running on its thread; the slot is held
        # until it completes, then released exactly once.
        service.release.set()
        assert await blocked == "slow"
        assert gateway.stats.in_flight == 0
        assert gateway.stats.completed == 1
        assert await gateway.estimate("after") == "after"
        await gateway.aclose()

    asyncio.run(asyncio.wait_for(run(), timeout=60))
