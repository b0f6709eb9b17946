"""Jobs API acceptance over real HTTP: lifecycle, streaming, resume.

Everything here speaks actual bytes to a real server — the same stack a curl
user hits — and pins the PR's acceptance criteria:

* submit → poll → stream → cancel over ``/v1/jobs/...``, with per-iteration
  updates observable *before* the job completes;
* job-mode exploration is bitwise-identical to the direct blocking
  ``service.explore`` (same frontier, same ADRS float), including after a
  mid-job SIGKILL + replica respawn resumes it from the durable checkpoint;
* every failure path (quota, unknown job, disabled tier, validation) wears
  the unified ``{"error": {type, message, retryable}}`` envelope.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.cluster import ReplicaManager, ReplicaSpec
from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.jobs import JobManager
from repro.runtime.config import RuntimeConfig
from repro.runtime.gateway import AsyncPowerGateway
from repro.runtime.http import (
    GatewayHTTPServer,
    request_json,
    request_raw,
    stream_json_lines,
)
from repro.serve import ModelRegistry, PowerEstimationService
from repro.serve.wire import explore_report_to_json

SERVICE_CONFIG = DatasetConfig(kernel_size=6, designs_per_kernel=10)
MODEL_NAME = "jobs-under-test"


@pytest.fixture(scope="module")
def served_model(small_dataset):
    return PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=12, num_layers=2),
            training=TrainingConfig(epochs=8, batch_size=16),
            ensemble=None,
        )
    ).fit(small_dataset.samples)


def stable(result: dict) -> dict:
    """A finished report minus wall-clock (the one legitimately varying field)."""
    return {k: v for k, v in result.items() if k != "elapsed_seconds"}


def serve(model, *, runtime=None, jobs=True, **manager_kwargs):
    """Async context: server (+ optional jobs tier) on an ephemeral port."""

    class _Context:
        async def __aenter__(self):
            self.service = PowerEstimationService(
                model,
                generator=DatasetGenerator(SERVICE_CONFIG),
                runtime=runtime or RuntimeConfig(),
            )
            self.manager = (
                JobManager(self.service, **manager_kwargs) if jobs else None
            )
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

        async def submit(self, body, headers=None):
            return await self.call("POST", "/v1/jobs/explore", body, headers)

        async def wait_terminal(self, job_id, timeout=60.0):
            deadline = time.monotonic() + timeout
            while True:
                status, snapshot = await self.call("GET", f"/v1/jobs/{job_id}")
                assert status == 200
                if snapshot["state"] in ("succeeded", "failed", "cancelled"):
                    return snapshot
                assert time.monotonic() < deadline, f"job stuck: {snapshot}"
                await asyncio.sleep(0.05)

    return _Context()


# ------------------------------------------------------------------ lifecycle


def test_submit_poll_stream_lifecycle_and_bitwise_equality(served_model):
    async def scenario():
        async with serve(served_model) as ctx:
            status, snapshot = await ctx.submit({"kernel": "atax", "budget": 0.5})
            assert status == 202  # accepted, not yet done
            assert snapshot["state"] == "queued"
            assert snapshot["kernel"] == "atax"
            job_id = snapshot["job_id"]
            assert job_id.startswith("atax-")

            # Stream the whole update log over chunked NDJSON.
            streamed = []
            async for update in stream_json_lines(
                ctx.host, ctx.port, f"/v1/jobs/{job_id}/updates?stream=1"
            ):
                streamed.append(update)
            assert [u["seq"] for u in streamed] == list(
                range(1, len(streamed) + 1)
            )
            assert streamed[-1]["event"] == "done"
            assert streamed[-1]["state"] == "succeeded"
            iterations = [u for u in streamed if u["event"] == "iteration"]
            assert iterations and iterations[0]["frontier"]

            final = await ctx.wait_terminal(job_id)
            assert final["state"] == "succeeded"

            # `since` pagination agrees with the stream.
            status, page = await ctx.call(
                "GET", f"/v1/jobs/{job_id}/updates?since={len(streamed) - 1}"
            )
            assert status == 200
            assert [u["seq"] for u in page["updates"]] == [len(streamed)]

            # The acceptance bar: the job's result is bitwise the direct
            # blocking exploration (identical trajectory, frontier, ADRS).
            direct = explore_report_to_json(ctx.service.explore("atax", 0.5))
            assert stable(final["result"]) == stable(direct)

            # The job also shows up in the listing.
            status, listing = await ctx.call("GET", "/v1/jobs")
            assert status == 200
            assert [j["job_id"] for j in listing["jobs"]] == [job_id]

    asyncio.run(scenario())


def test_streamed_updates_arrive_before_completion(served_model):
    async def scenario():
        runtime = RuntimeConfig(job_step_delay_s=0.3)
        async with serve(served_model, runtime=runtime) as ctx:
            _, snapshot = await ctx.submit({"kernel": "atax", "budget": 0.9})
            job_id = snapshot["job_id"]
            stream = stream_json_lines(
                ctx.host, ctx.port, f"/v1/jobs/{job_id}/updates?stream=1"
            )
            first = await anext(stream)
            assert first["event"] == "iteration"
            # The stream handed us an iteration while the job is still live.
            _, mid = await ctx.call("GET", f"/v1/jobs/{job_id}")
            assert mid["state"] in ("queued", "running")
            async for update in stream:  # drain to completion
                last = update
            assert last["event"] == "done"
            final = await ctx.wait_terminal(job_id)
            assert final["state"] == "succeeded"

    asyncio.run(scenario())


def test_cancel_mid_flight_over_http(served_model):
    async def scenario():
        runtime = RuntimeConfig(job_step_delay_s=0.3)
        async with serve(served_model, runtime=runtime) as ctx:
            _, snapshot = await ctx.submit({"kernel": "atax", "budget": 0.9})
            job_id = snapshot["job_id"]
            # Wait for the first iteration (long-poll), then cancel.
            status, payload = await ctx.call(
                "GET", f"/v1/jobs/{job_id}/updates?since=0&wait=30"
            )
            assert status == 200 and payload["updates"]
            status, cancelled = await ctx.call(
                "POST", f"/v1/jobs/{job_id}/cancel", {}
            )
            assert status == 200
            final = await ctx.wait_terminal(job_id)
            assert final["state"] == "cancelled"
            assert final["result"] is None
            _, log = await ctx.call("GET", f"/v1/jobs/{job_id}/updates")
            assert log["updates"][-1] == {
                "seq": log["next_since"],
                "event": "done",
                "state": "cancelled",
            }

    asyncio.run(scenario())


# ------------------------------------------------------------ error envelopes


def test_quota_rejection_is_typed_backpressure(served_model):
    async def scenario():
        runtime = RuntimeConfig(job_step_delay_s=0.5, max_jobs_per_client=1)
        async with serve(served_model, runtime=runtime) as ctx:
            alice = {"X-Client-ID": "alice"}
            status, first = await ctx.submit(
                {"kernel": "atax", "budget": 0.9}, headers=alice
            )
            assert status == 202 and first["client"] == "alice"
            status, envelope = await ctx.submit(
                {"kernel": "atax", "budget": 0.9}, headers=alice
            )
            assert status == 429
            assert envelope["error"]["type"] == "job_quota"
            assert envelope["error"]["retryable"] is True
            assert "alice" in envelope["error"]["message"]
            # The quota is per client: bob (via the body field) is admitted.
            status, second = await ctx.submit(
                {"kernel": "atax", "budget": 0.9, "client": "bob"}
            )
            assert status == 202 and second["client"] == "bob"
            for job_id in (first["job_id"], second["job_id"]):
                await ctx.call("POST", f"/v1/jobs/{job_id}/cancel", {})
                await ctx.wait_terminal(job_id)

    asyncio.run(scenario())


def test_unknown_job_is_404_envelope_everywhere(served_model):
    async def scenario():
        async with serve(served_model) as ctx:
            for method, path in (
                ("GET", "/v1/jobs/atax-deadbeef"),
                ("GET", "/v1/jobs/atax-deadbeef/updates"),
                ("POST", "/v1/jobs/atax-deadbeef/cancel"),
            ):
                status, envelope = await ctx.call(
                    method, path, {} if method == "POST" else None
                )
                assert status == 404, path
                assert envelope["error"]["type"] == "job_not_found"
                assert envelope["error"]["retryable"] is False
            # The stream flavour refuses with the same envelope (no chunked
            # head is committed for a job that doesn't exist).
            from repro.runtime.errors import HTTPError

            with pytest.raises(HTTPError) as excinfo:
                async for _ in stream_json_lines(
                    ctx.host, ctx.port, "/v1/jobs/atax-deadbeef/updates?stream=1"
                ):
                    pass
            assert excinfo.value.status == 404

    asyncio.run(scenario())


def test_jobs_disabled_is_503_envelope(served_model):
    async def scenario():
        async with serve(served_model, jobs=False) as ctx:
            status, envelope = await ctx.submit({"kernel": "atax", "budget": 0.5})
            assert status == 503
            assert envelope["error"]["type"] == "jobs_disabled"
            assert envelope["error"]["retryable"] is False
            status, envelope = await ctx.call("GET", "/v1/jobs")
            assert status == 503

    asyncio.run(scenario())


def test_submit_validation_envelopes(served_model):
    async def scenario():
        async with serve(served_model) as ctx:
            status, envelope = await ctx.submit({})
            assert status == 400 and envelope["error"]["type"] == "bad_request"
            status, envelope = await ctx.submit(
                {"kernel": "atax", "budget": 0.5, "dse_config": {"seed": 1}}
            )
            assert status == 400
            for budget in (True, "lots"):  # bool_budget, bad_budget
                status, envelope = await ctx.submit({"kernel": "atax", "budget": budget})
                assert status == 400 and envelope["error"]["type"] == "bad_request"
            status, envelope = await ctx.call(
                "GET", "/v1/jobs/atax-deadbeef/updates?since=-1"
            )
            assert status == 400
            # Wrong method on a known path: 405 with the envelope.  (Not
            # /v1/jobs/explore: as a GET that legitimately matches the
            # /v1/jobs/{job_id} pattern and is a 404 unknown job.)
            status, envelope = await ctx.call("GET", "/v1/estimate")
            assert status == 405
            assert envelope["error"]["type"] == "method_not_allowed"

    asyncio.run(scenario())


# ------------------------------------------------------- discovery and metrics


def test_routes_table_is_machine_readable(served_model):
    async def scenario():
        async with serve(served_model) as ctx:
            status, payload = await ctx.call("GET", "/v1/routes")
            assert status == 200 and payload["version"] == "v1"
            by_path = {
                (r["method"], r["path"]): r for r in payload["routes"]
            }
            # Exploration is served by the jobs API alone.
            assert [
                route for route in by_path if route[1].endswith("/explore")
            ] == [("POST", "/v1/jobs/explore")]
            assert ("GET", "/v1/jobs/{job_id}/updates") in by_path
            assert ("POST", "/v1/jobs/{job_id}/cancel") in by_path

    asyncio.run(scenario())


def test_metrics_export_job_states(served_model):
    async def scenario():
        async with serve(served_model) as ctx:
            _, snapshot = await ctx.submit({"kernel": "atax", "budget": 0.5})
            await ctx.wait_terminal(snapshot["job_id"])
            status, metrics = await ctx.call("GET", "/metrics")
            assert status == 200
            assert metrics["jobs"]["by_state"] == {"succeeded": 1}
            assert metrics["jobs"]["durable"] is False
            status, headers, text = await request_raw(
                ctx.host, ctx.port, "GET", "/metrics", None,
                {"Accept": "text/plain"},
            )
            assert status == 200
            body = text.decode()
            assert 'repro_jobs{state="succeeded"} 1' in body
            assert "repro_job_transitions_total" in body

    asyncio.run(scenario())


# --------------------------------------------------- SIGKILL + restart resume


@pytest.mark.slow
def test_sigkill_respawn_resumes_job_bitwise(small_dataset, tmp_path, served_model):
    """Kill -9 a replica mid-exploration; the respawned process resumes the
    job from its durable checkpoint and finishes with a final report bitwise
    equal to the uninterrupted direct run."""
    registry_dir = tmp_path / "registry"
    ModelRegistry(registry_dir).save(served_model, MODEL_NAME)
    jobs_dir = tmp_path / "jobs"
    spec = ReplicaSpec(
        registry_dir=registry_dir,
        model_name=MODEL_NAME,
        dataset_config=SERVICE_CONFIG,
        runtime=RuntimeConfig(jobs_dir=jobs_dir, job_step_delay_s=0.5),
    )

    # The uninterrupted reference, computed in-process from the same artifact.
    reference_service, _ = spec.build_service()
    try:
        reference = explore_report_to_json(reference_service.explore("atax", 0.9))
    finally:
        reference_service.close()

    async def scenario():
        manager = ReplicaManager(spec, num_replicas=1)
        manager.start()
        try:
            handle = manager.handles()[0]
            host, port = "127.0.0.1", handle.port
            status, snapshot = await request_json(
                host, port, "POST", "/v1/jobs/explore",
                {"kernel": "atax", "budget": 0.9},
            )
            assert status == 202
            job_id = snapshot["job_id"]

            # Let it checkpoint at least one iteration, then kill -9.
            status, payload = await request_json(
                host, port, "GET", f"/v1/jobs/{job_id}/updates?since=0&wait=30"
            )
            assert status == 200 and payload["updates"]
            os.kill(handle.pid, signal.SIGKILL)

            respawned = manager.respawn(handle.replica_id)
            port = respawned.port

            # The fresh process found the checkpoint and resumed the job.
            deadline = time.monotonic() + 120
            while True:
                status, snapshot = await request_json(
                    host, port, "GET", f"/v1/jobs/{job_id}"
                )
                assert status == 200, snapshot
                if snapshot["state"] in ("succeeded", "failed", "cancelled"):
                    break
                assert time.monotonic() < deadline, f"job stuck: {snapshot}"
                await asyncio.sleep(0.2)

            assert snapshot["state"] == "succeeded"
            assert snapshot["resumes"] == 1
            assert stable(snapshot["result"]) == stable(reference)

            # The stitched update log is still seq-contiguous.
            status, log = await request_json(
                host, port, "GET", f"/v1/jobs/{job_id}/updates"
            )
            seqs = [u["seq"] for u in log["updates"]]
            assert seqs == list(range(1, len(seqs) + 1))
        finally:
            manager.close()

    asyncio.run(scenario())
