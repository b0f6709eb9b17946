"""Jobs demo: design-space exploration as an async job, end to end.

The script trains a small PowerGear, serves it through the gateway HTTP
server with the jobs tier mounted, and then drives the versioned jobs API
with the typed :class:`~repro.client.PowerClient`:

1. ``POST /v1/jobs/explore`` — submit an exploration (``202`` + job id);
2. ``GET /v1/jobs/{id}/updates`` — follow the per-iteration updates live
   (frontier growth, sampling progress) while the job runs;
3. ``GET /v1/jobs/{id}`` — the final snapshot with the Pareto frontier;
4. a second job, cancelled mid-flight;
5. quota backpressure — submissions past the per-client limit fail with the
   retryable ``429 job_quota`` envelope.

Run with:  python examples/jobs_demo.py
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro import DatasetConfig, DatasetGenerator, PowerGear, PowerGearConfig
from repro.client import PowerAPIError, PowerClient
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.jobs import JobManager
from repro.runtime.config import RuntimeConfig
from repro.runtime.gateway import AsyncPowerGateway
from repro.runtime.http import GatewayHTTPServer
from repro.serve.service import PowerEstimationService

DATASET = DatasetConfig(kernel_size=6, designs_per_kernel=10)


def train() -> PowerGear:
    dataset = DatasetGenerator(DATASET).generate(["atax"])
    config = PowerGearConfig(
        target="dynamic",
        gnn=GNNConfig(hidden_dim=12, num_layers=2),
        training=TrainingConfig(epochs=6, batch_size=16),
        ensemble=None,
    )
    return PowerGear(config).fit(dataset.samples)


async def main() -> None:
    model = train()
    with tempfile.TemporaryDirectory() as tmp:
        service = PowerEstimationService(
            model,
            generator=DatasetGenerator(DATASET),
            runtime=RuntimeConfig(
                jobs_dir=Path(tmp) / "jobs",
                max_jobs_per_client=2,
                # Slow the explorer slightly so the demo can watch a job
                # mid-flight (and cancel one) deterministically.
                job_step_delay_s=0.2,
            ),
        )
        manager = JobManager(service, store=Path(tmp) / "jobs")
        gateway = AsyncPowerGateway(service, jobs=manager)
        server = GatewayHTTPServer(gateway)
        host, port = await server.start()
        print(f"serving on {host}:{port}\n")

        async with PowerClient(host, port, client_id="demo") as client:
            print("routes (from GET /v1/routes):")
            for route in await client.routes():
                print(f"  {route['method']:<5} {route['path']}")

            print("\nsubmitting an exploration job for atax ...")
            job = await client.submit_explore("atax", budget=0.4)
            print(f"  job {job['job_id']} state={job['state']}")

            async for update in client.iter_updates(job["job_id"]):
                if update["event"] == "iteration":
                    print(
                        f"  iter {update['iteration']}: "
                        f"sampled={update['sampled']} "
                        f"frontier={update['frontier_size']}"
                    )
                else:
                    print(f"  done: state={update['state']}")

            final = await client.job(job["job_id"])
            frontier = final["result"]["frontier"]
            print(
                f"  finished: adrs={final['result']['adrs']:.4f}, "
                f"{len(frontier)} frontier designs"
            )

            print("\ncancelling a job mid-flight:")
            victim = await client.submit_explore("atax", budget=0.9)
            await asyncio.sleep(0.3)  # let it start iterating
            cancelled = await client.cancel(victim["job_id"])
            final = await client.wait(victim["job_id"])
            print(
                f"  job {victim['job_id']}: {cancelled['state']} -> "
                f"{final['state']} after seq {final['seq']}"
            )

            print("\nquota backpressure (max_jobs_per_client=2):")
            held = [
                await client.submit_explore("atax", budget=0.4) for _ in range(2)
            ]
            try:
                await client.submit_explore("atax", budget=0.4)
            except PowerAPIError as error:
                print(
                    f"  rejected: {error.status} {error.error_type} "
                    f"(retryable={error.retryable})"
                )
            for snapshot in held:
                await client.cancel(snapshot["job_id"])
                await client.wait(snapshot["job_id"])

        await server.aclose(close_gateway=True)
        print("\ndone.")


if __name__ == "__main__":
    asyncio.run(main())
